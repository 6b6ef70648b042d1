//! Drives a job mix through `cos_core`'s public front doors: closed-loop
//! `BatchEngine` rounds, and a `ServiceCore` loaded with the mix and fed
//! an open-loop arrival schedule. Shared by the timed runs and the traced
//! run.

use cos_core::engine::{
    BatchEngine, ControlId, EngineConfig, JobOutcome, JobResult, PayloadId, SessionId, SessionPool,
};
use std::time::Instant;

use cos_core::service::{ServiceCore, ServiceJobKind, ServiceResult};

use crate::report::RunResult;
use crate::workload::{Arrival, JobKind, JobMix};

/// A job mix loaded into a session pool and an engine.
pub struct EngineState {
    pub pool: SessionPool,
    pub engine: BatchEngine,
    pub ids: Vec<SessionId>,
    pub kinds: Vec<JobKind>,
    payloads: Vec<PayloadId>,
    controls: Vec<ControlId>,
    /// `(session, payload length)` of every job submitted this round, in
    /// submit order.
    pub submitted: Vec<(SessionId, usize)>,
    pub out: Vec<JobOutcome>,
}

impl EngineState {
    pub fn build(mix: &JobMix, threads: usize) -> EngineState {
        let mut pool = SessionPool::with_capacity(mix.sessions.len());
        let mut engine = BatchEngine::new(EngineConfig { threads });
        let ids = mix
            .sessions
            .iter()
            .map(|s| pool.create(s.config.clone(), s.seed))
            .collect();
        let payloads = mix.payloads.iter().map(|p| engine.add_payload(p)).collect();
        let controls = mix.controls.iter().map(|c| engine.add_control(c)).collect();
        EngineState {
            pool,
            engine,
            ids,
            kinds: mix.sessions.iter().map(|s| s.kind).collect(),
            payloads,
            controls,
            submitted: Vec::with_capacity(mix.sessions.len()),
            out: Vec::with_capacity(mix.sessions.len()),
        }
    }

    /// Queues one control message on every resilient or adaptive session
    /// whose ARQ backlog ran dry, so those jobs always carry control.
    pub fn top_up(&mut self, mix: &JobMix, round: usize) {
        for (i, (&id, &kind)) in self.ids.iter().zip(&self.kinds).enumerate() {
            let session = self.pool.get_mut(id).expect("live session");
            let bits = &mix.controls[mix.control_for(i, round)];
            match kind {
                JobKind::Resilient if session.arq_backlog() == 0 => {
                    session.queue_control(bits.clone())
                }
                JobKind::Adaptive if session.adaptive_backlog() == 0 => {
                    session.queue_adaptive_control(bits.clone())
                }
                _ => {}
            }
        }
    }

    /// Submits one job per session for `round`.
    pub fn submit_round(&mut self, mix: &JobMix, round: usize) {
        self.submitted.clear();
        for (i, (&id, &kind)) in self.ids.iter().zip(&self.kinds).enumerate() {
            let p = mix.payload_for(i, round);
            match kind {
                JobKind::Plain => self.engine.submit(
                    id,
                    self.payloads[p],
                    self.controls[mix.control_for(i, round)],
                ),
                JobKind::Resilient => self.engine.submit_resilient(id, self.payloads[p]),
                JobKind::Adaptive => self.engine.submit_adaptive(id, self.payloads[p]),
            }
            self.submitted.push((id, mix.payloads[p].len()));
        }
    }

    pub fn drain(&mut self) {
        self.engine.drain_into(&mut self.pool, &mut self.out);
    }

    /// Checks the drained round: exactly one outcome per job, in submit
    /// order, none on a stale handle.
    pub fn check_round(&self, round: usize, result: &mut RunResult) {
        result.check(self.out.len() == self.submitted.len(), || {
            format!(
                "round {round}: {} outcomes for {} jobs",
                self.out.len(),
                self.submitted.len()
            )
        });
        for (k, (o, &(id, _))) in self.out.iter().zip(&self.submitted).enumerate() {
            result.check(o.session == id, || {
                format!("round {round}: outcome {k} out of submit order")
            });
            result.check(!matches!(o.result, JobResult::StaleSession), || {
                format!("round {round}: job {k} ran on a stale session")
            });
        }
    }

    /// Releases and recreates the sessions `mix` churns after `round`.
    pub fn churn(&mut self, mix: &JobMix, round: usize) {
        for slot in mix.churned(round) {
            assert!(
                self.pool.release(self.ids[slot]),
                "live handle released cleanly"
            );
            let spec = mix.replacement(slot, round);
            self.ids[slot] = self.pool.create(spec.config, spec.seed);
            self.kinds[slot] = spec.kind;
        }
    }
}

/// Session handles and table ids of a job mix loaded into a
/// [`ServiceCore`].
pub struct ServiceTables {
    pub ids: Vec<SessionId>,
    pub kinds: Vec<JobKind>,
    pub payloads: Vec<PayloadId>,
    pub controls: Vec<ControlId>,
}

impl ServiceTables {
    /// Creates the mix's sessions and tables in `core`, and queues
    /// `arq_messages[i]` control messages on session `i` when it is
    /// resilient or adaptive.
    pub fn load(core: &mut ServiceCore, mix: &JobMix, arq_messages: &[usize]) -> ServiceTables {
        let ids: Vec<SessionId> = mix
            .sessions
            .iter()
            .map(|s| core.create_session(s.config.clone(), s.seed))
            .collect();
        let payloads = mix.payloads.iter().map(|p| core.add_payload(p)).collect();
        let controls = mix.controls.iter().map(|c| core.add_control(c)).collect();
        for (i, (&id, spec)) in ids.iter().zip(&mix.sessions).enumerate() {
            let session = core.pool_mut().get_mut(id).expect("live session");
            for m in 0..arq_messages[i] {
                let bits = mix.controls[mix.control_for(i, m)].clone();
                match spec.kind {
                    JobKind::Resilient => session.queue_control(bits),
                    JobKind::Adaptive => session.queue_adaptive_control(bits),
                    JobKind::Plain => {}
                }
            }
        }
        ServiceTables {
            ids,
            kinds: mix.sessions.iter().map(|s| s.kind).collect(),
            payloads,
            controls,
        }
    }

    pub fn kind(&self, session: usize, control: usize) -> ServiceJobKind {
        match self.kinds[session] {
            JobKind::Plain => ServiceJobKind::Plain(self.controls[control]),
            JobKind::Resilient => ServiceJobKind::Resilient,
            JobKind::Adaptive => ServiceJobKind::Adaptive,
        }
    }
}

/// A call [`open_loop`] makes into the service core.
#[derive(Debug, Clone, Copy)]
pub enum CoreCall {
    Submit,
    Pump,
}

/// What an open-loop run of a service core saw.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Arrival index of every admitted ticket, in ticket order.
    pub admitted: Vec<usize>,
    /// Arrivals the front door refused.
    pub refused: Vec<usize>,
    /// Per ticket: how the job resolved, and when (seconds from the
    /// schedule's start) its outcome was first observed.
    pub results: Vec<Option<ServiceResult>>,
    pub observed_s: Vec<f64>,
    /// Per arrival: how late it was submitted, in seconds.
    pub late_s: Vec<f64>,
    /// Per resolved job: pump ticks from admission to resolution.
    pub wait_ticks: Vec<u64>,
    /// Queue depth before each pump.
    pub queue_depth: Vec<usize>,
    /// Tickets handed out of admission order, or resolved twice.
    pub anomalies: Vec<String>,
}

/// Drives `core` from this one thread through `schedule`: each arrival
/// is submitted when due, the core pumps whenever work is pending, and
/// the thread spins while idle (a sleeping thread wakes late on a loaded
/// host, and that lateness would read as latency). Every outcome is
/// stamped when first observed; `on_call` sees each call's id, start and
/// end.
pub fn open_loop(
    core: &mut ServiceCore,
    tables: &ServiceTables,
    schedule: &[Arrival],
    mut on_call: impl FnMut(CoreCall, u32, Instant, Instant),
) -> OpenLoop {
    let origin = Instant::now();
    let mut r = OpenLoop::default();
    let mut admit_tick = Vec::new();
    let mut outcomes = Vec::new();
    let mut next = 0;
    loop {
        let now = origin.elapsed().as_secs_f64();
        if next < schedule.len() && schedule[next].due_s <= now {
            let a = &schedule[next];
            r.late_s.push(now - a.due_s);
            let kind = tables.kind(a.session, a.control);
            let t0 = Instant::now();
            let res = core.try_submit(tables.ids[a.session], tables.payloads[a.payload], kind);
            on_call(CoreCall::Submit, next as u32, t0, Instant::now());
            match res {
                Ok(ticket) => {
                    if ticket.value() as usize != r.admitted.len() {
                        r.anomalies
                            .push(format!("ticket {} out of admission order", ticket.value()));
                    }
                    r.admitted.push(next);
                    admit_tick.push(core.tick());
                    r.results.push(None);
                    r.observed_s.push(f64::NAN);
                }
                Err(_) => r.refused.push(next),
            }
            next += 1;
        } else if core.work_pending() {
            r.queue_depth.push(core.queue_depth());
            let t0 = Instant::now();
            core.pump();
            on_call(CoreCall::Pump, core.tick() as u32, t0, Instant::now());
            core.take_outcomes(&mut outcomes);
            let seen = origin.elapsed().as_secs_f64();
            for o in outcomes.drain(..) {
                let t = o.ticket.value() as usize;
                match r.results.get_mut(t) {
                    Some(slot @ None) => {
                        *slot = Some(o.result);
                        r.observed_s[t] = seen;
                        r.wait_ticks.push(core.tick() - admit_tick[t]);
                    }
                    _ => r
                        .anomalies
                        .push(format!("ticket {t} resolved twice or never admitted")),
                }
            }
        } else if next == schedule.len() {
            break;
        } else {
            std::hint::spin_loop();
        }
    }
    r
}
