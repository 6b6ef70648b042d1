//! The overload-safe service layer: an async ingress in front of the
//! sync [`BatchEngine`].
//!
//! `BatchEngine` (PR 5) is a deterministic batch front door: whoever owns
//! it submits jobs and drains them. This module is the layer that lets it
//! *serve*: callers submit from anywhere, the service decides what gets
//! in, when it runs, and what happens when it misbehaves. Four
//! guarantees, each with an injected-fault proof (`gate service` and
//! `crates/core/tests/service_invariants.rs`):
//!
//! * **Admission control** — a bounded submit queue plus per-session and
//!   global in-flight quotas. Overload is answered with a typed
//!   [`Rejected`] at the front door instead of unbounded queueing;
//!   rejected work never consumes engine capacity.
//! * **Backpressure + deadlines** — queued jobs carry an admission tick;
//!   jobs that out-wait `deadline_ticks` resolve as
//!   [`ServiceResult::Expired`] without ever reaching the engine. The
//!   service-level retry budget applies **only** to jobs that failed
//!   before reaching the engine (injected poison/stall faults) — a frame
//!   the engine completed is never re-sent, so service retries compose
//!   with the per-message [`ControlArq`](crate::resilience::ControlArq)
//!   instead of double-retrying control traffic.
//! * **Failure containment** — a watchdog quarantines jobs whose worker
//!   stalls past `stall_ticks` and poison jobs that exhaust their retry
//!   budget into a bounded dead-letter queue; the owning session's later
//!   jobs keep flowing (per-session order preserved, shard never
//!   wedged). Sustained faults degrade the service through the PR 2
//!   [`DegradedModeController`]: while degraded, admission capacity
//!   shrinks ([`SHED_DIVISOR`]) so load is shed at the door, and a healthy
//!   probe tick restores full capacity.
//! * **Deterministic replay** — with journaling enabled, every
//!   state-changing call (session create/release, table registration,
//!   admission, cancellation, fault injection, pump, drain) is recorded
//!   as an event. Replaying the journal offline through a fresh
//!   [`ServiceCore`] reproduces the live run's outcome digest
//!   **bit-exactly at any engine thread count** — the determinism
//!   contract of `docs/DETERMINISM.md` extended across the async
//!   boundary (see [`journal`]).
//!
//! # Architecture
//!
//! The deterministic brain is [`ServiceCore`]: a tick-driven state
//! machine (one [`pump`](ServiceCore::pump) = one tick = one engine
//! drain) with no clocks and no RNG, so the same call sequence always
//! produces the same outcomes. [`CosService`] is the live front:
//! a worker thread pumps the core, callers submit concurrently through
//! the admission lock, and a wall-clock watchdog thread counts
//! heartbeat stalls of the worker itself. Everything nondeterministic
//! about a live run (how many pumps landed between two admissions) is
//! *recorded* in the journal, which is what makes offline replay exact.

pub mod journal;

use crate::engine::{
    check_control_bits, check_payload_len, BatchEngine, ControlId, EngineConfig, JobResult,
    PayloadId, SessionId, SessionPool,
};
use crate::resilience::{DegradedModeController, LinkMode, PacketObservation};
use crate::session::SessionConfig;
use journal::{JournalEvent, OutcomeDigest, ReplayJournal};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Admission ticket: the position of an accepted job in the global
/// admission order. Tickets are dense and strictly increasing — the
/// replay journal leans on both properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(pub(crate) u64);

impl Ticket {
    /// The raw admission sequence number.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Why the front door refused a submission. Returned synchronously from
/// [`ServiceCore::try_submit`] — the caller learns *immediately* that it
/// must back off, instead of the job silently joining an unbounded queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The submit queue (or the global in-flight cap) is full. `capacity`
    /// is the limit in force — smaller than the configured capacity while
    /// the service is degraded and shedding load.
    QueueFull {
        /// Queue capacity currently in force.
        capacity: usize,
    },
    /// The session already has `quota` jobs in flight.
    SessionQuota {
        /// The per-session in-flight quota.
        quota: usize,
    },
    /// The service is draining: it finishes admitted work but accepts no
    /// more.
    Draining,
}

pub use crate::engine::JobKind as ServiceJobKind;

/// Why a job was quarantined to the dead-letter queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The job failed (injected poison) on every attempt of its retry
    /// budget.
    Poison,
    /// The worker processing the job stalled past `stall_ticks`; the
    /// watchdog reclaimed the shard.
    WatchdogStall,
}

impl QuarantineReason {
    /// Stable label for CSV/JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            QuarantineReason::Poison => "poison",
            QuarantineReason::WatchdogStall => "watchdog_stall",
        }
    }
}

/// How an admitted job resolved. Every accepted ticket resolves exactly
/// once — the zero-loss/zero-duplication invariant the property tests and
/// the `gate service` entry check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceResult {
    /// The job ran through the engine.
    Completed(JobResult),
    /// The job out-waited its deadline in the queue and was never
    /// dispatched.
    Expired,
    /// The job was quarantined to the dead-letter queue.
    Quarantined(QuarantineReason),
    /// The job was cancelled while still queued.
    Cancelled,
}

/// One resolved job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceOutcome {
    /// The admission ticket.
    pub ticket: Ticket,
    /// The session the job was submitted for.
    pub session: SessionId,
    /// How it resolved.
    pub result: ServiceResult,
}

/// A quarantined job, parked in the bounded dead-letter queue for
/// offline inspection instead of wedging its shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadLetter {
    /// The admission ticket.
    pub ticket: Ticket,
    /// The session the job was submitted for.
    pub session: SessionId,
    /// Dispatch attempts consumed before quarantine.
    pub attempts: u32,
    /// Why it was quarantined.
    pub reason: QuarantineReason,
    /// The tick at which the quarantine fired.
    pub tick: u64,
}

/// An injected service-layer fault, for chaos proofs: faults model the
/// *worker*, not the channel (the channel has its own fault engine,
/// `cos_channel::impairment`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceFault {
    /// Every dispatch attempt of the ticket fails before reaching the
    /// engine.
    Poison,
    /// The first dispatch of the ticket stalls its worker for this many
    /// ticks (simulated hang before the engine call).
    Stall(u32),
}

/// The deterministic fault schedule [`ServiceCore::inject_poison`] and
/// [`ServiceCore::inject_stall`] fill, keyed by admission ticket. Poison
/// entries persist across retries; stall entries fire once.
#[derive(Debug, Clone, Default)]
struct FaultPlan {
    poison: BTreeSet<u64>,
    stalls: BTreeMap<u64, u32>,
}

impl FaultPlan {
    fn classify(&mut self, ticket: u64) -> Option<ServiceFault> {
        if self.poison.contains(&ticket) {
            return Some(ServiceFault::Poison);
        }
        self.stalls.remove(&ticket).map(ServiceFault::Stall)
    }
}

/// While the service's health controller is degraded, the effective
/// queue capacity is `queue_capacity / SHED_DIVISOR` (load shedding).
pub const SHED_DIVISOR: usize = 4;

/// Wall-clock patience of the live watchdog thread ([`CosService`] only;
/// no effect on determinism), in milliseconds.
pub const WALL_PATIENCE_MS: u64 = 250;

/// Service tuning. Defaults are the SLO table of
/// `docs/ROBUSTNESS.md` ("Service-layer guarantees"). The service-level
/// health controller is a [`DegradedModeController`] with the
/// resilience layer's constants. [`ServiceConfig::validate`] holds the
/// one rule set for its values.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bounded submit-queue capacity; the hard memory bound of the
    /// ingress.
    pub queue_capacity: usize,
    /// Per-session in-flight cap (admitted and unresolved).
    pub session_quota: usize,
    /// Global in-flight cap across all sessions.
    pub max_inflight: usize,
    /// Ticks a queued job may wait before expiring; 0 disables deadlines.
    pub deadline_ticks: u64,
    /// Failed dispatch attempts (service-level faults only) a job may
    /// retry before quarantine. Retries back off exponentially
    /// (1, 2, 4, … ticks, capped at [`Self::retry_backoff_cap`]).
    pub retry_budget: u32,
    /// Upper clamp on the retry backoff, in ticks.
    pub retry_backoff_cap: u64,
    /// Watchdog patience: a worker stalled for more than this many ticks
    /// has its job quarantined and its shard reclaimed.
    pub stall_ticks: u64,
    /// Bounded dead-letter queue capacity (oldest entries are dropped,
    /// and counted, beyond it).
    pub dead_letter_capacity: usize,
    /// Jobs dispatched to the engine per pump — the batching knob that
    /// turns queue depth into backpressure.
    pub batch_limit: usize,
    /// Inner engine tuning (worker threads per drain).
    pub engine: EngineConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 256,
            session_quota: 8,
            max_inflight: 1024,
            deadline_ticks: 64,
            retry_budget: 3,
            retry_backoff_cap: 8,
            stall_ticks: 4,
            dead_letter_capacity: 64,
            batch_limit: 64,
            engine: EngineConfig { threads: 0 },
        }
    }
}

impl ServiceConfig {
    /// The one rule per field: `Err` names the first field outside its
    /// domain. [`ServiceCore::new`] and [`ServiceCore::with_journal`]
    /// panic on it; the journal's reader rejects it. A zero capacity,
    /// quota or in-flight cap would refuse every job; a zero
    /// `batch_limit` would dispatch none, so a drain would never finish.
    pub fn validate(&self) -> Result<(), &'static str> {
        let checks = [
            (self.queue_capacity >= 1, "queue_capacity"),
            (self.session_quota >= 1, "session_quota"),
            (self.max_inflight >= 1, "max_inflight"),
            (self.batch_limit >= 1, "batch_limit"),
        ];
        match checks.into_iter().find(|&(ok, _)| !ok) {
            Some((_, field)) => Err(field),
            None => Ok(()),
        }
    }
}

/// Monotonic service counters. Everything needed to verify the
/// zero-loss ledger: `admitted == completed + expired + cancelled +
/// quarantined_poison + quarantined_stall` once drained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Tickets issued.
    pub admitted: u64,
    /// Submissions refused: queue/global capacity.
    pub rejected_queue_full: u64,
    /// Submissions refused: per-session quota.
    pub rejected_session_quota: u64,
    /// Submissions refused: draining.
    pub rejected_draining: u64,
    /// Jobs that ran through the engine.
    pub completed: u64,
    /// Jobs expired in the queue.
    pub expired: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Jobs quarantined as poison.
    pub quarantined_poison: u64,
    /// Jobs quarantined by the watchdog.
    pub quarantined_stall: u64,
    /// Dispatch retries of faulted jobs.
    pub retries: u64,
    /// Stalls that elapsed within the watchdog's patience and completed.
    pub stall_recoveries: u64,
    /// Stalls injected.
    pub stalls_injected: u64,
    /// Watchdog quarantines fired.
    pub watchdog_trips: u64,
    /// Pumps (ticks) executed.
    pub pumps: u64,
    /// Jobs submitted to the inner engine (== `completed`: rejected,
    /// expired, cancelled and quarantined work never consumes engine
    /// capacity).
    pub engine_jobs: u64,
    /// High-water mark of the submit queue.
    pub max_queue_depth: u64,
    /// High-water mark of in-flight jobs.
    pub max_inflight: u64,
    /// Dead letters dropped because the dead-letter queue was full.
    pub dead_letters_dropped: u64,
}

#[derive(Debug, Clone, Copy)]
struct PendingJob {
    ticket: u64,
    session: SessionId,
    payload: PayloadId,
    kind: ServiceJobKind,
    admitted: u64,
    attempts: u32,
    not_before: u64,
}

#[derive(Debug, Clone, Copy)]
struct StalledJob {
    job: PendingJob,
    since: u64,
    total: u32,
}

/// The deterministic, tick-driven heart of the service — see the module
/// docs. One [`pump`](Self::pump) advances one tick: watchdog pass,
/// deadline/cancellation sweep, dispatch of up to `batch_limit` jobs,
/// one engine drain, one health observation. Identical call sequences
/// produce identical outcomes at any engine thread count.
#[derive(Debug)]
pub struct ServiceCore {
    cfg: ServiceConfig,
    pool: SessionPool,
    engine: BatchEngine,
    queue: VecDeque<PendingJob>,
    stalled: Vec<StalledJob>,
    cancelled: BTreeSet<u64>,
    inflight_by_session: BTreeMap<SessionId, usize>,
    inflight: usize,
    next_ticket: u64,
    tick: u64,
    draining: bool,
    dead_letters: VecDeque<DeadLetter>,
    health: DegradedModeController,
    faults: FaultPlan,
    journal: Option<ReplayJournal>,
    session_ordinals: BTreeMap<SessionId, u32>,
    payloads: u32,
    controls: u32,
    outcomes: Vec<ServiceOutcome>,
    outcome_digest: OutcomeDigest,
    drain_buf: Vec<crate::engine::JobOutcome>,
    stats: ServiceStats,
}

impl ServiceCore {
    /// A fresh core without journaling.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, if `cfg` fails
    /// [`ServiceConfig::validate`].
    pub fn new(cfg: ServiceConfig) -> Self {
        Self::build(cfg, false)
    }

    /// A fresh core that records every state-changing call into a
    /// [`ReplayJournal`] (seal it with
    /// [`seal_journal`](Self::seal_journal)).
    ///
    /// # Panics
    ///
    /// As [`ServiceCore::new`].
    pub fn with_journal(cfg: ServiceConfig) -> Self {
        Self::build(cfg, true)
    }

    fn build(cfg: ServiceConfig, journaled: bool) -> Self {
        if let Err(field) = cfg.validate() {
            panic!("ServiceConfig::{field} out of range in {cfg:?}");
        }
        let journal = journaled.then(|| ReplayJournal::new(cfg.clone()));
        let health = DegradedModeController::new();
        let engine = BatchEngine::new(cfg.engine);
        ServiceCore {
            cfg,
            pool: SessionPool::new(),
            engine,
            queue: VecDeque::new(),
            stalled: Vec::new(),
            cancelled: BTreeSet::new(),
            inflight_by_session: BTreeMap::new(),
            inflight: 0,
            next_ticket: 0,
            tick: 0,
            draining: false,
            dead_letters: VecDeque::new(),
            health,
            faults: FaultPlan::default(),
            journal,
            session_ordinals: BTreeMap::new(),
            payloads: 0,
            controls: 0,
            outcomes: Vec::new(),
            outcome_digest: OutcomeDigest::new(),
            drain_buf: Vec::new(),
            stats: ServiceStats::default(),
        }
    }

    fn record(&mut self, event: JournalEvent) {
        if let Some(j) = &mut self.journal {
            j.push(event);
        }
    }

    /// Creates (or recycles) a pooled session owned by the service.
    pub fn create_session(&mut self, config: SessionConfig, seed: u64) -> SessionId {
        self.record(JournalEvent::CreateSession { config: Box::new(config.clone()), seed });
        let id = self.pool.create(config, seed);
        let ordinal = self.session_ordinals.len() as u32;
        self.session_ordinals.insert(id, ordinal);
        id
    }

    /// Releases a session back to the pool's spare list. Jobs still
    /// queued for it resolve as
    /// [`JobResult::StaleSession`] without running.
    pub fn release_session(&mut self, id: SessionId) -> bool {
        let Some(&ordinal) = self.session_ordinals.get(&id) else { return false };
        if !self.pool.release(id) {
            return false;
        }
        self.record(JournalEvent::ReleaseSession { ordinal });
        true
    }

    /// Registers payload bytes for submission by ID (interned once, like
    /// [`BatchEngine::add_payload`]).
    ///
    /// # Panics
    ///
    /// Panics, before anything is journaled, if `bytes` is longer than
    /// one frame carries ([`MAX_PAYLOAD_LEN`](cos_phy::frame::MAX_PAYLOAD_LEN)).
    pub fn add_payload(&mut self, bytes: &[u8]) -> PayloadId {
        check_payload_len(bytes.len());
        self.record(JournalEvent::Payload(bytes.into()));
        self.payloads += 1;
        self.engine.add_payload(bytes)
    }

    /// Registers a control message (bits, one per byte).
    ///
    /// # Panics
    ///
    /// Panics, before anything is journaled, if `bits` breaks the rule
    /// [`BatchEngine::add_control`] holds it to.
    pub fn add_control(&mut self, bits: &[u8]) -> ControlId {
        check_control_bits(bits);
        self.record(JournalEvent::Control(bits.into()));
        self.controls += 1;
        self.engine.add_control(bits)
    }

    /// Marks one future ticket as poison.
    pub fn inject_poison(&mut self, ticket: u64) {
        self.record(JournalEvent::Poison { ticket });
        self.faults.poison.insert(ticket);
    }

    /// Marks one future ticket's first dispatch as a worker stall.
    pub fn inject_stall(&mut self, ticket: u64, ticks: u32) {
        self.record(JournalEvent::Stall { ticket, ticks });
        self.faults.stalls.insert(ticket, ticks);
    }

    /// The queue capacity currently in force: the configured capacity,
    /// shrunk by [`SHED_DIVISOR`] while the health controller is degraded.
    pub fn effective_capacity(&self) -> usize {
        if self.health.mode() == LinkMode::Cos {
            self.cfg.queue_capacity
        } else {
            (self.cfg.queue_capacity / SHED_DIVISOR).max(1)
        }
    }

    /// Admits one job, or explains why not. Admission is synchronous and
    /// cheap: the caller of a [`Rejected`] submission holds the job and
    /// the backpressure.
    ///
    /// # Panics
    ///
    /// Panics if `payload` (or a [`ServiceJobKind::Plain`] control) was
    /// not registered with this service, or `session` was not created by
    /// it.
    pub fn try_submit(
        &mut self,
        session: SessionId,
        payload: PayloadId,
        kind: ServiceJobKind,
    ) -> Result<Ticket, Rejected> {
        assert!(payload.ordinal() < self.payloads, "unregistered payload id");
        if let ServiceJobKind::Plain(c) = kind {
            assert!(c.ordinal() < self.controls, "unregistered control id");
        }
        let ordinal = *self
            .session_ordinals
            .get(&session)
            .expect("session was not created by this service");
        if self.draining {
            self.stats_mut().rejected_draining += 1;
            return Err(Rejected::Draining);
        }
        // Quota first: a session over its own cap is told so even when the
        // queue is also full — the caller's remedy differs (wait for *its*
        // jobs vs global backoff).
        let quota = self.cfg.session_quota;
        if self.inflight_by_session.get(&session).copied().unwrap_or(0) >= quota {
            self.stats_mut().rejected_session_quota += 1;
            return Err(Rejected::SessionQuota { quota });
        }
        let capacity = self.effective_capacity();
        if self.queue.len() >= capacity || self.inflight >= self.cfg.max_inflight {
            self.stats_mut().rejected_queue_full += 1;
            return Err(Rejected::QueueFull { capacity });
        }

        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.record(JournalEvent::admit(ordinal, payload.ordinal(), kind));
        self.queue.push_back(PendingJob {
            ticket,
            session,
            payload,
            kind,
            admitted: self.tick,
            attempts: 0,
            not_before: 0,
        });
        self.inflight += 1;
        *self.inflight_by_session.entry(session).or_insert(0) += 1;
        let depth = self.queue.len() as u64;
        let inflight = self.inflight as u64;
        let s = self.stats_mut();
        s.admitted += 1;
        s.max_queue_depth = s.max_queue_depth.max(depth);
        s.max_inflight = s.max_inflight.max(inflight);
        Ok(Ticket(ticket))
    }

    /// Cancels a job still waiting in the queue. Returns `false` when the
    /// ticket is unknown, already dispatched, or already cancelled; a
    /// successful cancel resolves as [`ServiceResult::Cancelled`] on the
    /// next pump, without consuming engine capacity.
    pub fn cancel(&mut self, ticket: Ticket) -> bool {
        let queued = self.queue.iter().any(|j| j.ticket == ticket.0);
        if !queued || self.cancelled.contains(&ticket.0) {
            return false;
        }
        self.record(JournalEvent::Cancel { ticket: ticket.0 });
        self.cancelled.insert(ticket.0);
        true
    }

    /// Enters drain mode: admitted work still completes, new submissions
    /// are [`Rejected::Draining`].
    pub fn begin_drain(&mut self) {
        if !self.draining {
            self.record(JournalEvent::BeginDrain);
            self.draining = true;
        }
    }

    /// Whether [`begin_drain`](Self::begin_drain) was called.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Whether any admitted job is still unresolved.
    pub fn work_pending(&self) -> bool {
        !self.queue.is_empty() || !self.stalled.is_empty()
    }

    /// Pumps until every admitted job has resolved — the graceful-drain
    /// loop (callable with or without [`begin_drain`](Self::begin_drain)).
    ///
    /// # Panics
    ///
    /// Panics if the backlog fails to converge (bounded stalls, bounded
    /// retries and monotone deadlines make that a programmer error).
    pub fn run_to_drained(&mut self) {
        let mut guard = 0u64;
        while self.work_pending() {
            self.pump();
            guard += 1;
            assert!(guard < 10_000_000, "service drain did not converge");
        }
    }

    /// Advances one tick: watchdog pass over stalled workers, deadline
    /// and cancellation sweep, dispatch of up to `batch_limit` jobs, one
    /// engine drain, one health observation. Returns the number of
    /// outcomes produced this tick.
    pub fn pump(&mut self) -> usize {
        let produced_before = self.outcomes.len();
        self.tick += 1;
        self.record(JournalEvent::Pump);
        self.stats_mut().pumps += 1;
        let had_work = self.work_pending();
        let mut fault_this_tick = false;

        // Watchdog pass: quarantine over-patience stalls, recover elapsed
        // ones (they dispatch ahead of the queue — each is the oldest
        // admitted job of its session).
        let mut ready: Vec<PendingJob> = Vec::new();
        let mut still: Vec<StalledJob> = Vec::new();
        for st in std::mem::take(&mut self.stalled) {
            let held = self.tick - st.since;
            if held > self.cfg.stall_ticks {
                self.stats_mut().watchdog_trips += 1;
                fault_this_tick = true;
                self.quarantine(st.job, QuarantineReason::WatchdogStall);
            } else if held >= st.total as u64 {
                self.stats_mut().stall_recoveries += 1;
                ready.push(st.job);
            } else {
                still.push(st);
            }
        }
        self.stalled = still;

        // Deadline + cancellation sweep, in queue (admission) order.
        let deadline = self.cfg.deadline_ticks;
        let mut kept: VecDeque<PendingJob> = VecDeque::with_capacity(self.queue.len());
        for job in std::mem::take(&mut self.queue) {
            if self.cancelled.remove(&job.ticket) {
                self.stats_mut().cancelled += 1;
                self.resolve_session(job.session);
                self.emit(job.ticket, job.session, ServiceResult::Cancelled);
            } else if deadline > 0 && self.tick.saturating_sub(job.admitted) > deadline {
                self.stats_mut().expired += 1;
                self.resolve_session(job.session);
                self.emit(job.ticket, job.session, ServiceResult::Expired);
            } else {
                kept.push_back(job);
            }
        }
        self.queue = kept;

        // Dispatch. A session is blocked while it has a stalled or
        // backing-off job, and once one of its jobs is held back every
        // later job of that session holds too — per-session program order
        // is admission order, always.
        let mut blocked: BTreeSet<SessionId> =
            self.stalled.iter().map(|s| s.job.session).collect();
        let mut batch: Vec<PendingJob> = ready;
        let mut kept: VecDeque<PendingJob> = VecDeque::with_capacity(self.queue.len());
        for mut job in std::mem::take(&mut self.queue) {
            if blocked.contains(&job.session) || job.not_before > self.tick {
                blocked.insert(job.session);
                kept.push_back(job);
                continue;
            }
            if batch.len() >= self.cfg.batch_limit {
                kept.push_back(job);
                continue;
            }
            match self.faults.classify(job.ticket) {
                Some(ServiceFault::Poison) => {
                    job.attempts += 1;
                    fault_this_tick = true;
                    if job.attempts > self.cfg.retry_budget {
                        self.quarantine(job, QuarantineReason::Poison);
                    } else {
                        self.stats_mut().retries += 1;
                        let backoff =
                            (1u64 << (job.attempts - 1).min(62)).min(self.cfg.retry_backoff_cap);
                        job.not_before = self.tick + backoff.max(1);
                        blocked.insert(job.session);
                        kept.push_back(job);
                    }
                }
                Some(ServiceFault::Stall(d)) => {
                    fault_this_tick = true;
                    job.attempts += 1;
                    self.stats_mut().stalls_injected += 1;
                    blocked.insert(job.session);
                    self.stalled.push(StalledJob { job, since: self.tick, total: d.max(1) });
                }
                None => batch.push(job),
            }
        }
        self.queue = kept;

        // Engine run: one sync drain per tick, outcomes scattered back to
        // tickets in dispatch order.
        if !batch.is_empty() {
            for job in &batch {
                self.engine.push(job.session, job.payload, job.kind);
            }
            self.stats_mut().engine_jobs += batch.len() as u64;
            let mut out = std::mem::take(&mut self.drain_buf);
            self.engine.drain_into(&mut self.pool, &mut out);
            debug_assert_eq!(out.len(), batch.len());
            for (job, o) in batch.iter().zip(&out) {
                self.stats_mut().completed += 1;
                self.resolve_session(job.session);
                self.emit(job.ticket, job.session, ServiceResult::Completed(o.result));
            }
            self.drain_buf = out;
        }

        // Health: a tick that had work but produced nothing is "stale",
        // a tick with a fault event is a control failure — sustained
        // either way degrades the service and sheds admission load until
        // a clean probe tick recovers it.
        let produced = self.outcomes.len() - produced_before;
        let obs = PacketObservation {
            feedback_fresh: produced > 0 || !had_work,
            control_attempted: had_work,
            control_ok: !fault_this_tick,
            crc_ok: true,
        };
        self.health.observe(self.tick, obs);
        produced
    }

    fn quarantine(&mut self, job: PendingJob, reason: QuarantineReason) {
        match reason {
            QuarantineReason::Poison => self.stats_mut().quarantined_poison += 1,
            QuarantineReason::WatchdogStall => self.stats_mut().quarantined_stall += 1,
        }
        if self.dead_letters.len() >= self.cfg.dead_letter_capacity.max(1) {
            self.dead_letters.pop_front();
            self.stats_mut().dead_letters_dropped += 1;
        }
        self.dead_letters.push_back(DeadLetter {
            ticket: Ticket(job.ticket),
            session: job.session,
            attempts: job.attempts,
            reason,
            tick: self.tick,
        });
        self.resolve_session(job.session);
        self.emit(job.ticket, job.session, ServiceResult::Quarantined(reason));
    }

    fn resolve_session(&mut self, session: SessionId) {
        self.inflight -= 1;
        if let Some(n) = self.inflight_by_session.get_mut(&session) {
            *n -= 1;
            if *n == 0 {
                self.inflight_by_session.remove(&session);
            }
        }
    }

    fn emit(&mut self, ticket: u64, session: SessionId, result: ServiceResult) {
        let outcome = ServiceOutcome { ticket: Ticket(ticket), session, result };
        self.outcome_digest.outcome(&outcome);
        self.outcomes.push(outcome);
    }

    fn stats_mut(&mut self) -> &mut ServiceStats {
        &mut self.stats
    }

    /// Outcomes resolved so far and not yet taken.
    pub fn outcomes(&self) -> &[ServiceOutcome] {
        &self.outcomes
    }

    /// Moves all resolved outcomes into `out` (appended; the running
    /// digest is unaffected).
    pub fn take_outcomes(&mut self, out: &mut Vec<ServiceOutcome>) {
        out.append(&mut self.outcomes);
    }

    /// FNV-1a digest over every outcome ever emitted, in emission order
    /// — the byte-identity proxy the storm and the replay gate compare.
    pub fn digest(&self) -> u64 {
        self.outcome_digest.value()
    }

    /// The dead-letter queue, oldest first.
    pub fn dead_letters(&self) -> impl Iterator<Item = &DeadLetter> {
        self.dead_letters.iter()
    }

    /// Monotonic counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Jobs currently waiting in the submit queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Admitted jobs not yet resolved.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Ticks pumped so far.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The service-level health mode ([`LinkMode::Cos`] = full capacity).
    pub fn health_mode(&self) -> LinkMode {
        self.health.mode()
    }

    /// Direct access to the owned pool (e.g. for inspecting sessions
    /// between pumps).
    pub fn pool(&self) -> &SessionPool {
        &self.pool
    }

    /// Mutable access to the owned pool. Mutating session state between
    /// pumps is caller-visible in outcomes — journaled runs should avoid
    /// it (the journal cannot record it).
    pub fn pool_mut(&mut self) -> &mut SessionPool {
        &mut self.pool
    }

    /// Seals and returns the journal: the final outcome digest is
    /// embedded so [`ReplayJournal::replay`] can verify byte-identity.
    /// Returns `None` when the core was built without journaling (or the
    /// journal was already sealed).
    pub fn seal_journal(&mut self) -> Option<ReplayJournal> {
        let mut j = self.journal.take()?;
        j.seal(self.outcome_digest.value());
        Some(j)
    }
}

/// The live async front door: a worker thread pumping a shared
/// [`ServiceCore`], synchronous admission from any caller thread, and a
/// wall-clock watchdog on the worker's heartbeat. See the module docs
/// for the determinism story (the journal records the live interleaving,
/// so replay is exact even though the pump cadence is not).
///
/// # Examples
///
/// ```
/// use cos_core::service::{CosService, ServiceConfig, ServiceJobKind};
/// use cos_core::session::SessionConfig;
///
/// let svc = CosService::start(ServiceConfig::default());
/// let (session, payload, control) = svc.with_core(|core| {
///     let s = core.create_session(SessionConfig::default(), 7);
///     let p = core.add_payload(&[0xAB; 200]);
///     let c = core.add_control(&[1, 0, 1, 1]);
///     (s, p, c)
/// });
/// svc.submit(session, payload, ServiceJobKind::Plain(control)).unwrap();
/// let core = svc.drain();
/// assert_eq!(core.outcomes().len(), 1);
/// ```
pub struct CosService {
    core: Arc<Mutex<ServiceCore>>,
    worker: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    finished: Arc<AtomicBool>,
    heartbeat: Arc<AtomicU64>,
    wall_trips: Arc<AtomicU64>,
}

impl CosService {
    /// Starts the service (worker + watchdog threads) without journaling.
    pub fn start(cfg: ServiceConfig) -> Self {
        Self::start_inner(ServiceCore::new(cfg))
    }

    /// Starts the service with journaling enabled; seal via
    /// [`drain`](Self::drain) + [`ServiceCore::seal_journal`].
    pub fn start_with_journal(cfg: ServiceConfig) -> Self {
        Self::start_inner(ServiceCore::with_journal(cfg))
    }

    fn start_inner(core: ServiceCore) -> Self {
        let patience = Duration::from_millis(WALL_PATIENCE_MS);
        let core = Arc::new(Mutex::new(core));
        let stop = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicBool::new(false));
        let heartbeat = Arc::new(AtomicU64::new(0));
        let wall_trips = Arc::new(AtomicU64::new(0));

        let worker = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let finished = Arc::clone(&finished);
            let heartbeat = Arc::clone(&heartbeat);
            std::thread::spawn(move || {
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let worked = {
                        let mut c = core.lock().expect("service core lock");
                        if c.work_pending() {
                            c.pump();
                            true
                        } else if c.is_draining() {
                            break;
                        } else {
                            false
                        }
                    };
                    heartbeat.fetch_add(1, Ordering::Relaxed);
                    if !worked {
                        std::thread::park_timeout(Duration::from_micros(200));
                    }
                }
                finished.store(true, Ordering::Relaxed);
            })
        };

        let watchdog = {
            let stop = Arc::clone(&stop);
            let finished = Arc::clone(&finished);
            let heartbeat = Arc::clone(&heartbeat);
            let wall_trips = Arc::clone(&wall_trips);
            std::thread::spawn(move || {
                let interval = (patience / 8).max(Duration::from_millis(1));
                let mut last = heartbeat.load(Ordering::Relaxed);
                let mut stagnant_since: Option<Instant> = None;
                loop {
                    if stop.load(Ordering::Relaxed) || finished.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(interval);
                    let now = heartbeat.load(Ordering::Relaxed);
                    if now != last {
                        last = now;
                        stagnant_since = None;
                        continue;
                    }
                    match stagnant_since {
                        None => stagnant_since = Some(Instant::now()),
                        Some(t0) if t0.elapsed() >= patience => {
                            // The worker has not completed a loop for a
                            // full patience window — wedged on the core
                            // lock or hung inside a pump. Count the trip;
                            // the deterministic tick watchdog handles the
                            // per-job quarantine once pumping resumes.
                            wall_trips.fetch_add(1, Ordering::Relaxed);
                            stagnant_since = Some(Instant::now());
                        }
                        Some(_) => {}
                    }
                }
            })
        };

        CosService {
            core,
            worker: Some(worker),
            watchdog: Some(watchdog),
            stop,
            finished,
            heartbeat,
            wall_trips,
        }
    }

    /// Runs `f` with the core locked — session/table setup, fault plans,
    /// stats reads.
    pub fn with_core<R>(&self, f: impl FnOnce(&mut ServiceCore) -> R) -> R {
        let mut core = self.core.lock().expect("service core lock");
        f(&mut core)
    }

    /// Admits one job through the live front door.
    pub fn submit(
        &self,
        session: SessionId,
        payload: PayloadId,
        kind: ServiceJobKind,
    ) -> Result<Ticket, Rejected> {
        let r = self.with_core(|c| c.try_submit(session, payload, kind));
        if let Some(w) = &self.worker {
            w.thread().unpark();
        }
        r
    }

    /// Cancels a queued job.
    pub fn cancel(&self, ticket: Ticket) -> bool {
        self.with_core(|c| c.cancel(ticket))
    }

    /// Moves resolved outcomes into `out`.
    pub fn take_outcomes(&self, out: &mut Vec<ServiceOutcome>) {
        self.with_core(|c| c.take_outcomes(out));
    }

    /// Monotonic counters snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.with_core(|c| c.stats())
    }

    /// Times the wall-clock watchdog saw the worker's heartbeat stall for
    /// a full patience window.
    pub fn watchdog_wall_trips(&self) -> u64 {
        self.wall_trips.load(Ordering::Relaxed)
    }

    /// Worker loop iterations so far (liveness signal; what the watchdog
    /// watches).
    pub fn heartbeats(&self) -> u64 {
        self.heartbeat.load(Ordering::Relaxed)
    }

    /// Graceful drain: stops admission, completes every admitted job,
    /// joins both threads and returns the core (outcomes, dead letters,
    /// stats, journal).
    pub fn drain(self) -> ServiceCore {
        let CosService {
            core,
            mut worker,
            mut watchdog,
            stop,
            finished,
            heartbeat: _heartbeat,
            wall_trips: _wall_trips,
        } = self;
        core.lock().expect("service core lock").begin_drain();
        if let Some(w) = worker.take() {
            w.thread().unpark();
            w.join().expect("service worker panicked");
        }
        debug_assert!(finished.load(Ordering::Relaxed));
        stop.store(true, Ordering::Relaxed);
        if let Some(w) = watchdog.take() {
            w.join().expect("service watchdog panicked");
        }
        Arc::try_unwrap(core)
            .expect("service threads joined; no core handles remain")
            .into_inner()
            .expect("service core lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionConfig;

    fn setup(cfg: ServiceConfig, sessions: usize) -> (ServiceCore, Vec<SessionId>, PayloadId, ControlId) {
        let mut core = ServiceCore::new(cfg);
        let ids = (0..sessions)
            .map(|i| core.create_session(SessionConfig::default(), 100 + i as u64))
            .collect();
        let payload = core.add_payload(&[0x5A; 120]);
        let control = core.add_control(&[1, 0, 1, 1]);
        (core, ids, payload, control)
    }

    fn kind_for(i: usize, control: ControlId) -> ServiceJobKind {
        match i % 3 {
            0 => ServiceJobKind::Plain(control),
            1 => ServiceJobKind::Resilient,
            _ => ServiceJobKind::Adaptive,
        }
    }

    fn digest_for_threads(threads: usize) -> (u64, usize) {
        let cfg = ServiceConfig {
            engine: EngineConfig { threads },
            ..ServiceConfig::default()
        };
        let (mut core, ids, payload, control) = setup(cfg, 3);
        for i in 0..9 {
            core.try_submit(ids[i % 3], payload, kind_for(i, control)).unwrap();
        }
        core.run_to_drained();
        (core.digest(), core.outcomes().len())
    }

    #[test]
    fn validate_names_each_zero_bound() {
        assert_eq!(ServiceConfig::default().validate(), Ok(()));
        let d = ServiceConfig::default;
        let zeroed = [
            (ServiceConfig { queue_capacity: 0, ..d() }, "queue_capacity"),
            (ServiceConfig { session_quota: 0, ..d() }, "session_quota"),
            (ServiceConfig { max_inflight: 0, ..d() }, "max_inflight"),
            (ServiceConfig { batch_limit: 0, ..d() }, "batch_limit"),
        ];
        for (cfg, field) in zeroed {
            assert_eq!(cfg.validate(), Err(field));
        }
    }

    /// An oversize payload panics before it reaches the journal, so no
    /// journal ever records one.
    #[test]
    fn add_payload_rejects_a_payload_longer_than_a_frame_before_journaling() {
        use cos_phy::frame::MAX_PAYLOAD_LEN;
        let mut core = ServiceCore::with_journal(ServiceConfig::default());
        core.add_payload(&[0x22; MAX_PAYLOAD_LEN]);
        let oversize = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            core.add_payload(&[0x22; MAX_PAYLOAD_LEN + 1]);
        }));
        let msg = *oversize.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(msg, "payload of 4092 B exceeds the 4091-B frame limit");
        assert_eq!(core.seal_journal().unwrap().len(), 1, "only the fitting payload is journaled");
    }

    /// A control message the codec cannot carry panics before it reaches
    /// the journal, so no journal ever records one.
    #[test]
    fn add_control_rejects_a_bad_message_before_journaling() {
        let mut core = ServiceCore::with_journal(ServiceConfig::default());
        core.add_control(&[1, 0, 0, 1]);
        let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            core.add_control(&[1, 0, 3, 1]);
        }));
        let msg = *bad.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(msg, "control bits must be 0 or 1, got 3");
        assert_eq!(core.seal_journal().unwrap().len(), 1, "only the good message is journaled");
    }

    /// Without the rule this config never dispatches a job, so a drain
    /// never finishes.
    #[test]
    #[should_panic(expected = "ServiceConfig::batch_limit out of range")]
    fn new_rejects_a_zero_batch_limit() {
        ServiceCore::new(ServiceConfig { batch_limit: 0, deadline_ticks: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "min_control_subcarriers = 40 exceeds MAX_MIN_CONTROL_SUBCARRIERS")]
    fn create_session_rejects_an_oversized_bootstrap_block() {
        let mut core = ServiceCore::new(ServiceConfig::default());
        core.create_session(SessionConfig { min_control_subcarriers: 40, ..Default::default() }, 1);
    }

    #[test]
    #[should_panic(expected = "min_control_subcarriers = 48 exceeds MAX_MIN_CONTROL_SUBCARRIERS")]
    fn recycled_session_rejects_an_oversized_bootstrap_block() {
        let (mut core, ids, _, _) = setup(ServiceConfig::default(), 1);
        assert!(core.release_session(ids[0]));
        core.create_session(SessionConfig { min_control_subcarriers: 48, ..Default::default() }, 2);
    }

    #[test]
    fn outcomes_thread_invariant() {
        let one = digest_for_threads(1);
        assert_eq!(one.1, 9);
        assert_eq!(one, digest_for_threads(4));
    }

    #[test]
    fn completed_outcomes_keep_per_session_admission_order() {
        let (mut core, ids, payload, control) = setup(ServiceConfig::default(), 2);
        let mut expect: Vec<Vec<u64>> = vec![Vec::new(); 2];
        for i in 0..8 {
            let t = core.try_submit(ids[i % 2], payload, kind_for(i, control)).unwrap();
            expect[i % 2].push(t.value());
        }
        core.run_to_drained();
        let mut seen: Vec<Vec<u64>> = vec![Vec::new(); 2];
        for o in core.outcomes() {
            assert!(matches!(o.result, ServiceResult::Completed(_)));
            let which = ids.iter().position(|&s| s == o.session).unwrap();
            seen[which].push(o.ticket.value());
        }
        assert_eq!(seen, expect);
    }

    #[test]
    fn admission_rejections_are_typed() {
        let cfg = ServiceConfig { queue_capacity: 3, session_quota: 2, ..ServiceConfig::default() };
        let (mut core, ids, payload, control) = setup(cfg, 2);
        core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)).unwrap();
        core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)).unwrap();
        // Session 0 is at quota; the quota rejection names the binding cap.
        assert_eq!(
            core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)),
            Err(Rejected::SessionQuota { quota: 2 })
        );
        // The other session is unaffected by its neighbour's quota…
        core.try_submit(ids[1], payload, ServiceJobKind::Resilient).unwrap();
        // …until the shared queue fills.
        assert_eq!(
            core.try_submit(ids[1], payload, ServiceJobKind::Resilient),
            Err(Rejected::QueueFull { capacity: 3 })
        );
        core.run_to_drained();

        core.begin_drain();
        assert_eq!(
            core.try_submit(ids[0], payload, ServiceJobKind::Adaptive),
            Err(Rejected::Draining)
        );
        let s = core.stats();
        assert_eq!(s.rejected_queue_full, 1);
        assert_eq!(s.rejected_session_quota, 1);
        assert_eq!(s.rejected_draining, 1);
        assert_eq!(s.admitted, 3);
        assert_eq!(s.engine_jobs, 3);
    }

    #[test]
    fn quota_frees_as_jobs_resolve() {
        let cfg = ServiceConfig { session_quota: 1, ..ServiceConfig::default() };
        let (mut core, ids, payload, control) = setup(cfg, 1);
        core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)).unwrap();
        assert!(core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)).is_err());
        core.pump();
        core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)).unwrap();
        core.run_to_drained();
        assert_eq!(core.stats().completed, 2);
    }

    #[test]
    fn cancel_resolves_without_engine_capacity() {
        let (mut core, ids, payload, control) = setup(ServiceConfig::default(), 1);
        let t = core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)).unwrap();
        assert!(core.cancel(t));
        assert!(!core.cancel(t), "second cancel is a no-op");
        assert!(!core.cancel(Ticket(99)), "unknown ticket");
        core.run_to_drained();
        assert_eq!(core.outcomes().len(), 1);
        assert_eq!(core.outcomes()[0].result, ServiceResult::Cancelled);
        let s = core.stats();
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.engine_jobs, 0, "cancelled job must not reach the engine");
        assert_eq!(core.inflight(), 0);
    }

    #[test]
    fn deadline_expires_jobs_stuck_behind_a_stall() {
        let cfg = ServiceConfig { deadline_ticks: 2, stall_ticks: 20, ..ServiceConfig::default() };
        let (mut core, ids, payload, control) = setup(cfg, 1);
        core.inject_stall(0, 10);
        let t0 = core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)).unwrap();
        let t1 = core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)).unwrap();
        core.run_to_drained();
        let results: Vec<(u64, bool)> = core
            .outcomes()
            .iter()
            .map(|o| (o.ticket.value(), matches!(o.result, ServiceResult::Completed(_))))
            .collect();
        assert!(results.contains(&(t1.value(), false)), "blocked job expired");
        assert!(results.contains(&(t0.value(), true)), "stalled job recovered and completed");
        let s = core.stats();
        assert_eq!(s.expired, 1);
        assert_eq!(s.completed, 1);
        assert_eq!(s.stall_recoveries, 1);
        assert_eq!(s.engine_jobs, 1, "expired job must not reach the engine");
    }

    #[test]
    fn poison_quarantines_after_retry_budget() {
        let cfg = ServiceConfig {
            retry_budget: 2,
            deadline_ticks: 0,
            ..ServiceConfig::default()
        };
        let (mut core, ids, payload, control) = setup(cfg, 1);
        core.inject_poison(0);
        let t0 = core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)).unwrap();
        let t1 = core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)).unwrap();
        core.run_to_drained();
        let s = core.stats();
        assert_eq!(s.retries, 2);
        assert_eq!(s.quarantined_poison, 1);
        assert_eq!(s.completed, 1);
        assert_eq!(s.engine_jobs, 1, "poison job never consumed engine capacity");
        let dead: Vec<_> = core.dead_letters().collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].ticket, t0);
        assert_eq!(dead[0].attempts, 3);
        assert_eq!(dead[0].reason, QuarantineReason::Poison);
        assert!(core
            .outcomes()
            .iter()
            .any(|o| o.ticket == t1 && matches!(o.result, ServiceResult::Completed(_))));
    }

    #[test]
    fn watchdog_quarantines_overlong_stall() {
        let cfg = ServiceConfig { stall_ticks: 3, deadline_ticks: 0, ..ServiceConfig::default() };
        let (mut core, ids, payload, control) = setup(cfg, 1);
        core.inject_stall(0, 50);
        let t0 = core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)).unwrap();
        let t1 = core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)).unwrap();
        core.run_to_drained();
        let s = core.stats();
        assert_eq!(s.watchdog_trips, 1);
        assert_eq!(s.quarantined_stall, 1);
        assert_eq!(s.stall_recoveries, 0);
        assert_eq!(s.completed, 1);
        let dead: Vec<_> = core.dead_letters().collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].ticket, t0);
        assert_eq!(dead[0].reason, QuarantineReason::WatchdogStall);
        assert!(core
            .outcomes()
            .iter()
            .any(|o| o.ticket == t1 && matches!(o.result, ServiceResult::Completed(_))));
    }

    #[test]
    fn dead_letter_queue_is_bounded() {
        let cfg = ServiceConfig {
            retry_budget: 0,
            dead_letter_capacity: 2,
            session_quota: 16,
            ..ServiceConfig::default()
        };
        let (mut core, ids, payload, control) = setup(cfg, 1);
        for t in 0..4 {
            core.inject_poison(t);
        }
        for _ in 0..4 {
            core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)).unwrap();
        }
        core.run_to_drained();
        let s = core.stats();
        assert_eq!(s.quarantined_poison, 4);
        assert_eq!(s.dead_letters_dropped, 2);
        assert_eq!(core.dead_letters().count(), 2);
        assert_eq!(core.outcomes().len(), 4, "dropped dead letters still resolved their tickets");
    }

    #[test]
    fn sustained_faults_shed_load_then_recover() {
        use crate::resilience::{CTRL_FAIL_BUDGET, REPROBE_BACKOFF};
        let cfg = ServiceConfig { queue_capacity: 8, retry_budget: 0, ..ServiceConfig::default() };
        let (mut core, ids, payload, control) = setup(cfg, 1);
        // One poisoned job per tick: each is a fault tick, and one more
        // failure than the budget degrades.
        for ticket in 0..=CTRL_FAIL_BUDGET as u64 {
            assert_eq!(core.health_mode(), LinkMode::Cos, "degraded within budget");
            core.inject_poison(ticket);
            core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)).unwrap();
            core.pump();
        }
        assert_ne!(core.health_mode(), LinkMode::Cos);
        assert_eq!(core.effective_capacity(), 8 / SHED_DIVISOR);
        // Shedding is enforced at admission: capacity reported in the
        // rejection is the degraded one.
        for _ in 0..2 {
            core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)).unwrap();
        }
        assert_eq!(
            core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)),
            Err(Rejected::QueueFull { capacity: 2 })
        );
        core.run_to_drained();
        // Clean pumps wait out the re-probe backoff, probe, and recover
        // the controller, which restores full capacity.
        for _ in 0..REPROBE_BACKOFF + 2 {
            core.pump();
        }
        assert_eq!(core.health_mode(), LinkMode::Cos);
        assert_eq!(core.effective_capacity(), 8);
    }

    #[test]
    fn released_session_jobs_resolve_stale() {
        let (mut core, ids, payload, control) = setup(ServiceConfig::default(), 1);
        core.try_submit(ids[0], payload, ServiceJobKind::Plain(control)).unwrap();
        core.release_session(ids[0]);
        core.run_to_drained();
        assert_eq!(core.outcomes().len(), 1);
        assert!(matches!(
            core.outcomes()[0].result,
            ServiceResult::Completed(JobResult::StaleSession)
        ));
    }

    #[test]
    fn drain_under_load_completes_everything() {
        let cfg = ServiceConfig { batch_limit: 2, ..ServiceConfig::default() };
        let (mut core, ids, payload, control) = setup(cfg, 2);
        for i in 0..8 {
            core.try_submit(ids[i % 2], payload, kind_for(i, control)).unwrap();
        }
        core.begin_drain();
        assert!(core.try_submit(ids[0], payload, ServiceJobKind::Resilient).is_err());
        core.run_to_drained();
        assert_eq!(core.outcomes().len(), 8);
        assert_eq!(core.inflight(), 0);
        assert!(!core.work_pending());
        // batch_limit 2 forces multiple pumps: backpressure, not one mega-batch.
        assert!(core.stats().pumps >= 4);
    }

    #[test]
    fn live_service_completes_and_drains() {
        let svc = CosService::start(ServiceConfig::default());
        let (session, payload, control) = svc.with_core(|core| {
            let s = core.create_session(SessionConfig::default(), 7);
            let p = core.add_payload(&[0xAB; 120]);
            let c = core.add_control(&[1, 1, 0, 1]);
            (s, p, c)
        });
        let mut tickets = Vec::new();
        for i in 0..6 {
            tickets.push(svc.submit(session, payload, kind_for(i, control)).unwrap());
        }
        let core = svc.drain();
        assert_eq!(core.outcomes().len(), 6);
        let mut resolved: Vec<u64> = core.outcomes().iter().map(|o| o.ticket.value()).collect();
        resolved.sort_unstable();
        let mut expected: Vec<u64> = tickets.iter().map(|t| t.value()).collect();
        expected.sort_unstable();
        assert_eq!(resolved, expected, "every ticket resolved exactly once");
    }

    #[test]
    fn wall_watchdog_counts_worker_heartbeat_stalls() {
        let svc = CosService::start(ServiceConfig::default());
        assert_eq!(svc.watchdog_wall_trips(), 0);
        {
            // Wedge the core lock: the worker cannot finish a loop
            // iteration, so its heartbeat flatlines and the wall watchdog
            // must notice within its patience.
            let _guard = svc.core.lock().expect("test lock");
            std::thread::sleep(Duration::from_millis(2 * WALL_PATIENCE_MS));
        }
        assert!(svc.watchdog_wall_trips() >= 1, "watchdog missed a wedged worker");
        let heartbeats = svc.heartbeats();
        std::thread::sleep(Duration::from_millis(20));
        assert!(svc.heartbeats() > heartbeats, "worker resumed after the lock was released");
        let core = svc.drain();
        assert_eq!(core.outcomes().len(), 0);
    }
}
