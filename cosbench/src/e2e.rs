//! The timed runs, tracing off: every end-to-end metric of a workload.

use std::time::Instant;

use cos_core::engine::EngineConfig;
use cos_core::mesh::{MeshConfig, MeshNet, MeshReport, MeshTopology};
use cos_core::service::{ServiceConfig, ServiceCore, ServiceResult, ServiceStats};

use crate::drive::{open_loop, EngineState, ServiceTables};
use crate::report::{peak_rss_mb, RunResult};
use crate::util::{median, quantile, ratio, Fnv, Tally};
use crate::workload::{mesh_churn, poisson_schedule, Arrival, JobMix};

/// Set-up is repeated this many times per run and its median reported,
/// so one slow allocation does not move `setup_s`.
pub const SETUP_REPS: usize = 31;

/// Runs `build` [`SETUP_REPS`] times and returns the last instance with
/// the median build time. Every instance lives until all are built, so
/// each build lands on fresh memory as in a new process.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut built = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        built.push(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        built.pop().expect("at least one set-up"),
        median(&mut times),
    )
}

/// A timed run is cut into this many equal windows for latency: each
/// quantile is taken per window and the median over windows reported, so
/// one stall of the host decides at most one window, not the run.
const LATENCY_WINDOWS: usize = 6;

/// Per-job latencies in ms, each tagged with when the job was due
/// (seconds into the timed part of the run). `f64::INFINITY` marks a job
/// that never completed: it counts as missing any limit.
struct Latencies {
    seconds: f64,
    windows: Vec<Vec<f64>>,
}

impl Latencies {
    fn new(seconds: f64) -> Latencies {
        Latencies {
            seconds,
            windows: vec![Vec::new(); LATENCY_WINDOWS],
        }
    }

    fn push_n(&mut self, due_s: f64, ms: f64, n: usize) {
        let w = ((due_s / self.seconds * LATENCY_WINDOWS as f64).max(0.0) as usize)
            .min(LATENCY_WINDOWS - 1);
        self.windows[w].extend(std::iter::repeat_n(ms, n));
    }

    fn push(&mut self, due_s: f64, ms: f64) {
        self.push_n(due_s, ms, 1);
    }

    /// Sets `latency_p50_ms` and `latency_p99_ms`; a quantile that lands
    /// on a job that never completed reads as `cap_ms`.
    fn report(mut self, result: &mut RunResult, cap_ms: f64) {
        let samples: usize = self.windows.iter().map(Vec::len).sum();
        self.windows.retain(|w| !w.is_empty());
        for w in &mut self.windows {
            w.sort_by(f64::total_cmp);
        }
        let q = |q: f64| {
            let mut per: Vec<f64> = self
                .windows
                .iter()
                .map(|w| quantile(w, q).min(cap_ms))
                .collect();
            median(&mut per)
        };
        result.set("latency_p50_ms", q(0.50));
        result.set("latency_p99_ms", q(0.99));
        result
            .notes
            .push(("latency_samples".to_string(), samples as f64));
    }
}

fn simulated_metrics(result: &mut RunResult, tally: &Tally) {
    result.set("data_prr", tally.data_prr());
    result.set("control_delivery", tally.control_delivery());
    result.set("goodput_mbps", tally.goodput_mbps());
    result
        .notes
        .push(("simulated_frames".to_string(), tally.frames as f64));
}

/// Closed-loop engine rounds: every session submits one job, the engine
/// drains, the client observes every outcome and (when the mix churns)
/// recycles a stripe of sessions. Simulated metrics and the digest cover
/// the first `sim_rounds` rounds; timing starts after `warm_rounds` and
/// runs for at least `seconds`.
pub fn engine(
    mix: &JobMix,
    seconds: f64,
    threads: usize,
    sim_rounds: usize,
    warm_rounds: usize,
) -> RunResult {
    let mut result = RunResult::new();
    let (mut st, setup_s) = timed_setup(|| EngineState::build(mix, threads));
    let mut tally = Tally::default();
    let mut digest = Fnv::default();
    let mut latencies = Latencies::new(seconds);
    let mut timed_frames = 0u64;
    let mut timed_from = Instant::now();
    let mut round = 0;
    loop {
        if round == warm_rounds {
            timed_from = Instant::now();
        }
        let t0 = Instant::now();
        let due_s = t0.duration_since(timed_from).as_secs_f64();
        st.top_up(mix, round);
        st.submit_round(mix, round);
        st.drain();
        let dt_ms = t0.elapsed().as_secs_f64() * 1e3;
        st.check_round(round, &mut result);
        result.attempted += st.submitted.len() as u64;
        if round < sim_rounds {
            for (o, &(_, len)) in st.out.iter().zip(&st.submitted) {
                tally.add(&o.result, len);
                digest.result(o.session.index(), &o.result);
            }
        }
        if round >= warm_rounds {
            timed_frames += st.out.len() as u64;
            latencies.push_n(due_s, dt_ms, st.out.len());
        }
        st.churn(mix, round);
        round += 1;
        if round >= sim_rounds.max(warm_rounds + 1) && timed_from.elapsed().as_secs_f64() >= seconds
        {
            break;
        }
    }
    let wall = timed_from.elapsed().as_secs_f64();
    result.set("frames_per_s", timed_frames as f64 / wall);
    latencies.report(&mut result, wall * 1e3);
    result.set(
        "completed_frac",
        1.0 - ratio(result.failed, result.attempted),
    );
    simulated_metrics(&mut result, &tally);
    result.set("setup_s", setup_s);
    result.digest = digest.0;
    result.notes.push(("rounds".to_string(), round as f64));
    result
}

/// The service's ServiceConfig: defaults, one engine thread.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        engine: EngineConfig { threads: 1 },
        ..ServiceConfig::default()
    }
}

/// Per-session ARQ messages to queue up front: one per scheduled job, so
/// every resilient or adaptive job carries a control message and the
/// outcomes never depend on when a top-up happened.
pub fn arq_messages(mix: &JobMix, schedule: &[Arrival]) -> Vec<usize> {
    let mut per = vec![0usize; mix.sessions.len()];
    for a in schedule {
        per[a.session] += 1;
    }
    per
}

/// Checks the service's zero-loss ledger.
pub fn check_ledger(s: &ServiceStats, result: &mut RunResult) {
    let resolved =
        s.completed + s.expired + s.cancelled + s.quarantined_poison + s.quarantined_stall;
    result.check(s.admitted == resolved, || {
        format!(
            "service ledger: admitted {} != resolved {resolved}",
            s.admitted
        )
    });
}

/// The service front door under a seeded Poisson schedule: the
/// `ServiceCore` behind `CosService`, driven from one thread that submits
/// each job when due and pumps whenever work is pending (see
/// [`open_loop`]). Jobs are timed from when they were due, so a stalled
/// pump shows up as latency.
pub fn service(mix: &JobMix, seconds: f64, warm_s: f64, rate_hz: f64) -> RunResult {
    let mut result = RunResult::new();
    let schedule = poisson_schedule(mix, rate_hz, warm_s + seconds);
    let per_session = arq_messages(mix, &schedule);
    let ((mut core, tables), setup_s) = timed_setup(|| {
        let mut core = ServiceCore::new(service_config());
        let tables = ServiceTables::load(&mut core, mix, &per_session);
        (core, tables)
    });
    let run = open_loop(&mut core, &tables, &schedule, |_, _, _, _| {});

    check_ledger(&core.stats(), &mut result);
    for a in &run.anomalies {
        result.fail(a.clone());
    }
    let mut tally = Tally::default();
    let mut digest = Fnv::default();
    let mut latencies = Latencies::new(seconds);
    let mut completed_in_window = 0u64;
    for (ticket, &ai) in run.admitted.iter().enumerate() {
        let a = schedule[ai];
        let done = match run.results[ticket] {
            Some(ServiceResult::Completed(r)) => {
                tally.add(&r, mix.payloads[a.payload].len());
                digest.result(a.session, &r);
                true
            }
            _ => {
                result.failed += 1;
                false
            }
        };
        if a.due_s >= warm_s {
            completed_in_window += done as u64;
            latencies.push(
                a.due_s - warm_s,
                if done {
                    (run.observed_s[ticket] - a.due_s) * 1e3
                } else {
                    f64::INFINITY
                },
            );
        }
    }
    for &ai in &run.refused {
        result.failed += 1;
        if schedule[ai].due_s >= warm_s {
            latencies.push(schedule[ai].due_s - warm_s, f64::INFINITY);
        }
    }
    result.attempted = schedule.len() as u64;
    result.set("frames_per_s", completed_in_window as f64 / seconds);
    latencies.report(&mut result, seconds * 1e3);
    result.set(
        "completed_frac",
        1.0 - ratio(result.failed, result.attempted),
    );
    simulated_metrics(&mut result, &tally);
    result.set("setup_s", setup_s);
    result.digest = digest.0;
    let mut late_ms: Vec<f64> = run.late_s.iter().map(|s| s * 1e3).collect();
    late_ms.sort_by(f64::total_cmp);
    result
        .notes
        .push(("gen_late_ms_p99".to_string(), quantile(&late_ms, 0.99)));
    result
        .notes
        .push(("offered_jobs_per_s".to_string(), rate_hz));
    result
        .notes
        .push(("pumps".to_string(), core.stats().pumps as f64));
    result
}

/// Sums of the simulated mesh figures over cells.
#[derive(Debug, Default)]
pub struct MeshTotals {
    pub frames: u64,
    pub beacons: u64,
    pub frames_ok: u64,
    pub collided: u64,
    pub idle_ticks: u64,
    pub ticks: u64,
    pub ctl_delivered: u64,
    pub ctl_resolved: u64,
    pub goodput_mbps: f64,
}

impl MeshTotals {
    pub fn of(net: &MeshNet, result: &mut RunResult) -> MeshTotals {
        let mut t = MeshTotals::default();
        for ci in 0..net.n_cells() {
            let r: MeshReport = net.report(ci);
            result.check(
                r.frames_ok <= r.frames && r.collided_frames <= r.frames,
                || format!("cell {ci}: inconsistent frame counters"),
            );
            result.check(r.ticks == net.tick(), || {
                format!("cell {ci}: {} ticks of {}", r.ticks, net.tick())
            });
            t.frames += r.frames;
            t.beacons += r.beacons;
            t.frames_ok += r.frames_ok;
            t.collided += r.collided_frames;
            t.idle_ticks += r.idle_ticks;
            t.ticks += r.ticks;
            t.ctl_delivered += r.cmd_delivered + r.uplink_ctl_delivered;
            t.ctl_resolved +=
                r.cmd_delivered + r.cmd_failed + r.uplink_ctl_delivered + r.uplink_ctl_failed;
            t.goodput_mbps += r.goodput_mbps;
        }
        t
    }
}

pub fn build_mesh(cells: &[(MeshTopology, MeshConfig)], threads: usize, trace: bool) -> MeshNet {
    let engine = EngineConfig { threads };
    let mut net = if trace {
        MeshNet::with_trace(engine)
    } else {
        MeshNet::new(engine)
    };
    for (topo, cfg) in cells {
        net.add_cell(topo.clone(), cfg.clone());
    }
    net
}

/// Steps the mesh once and applies the churn scheduled after the tick.
pub fn mesh_tick(net: &mut MeshNet, cells: usize) {
    net.step();
    for (ci, si) in mesh_churn(net.tick(), cells) {
        net.replace_station(ci, si);
    }
}

/// `MeshNet` ticks: simulated metrics and the digest at `sim_ticks`,
/// timing from `warm_ticks` for at least `seconds`. A tick's frames are
/// all due when the tick starts and observed when `step` returns, so
/// each tick's step time is one latency sample.
pub fn mesh(
    cells: &[(MeshTopology, MeshConfig)],
    seconds: f64,
    threads: usize,
    sim_ticks: u64,
    warm_ticks: u64,
) -> RunResult {
    let mut result = RunResult::new();
    let (mut net, setup_s) = timed_setup(|| build_mesh(cells, threads, false));
    let mut latencies = Latencies::new(seconds);
    let mut timed_from = Instant::now();
    let mut frames_at_warm = 0u64;
    loop {
        if net.tick() == warm_ticks {
            let t = MeshTotals::of(&net, &mut result);
            frames_at_warm = t.frames + t.beacons;
            timed_from = Instant::now();
        }
        let t0 = Instant::now();
        net.step();
        let dt_ms = t0.elapsed().as_secs_f64() * 1e3;
        for (ci, si) in mesh_churn(net.tick(), cells.len()) {
            net.replace_station(ci, si);
        }
        if net.tick() > warm_ticks {
            latencies.push(t0.duration_since(timed_from).as_secs_f64(), dt_ms);
        }
        if net.tick() == sim_ticks {
            let t = MeshTotals::of(&net, &mut result);
            result.set("data_prr", ratio(t.frames_ok, t.frames));
            result.set("control_delivery", ratio(t.ctl_delivered, t.ctl_resolved));
            result.set("goodput_mbps", t.goodput_mbps);
            result.digest = net.digest();
            result.notes.push((
                "simulated_frames".to_string(),
                (t.frames + t.beacons) as f64,
            ));
        }
        if net.tick() >= sim_ticks.max(warm_ticks + 1)
            && timed_from.elapsed().as_secs_f64() >= seconds
        {
            break;
        }
    }
    let wall = timed_from.elapsed().as_secs_f64();
    let t = MeshTotals::of(&net, &mut result);
    result.check(t.frames > 0 && t.frames_ok > 0, || {
        "the mesh delivered no frames".to_string()
    });
    result.attempted = t.frames + t.beacons;
    result.set(
        "frames_per_s",
        (t.frames + t.beacons - frames_at_warm) as f64 / wall,
    );
    latencies.report(&mut result, wall * 1e3);
    result.set(
        "completed_frac",
        1.0 - ratio(result.failed, result.attempted),
    );
    result.set("setup_s", setup_s);
    result.notes.push(("ticks".to_string(), net.tick() as f64));
    result
}

pub fn finish(result: &mut RunResult) {
    result.set("peak_rss_mb", peak_rss_mb());
}
