//! Adaptation storm: determinism and closed-loop quality gate for
//! `cos_core::adaptation` driven through the batch engine.
//!
//! Two phases:
//!
//! 1. **Cross-thread determinism under drift** — builds the same fleet of
//!    adaptive sessions three times, retargets every session's SNR along
//!    a triangle drift between rounds (the paper's coherence-time /
//!    mobility scenario), queues control messages into the adaptive ARQ,
//!    pushes the identical `submit_adaptive` schedule through
//!    [`BatchEngine`] at 1, 4 and 8 worker threads with create/release
//!    churn between rounds (recycled slots must reset adaptation state),
//!    and FNV-digests every [`AdaptiveSummary`] field (`f64`s via
//!    `to_bits`). The digests must be byte-identical.
//! 2. **Drift duel** — the `fig07_adaptation` comparison from
//!    `cos_experiments::adaptation`: the closed-loop controller vs every
//!    fixed (rate, budget) operating point on paired channel
//!    realisations. The controller must match or beat the best fixed
//!    pair's goodput while delivering 100 % of its control messages with
//!    a drained ARQ backlog.
//!
//! Prints its JSON report on full runs (written to `BENCH_pr6.json` in
//! the current directory only with `--record`) and exits non-zero on any
//! determinism or duel failure. `--smoke` runs a reduced fleet and
//! the quick duel config in well under 30 s; `--sessions N` /
//! `--rounds N` override the storm scale.
//!
//! Since PR 10 the engine bundles adaptive jobs into lockstep rounds
//! (batched channel impairment + lockstep Viterbi), so `--kernels
//! scalar|lanes|both` (default `both`) re-runs the determinism storm
//! under each symbol-plane kernel and asserts the digests match across
//! kernels as well as across thread counts.

use std::time::Instant;

use cos_core::adaptation::{AdaptationConfig, ProbeEvent, ProbeState, StaircaseEvent};
use cos_core::engine::{BatchEngine, EngineConfig, JobOutcome, JobResult, SessionId, SessionPool};
use cos_core::session::{AdaptiveSummary, PacketSummary, SessionConfig};
use cos_dsp::{set_kernel_mode, KernelMode};
use cos_experiments::adaptation::{self, ContenderResult, Scheme};
use cos_phy::rates::DataRate;

/// FNV-1a over the outcome stream — byte-identity proxy.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x1_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.byte(v as u8);
    }
}

fn digest_packet(h: &mut Fnv, p: &PacketSummary) {
    h.bool(p.data_ok);
    h.bool(p.control_present);
    h.bool(p.control_ok);
    h.usize(p.silences_sent);
    h.usize(p.detection.false_positives);
    h.usize(p.detection.false_negatives);
    h.usize(p.detection.actual_silences);
    h.usize(p.detection.actual_normals);
    h.f64(p.measured_snr_db);
    h.byte(p.rate as u8);
    h.usize(p.selected_len);
    h.u64(p.selected_hash);
    h.u64(p.control_hash);
}

fn digest_adaptive(h: &mut Fnv, a: &AdaptiveSummary) {
    digest_packet(h, &a.packet);
    h.f64(a.ewma_snr_db);
    h.usize(a.budget);
    h.byte(a.rate_after as u8);
    h.usize(a.budget_after);
    h.byte(match a.search_state {
        ProbeState::Searching => 0,
        ProbeState::SearchComplete => 1,
    });
    h.byte(match a.staircase_event {
        StaircaseEvent::Hold => 0,
        StaircaseEvent::Acquire => 1,
        StaircaseEvent::Upgrade => 2,
        StaircaseEvent::Downgrade => 3,
        StaircaseEvent::Fallback => 4,
    });
    h.byte(match a.probe_event {
        ProbeEvent::Hold => 0,
        ProbeEvent::Confirmed => 1,
        ProbeEvent::Failed => 2,
        ProbeEvent::Completed => 3,
        ProbeEvent::BackedOff => 4,
        ProbeEvent::Restarted => 5,
    });
    h.bool(a.control_acked);
    h.bool(a.feedback_delivered);
}

fn digest_outcome(h: &mut Fnv, o: &JobOutcome) {
    h.usize(o.session.index());
    match &o.result {
        JobResult::Adaptive(a) => {
            h.byte(1);
            digest_adaptive(h, a);
        }
        JobResult::Plain(_) | JobResult::Resilient(_) => unreachable!("adaptive jobs only"),
        JobResult::StaleSession => h.byte(3),
    }
}

const PAYLOAD_LENS: [usize; 4] = [96, 240, 504, 1020];

fn payload_bytes(len: usize) -> Vec<u8> {
    (0..len as u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect()
}

/// Fleet mix: one third pin a rate (the staircase stays out of the way,
/// the probe search still runs), the rest run the full closed loop.
fn storm_config(i: usize) -> SessionConfig {
    SessionConfig {
        snr_db: 16.0 + (i % 10) as f64,
        rate: if i.is_multiple_of(3) { Some(DataRate::ALL[(i / 3 + i) % 8]) } else { None },
        adaptation: Some(AdaptationConfig::default()),
        ..Default::default()
    }
}

/// Per-round SNR drift: a triangle of ±4 dB around the session's base
/// SNR with an 8-round period, phase-shifted per session.
fn drift_offset_db(session: usize, round: usize) -> f64 {
    let phase = (round + session % 8) % 8;
    let tri = if phase <= 4 { phase as f64 } else { (8 - phase) as f64 };
    tri - 2.0
}

/// Deterministic 8-bit control message for one (session, round) slot.
fn message_bits(session: usize, round: usize) -> Vec<u8> {
    let x = (session as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(round as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (0..8).map(|b| ((x >> (b + 19)) & 1) as u8).collect()
}

struct StormResult {
    digest: u64,
    jobs: usize,
    frames_per_sec: f64,
}

/// One full storm at a fixed worker-thread count: identical fleet
/// construction, drift retargeting, ARQ offers, submit schedule, and
/// create/release churn every round.
fn run_storm(sessions: usize, rounds: usize, threads: usize) -> StormResult {
    let mut pool = SessionPool::with_capacity(sessions);
    let mut ids: Vec<SessionId> =
        (0..sessions).map(|i| pool.create(storm_config(i), 0xADA7 + i as u64)).collect();

    let mut engine = BatchEngine::new(EngineConfig { threads });
    let payloads: Vec<_> =
        PAYLOAD_LENS.iter().map(|&l| engine.add_payload(&payload_bytes(l))).collect();
    let mut out = Vec::new();
    let mut digest = Fnv::new();
    let mut jobs = 0usize;
    let start = Instant::now();

    for r in 0..rounds {
        // Drift + control offers happen on the pool between drains: the
        // adaptation state (controller, ARQ queue) lives *in* the session
        // and must follow it through the engine unchanged.
        for (k, &id) in ids.iter().enumerate() {
            let s = pool.get_mut(id).expect("live session");
            s.set_snr_db(16.0 + (k % 10) as f64 + drift_offset_db(k, r));
            if (k + r) % 3 == 0 && s.adaptive_backlog() == 0 {
                s.queue_adaptive_control(message_bits(k, r));
            }
        }
        for (k, &id) in ids.iter().enumerate() {
            engine.submit_adaptive(id, payloads[(k + r) % payloads.len()]);
        }
        engine.drain_into(&mut pool, &mut out);
        jobs += out.len();
        for o in &out {
            digest_outcome(&mut digest, o);
        }
        // Churn a stripe of the fleet: recycled slots must come back with
        // factory-fresh adaptation state (reinit resets the controller
        // and the ARQ queue), or the digests diverge.
        for k in (r % 13..ids.len()).step_by(13) {
            assert!(pool.release(ids[k]), "live handle released cleanly");
            ids[k] = pool.create(storm_config(k + rounds), 0xF1EE7 + (k * rounds + r) as u64);
        }
    }

    StormResult {
        digest: digest.0,
        jobs,
        frames_per_sec: jobs as f64 / start.elapsed().as_secs_f64(),
    }
}

fn contender_name(r: &ContenderResult) -> String {
    match r.scheme {
        Scheme::Adaptive => "adaptive".to_string(),
        Scheme::Fixed { rate, budget } => format!("fixed_{}mbps_b{}", rate.mbps(), budget),
    }
}

fn arg_value(name: &str) -> Option<usize> {
    arg_text(name).map(|v| v.parse().unwrap_or_else(|_| panic!("--{name} takes an integer")))
}

fn arg_text(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for (i, arg) in args.iter().enumerate() {
        if let Some(v) = arg.strip_prefix(&format!("--{name}=")) {
            return Some(v.to_string());
        }
        if arg == &format!("--{name}") {
            let v = args.get(i + 1).unwrap_or_else(|| panic!("--{name} requires a value"));
            return Some(v.to_string());
        }
    }
    None
}

fn kernel_modes(spec: &str) -> Vec<(&'static str, KernelMode)> {
    match spec {
        "scalar" => vec![("scalar", KernelMode::Scalar)],
        "lanes" => vec![("lanes", KernelMode::Lanes)],
        "both" => vec![("scalar", KernelMode::Scalar), ("lanes", KernelMode::Lanes)],
        other => panic!("--kernels takes scalar|lanes|both, got {other:?}"),
    }
}

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sessions = arg_value("sessions").unwrap_or(if smoke { 192 } else { 512 });
    let rounds = arg_value("rounds").unwrap_or(if smoke { 3 } else { 6 });
    let kernels = arg_text("kernels").unwrap_or_else(|| "both".to_string());
    let modes = kernel_modes(&kernels);

    eprintln!(
        "adaptation_storm: {sessions} sessions, {rounds} rounds, threads {THREAD_COUNTS:?}, \
         kernels {kernels}"
    );

    // One storm per (kernel, thread count); the adaptive lockstep bundles
    // must produce one digest across the whole grid.
    let mut storms: Vec<StormResult> = Vec::new();
    for &(name, mode) in &modes {
        set_kernel_mode(mode);
        for &t in &THREAD_COUNTS {
            let s = run_storm(sessions, rounds, t);
            eprintln!(
                "  kernels={name} threads={t}: digest {:016x}, {} jobs, {:.0} frames/sec",
                s.digest, s.jobs, s.frames_per_sec
            );
            storms.push(s);
        }
    }
    let deterministic = storms.iter().all(|s| s.digest == storms[0].digest);

    let duel_cfg =
        if smoke { adaptation::Config::quick() } else { adaptation::Config::default() };
    let duel = adaptation::run_compare(&duel_cfg);
    let adaptive = &duel[0];
    assert!(adaptive.scheme == Scheme::Adaptive, "adaptive contender is row 0");
    let best_fixed = duel[1..]
        .iter()
        .max_by(|a, b| a.throughput_mbps.total_cmp(&b.throughput_mbps))
        .expect("fixed grid is non-empty");
    let beats = adaptive.throughput_mbps >= best_fixed.throughput_mbps;
    let full_delivery = adaptive.control_delivery == 1.0 && adaptive.backlog == 0;
    eprintln!(
        "  duel: adaptive {:.3} Mbps (delivery {:.4}, backlog {}) vs best fixed {} at {:.3} Mbps",
        adaptive.throughput_mbps,
        adaptive.control_delivery,
        adaptive.backlog,
        contender_name(best_fixed),
        best_fixed.throughput_mbps
    );

    if !smoke {
        // Timing rows come from the last kernel mode's sweep (lanes when
        // `--kernels both`); the digest is shared by every storm anyway.
        let timed = &storms[storms.len() - THREAD_COUNTS.len()..];
        let mut rows = String::new();
        for (i, r) in duel.iter().enumerate() {
            rows.push_str(&format!(
                "    \"{}\": {{ \"throughput_mbps\": {:.4}, \"data_prr\": {:.4}, \
                 \"control_delivery\": {:.4}, \"mean_rate_mbps\": {:.2}, \"mean_budget\": {:.2} }}{}\n",
                contender_name(r),
                r.throughput_mbps,
                r.data_prr,
                r.control_delivery,
                r.mean_rate_mbps,
                r.mean_budget,
                if i + 1 == duel.len() { "" } else { "," }
            ));
        }
        let json = format!(
            "{{\n  \"bench\": \"adaptation_storm\",\n  \"methodology\": \"Phase 1: {sessions} \
             adaptive sessions x {rounds} rounds through the batch engine at 1/4/8 worker \
             threads under kernels={kernels}, with per-round triangle SNR drift, control \
             messages queued into the adaptive ARQ, and create/release churn; every \
             AdaptiveSummary field is FNV-digested (f64 via to_bits) and digests must match \
             across thread counts and kernel modes. Phase 2: the \
             fig07_adaptation drift duel — closed-loop controller vs the fixed (rate, budget) \
             grid on paired seeded channels over a {} <-> {} dB triangle, {} trials x {} \
             packets; the controller must reach best-fixed goodput with 100% control delivery \
             and a drained backlog.\",\n  \"storm\": {{\n    \"sessions\": {sessions},\n    \
             \"rounds\": {rounds},\n    \"jobs_per_storm\": {},\n    \"thread_counts\": [1, 4, 8],\n    \
             \"kernels\": \"{kernels}\",\n    \
             \"outcome_digest\": \"{:016x}\",\n    \"deterministic_across_threads_and_kernels\": {deterministic},\n    \
             \"frames_per_sec\": {{\n      \"threads_1\": {:.2},\n      \"threads_4\": {:.2},\n      \
             \"threads_8\": {:.2}\n    }}\n  }},\n  \"duel\": {{\n{rows}  }},\n  \
             \"adaptive_beats_best_fixed\": {beats},\n  \"adaptive_control_delivery\": {:.4},\n  \
             \"adaptive_residual_backlog\": {}\n}}\n",
            duel_cfg.snr_hi_db,
            duel_cfg.snr_lo_db,
            duel_cfg.trials,
            duel_cfg.packets,
            storms[0].jobs,
            storms[0].digest,
            timed[0].frames_per_sec,
            timed[1].frames_per_sec,
            timed[2].frames_per_sec,
            adaptive.control_delivery,
            adaptive.backlog,
        );
        cos_bench::emit_report("BENCH_pr6.json", &json);
    }

    let mut failed = false;
    if !deterministic {
        eprintln!(
            "adaptation_storm FAILED: outcome digests differ across thread counts or kernels"
        );
        failed = true;
    }
    if !beats {
        eprintln!(
            "adaptation_storm FAILED: adaptive {:.3} Mbps below best fixed {:.3} Mbps",
            adaptive.throughput_mbps, best_fixed.throughput_mbps
        );
        failed = true;
    }
    if !full_delivery {
        eprintln!(
            "adaptation_storm FAILED: control delivery {:.4} with backlog {} (want 1.0, 0)",
            adaptive.control_delivery, adaptive.backlog
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("adaptation_storm passed");
}
