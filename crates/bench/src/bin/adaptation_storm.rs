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
//!    and FNV-digests every `AdaptiveSummary` field (`f64`s via
//!    `to_bits`). The digests must be byte-identical.
//! 2. **Drift duel** — the `fig07_adaptation` comparison from
//!    `cos_experiments::adaptation`: the closed-loop controller vs every
//!    fixed (rate, budget) operating point on paired channel
//!    realisations. The controller must match or beat the best fixed
//!    pair's goodput while delivering 100 % of its control messages with
//!    a drained ARQ backlog.
//!
//! Exits non-zero on any determinism or duel failure. `--smoke` runs a
//! reduced fleet and the quick duel config with the same gates.

use cos_bench::gate::{
    digest_outcome, payload_bytes, smoke_pin_holds, Flags, PAYLOAD_LENS, THREAD_COUNTS,
};
use cos_core::adaptation::AdaptationConfig;
use cos_core::engine::{BatchEngine, EngineConfig, SessionId, SessionPool};
use cos_core::session::{Fnv, SessionConfig};
use cos_experiments::adaptation::{self, ContenderResult, Scheme};
use cos_phy::rates::DataRate;

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

    StormResult { digest: digest.value(), jobs }
}

fn contender_name(r: &ContenderResult) -> String {
    match r.scheme {
        Scheme::Adaptive => "adaptive".to_string(),
        Scheme::Fixed { rate, budget } => format!("fixed_{}mbps_b{}", rate.mbps(), budget),
    }
}

/// The `--smoke` outcome digest (since the decode epoch).
const SMOKE_DIGEST: u64 = 0x87bc_bba7_8259_bc2b;

fn main() {
    let smoke = Flags::parse(&["--smoke"]).smoke;
    let (sessions, rounds) = if smoke { (192, 3) } else { (512, 6) };

    eprintln!("adaptation_storm: {sessions} sessions, {rounds} rounds, threads {THREAD_COUNTS:?}");

    // One storm per thread count; the adaptive jobs must produce one
    // digest across them.
    let storms: Vec<StormResult> = THREAD_COUNTS
        .into_iter()
        .map(|t| {
            let s = run_storm(sessions, rounds, t);
            eprintln!("  threads={t}: digest {:016x}, {} jobs", s.digest, s.jobs);
            s
        })
        .collect();
    let deterministic = storms.iter().all(|s| s.digest == storms[0].digest);

    let duel_cfg = if smoke { adaptation::Config::quick() } else { adaptation::Config::default() };
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

    let mut failed = false;
    if !deterministic {
        eprintln!("adaptation_storm FAILED: outcome digests differ across thread counts");
        failed = true;
    }
    if smoke && !smoke_pin_holds("adaptation_storm", "outcome", storms[0].digest, SMOKE_DIGEST) {
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
