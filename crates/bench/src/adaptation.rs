//! The `adaptation` entry: determinism and closed-loop quality gate for
//! `cos_core::adaptation` driven through the batch engine.
//!
//! Two phases:
//!
//! 1. **Cross-thread determinism under drift** — builds the same fleet of
//!    adaptive sessions once per thread count, retargets every session's
//!    SNR along a triangle drift between rounds (the paper's coherence-time /
//!    mobility scenario), queues control messages into the ARQ queue,
//!    pushes the identical `submit_adaptive` schedule through
//!    [`BatchEngine`] at 1, 4 and 8 worker threads with create/release
//!    churn between rounds (a session created into a released slot must
//!    start with fresh adaptation state),
//!    and FNV-digests every `AdaptiveSummary` field (`f64`s via
//!    `to_bits`). The digests must be byte-identical, and some frame
//!    must enter the budget machine's ERROR (one session in 24 runs on
//!    a link too weak for any rate), so the digest covers it.
//! 2. **Drift duel** — the `fig07_adaptation` comparison from
//!    `cos_experiments::adaptation`: the closed-loop controller vs every
//!    fixed (rate, budget) operating point on paired channel
//!    realisations. The controller must match or beat the best fixed
//!    pair's goodput while delivering 100 % of its control messages with
//!    a drained ARQ backlog.
//!
//! `--smoke` runs a reduced fleet (192 sessions × 4 rounds, the fewest
//! in which a weak link's fourth missed report enters ERROR) and the
//! quick duel config with the same gates, and its digest must also equal
//! the recorded `SMOKE_DIGEST`.

use crate::gate::{digest_outcome, payload_bytes, thread_invariant, Verdict, PAYLOAD_LENS};
use cos_core::engine::{BatchEngine, EngineConfig, JobResult, SessionId, SessionPool};
use cos_core::session::{Fnv, SessionConfig};
use cos_experiments::adaptation::{self, ContenderResult, Scheme};
use cos_phy::rates::DataRate;

/// One session in every `WEAK_EVERY` (the last of each stripe) runs on
/// a link too weak for any rate, at [`WEAK_SNR_DB`]: its reports stop,
/// so its budget machine enters ERROR on its fourth frame and the digest
/// covers ERROR entry.
const WEAK_EVERY: usize = 24;
const WEAK_SNR_DB: f64 = -4.0;

/// A session's SNR before drift.
fn base_snr_db(session: usize) -> f64 {
    if session % WEAK_EVERY == WEAK_EVERY - 1 {
        WEAK_SNR_DB
    } else {
        16.0 + (session % 10) as f64
    }
}

/// Fleet mix: one third pin a rate (the staircase stays out of the way,
/// the probe search still runs), the rest run the full closed loop.
fn storm_config(i: usize) -> SessionConfig {
    SessionConfig {
        snr_db: base_snr_db(i),
        rate: if i.is_multiple_of(3) { Some(DataRate::ALL[(i / 3 + i) % 8]) } else { None },
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

/// What one storm did: its outcome digest, its job count and how many
/// of its frames entered the budget machine's ERROR.
struct Storm {
    digest: u64,
    jobs: usize,
    error_entries: usize,
}

/// One full storm at a fixed worker-thread count: identical fleet
/// construction, drift retargeting, ARQ offers, submit schedule, and
/// create/release churn every round.
fn run_storm(sessions: usize, rounds: usize, threads: usize) -> Storm {
    let mut pool = SessionPool::with_capacity(sessions);
    let mut ids: Vec<SessionId> =
        (0..sessions).map(|i| pool.create(storm_config(i), 0xADA7 + i as u64)).collect();

    let mut engine = BatchEngine::new(EngineConfig { threads });
    let payloads: Vec<_> =
        PAYLOAD_LENS.iter().map(|&l| engine.add_payload(&payload_bytes(l))).collect();
    let mut out = Vec::new();
    let mut digest = Fnv::new();
    let mut jobs = 0usize;
    let mut error_entries = 0usize;

    for r in 0..rounds {
        // Drift + control offers happen on the pool between drains: the
        // adaptation state (controller, ARQ queue) lives *in* the session
        // and must follow it through the engine unchanged.
        for (k, &id) in ids.iter().enumerate() {
            let s = pool.get_mut(id).expect("live session");
            s.set_snr_db(base_snr_db(k) + drift_offset_db(k, r));
            if (k + r) % 3 == 0 && s.arq_backlog() == 0 {
                s.queue_control(message_bits(k, r));
            }
        }
        for (k, &id) in ids.iter().enumerate() {
            engine.submit_adaptive(id, payloads[(k + r) % payloads.len()]);
        }
        engine.drain_into(&mut pool, &mut out);
        jobs += out.len();
        for o in &out {
            digest_outcome(&mut digest, o);
            if let JobResult::Adaptive(a) = &o.result {
                error_entries += usize::from(a.probe_event.enters_error());
            }
        }
        // Churn a stripe of the fleet: a session created into a released
        // slot must start with fresh adaptation state (controller and ARQ
        // queue), or the digests diverge.
        for k in (r % 13..ids.len()).step_by(13) {
            assert!(pool.release(ids[k]), "live handle released cleanly");
            ids[k] = pool.create(storm_config(k + rounds), 0xF1EE7 + (k * rounds + r) as u64);
        }
    }

    Storm { digest: digest.value(), jobs, error_entries }
}

fn contender_name(r: &ContenderResult) -> String {
    match r.scheme {
        Scheme::Adaptive => "adaptive".to_string(),
        Scheme::Fixed { rate, budget } => format!("fixed_{}mbps_b{}", rate.mbps(), budget),
    }
}

/// The `--smoke` outcome digest (since the smoke fleet gained its weak
/// links and a fourth round, so that it reaches ERROR).
const SMOKE_DIGEST: u64 = 0x2392_53ea_7f71_4426;

/// The `adaptation` entry (see the module docs).
pub fn run(v: &mut Verdict, smoke: bool) {
    let (sessions, rounds) = if smoke { (192, 4) } else { (512, 6) };
    eprintln!("adaptation: {sessions} sessions, {rounds} rounds");
    let error_entries = thread_invariant(v, "outcome", smoke.then_some(SMOKE_DIGEST), |t| {
        let storm = run_storm(sessions, rounds, t);
        let detail = format!("{} jobs, {} ERROR entries", storm.jobs, storm.error_entries);
        (storm.digest, detail, storm.error_entries)
    });
    v.check(
        error_entries[0] > 0,
        "no adaptive frame entered ERROR, so the digest does not cover it",
    );

    let duel_cfg = if smoke { adaptation::Config::quick() } else { adaptation::Config::default() };
    let duel = adaptation::run_compare(&duel_cfg);
    let adaptive = &duel[0];
    assert!(adaptive.scheme == Scheme::Adaptive, "adaptive contender is row 0");
    let best_fixed = duel[1..]
        .iter()
        .max_by(|a, b| a.throughput_mbps.total_cmp(&b.throughput_mbps))
        .expect("fixed grid is non-empty");
    eprintln!(
        "  duel: adaptive {:.3} Mbps (delivery {:.4}, backlog {}) vs best fixed {} at {:.3} Mbps",
        adaptive.throughput_mbps,
        adaptive.control_delivery,
        adaptive.backlog,
        contender_name(best_fixed),
        best_fixed.throughput_mbps
    );
    v.check(
        adaptive.throughput_mbps >= best_fixed.throughput_mbps,
        format_args!(
            "adaptive {:.3} Mbps below best fixed {:.3} Mbps",
            adaptive.throughput_mbps, best_fixed.throughput_mbps
        ),
    );
    v.check(
        adaptive.control_delivery == 1.0 && adaptive.backlog == 0,
        format_args!(
            "control delivery {:.4} with backlog {} (want 1.0, 0)",
            adaptive.control_delivery, adaptive.backlog
        ),
    );
}
