//! The `session` entry: thousand-session batch-engine storm, the
//! cross-thread determinism gate for `cos_core::engine`.
//!
//! Builds the same pool of ≥1000 sessions once per thread count, runs
//! the identical mixed plain/resilient job schedule (with create/release
//! churn between rounds) through [`BatchEngine`] at 1, 4 and 8 worker
//! threads, and FNV-digests every outcome field (`f64`s via `to_bits`).
//! The engine runs every job through its session's one frame path
//! (`CosSession::run_frame`), so the digests must agree across thread
//! counts. The engine's steady-state drain allocations are the `alloc`
//! entry's.
//!
//! `--smoke` runs a reduced schedule, and its digest must also equal
//! the recorded `SMOKE_DIGEST`.

use crate::gate::{digest_outcome, register_tables, thread_invariant, Verdict};
use cos_core::engine::{BatchEngine, EngineConfig, SessionId, SessionPool};
use cos_core::session::{Fnv, SessionConfig};
use cos_phy::rates::DataRate;

fn storm_config(i: usize) -> SessionConfig {
    SessionConfig {
        snr_db: 14.0 + (i % 12) as f64,
        // A quarter of the fleet rate-adapts; the rest pin a rate.
        rate: if i.is_multiple_of(4) { None } else { Some(DataRate::ALL[(i / 4 + i) % 8]) },
        ..Default::default()
    }
}

/// One full storm at a fixed worker-thread count: identical pool
/// construction, submit schedule, and create/release churn every round.
/// Returns the outcome digest and the job count.
fn run_storm(sessions: usize, rounds: usize, threads: usize) -> (u64, usize) {
    let mut pool = SessionPool::with_capacity(sessions);
    let mut ids: Vec<SessionId> =
        (0..sessions).map(|i| pool.create(storm_config(i), 0xC0DE + i as u64)).collect();

    let mut engine = BatchEngine::new(EngineConfig { threads });
    let (payloads, controls) = register_tables(&mut engine);
    let mut out = Vec::new();
    let mut digest = Fnv::new();
    let mut jobs = 0usize;

    for r in 0..rounds {
        for (k, &id) in ids.iter().enumerate() {
            if (k + r) % 5 == 0 {
                engine.submit_resilient(id, payloads[(k + r) % payloads.len()]);
            } else {
                engine.submit(id, payloads[(k + r) % payloads.len()], controls[(k * 7 + r) % controls.len()]);
            }
        }
        engine.drain_into(&mut pool, &mut out);
        jobs += out.len();
        for o in &out {
            digest_outcome(&mut digest, o);
        }
        // Churn a stripe of the pool: released sessions become spares and
        // are immediately recycled into replacements, so later rounds run
        // on a mix of fresh and recycled sessions.
        for k in (r % 17..ids.len()).step_by(17) {
            assert!(pool.release(ids[k]), "live handle released cleanly");
            ids[k] = pool.create(storm_config(k + rounds), 0xFEED + (k * rounds + r) as u64);
        }
    }

    (digest.value(), jobs)
}

/// The `--smoke` outcome digest (since the decode epoch).
const SMOKE_DIGEST: u64 = 0xf9b5_e0fe_4f27_774c;

/// The `session` entry (see the module docs).
pub fn run(v: &mut Verdict, smoke: bool) {
    let (sessions, rounds) = if smoke { (1024, 2) } else { (1536, 4) };
    eprintln!("session: {sessions} sessions, {rounds} rounds");
    thread_invariant(v, "outcome", smoke.then_some(SMOKE_DIGEST), |t| {
        let (digest, jobs) = run_storm(sessions, rounds, t);
        (digest, format!("{jobs} jobs"), ())
    });
}
