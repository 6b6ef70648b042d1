//! Thousand-session batch-engine storm: determinism and allocation gate
//! for `cos_core::engine`.
//!
//! Two phases, run once per symbol-plane kernel (`--kernels
//! scalar|lanes|both`, default `both`):
//!
//! 1. **Cross-thread determinism** — builds the same pool of ≥1000
//!    sessions three times, runs the identical mixed plain/resilient job
//!    schedule (with create/release churn between rounds) through
//!    [`BatchEngine`] at 1, 4 and 8 worker threads, and FNV-digests every
//!    outcome field (`f64`s via `to_bits`). The engine runs every job
//!    through its session's one frame path (`CosSession::run_frame`);
//!    because the lane kernels are bit-identical to the scalar reference,
//!    the digests must agree across kernels as well as thread counts.
//! 2. **Steady-state allocation** — a fixed-rate pool of plain,
//!    resilient and adaptive jobs drained at 1 and at 2 worker threads
//!    under the counting global allocator; after warm-up drains every
//!    buffer has reached capacity. At 1 thread the measured drains must
//!    allocate **zero** times. At 2 they may allocate at most
//!    [`SPAWN_ALLOCS`] times per drain — what spawning the one extra
//!    scoped worker costs — however many jobs the drain holds.
//!
//! Exits non-zero on any determinism or allocation failure. `--smoke`
//! runs a reduced schedule with the same gates, and its digest must also
//! equal the recorded [`SMOKE_DIGEST`].

use cos_bench::gate::{
    control_bits, counters, digest_outcome, payload_bytes, smoke_pin_holds, Flags, CONTROL_LENS,
    PAYLOAD_LENS, THREAD_COUNTS,
};
use cos_core::engine::{BatchEngine, ControlId, EngineConfig, PayloadId, SessionId, SessionPool};
use cos_core::session::{Fnv, SessionConfig};
use cos_dsp::set_kernel_mode;
use cos_phy::rates::DataRate;

fn register_tables(engine: &mut BatchEngine) -> (Vec<PayloadId>, Vec<ControlId>) {
    let payloads = PAYLOAD_LENS.iter().map(|&l| engine.add_payload(&payload_bytes(l))).collect();
    let controls = CONTROL_LENS.iter().map(|&l| engine.add_control(&control_bits(l))).collect();
    (payloads, controls)
}

fn storm_config(i: usize) -> SessionConfig {
    SessionConfig {
        snr_db: 14.0 + (i % 12) as f64,
        // A quarter of the fleet rate-adapts; the rest pin a rate.
        rate: if i.is_multiple_of(4) { None } else { Some(DataRate::ALL[(i / 4 + i) % 8]) },
        ..Default::default()
    }
}

struct StormResult {
    digest: u64,
    jobs: usize,
}

/// One full storm at a fixed worker-thread count: identical pool
/// construction, submit schedule, and create/release churn every round.
fn run_storm(sessions: usize, rounds: usize, threads: usize) -> StormResult {
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

    StormResult { digest: digest.value(), jobs }
}

struct AllocResult {
    allocs_per_drain: f64,
    allocs_per_frame: f64,
    bytes_per_frame: f64,
    warm_rounds: usize,
}

/// Allocations one `std::thread::scope` spawning one thread makes (the
/// scope's shared state, the thread handle, its result packet and the
/// boxed closure), measured with this harness's counting allocator on
/// Linux x86-64 glibc. A 2-thread drain spawns exactly one scoped
/// worker, so this is its whole per-drain allowance.
const SPAWN_ALLOCS: u64 = 4;

/// The allocations a warmed drain at `threads` may make: none on one
/// thread, one scoped spawn's worth on two.
fn drain_alloc_budget(threads: usize) -> u64 {
    if threads == 1 {
        0
    } else {
        SPAWN_ALLOCS
    }
}

/// Steady-state allocation profile: fixed-rate sessions (frame geometry
/// never changes, so buffers stop growing) sending plain, resilient and
/// adaptive jobs in turn, drained at `threads` worker threads.
///
/// Scratch buffers grow only on per-session records (a frame detecting
/// more silences than any before on that session, say), so the tail of
/// growth events decays with warm-up depth rather than stopping at a
/// fixed round count. Warm-up is therefore adaptive: rounds run until
/// two consecutive full drains stay within [`drain_alloc_budget`]
/// (capped at [`MAX_WARM_ROUNDS`]), and only then does measurement start.
fn run_alloc_phase(sessions: usize, measured: usize, threads: usize) -> AllocResult {
    let mut pool = SessionPool::with_capacity(sessions);
    let ids: Vec<SessionId> = (0..sessions)
        .map(|i| {
            // High enough SNR that every rate decodes from the first
            // round: the CRC-gated feedback path (EVM reconstruction)
            // must run during warm-up, or its buffers would first fill on
            // a weak session's first-ever CRC pass mid-measurement.
            let config = SessionConfig {
                snr_db: 28.0 + (i % 8) as f64,
                rate: Some(DataRate::ALL[i % 8]),
                ..Default::default()
            };
            pool.create(config, 0xA110C + i as u64)
        })
        .collect();

    let mut engine = BatchEngine::new(EngineConfig { threads });
    let (payloads, controls) = register_tables(&mut engine);
    let mut out = Vec::new();
    let mut digest = Fnv::new();

    let mut round = |pool: &mut SessionPool, digest: &mut Fnv| {
        for (k, &id) in ids.iter().enumerate() {
            let payload = payloads[k % payloads.len()];
            match k % 3 {
                0 => engine.submit(id, payload, controls[k % controls.len()]),
                1 => engine.submit_resilient(id, payload),
                _ => engine.submit_adaptive(id, payload),
            }
        }
        engine.drain_into(pool, &mut out);
        for o in &out {
            digest_outcome(digest, o);
        }
    };

    let mut warm_rounds = 0;
    let mut quiet = 0;
    while quiet < 2 && warm_rounds < MAX_WARM_ROUNDS {
        let before = counters().0;
        round(&mut pool, &mut digest);
        warm_rounds += 1;
        let quiet_drain = counters().0 - before <= drain_alloc_budget(threads);
        quiet = if quiet_drain { quiet + 1 } else { 0 };
    }
    let (a0, b0) = counters();
    for _ in 0..measured {
        round(&mut pool, &mut digest);
    }
    let (a1, b1) = counters();
    std::hint::black_box(digest.value());

    let frames = (sessions * measured) as f64;
    AllocResult {
        allocs_per_drain: (a1 - a0) as f64 / measured as f64,
        allocs_per_frame: (a1 - a0) as f64 / frames,
        bytes_per_frame: (b1 - b0) as f64 / frames,
        warm_rounds,
    }
}

/// The `--smoke` outcome digest (since the decode epoch).
const SMOKE_DIGEST: u64 = 0xf9b5_e0fe_4f27_774c;

/// Warm-up cap of the allocation phase, the same at smoke and full scale
/// so a warm-up that has not gone quiet cannot fail a smoke run falsely.
const MAX_WARM_ROUNDS: usize = 64;

fn main() {
    let flags = Flags::parse(&["--smoke", "--kernels"]);
    let (sessions, rounds, measured) = if flags.smoke { (1024, 2, 1) } else { (1536, 4, 3) };

    eprintln!(
        "session_storm: {sessions} sessions, {rounds} rounds, threads {THREAD_COUNTS:?}, \
         kernels {:?}",
        flags.kernels.iter().map(|k| k.0).collect::<Vec<_>>()
    );

    let mut digests = Vec::new();
    let mut failed = false;
    for &(name, mode) in &flags.kernels {
        // Pinned before any worker thread spawns, so every storm below
        // observes one mode for its whole run.
        set_kernel_mode(mode);
        eprintln!("  [{name}]");
        for t in THREAD_COUNTS {
            let s = run_storm(sessions, rounds, t);
            eprintln!("    threads={t}: digest {:016x}, {} jobs", s.digest, s.jobs);
            digests.push(s.digest);
        }
        for threads in [1, 2] {
            let alloc = run_alloc_phase(sessions, measured, threads);
            let budget = drain_alloc_budget(threads);
            eprintln!(
                "    steady state, threads={threads}: {:.1} allocs/drain (budget {budget}), \
                 {:.3} allocs/frame, {:.1} bytes/frame ({} warm rounds)",
                alloc.allocs_per_drain,
                alloc.allocs_per_frame,
                alloc.bytes_per_frame,
                alloc.warm_rounds
            );
            if alloc.allocs_per_drain > budget as f64 {
                eprintln!(
                    "session_storm FAILED: [{name}] {:.1} allocs/drain at steady state on \
                     {threads} thread(s) (want at most {budget})",
                    alloc.allocs_per_drain
                );
                failed = true;
            }
        }
    }

    // Bit-identity contract: the digest must agree across *kernels* as
    // well as thread counts.
    if digests.iter().any(|&d| d != digests[0]) {
        eprintln!("session_storm FAILED: outcome digests differ across thread counts or kernels");
        failed = true;
    }
    if flags.smoke && !smoke_pin_holds("session_storm", "outcome", digests[0], SMOKE_DIGEST) {
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("session_storm passed");
}
