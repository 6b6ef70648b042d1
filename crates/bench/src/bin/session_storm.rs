//! Thousand-session batch-engine storm: determinism and allocation gate
//! for `cos_core::engine`.
//!
//! Three phases:
//!
//! 1. **Cross-thread determinism** — builds the same pool of ≥1000
//!    sessions three times, runs the identical mixed plain/resilient job
//!    schedule (with create/release churn between rounds) through
//!    [`BatchEngine`] at 1, 4 and 8 worker threads, and FNV-digests every
//!    outcome field (`f64`s via `to_bits`). The digests must be
//!    byte-identical — the engine's core contract.
//! 2. **Steady-state allocation** — a fixed-rate pool drained
//!    single-threaded under a counting global allocator; after warm-up
//!    drains every buffer has reached capacity and the measured drains
//!    must allocate **zero** times per frame.
//! 3. **Throughput** — frames/sec of the phase-1 storms per thread count.
//!
//! PR 9: the phases run once per symbol-plane kernel (`--kernels
//! scalar|lanes|both`, default `both`), and because the lane kernels are
//! bit-identical to the scalar reference the outcome digests must agree
//! across kernels as well as thread counts.
//!
//! The engine bundles every job kind by payload length and runs each
//! round through the sessions' one frame path (stage → lockstep
//! Viterbi → finish); the digests must agree across kernels and thread
//! counts.
//!
//! Prints its JSON report on full runs (written to `BENCH_pr10.json` in
//! the current directory only with `--record`) and exits non-zero on any
//! determinism or (full run) allocation failure. `--smoke` runs a
//! reduced schedule in well under 30 s and gates only determinism;
//! `--sessions N` / `--rounds N` override the scale.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cos_core::engine::{
    BatchEngine, ControlId, EngineConfig, JobOutcome, JobResult, PayloadId, SessionId, SessionPool,
};
use cos_core::session::{PacketSummary, SessionConfig};
use cos_core::LinkMode;
use cos_dsp::{set_kernel_mode, KernelMode};
use cos_phy::rates::DataRate;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counters() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// FNV-1a over the outcome stream — allocation-free byte-identity proxy.
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

fn digest_outcome(h: &mut Fnv, o: &JobOutcome) {
    h.usize(o.session.index());
    let mode_code = |m: LinkMode| match m {
        LinkMode::Cos => 0u8,
        LinkMode::DataOnly => 1,
        LinkMode::Probing => 2,
    };
    match &o.result {
        JobResult::Plain(p) => {
            h.byte(1);
            digest_packet(h, p);
        }
        JobResult::Resilient(r) => {
            h.byte(2);
            digest_packet(h, &r.packet);
            h.byte(mode_code(r.mode));
            h.byte(mode_code(r.mode_after));
            h.bool(r.control_attempted);
            h.bool(r.control_acked);
            h.bool(r.feedback_delivered);
            match r.phy_error {
                None => h.byte(0),
                Some(kind) => {
                    h.byte(1);
                    for b in kind.bytes() {
                        h.byte(b);
                    }
                }
            }
        }
        // The session storm submits only plain and resilient jobs; the
        // adaptive path has its own storm (`adaptation_storm`).
        JobResult::Adaptive(_) => unreachable!("session_storm submits no adaptive jobs"),
        JobResult::StaleSession => h.byte(3),
    }
}

const PAYLOAD_LENS: [usize; 4] = [96, 240, 504, 1020];
const CONTROL_LENS: [usize; 4] = [8, 12, 16, 24];

fn payload_bytes(len: usize) -> Vec<u8> {
    (0..len as u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect()
}

fn control_bits(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 5 + len).is_multiple_of(3) as u8).collect()
}

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
    frames_per_sec: f64,
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
    let start = Instant::now();

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

    StormResult { digest: digest.0, jobs, frames_per_sec: jobs as f64 / start.elapsed().as_secs_f64() }
}

struct AllocResult {
    allocs_per_frame: f64,
    bytes_per_frame: f64,
    frames_per_sec: f64,
    warm_rounds: usize,
}

/// Steady-state allocation profile: fixed-rate sessions (frame geometry
/// never changes, so buffers stop growing), plain jobs only, drained
/// single-threaded (the strict zero-allocation path).
///
/// Scratch buffers grow only on per-session records (a frame detecting
/// more silences than any before on that session, say), so the tail of
/// growth events decays with warm-up depth rather than stopping at a
/// fixed round count. Warm-up is therefore adaptive: rounds run until
/// two consecutive full drains allocate nothing (capped at `max_warm`),
/// and only then does measurement start.
fn run_alloc_phase(sessions: usize, max_warm: usize, measured: usize) -> AllocResult {
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

    let mut engine = BatchEngine::new(EngineConfig { threads: 1 });
    let (payloads, controls) = register_tables(&mut engine);
    let mut out = Vec::new();
    let mut digest = Fnv::new();

    let mut round = |pool: &mut SessionPool, digest: &mut Fnv| {
        for (k, &id) in ids.iter().enumerate() {
            // Plain path only: resilient ARQ history snapshots allocate
            // by design (they outlive the frame).
            engine.submit(id, payloads[k % payloads.len()], controls[k % controls.len()]);
        }
        engine.drain_into(pool, &mut out);
        for o in &out {
            digest_outcome(digest, o);
        }
    };

    let mut warm_rounds = 0;
    let mut quiet = 0;
    while quiet < 2 && warm_rounds < max_warm {
        let before = counters().0;
        round(&mut pool, &mut digest);
        warm_rounds += 1;
        quiet = if counters().0 == before { quiet + 1 } else { 0 };
    }
    let (a0, b0) = counters();
    let start = Instant::now();
    for _ in 0..measured {
        round(&mut pool, &mut digest);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let (a1, b1) = counters();
    std::hint::black_box(digest.0);

    let frames = (sessions * measured) as f64;
    AllocResult {
        allocs_per_frame: (a1 - a0) as f64 / frames,
        bytes_per_frame: (b1 - b0) as f64 / frames,
        frames_per_sec: frames / elapsed,
        warm_rounds,
    }
}

fn arg_text(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for (i, arg) in args.iter().enumerate() {
        if let Some(v) = arg.strip_prefix(&format!("--{name}=")) {
            return Some(v.to_string());
        }
        if arg == &format!("--{name}") {
            return Some(
                args.get(i + 1).unwrap_or_else(|| panic!("--{name} requires a value")).clone(),
            );
        }
    }
    None
}

fn arg_value(name: &str) -> Option<usize> {
    arg_text(name).map(|v| v.parse().unwrap_or_else(|_| panic!("--{name} takes an integer")))
}

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

/// One kernel mode's full run: storms per thread count plus the
/// single-threaded steady-state allocation profile.
struct ModeReport {
    name: &'static str,
    storms: Vec<StormResult>,
    alloc: AllocResult,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sessions = arg_value("sessions").unwrap_or(if smoke { 1024 } else { 1536 });
    let rounds = arg_value("rounds").unwrap_or(if smoke { 2 } else { 4 });
    let (max_warm, measured) = if smoke { (4, 1) } else { (64, 3) };
    let kernels = arg_text("kernels").unwrap_or_else(|| "both".to_string());
    let modes: Vec<(&'static str, KernelMode)> = match kernels.as_str() {
        "scalar" => vec![("scalar", KernelMode::Scalar)],
        "lanes" => vec![("lanes", KernelMode::Lanes)],
        "both" => vec![("scalar", KernelMode::Scalar), ("lanes", KernelMode::Lanes)],
        other => panic!("--kernels takes scalar|lanes|both, got {other}"),
    };

    eprintln!(
        "session_storm: {sessions} sessions, {rounds} rounds, threads {THREAD_COUNTS:?}, \
         kernels {kernels}"
    );

    if std::env::args().any(|a| a == "--steady-only") {
        for &(name, mode) in &modes {
            set_kernel_mode(mode);
            let alloc = run_alloc_phase(sessions.max(1000), max_warm, measured);
            eprintln!(
                "  [{name}] steady state: {:.3} allocs/frame, {:.0} frames/sec",
                alloc.allocs_per_frame, alloc.frames_per_sec
            );
        }
        return;
    }

    let mut reports: Vec<ModeReport> = Vec::new();
    for &(name, mode) in &modes {
        // Pinned before any worker thread spawns, so every storm below
        // observes one mode for its whole run.
        set_kernel_mode(mode);
        eprintln!("  [{name}]");
        let storms: Vec<StormResult> =
            THREAD_COUNTS.iter().map(|&t| run_storm(sessions, rounds, t)).collect();
        for (t, s) in THREAD_COUNTS.iter().zip(&storms) {
            eprintln!(
                "    threads={t}: digest {:016x}, {} jobs, {:.0} frames/sec",
                s.digest, s.jobs, s.frames_per_sec
            );
        }
        let alloc = run_alloc_phase(sessions.max(1000), max_warm, measured);
        eprintln!(
            "    steady state: {:.3} allocs/frame, {:.1} bytes/frame, {:.0} frames/sec \
             ({} warm rounds)",
            alloc.allocs_per_frame, alloc.bytes_per_frame, alloc.frames_per_sec, alloc.warm_rounds
        );
        reports.push(ModeReport { name, storms, alloc });
    }

    // Bit-identity contract: the digest must agree across *kernels* as
    // well as thread counts.
    let reference = reports[0].storms[0].digest;
    let deterministic = reports.iter().all(|r| r.storms.iter().all(|s| s.digest == reference));

    if !smoke {
        let mode_section = |r: &ModeReport| {
            format!(
                "{{\n    \"frames_per_sec\": {{\n      \"threads_1\": {:.2},\n      \"threads_4\": {:.2},\n      \"threads_8\": {:.2}\n    }},\n    \"steady_state\": {{\n      \"warm_rounds\": {},\n      \"allocs_per_frame\": {:.4},\n      \"bytes_per_frame\": {:.1},\n      \"frames_per_sec\": {:.2}\n    }}\n  }}",
                r.storms[0].frames_per_sec,
                r.storms[1].frames_per_sec,
                r.storms[2].frames_per_sec,
                r.alloc.warm_rounds,
                r.alloc.allocs_per_frame,
                r.alloc.bytes_per_frame,
                r.alloc.frames_per_sec,
            )
        };
        let sections: String = reports
            .iter()
            .map(|r| format!("  \"{}\": {},\n", r.name, mode_section(r)))
            .collect();
        let speedup = if reports.len() == 2 {
            let s = &reports[0];
            let l = &reports[1];
            format!(
                "  \"lanes_vs_scalar\": {{\n    \"threads_1\": {:.3},\n    \"threads_4\": {:.3},\n    \"threads_8\": {:.3},\n    \"steady_state\": {:.3}\n  }},\n",
                l.storms[0].frames_per_sec / s.storms[0].frames_per_sec,
                l.storms[1].frames_per_sec / s.storms[1].frames_per_sec,
                l.storms[2].frames_per_sec / s.storms[2].frames_per_sec,
                l.alloc.frames_per_sec / s.alloc.frames_per_sec,
            )
        } else {
            String::new()
        };
        let json = format!(
            "{{\n  \"bench\": \"session_storm\",\n  \"sessions\": {sessions},\n  \"rounds\": {rounds},\n  \"jobs_per_storm\": {},\n  \"thread_counts\": [1, 4, 8],\n  \"steady_state_sessions\": {},\n  \"outcome_digest\": \"{:016x}\",\n  \"deterministic_across_threads_and_kernels\": {deterministic},\n{sections}{speedup}  \"crc_note\": \"digests cover every outcome field; equal digests mean byte-identical results\"\n}}\n",
            reports[0].storms[0].jobs,
            sessions.max(1000),
            reference,
        );
        cos_bench::emit_report("BENCH_pr10.json", &json);
    }

    let mut failed = false;
    if !deterministic {
        eprintln!("session_storm FAILED: outcome digests differ across thread counts or kernels");
        failed = true;
    }
    if !smoke {
        for r in &reports {
            if r.alloc.allocs_per_frame > 0.0 {
                eprintln!(
                    "session_storm FAILED: [{}] {:.4} allocs/frame at steady state (want 0)",
                    r.name, r.alloc.allocs_per_frame
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("session_storm passed");
}
