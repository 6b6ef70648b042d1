//! The `alloc` entry: allocation gate for the zero-copy workspace
//! pipeline, the session paths and the batch engine's steady state.
//!
//! Runs the end-to-end chain (build frame → indoor channel → front end →
//! decode) through the `*_into` workspace pipeline under the counting
//! global allocator. Also profiles the streaming receive path
//! (`receive_stream_into`), the transmit control path
//! (`build_frame_into` + `embed_into` + `render`), and the resilient and
//! adaptive session paths with their ARQ queues loaded. The owned,
//! allocating PHY APIs are not run: `tests/workspace_reuse.rs` and
//! `cos_phy::pipeline`'s tests pin them equal to the workspace path bit
//! for bit, and an absolute budget says more than a ratio to them.
//!
//! A footprint phase adds sessions to a warmed single-thread
//! [`BatchEngine`] and counts the bytes each new session (and its first
//! drained frame) allocates: the frame-sized planes belong to the
//! threads that run frames, never to a session, so a session costs its
//! persistent state and its ~1 KB in the pool's slab.
//!
//! A drain phase runs a fixed-rate pool of plain, resilient and adaptive
//! jobs through [`BatchEngine`] at 1 and at 2 worker threads, together
//! with a faulted fleet: resilient sessions on a lossy reverse path
//! (`FeedbackLoss`), whose guards cycle between ERROR and BASE. After
//! warm-up drains every buffer has reached capacity.
//!
//! Fails unless every gate holds:
//!
//! * the workspace rx, the streaming workspace rx and the embedding
//!   workspace tx each allocate nothing per frame, and get every
//!   measured frame through (a CRC-passing decode, or a frame built with
//!   its control bits embedded), so the gate is measured on a working
//!   path;
//! * the resilient and the adaptive session paths each allocate fewer
//!   than `SESSION_ALLOCS_MAX` times per frame, with one queued
//!   control message per frame sent, and deliver data on some frame;
//! * each session added to a warmed engine allocates at most
//!   `FOOTPRINT_KIB` KiB, at 54 and at 6 Mbps;
//! * a warmed drain allocates **zero** times on 1 thread, and at most
//!   `SPAWN_ALLOCS` times on 2 — what spawning the one extra scoped
//!   worker costs — however many jobs the drain holds, and the faulted
//!   fleet's guards change mode during the measured drains, so the gate
//!   covers the ERROR/BASE cycle.
//!
//! `--smoke` shrinks only the drain phase (1024 sessions and one
//! measured drain, against 1536 and three).

use std::hint::black_box;

use crate::gate::{
    control_bits, counters, digest_outcome, payload_bytes, register_tables, Verdict, CONTROL_LENS,
};
use cos_channel::{ChannelConfig, FaultEngine, FeedbackLoss, Link};
use cos_core::engine::{BatchEngine, EngineConfig, JobResult, SessionId, SessionPool};
use cos_core::session::{CosSession, Fnv, SessionConfig};
use cos_core::PowerController;
use cos_dsp::Complex;
use cos_phy::rates::DataRate;
use cos_phy::rx::Receiver;
use cos_phy::tx::Transmitter;
use cos_phy::PhyWorkspace;

/// Warm-up frames of every per-frame gate: enough for the feedback
/// history, the probe search and the message buffers of the session
/// paths to settle.
const WARMUP_FRAMES: usize = 20;
const MEASURED_FRAMES: usize = 200;
const SNR_DB: f64 = 20.0;

/// A deterministic 1020-byte payload (1024-byte PSDU).
fn bench_payload() -> Vec<u8> {
    payload_bytes(1020)
}

/// What one per-frame path did over the measured frames.
struct PerFrame {
    allocs_per_frame: f64,
    /// Measured frames whose step returned `true` (decoded with a passing
    /// CRC, or built with its control bits embedded): a path that fails
    /// early allocates nothing, so a zero-allocation gate means
    /// something only next to this count.
    ok: usize,
}

/// Runs `MEASURED_FRAMES` iterations of `step` after a warmup, counting
/// the allocations and the `true` results of the measured ones.
fn per_frame(mut step: impl FnMut() -> bool) -> PerFrame {
    for _ in 0..WARMUP_FRAMES {
        black_box(step());
    }
    let a0 = counters().0;
    let mut ok = 0;
    for _ in 0..MEASURED_FRAMES {
        ok += usize::from(black_box(step()));
    }
    PerFrame { allocs_per_frame: (counters().0 - a0) as f64 / MEASURED_FRAMES as f64, ok }
}

fn run_workspace() -> PerFrame {
    let payload = bench_payload();
    let mut link = Link::new(ChannelConfig::default(), SNR_DB, 42);
    let tx = Transmitter::new();
    let rx = Receiver::new();
    let mut ws = PhyWorkspace::new();
    per_frame(move || {
        tx.build_frame_into(&payload, DataRate::Mbps24, 0x5D, &mut ws.tx);
        ws.tx.render();
        link.transmit_into(&ws.tx.samples, &mut ws.rx.samples);
        let cos_phy::RxWorkspace { samples, fe, scratch, out, .. } = &mut ws.rx;
        match rx.front_end_into(samples, fe) {
            Ok(()) => {
                rx.decode_into(fe, None, scratch, out);
                out.crc_ok
            }
            Err(_) => false,
        }
    })
}

/// Idle samples before the frame in the streaming-rx scenario, so the
/// synchroniser genuinely has to find the preamble.
const STREAM_PAD: usize = 96;

fn run_stream_workspace() -> PerFrame {
    let payload = bench_payload();
    let mut link = Link::new(ChannelConfig::default(), SNR_DB, 42);
    let tx = Transmitter::new();
    let rx = Receiver::new();
    let mut ws = PhyWorkspace::new();
    let mut stream: Vec<Complex> = Vec::new();
    per_frame(move || {
        tx.build_frame_into(&payload, DataRate::Mbps24, 0x5D, &mut ws.tx);
        ws.tx.render();
        link.transmit_into(&ws.tx.samples, &mut ws.rx.samples);
        stream.clear();
        stream.resize(STREAM_PAD, Complex::ZERO);
        stream.extend_from_slice(&ws.rx.samples);
        match rx.receive_stream_into(&stream, None, &mut ws.rx) {
            Ok(_) => ws.rx.out.crc_ok,
            Err(_) => false,
        }
    })
}

/// Control subcarriers and bits for the tx+embed scenario (the same
/// shape the power-controller unit tests use).
const EMBED_SELECTED: [usize; 6] = [3, 11, 19, 27, 35, 43];
const EMBED_BITS: [u8; 8] = [1, 0, 1, 1, 0, 1, 0, 0];

fn run_embed_workspace() -> PerFrame {
    let payload = bench_payload();
    let tx = Transmitter::new();
    let pc = PowerController::default();
    let mut ws = PhyWorkspace::new();
    let mut positions: Vec<usize> = Vec::new();
    per_frame(move || {
        tx.build_frame_into(&payload, DataRate::Mbps24, 0x5D, &mut ws.tx);
        pc.embed_into(&mut ws.tx.frame, &EMBED_SELECTED, &EMBED_BITS, &mut positions)
            .expect("fits");
        let n = ws.tx.render().len();
        !positions.is_empty() && n > 0
    })
}

/// Allocations per frame the resilient and adaptive paths must stay
/// below.
const SESSION_ALLOCS_MAX: f64 = 0.1;

/// One session path (`send`, returning the data CRC) with its ARQ queue
/// loaded before the window with one control message per frame the gate
/// sends: a frame polls at most one message, so the queue is never empty
/// when polled.
fn run_session(send: fn(&mut CosSession, &[u8]) -> bool) -> PerFrame {
    let payload = bench_payload();
    let mut session = CosSession::new(SessionConfig { snr_db: SNR_DB, ..Default::default() }, 42);
    for i in 0..WARMUP_FRAMES + MEASURED_FRAMES {
        session.queue_control(control_bits(CONTROL_LENS[i % CONTROL_LENS.len()]));
    }
    per_frame(move || send(&mut session, &payload))
}

/// Sessions the footprint phase warms the engine with, then adds.
const FOOTPRINT_SESSIONS: u64 = 64;
/// Most KiB one session added to a warmed engine may allocate.
const FOOTPRINT_KIB: f64 = 4.0;

/// KiB allocated per session added to a warmed single-thread engine at
/// `rate`: one drain of one 1020-byte frame for each of
/// [`FOOTPRINT_SESSIONS`] sessions warms the worker lanes and the job
/// buffers, then as many new sessions are created and drained once,
/// one frame each. Counts everything those sessions cost: creation,
/// the pool slab's growth, and their first frame.
fn footprint_kib_per_session(rate: DataRate) -> f64 {
    let config = SessionConfig { snr_db: SNR_DB, rate: Some(rate), ..Default::default() };
    let mut pool = SessionPool::new();
    let mut engine = BatchEngine::new(EngineConfig { threads: 1 });
    let payload = engine.add_payload(&bench_payload());
    let control = engine.add_control(&EMBED_BITS);
    let mut out = Vec::new();
    let mut add_and_drain = |seeds: std::ops::Range<u64>| {
        for seed in seeds {
            let id = pool.create(config.clone(), seed);
            engine.submit(id, payload, control);
        }
        engine.drain_into(&mut pool, &mut out);
    };
    add_and_drain(0..FOOTPRINT_SESSIONS);
    let b0 = counters().1;
    add_and_drain(FOOTPRINT_SESSIONS..2 * FOOTPRINT_SESSIONS);
    let b1 = counters().1;
    (b1 - b0) as f64 / 1024.0 / FOOTPRINT_SESSIONS as f64
}

struct DrainAllocs {
    allocs_per_drain: f64,
    allocs_per_frame: f64,
    bytes_per_frame: f64,
    warm_rounds: usize,
    /// Resilient frames of the measured drains sent in one mode and
    /// leaving the guard in another.
    mode_changes: usize,
}

/// Resilient sessions the drain phase adds on a lossy reverse path, at
/// 14–23 dB with unpinned rates and [`FAULTED_PAYLOAD`]-byte frames.
const FAULTED_SESSIONS: usize = 256;
/// Report-loss probability of the faulted fleet's reverse path: four
/// lost reports in a row enter ERROR, and a lost report fails the BASE
/// probe, so the guards keep cycling.
const FAULTED_LOSS: f64 = 0.6;
const FAULTED_PAYLOAD: usize = 300;

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

/// Warm-up cap of the drain phase, the same at smoke and full scale so a
/// warm-up that has not gone quiet cannot fail a smoke run falsely.
const MAX_WARM_ROUNDS: usize = 64;

/// Steady-state allocation profile: fixed-rate sessions (frame geometry
/// never changes, so buffers stop growing) sending plain, resilient and
/// adaptive jobs in turn, plus the [`FAULTED_SESSIONS`] faulted
/// resilient sessions, drained at `threads` worker threads.
///
/// Scratch buffers grow only on per-session records (a frame detecting
/// more silences than any before on that session, say), so the tail of
/// growth events decays with warm-up depth rather than stopping at a
/// fixed round count. Warm-up is therefore adaptive: rounds run until
/// two consecutive full drains stay within [`drain_alloc_budget`]
/// (capped at [`MAX_WARM_ROUNDS`]), and only then does measurement start.
fn run_drain_phase(sessions: usize, measured: usize, threads: usize) -> DrainAllocs {
    let mut pool = SessionPool::with_capacity(sessions + FAULTED_SESSIONS);
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
    let faulted: Vec<SessionId> = (0..FAULTED_SESSIONS)
        .map(|i| {
            let config = SessionConfig { snr_db: 14.0 + (i % 10) as f64, ..Default::default() };
            let seed = 0xFA17 + i as u64;
            let id = pool.create(config, seed);
            let loss = FaultEngine::new().with(FeedbackLoss::new(FAULTED_LOSS, seed));
            pool.get_mut(id).expect("just created").set_faults(loss);
            id
        })
        .collect();

    let mut engine = BatchEngine::new(EngineConfig { threads });
    let (payloads, controls) = register_tables(&mut engine);
    let faulted_payload = engine.add_payload(&payload_bytes(FAULTED_PAYLOAD));
    let mut out = Vec::new();
    let mut digest = Fnv::new();

    // One drain; returns the resilient frames that changed the guard's
    // mode.
    let mut round = |pool: &mut SessionPool, digest: &mut Fnv| {
        for (k, &id) in ids.iter().enumerate() {
            let payload = payloads[k % payloads.len()];
            match k % 3 {
                0 => engine.submit(id, payload, controls[k % controls.len()]),
                1 => engine.submit_resilient(id, payload),
                _ => engine.submit_adaptive(id, payload),
            }
        }
        for &id in &faulted {
            engine.submit_resilient(id, faulted_payload);
        }
        engine.drain_into(pool, &mut out);
        let mut mode_changes = 0;
        for o in &out {
            digest_outcome(digest, o);
            if let JobResult::Resilient(r) = &o.result {
                mode_changes += usize::from(r.mode != r.mode_after);
            }
        }
        mode_changes
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
    let mut mode_changes = 0;
    for _ in 0..measured {
        mode_changes += round(&mut pool, &mut digest);
    }
    let (a1, b1) = counters();
    black_box(digest.value());

    let frames = ((sessions + FAULTED_SESSIONS) * measured) as f64;
    DrainAllocs {
        allocs_per_drain: (a1 - a0) as f64 / measured as f64,
        allocs_per_frame: (a1 - a0) as f64 / frames,
        bytes_per_frame: (b1 - b0) as f64 / frames,
        warm_rounds,
        mode_changes,
    }
}

/// The `alloc` entry (see the module docs).
pub fn run(v: &mut Verdict, smoke: bool) {
    let phy = [
        ("workspace rx", run_workspace()),
        ("streaming workspace rx", run_stream_workspace()),
        ("tx+embed workspace path", run_embed_workspace()),
    ];
    for (path, m) in phy {
        let allocs = m.allocs_per_frame;
        eprintln!("  {path}: {allocs:.2} allocs/frame, {}/{MEASURED_FRAMES} frames ok", m.ok);
        v.check(allocs == 0.0, format_args!("{path} allocates {allocs:.2}/frame (want 0)"));
        v.check(
            m.ok == MEASURED_FRAMES,
            format_args!("{path} got {}/{MEASURED_FRAMES} frames through (want all)", m.ok),
        );
    }

    let resilient = run_session(|s, p| s.send_packet_resilient_summary(p).packet.data_ok);
    let adaptive = run_session(|s, p| s.send_packet_adaptive_summary(p).packet.data_ok);
    for (path, m) in [("resilient", resilient), ("adaptive", adaptive)] {
        let allocs = m.allocs_per_frame;
        eprintln!(
            "  {path} session path: {allocs:.3} allocs/frame, {}/{MEASURED_FRAMES} frames ok \
             (ARQ queue loaded)",
            m.ok
        );
        v.check(
            allocs < SESSION_ALLOCS_MAX,
            format_args!(
                "{path} session path allocates {allocs:.3}/frame (want < {SESSION_ALLOCS_MAX})"
            ),
        );
        v.check(m.ok > 0, format_args!("{path} session path delivered no data frame"));
    }

    for rate in [DataRate::Mbps54, DataRate::Mbps6] {
        let kib = footprint_kib_per_session(rate);
        eprintln!("  a session added to a warmed engine at {rate}: {kib:.1} KiB");
        v.check(
            kib <= FOOTPRINT_KIB,
            format_args!(
                "a session added to a warmed engine at {rate} allocates {kib:.1} KiB \
                 (want ≤ {FOOTPRINT_KIB})"
            ),
        );
    }

    let (sessions, measured) = if smoke { (1024, 1) } else { (1536, 3) };
    for threads in [1, 2] {
        let drain = run_drain_phase(sessions, measured, threads);
        let budget = drain_alloc_budget(threads);
        eprintln!(
            "  steady state, {sessions} sessions + {FAULTED_SESSIONS} faulted (resilient, \
             FeedbackLoss {FAULTED_LOSS}), threads={threads}: {:.1} allocs/drain \
             (budget {budget}), {:.3} allocs/frame, {:.1} bytes/frame ({} warm rounds, {} guard \
             mode changes measured)",
            drain.allocs_per_drain,
            drain.allocs_per_frame,
            drain.bytes_per_frame,
            drain.warm_rounds,
            drain.mode_changes
        );
        v.check(
            drain.allocs_per_drain <= budget as f64,
            format_args!(
                "{:.1} allocs/drain at steady state on {threads} thread(s) (want at most \
                 {budget})",
                drain.allocs_per_drain
            ),
        );
        v.check(
            drain.mode_changes > 0,
            format_args!(
                "the faulted fleet's guards changed no mode in the measured drains on \
                 {threads} thread(s)"
            ),
        );
    }
}
