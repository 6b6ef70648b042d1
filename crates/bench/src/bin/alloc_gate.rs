//! Allocation gate for the zero-copy workspace pipeline.
//!
//! Runs the same end-to-end chain (build frame → indoor channel →
//! front end → decode) twice: once through the owned, allocating APIs
//! and once through the `*_into` workspace pipeline, under the counting
//! global allocator. Also profiles the streaming receive path
//! (`receive_stream` vs `receive_stream_into`), the transmit control
//! path (`build_frame` + `PowerController::embed` + `to_time_samples` vs
//! `build_frame_into` + `embed_into` + `render`), and the resilient and
//! adaptive session paths with their ARQ queues loaded.
//!
//! A footprint phase adds sessions to a warmed single-thread
//! [`BatchEngine`] and counts the bytes each new session (and its first
//! drained frame) allocates: the frame-sized planes belong to the
//! engine's workers, so a session holds only its persistent state.
//!
//! Exits non-zero unless all six gates hold:
//!
//! * the workspace path allocates at most a tenth of what the owned path
//!   does per frame, **or** runs the rx chain at least 1.5× faster;
//! * the streaming workspace rx allocates nothing per frame;
//! * the embedding workspace tx allocates nothing per frame;
//! * the resilient and the adaptive session paths each allocate fewer
//!   than [`SESSION_ALLOCS_MAX`] times per frame, with one queued
//!   control message per frame sent;
//! * each session added to a warmed engine allocates at most
//!   [`FOOTPRINT_KIB`] KiB, at 54 and at 6 Mbps.

use std::hint::black_box;
use std::time::Instant;

use cos_bench::gate::{control_bits, counters, payload_bytes, Flags, CONTROL_LENS};
use cos_channel::{ChannelConfig, Link};
use cos_core::engine::{BatchEngine, EngineConfig, SessionPool};
use cos_core::session::{CosSession, SessionConfig};
use cos_core::PowerController;
use cos_dsp::Complex;
use cos_phy::rates::DataRate;
use cos_phy::rx::{Receiver, RxConfig};
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

struct Measurement {
    allocs_per_frame: f64,
    /// Only the owned-vs-workspace rx gate reads the throughput.
    frames_per_sec: f64,
    crc_ok: usize,
}

/// Runs `frames` iterations of `step` after a warmup, returning the
/// per-frame allocation count and throughput.
fn measure(mut step: impl FnMut() -> bool) -> Measurement {
    for _ in 0..WARMUP_FRAMES {
        black_box(step());
    }
    let a0 = counters().0;
    let start = Instant::now();
    let mut crc_ok = 0usize;
    for _ in 0..MEASURED_FRAMES {
        if black_box(step()) {
            crc_ok += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let a1 = counters().0;
    Measurement {
        allocs_per_frame: (a1 - a0) as f64 / MEASURED_FRAMES as f64,
        frames_per_sec: MEASURED_FRAMES as f64 / elapsed,
        crc_ok,
    }
}

fn run_owned() -> Measurement {
    let payload = bench_payload();
    let mut link = Link::new(ChannelConfig::default(), SNR_DB, 42);
    let tx = Transmitter::new();
    let rx = Receiver::new();
    measure(|| {
        let frame = tx.build_frame(&payload, DataRate::Mbps24, 0x5D);
        let rx_samples = link.transmit(&frame.to_time_samples());
        match rx.receive(&rx_samples, &RxConfig::ideal()) {
            Ok(decoded) => decoded.crc_ok(),
            Err(_) => false,
        }
    })
}

fn run_workspace() -> Measurement {
    let payload = bench_payload();
    let mut link = Link::new(ChannelConfig::default(), SNR_DB, 42);
    let tx = Transmitter::new();
    let rx = Receiver::new();
    let mut ws = PhyWorkspace::new();
    measure(move || {
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

/// Idle samples before the frame in the streaming-rx scenarios, so the
/// synchroniser genuinely has to find the preamble.
const STREAM_PAD: usize = 96;

fn run_stream_owned() -> Measurement {
    let payload = bench_payload();
    let mut link = Link::new(ChannelConfig::default(), SNR_DB, 42);
    let tx = Transmitter::new();
    let rx = Receiver::new();
    measure(|| {
        let frame = tx.build_frame(&payload, DataRate::Mbps24, 0x5D);
        let rx_samples = link.transmit(&frame.to_time_samples());
        let mut stream = vec![Complex::ZERO; STREAM_PAD];
        stream.extend_from_slice(&rx_samples);
        match rx.receive_stream(&stream, &RxConfig::ideal()) {
            Ok((_, decoded)) => decoded.crc_ok(),
            Err(_) => false,
        }
    })
}

fn run_stream_workspace() -> Measurement {
    let payload = bench_payload();
    let mut link = Link::new(ChannelConfig::default(), SNR_DB, 42);
    let tx = Transmitter::new();
    let rx = Receiver::new();
    let mut ws = PhyWorkspace::new();
    let mut stream: Vec<Complex> = Vec::new();
    measure(move || {
        tx.build_frame_into(&payload, DataRate::Mbps24, 0x5D, &mut ws.tx);
        ws.tx.render();
        link.transmit_into(&ws.tx.samples, &mut ws.rx.samples);
        stream.clear();
        stream.resize(STREAM_PAD, Complex::ZERO);
        stream.extend_from_slice(&ws.rx.samples);
        match rx.receive_stream_into(&stream, &RxConfig::ideal(), &mut ws.rx) {
            Ok(_) => ws.rx.out.crc_ok,
            Err(_) => false,
        }
    })
}

/// Control subcarriers and bits for the tx+embed scenarios (the same
/// shape the power-controller unit tests use).
const EMBED_SELECTED: [usize; 6] = [3, 11, 19, 27, 35, 43];
const EMBED_BITS: [u8; 8] = [1, 0, 1, 1, 0, 1, 0, 0];

fn run_embed_owned() -> Measurement {
    let payload = bench_payload();
    let tx = Transmitter::new();
    let pc = PowerController::default();
    measure(|| {
        let mut frame = tx.build_frame(&payload, DataRate::Mbps24, 0x5D);
        let positions = pc.embed(&mut frame, &EMBED_SELECTED, &EMBED_BITS).expect("fits");
        let samples = frame.to_time_samples();
        !positions.is_empty() && !samples.is_empty()
    })
}

fn run_embed_workspace() -> Measurement {
    let payload = bench_payload();
    let tx = Transmitter::new();
    let pc = PowerController::default();
    let mut ws = PhyWorkspace::new();
    let mut positions: Vec<usize> = Vec::new();
    measure(move || {
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
/// (`queue`) loaded before the window with one control message per
/// frame the gate sends: a frame polls at most one message, so the
/// queue is never empty when polled.
fn run_session(
    queue: fn(&mut CosSession, Vec<u8>),
    send: fn(&mut CosSession, &[u8]) -> bool,
) -> Measurement {
    let payload = bench_payload();
    let mut session = CosSession::new(SessionConfig { snr_db: SNR_DB, ..Default::default() }, 42);
    for i in 0..WARMUP_FRAMES + MEASURED_FRAMES {
        queue(&mut session, control_bits(CONTROL_LENS[i % CONTROL_LENS.len()]));
    }
    measure(move || send(&mut session, &payload))
}

/// Sessions the footprint phase warms the engine with, then adds.
const FOOTPRINT_SESSIONS: u64 = 64;
/// Most KiB one session added to a warmed engine may allocate.
const FOOTPRINT_KIB: f64 = 128.0;

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

fn main() {
    Flags::parse(&[]);

    let owned = run_owned();
    let workspace = run_workspace();
    let stream_owned = run_stream_owned();
    let stream_workspace = run_stream_workspace();
    let resilient = run_session(CosSession::queue_control, |s, p| {
        s.send_packet_resilient_summary(p).packet.data_ok
    });
    let adaptive = run_session(CosSession::queue_adaptive_control, |s, p| {
        s.send_packet_adaptive_summary(p).packet.data_ok
    });
    let embed_owned = run_embed_owned();
    let embed_workspace = run_embed_workspace();
    let footprint: Vec<(DataRate, f64)> = [DataRate::Mbps54, DataRate::Mbps6]
        .into_iter()
        .map(|rate| (rate, footprint_kib_per_session(rate)))
        .collect();

    assert_eq!(
        owned.crc_ok, workspace.crc_ok,
        "owned and workspace paths decoded different frame counts"
    );
    assert_eq!(
        stream_owned.crc_ok, stream_workspace.crc_ok,
        "owned and workspace streaming paths decoded different frame counts"
    );
    assert_eq!(
        embed_owned.crc_ok, embed_workspace.crc_ok,
        "owned and workspace tx+embed paths built different frame counts"
    );

    // With a fully allocation-free workspace path the ratio is reported
    // against a 1-alloc floor, i.e. "at least N× fewer".
    let alloc_ratio = owned.allocs_per_frame / workspace.allocs_per_frame.max(1.0);
    let speedup = workspace.frames_per_sec / owned.frames_per_sec;
    let embed_ratio = embed_owned.allocs_per_frame / embed_workspace.allocs_per_frame.max(1.0);

    let mut failures = Vec::new();
    if alloc_ratio < 10.0 && speedup < 1.5 {
        failures.push(format!(
            "alloc reduction {alloc_ratio:.1}x (< 10x) and rx speedup {speedup:.3}x (< 1.5x)"
        ));
    }
    if stream_workspace.allocs_per_frame > 0.0 {
        failures.push(format!(
            "streaming workspace rx allocates {:.2}/frame (want 0)",
            stream_workspace.allocs_per_frame
        ));
    }
    if embed_workspace.allocs_per_frame > 0.0 {
        failures.push(format!(
            "tx+embed workspace path allocates {:.2}/frame (want 0)",
            embed_workspace.allocs_per_frame
        ));
    }
    for (path, m) in [("resilient", &resilient), ("adaptive", &adaptive)] {
        if m.allocs_per_frame >= SESSION_ALLOCS_MAX {
            failures.push(format!(
                "{path} session path allocates {:.3}/frame (want < {SESSION_ALLOCS_MAX})",
                m.allocs_per_frame
            ));
        }
    }
    for &(rate, kib) in &footprint {
        if kib > FOOTPRINT_KIB {
            failures.push(format!(
                "a session added to a warmed engine at {rate} allocates {kib:.1} KiB \
                 (want ≤ {FOOTPRINT_KIB})"
            ));
        }
    }
    if !failures.is_empty() {
        eprintln!("alloc gate FAILED: {}", failures.join("; "));
        std::process::exit(1);
    }
    eprintln!(
        "alloc gate passed: {alloc_ratio:.1}x fewer allocs, {speedup:.3}x rx speedup, \
         streaming rx 0 allocs/frame, tx+embed 0 allocs/frame ({embed_ratio:.1}x fewer), \
         resilient {:.3} / adaptive {:.3} allocs/frame, \
         {} KiB per added engine session",
        resilient.allocs_per_frame,
        adaptive.allocs_per_frame,
        footprint
            .iter()
            .map(|(rate, kib)| format!("{rate} {kib:.1}"))
            .collect::<Vec<_>>()
            .join(" / ")
    );
}
