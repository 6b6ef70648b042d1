//! The traced run: times the calls into each layer's public functions
//! from this crate, keeping spans in memory and writing them out at the
//! end.
//!
//! The engine is opaque from outside, so the run replays the workload's
//! frame mix through the phy, channel and fec stage functions (same
//! configs, payloads and seeds) and, beside each replayed frame, sends
//! the same job through a real `CosSession`. It then drives the engine,
//! the service core and a mesh with the workload's own inputs, timing
//! each front-door call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cos_channel::{ImpairmentCtx, Link, OverlapComposer};
use cos_core::energy_detector::{Detection, DetectionAccuracy, EnergyDetector};
use cos_core::engine::SessionPool;
use cos_core::mesh::{DataEvent, MeshConfig, MeshNet, MeshTopology};
use cos_core::power_controller::{EmbedError, PowerController};
use cos_core::service::ServiceCore;
use cos_core::session::CosSession;
use cos_core::validation::validate_silences_into;
use cos_core::IntervalCodec;
use cos_dsp::{kernel_mode, GaussianSource};
use cos_fec::{LaneFrame, SymbolBatch, ViterbiDecoder};
use cos_phy::evm::reconstruct_points_into;
use cos_phy::frame::{prepare_data_field_into, run_staged_viterbi};
use cos_phy::rates::DataRate;
use cos_phy::rx::Receiver;
use cos_phy::subcarriers::NUM_DATA;
use cos_phy::tx::Transmitter;
use cos_phy::{RxWorkspace, TxWorkspace};

use crate::drive::{open_loop, CoreCall, EngineState, ServiceTables};
use crate::e2e::{arq_messages, build_mesh, check_ledger, mesh_tick, service_config, MeshTotals};
use crate::report::RunResult;
use crate::util::{quantile, ratio, Fnv, SplitMix};
use crate::workload::{self, poisson_schedule, JobKind, JobMix, SessionSpec, Workload};
use crate::Scale;

/// Counts allocations, for `core.engine.allocs_per_frame`.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method defers to the system allocator with its arguments
// unchanged, so the system allocator's contract carries over; the counter
// is a relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Span names: one per layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Name {
    Frame,
    TxBuild,
    Embed,
    Render,
    Channel,
    FrontEnd,
    Detect,
    Demap,
    FecStage,
    Viterbi,
    Finish,
    Reconstruct,
    Validate,
    Lockstep,
    Gauss,
    Overlap,
    SessionSend,
    PoolCreate,
    Drain,
    Submit,
    Pump,
    MeshStep,
}

impl Name {
    fn label(self) -> &'static str {
        match self {
            Name::Frame => "frame",
            Name::TxBuild => "phy.tx.build",
            Name::Embed => "core.power_controller.embed",
            Name::Render => "phy.tx.render",
            Name::Channel => "channel.transmit",
            Name::FrontEnd => "phy.rx.front_end",
            Name::Detect => "core.energy_detector.detect",
            Name::Demap => "phy.rx.demap",
            Name::FecStage => "fec.stage",
            Name::Viterbi => "fec.viterbi",
            Name::Finish => "phy.rx.finish",
            Name::Reconstruct => "phy.tx.reconstruct",
            Name::Validate => "core.validation.validate",
            Name::Lockstep => "fec.viterbi_lockstep",
            Name::Gauss => "dsp.rng.gauss",
            Name::Overlap => "channel.overlap",
            Name::SessionSend => "core.session.send",
            Name::PoolCreate => "core.engine.pool_create",
            Name::Drain => "core.engine.drain",
            Name::Submit => "core.service.submit",
            Name::Pump => "core.service.pump",
            Name::MeshStep => "core.mesh.step",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One timed call: what, which frame (or drain, tick, job), the span that
/// caused it, and when.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    id: u32,
    parent: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: Name, id: u32, parent: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            dur_ns: 0,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        let now = self.now_ns();
        let s = &mut self.spans[span as usize];
        s.dur_ns = now - s.start_ns;
    }

    /// Records a call timed elsewhere.
    fn record(&mut self, name: Name, id: u32, start: Instant, end: Instant) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent: NO_PARENT,
            start_ns,
            dur_ns,
        });
    }

    fn time<R>(&mut self, name: Name, id: u32, parent: u32, f: impl FnOnce() -> R) -> R {
        let span = self.open(name, id, parent);
        let r = f();
        self.close(span);
        r
    }

    /// Total duration and count of spans named `name`.
    fn total(&self, name: Name) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.dur_ns as f64, n + 1))
    }

    /// Mean span duration of `name` in microseconds (0 when none ran).
    fn mean_us(&self, name: Name) -> f64 {
        let (t, n) = self.total(name);
        if n == 0 {
            0.0
        } else {
            t / n as f64 / 1e3
        }
    }

    /// Cost of recording one span on this host, in nanoseconds.
    fn span_cost_ns() -> f64 {
        let mut t = Tracer::new();
        let n = 100_000;
        let t0 = Instant::now();
        for i in 0..n {
            let s = t.open(Name::Frame, i, NO_PARENT);
            t.close(s);
        }
        std::hint::black_box(&t.spans);
        t0.elapsed().as_nanos() as f64 / n as f64
    }

    /// Writes every span as CSV (name, id, parent, start, duration).
    fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name,id,parent,start_ns,dur_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{},{},{},{},{}",
                s.name.label(),
                s.id,
                parent,
                s.start_ns,
                s.dur_ns
            )?;
        }
        w.flush()
    }
}

/// Per-layer work counts gathered beside the spans.
#[derive(Debug, Default)]
struct Work {
    frames: u64,
    tx_samples: u64,
    gauss_draws: u64,
    demap_points: u64,
    viterbi_steps: u64,
    lockstep_steps: u64,
    front_end_failures: u64,
    overlaps: u64,
    detection: DetectionAccuracy,
    arq_retries: u64,
}

/// One replayed session: its own link and, beside it, a real session of
/// the same config and seed.
struct ReplaySession {
    spec: SessionSpec,
    link: Link,
    session: CosSession,
    seq: u64,
}

/// Per-frame scratch for one lockstep lane.
#[derive(Default)]
struct Slot {
    tx: TxWorkspace,
    rx: RxWorkspace,
    ref_tx: TxWorkspace,
    det: Detection,
    thresholds: Vec<f64>,
    selected: Vec<usize>,
    truth: Vec<usize>,
    refined: Vec<usize>,
    lock_prev: Vec<u64>,
    lock_out: Vec<u8>,
    /// Staged trellis of the last frame: (mother-code soft bits, steps).
    staged: Option<(usize, usize)>,
}

/// The stage replay of a job mix.
struct Replay {
    sessions: Vec<ReplaySession>,
    tx: Transmitter,
    rx: Receiver,
    pc: PowerController,
    detector: EnergyDetector,
    decoder: ViterbiDecoder,
    batch: SymbolBatch,
    slots: Vec<Slot>,
    next_id: u32,
    /// Outcome digest of the first round: which frames passed their CRC,
    /// and every decoded data bit.
    digest: Fnv,
}

/// The rate a replayed frame is sent at: the pinned rate, or the one the
/// session's SNR selects.
fn replay_rate(spec: &SessionSpec) -> DataRate {
    spec.config
        .rate
        .unwrap_or_else(|| DataRate::select(spec.config.snr_db))
}

impl Replay {
    fn new(specs: &[SessionSpec]) -> Replay {
        let sessions = specs
            .iter()
            .map(|s| ReplaySession {
                link: Link::new(s.config.channel, s.config.snr_db, s.seed),
                session: CosSession::new(s.config.clone(), s.seed),
                spec: s.clone(),
                seq: 0,
            })
            .collect();
        Replay {
            sessions,
            tx: Transmitter::new(),
            rx: Receiver::new(),
            pc: PowerController::new(IntervalCodec::new(4)),
            detector: EnergyDetector::new(1.0),
            decoder: ViterbiDecoder::new(),
            batch: SymbolBatch::new(),
            slots: (0..cos_dsp::lanes::LANES)
                .map(|_| Slot::default())
                .collect(),
            next_id: 0,
            digest: Fnv::default(),
        }
    }

    /// Replays one round: every session sends one frame. Frames of equal
    /// shape are taken eight at a time; each frame runs the per-frame
    /// decode, and every full bundle is also decoded in lockstep and
    /// checked bit-identical to the per-frame result.
    fn round(
        &mut self,
        mix: &JobMix,
        round: usize,
        tr: &mut Tracer,
        work: &mut Work,
        result: &mut RunResult,
    ) {
        let mut groups: BTreeMap<(u8, usize), Vec<usize>> = BTreeMap::new();
        for (i, rs) in self.sessions.iter().enumerate() {
            let len = mix.payloads[mix.payload_for(i, round)].len();
            groups
                .entry((replay_rate(&rs.spec) as u8, len))
                .or_default()
                .push(i);
        }
        for members in groups.values() {
            for bundle in members.chunks(cos_dsp::lanes::LANES) {
                for (lane, &i) in bundle.iter().enumerate() {
                    self.frame(mix, round, i, lane, tr, work, result);
                }
                if bundle.len() == cos_dsp::lanes::LANES {
                    self.lockstep(tr, work, result);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn frame(
        &mut self,
        mix: &JobMix,
        round: usize,
        i: usize,
        lane: usize,
        tr: &mut Tracer,
        work: &mut Work,
        result: &mut RunResult,
    ) {
        let Replay {
            sessions,
            tx,
            rx,
            pc,
            detector,
            slots,
            digest,
            ..
        } = self;
        let rs = &mut sessions[i];
        let slot = &mut slots[lane];
        let payload = &mix.payloads[mix.payload_for(i, round)];
        let control = &mix.controls[mix.control_for(i, round)];
        let rate = replay_rate(&rs.spec);
        let id = self.next_id;
        self.next_id += 1;
        rs.seq += 1;
        let scrambler_seed = (rs.seq % 127 + 1) as u8;
        slot.staged = None;

        let frame = tr.open(Name::Frame, id, NO_PARENT);
        tr.time(Name::TxBuild, id, frame, || {
            tx.build_frame_into(payload, rate, scrambler_seed, &mut slot.tx)
        });
        slot.selected.clear();
        slot.selected
            .extend(9..9 + rs.spec.config.min_control_subcarriers.max(1));
        tr.time(Name::Embed, id, frame, || embed(pc, slot, control));
        tr.time(Name::Render, id, frame, || slot.tx.render().len());
        work.tx_samples += slot.tx.samples.len() as u64;
        let RxWorkspace {
            samples,
            fe,
            scratch,
            out,
            ..
        } = &mut slot.rx;
        tr.time(Name::Channel, id, frame, || {
            rs.link.transmit_into(&slot.tx.samples, samples)
        });
        let front = tr.time(Name::FrontEnd, id, frame, || rx.front_end_into(samples, fe));
        if front.is_ok() {
            tr.time(Name::Detect, id, frame, || {
                detector.detect_into(fe, &slot.selected, &mut slot.thresholds, &mut slot.det)
            });
            let erasures = Some(slot.det.erasures.as_slice());
            tr.time(Name::Demap, id, frame, || {
                rx.demap_into(fe, erasures, scratch, out)
            });
            work.demap_points += (fe.equalized.len() * NUM_DATA) as u64;
            let prep = tr.time(Name::FecStage, id, frame, || {
                prepare_data_field_into(&scratch.llrs, fe.rate, fe.psdu_len, &mut scratch.fec)
            });
            if let Ok(p) = prep {
                tr.time(Name::Viterbi, id, frame, || {
                    run_staged_viterbi(p, &mut scratch.fec)
                });
                work.viterbi_steps += p.steps() as u64;
                slot.staged = Some((p.coded_to_tail, p.steps()));
            }
            tr.time(Name::Finish, id, frame, || {
                rx.decode_finish_into(fe, prep, scratch, out)
            });
            result.check(!out.crc_ok || out.payload == *payload, || {
                format!("replay frame {id}: CRC passed on a payload that differs from the one sent")
            });
            if round == 0 {
                digest.u64(i as u64);
                digest.byte(out.crc_ok as u8);
                out.data_bits.iter().for_each(|&b| digest.byte(b));
            }
            if let (true, Some(seed)) = (out.crc_ok, out.scrambler_seed) {
                let reference = tr.time(Name::Reconstruct, id, frame, || {
                    reconstruct_points_into(&out.payload, rate, seed, &mut slot.ref_tx)
                });
                tr.time(Name::Validate, id, frame, || {
                    validate_silences_into(fe, &slot.selected, reference, &mut slot.refined)
                });
            }
        } else {
            work.front_end_failures += 1;
            if round == 0 {
                digest.u64(i as u64);
                digest.byte(2);
            }
        }
        tr.close(frame);
        rs.link
            .channel_mut()
            .advance(rs.spec.config.packet_interval);
        work.frames += 1;

        // The Gaussian draws of this frame's AWGN, alone: two per sample.
        let draws = 2 * slot.tx.samples.len();
        let mut g = GaussianSource::new(rs.spec.seed ^ id as u64);
        tr.time(Name::Gauss, id, NO_PARENT, || {
            let mut acc = 0.0;
            for _ in 0..draws {
                acc += g.standard_normal();
            }
            std::hint::black_box(acc)
        });
        work.gauss_draws += draws as u64;

        // The same job through a real session.
        let session = &mut rs.session;
        match rs.spec.kind {
            JobKind::Resilient if session.arq_backlog() == 0 => {
                session.queue_control(control.clone())
            }
            JobKind::Adaptive if session.adaptive_backlog() == 0 => {
                session.queue_adaptive_control(control.clone())
            }
            _ => {}
        }
        let detection = tr.time(Name::SessionSend, id, NO_PARENT, || match rs.spec.kind {
            JobKind::Plain => session.send_packet_summary(payload, control).detection,
            JobKind::Resilient => {
                session
                    .send_packet_resilient_summary(payload)
                    .packet
                    .detection
            }
            JobKind::Adaptive => {
                session
                    .send_packet_adaptive_summary(payload)
                    .packet
                    .detection
            }
        });
        work.detection.merge(&detection);
    }

    /// Decodes the eight staged lanes in lockstep into separate buffers
    /// and checks them against the per-frame decode.
    fn lockstep(&mut self, tr: &mut Tracer, work: &mut Work, result: &mut RunResult) {
        let shapes: Vec<Option<(usize, usize)>> = self.slots.iter().map(|s| s.staged).collect();
        let Some(Some((coded, steps))) = shapes.first().copied() else {
            return;
        };
        if shapes.iter().any(|s| *s != Some((coded, steps))) {
            return;
        }
        let id = self.next_id;
        let mut frames: Vec<LaneFrame<'_>> = self
            .slots
            .iter_mut()
            .map(|s| {
                s.lock_prev.resize(steps, 0);
                s.lock_out.resize(steps, 0);
                LaneFrame {
                    llrs: &s.rx.scratch.fec.mother_llrs[..coded],
                    prev_lsbs: &mut s.lock_prev[..steps],
                    out: &mut s.lock_out[..steps],
                }
            })
            .collect();
        let (decoder, batch) = (&self.decoder, &mut self.batch);
        tr.time(Name::Lockstep, id, NO_PARENT, || {
            decoder.decode_lockstep(&mut frames, true, batch)
        });
        drop(frames);
        work.lockstep_steps += (steps * self.slots.len()) as u64;
        for (lane, s) in self.slots.iter().enumerate() {
            result.check(
                s.lock_out[..steps] == s.rx.scratch.fec.decoded[..steps],
                || format!("lockstep lane {lane} of bundle {id} differs from the per-frame decode"),
            );
        }
    }
}

/// Embeds `control` as silences, widening the selection with spread-out
/// subcarriers when the message outgrows it, as a session does.
fn embed(pc: &PowerController, slot: &mut Slot, control: &[u8]) {
    loop {
        match pc.embed_into(&mut slot.tx.frame, &slot.selected, control, &mut slot.truth) {
            Err(EmbedError::MessageTooLong { .. }) if slot.selected.len() < NUM_DATA => {
                let mut extra: Vec<usize> = (0..NUM_DATA)
                    .filter(|sc| !slot.selected.contains(sc))
                    .collect();
                extra.sort_by_key(|&sc| (sc * 7919) % NUM_DATA);
                slot.selected.extend(extra.into_iter().take(6));
                slot.selected.sort_unstable();
            }
            _ => return,
        }
    }
}

/// Replay sessions taken from a mix: at most this many, a multiple of 8.
const REPLAY_SESSIONS: usize = 128;

/// A mix with the replayed subset of `mix`'s sessions.
fn replay_mix(mix: &JobMix) -> JobMix {
    let mut m = mix.clone();
    m.sessions.truncate(REPLAY_SESSIONS);
    if let Some(p) = &mut m.session_payload {
        p.truncate(REPLAY_SESSIONS);
    }
    m
}

/// The stations of a traced mesh as a job mix: adaptive data sessions
/// with the cell's payload, resilient beacon subsessions with the
/// beacon payload.
fn mesh_mix(net: &MeshNet, cells: &[(MeshTopology, MeshConfig)], seed: u64) -> JobMix {
    let mut sessions = Vec::new();
    let mut payloads = Vec::new();
    let mut session_payload = Vec::new();
    // Each station's data and beacon sessions sit side by side, so a
    // prefix of the mix holds both kinds.
    for (ci, (topo, _)) in cells.iter().enumerate() {
        for si in 0..topo.n_stations() {
            let Some(t) = net.trace(ci, si) else { continue };
            for (config, seed, kind, bytes) in [
                (
                    &t.data_config,
                    t.data_seed,
                    JobKind::Adaptive,
                    &t.data_payload,
                ),
                (
                    &t.ctl_config,
                    t.ctl_seed,
                    JobKind::Resilient,
                    &t.ctl_payload,
                ),
            ] {
                sessions.push(SessionSpec {
                    config: config.clone(),
                    seed,
                    kind,
                });
                session_payload.push(payloads.len());
                payloads.push(bytes.clone());
            }
        }
    }
    let controls = vec![SplitMix::new(seed ^ 0xC7).bits(8)];
    JobMix::fixed(seed, sessions, payloads, session_payload, controls)
}

/// Times every collided frame's overlap mix in a traced mesh: the
/// station's frame is rebuilt at its rate, rendered, and the recorded
/// interferers applied through `OverlapComposer`.
fn replay_overlaps(
    net: &MeshNet,
    cells: &[(MeshTopology, MeshConfig)],
    tr: &mut Tracer,
    work: &mut Work,
) {
    let tx = Transmitter::new();
    let mut ws = TxWorkspace::new();
    let mut samples = Vec::new();
    'cells: for (ci, (topo, _)) in cells.iter().enumerate() {
        for si in 0..topo.n_stations() {
            let Some(t) = net.trace(ci, si) else { continue };
            let noise_var =
                Link::new(t.data_config.channel, t.data_config.snr_db, t.data_seed).noise_var();
            for ev in &t.data_events {
                let DataEvent::Send { overlaps, summary } = ev else {
                    continue;
                };
                if overlaps.is_empty() {
                    continue;
                }
                tx.build_frame_into(&t.data_payload, summary.packet.rate, 1, &mut ws);
                samples.clear();
                samples.extend_from_slice(ws.render());
                let mut comp = OverlapComposer::new();
                for o in overlaps {
                    comp.push(*o);
                }
                let ctx = ImpairmentCtx {
                    packet_index: 0,
                    time_s: 0.0,
                    noise_var,
                };
                let id = work.overlaps as u32;
                tr.time(Name::Overlap, id, NO_PARENT, || {
                    comp.impair_waveform_with(&mut samples, &ctx, kernel_mode())
                });
                work.overlaps += 1;
                if work.overlaps >= 2000 {
                    break 'cells;
                }
            }
        }
    }
}

/// Mesh cells for a workload that is not itself a mesh: hidden-cluster
/// cells whose station SNRs come from the mix's sessions and whose
/// payload is the mix's middle payload.
fn probe_cells(mix: &JobMix, cells: usize) -> Vec<(MeshTopology, MeshConfig)> {
    let n = workload::MESH_STATIONS;
    (0..cells)
        .map(|c| {
            let snr = |i: usize| mix.sessions[(c * n + i) % mix.sessions.len()].config.snr_db;
            let topo = MeshTopology::from_fn(n, snr, |i, j| i % 2 == j % 2);
            let payload_len = mix.payloads[mix.payloads.len() / 2].len();
            (
                topo,
                MeshConfig {
                    seed: mix.seed ^ (c as u64 + 1),
                    payload_len,
                    ..MeshConfig::default()
                },
            )
        })
        .collect()
}

/// Mesh probe: steps a traced net, timing each step; returns the net.
fn mesh_probe(
    cells: &[(MeshTopology, MeshConfig)],
    threads: usize,
    min_ticks: u64,
    until: Instant,
    tr: &mut Tracer,
    result: &mut RunResult,
) -> MeshNet {
    let mut net = build_mesh(cells, threads, true);
    while net.tick() < min_ticks || Instant::now() < until {
        let tick = net.tick() as u32;
        tr.time(Name::MeshStep, tick, NO_PARENT, || {
            mesh_tick(&mut net, cells.len())
        });
    }
    let t = MeshTotals::of(&net, result);
    let cell_ticks = t.ticks.max(1);
    result.set("core.mesh.step_ms", tr.mean_us(Name::MeshStep) / 1e3);
    result.set(
        "core.mesh.frames_per_tick",
        (t.frames + t.beacons) as f64 / net.tick().max(1) as f64,
    );
    result.set("core.mesh.collision_rate", ratio(t.collided, t.frames));
    result.set(
        "core.mesh.idle_tick_frac",
        t.idle_ticks as f64 / cell_ticks as f64,
    );
    net
}

/// Engine probe: pool creation, then closed-loop drains of the mix.
fn engine_probe(
    mix: &JobMix,
    threads: usize,
    rounds: usize,
    tr: &mut Tracer,
    result: &mut RunResult,
) {
    let mut pool = SessionPool::with_capacity(mix.sessions.len());
    for (i, s) in mix.sessions.iter().enumerate() {
        tr.time(Name::PoolCreate, i as u32, NO_PARENT, || {
            pool.create(s.config.clone(), s.seed)
        });
    }
    drop(pool);
    let mut st = EngineState::build(mix, threads);
    let (mut allocs, mut frames) = (0u64, 0u64);
    for round in 0..rounds + 1 {
        st.top_up(mix, round);
        st.submit_round(mix, round);
        let a0 = allocations();
        let span = tr.open(Name::Drain, round as u32, NO_PARENT);
        st.drain();
        tr.close(span);
        if round == 0 {
            // The first drain sizes every buffer; it is not steady state.
            tr.spans.pop();
        } else {
            allocs += allocations() - a0;
            frames += st.out.len() as u64;
        }
        st.check_round(round, result);
        st.churn(mix, round);
    }
    result.set("core.engine.pool_create_us", tr.mean_us(Name::PoolCreate));
    result.set("core.engine.drain_ms", tr.mean_us(Name::Drain) / 1e3);
    result.set(
        "core.engine.frames_per_drain",
        frames as f64 / rounds.max(1) as f64,
    );
    result.set(
        "core.engine.allocs_per_frame",
        allocs as f64 / frames.max(1) as f64,
    );
}

/// Service figures gathered by either service probe.
#[derive(Default)]
struct ServiceProbe {
    admit_tick: Vec<u64>,
    wait_ticks: Vec<f64>,
    queue_depth: Vec<f64>,
    late_ms: Vec<f64>,
}

impl ServiceProbe {
    fn submit(
        &mut self,
        core: &mut ServiceCore,
        tables: &ServiceTables,
        a: &workload::Arrival,
        late_s: f64,
        tr: &mut Tracer,
    ) {
        let id = self.admit_tick.len() as u32;
        let kind = tables.kind(a.session, a.control);
        let r = tr.time(Name::Submit, id, NO_PARENT, || {
            core.try_submit(tables.ids[a.session], tables.payloads[a.payload], kind)
        });
        self.late_ms.push(late_s * 1e3);
        if r.is_ok() {
            self.admit_tick.push(core.tick());
        }
    }

    fn pump(
        &mut self,
        core: &mut ServiceCore,
        tr: &mut Tracer,
        outcomes: &mut Vec<cos_core::service::ServiceOutcome>,
    ) {
        self.queue_depth.push(core.queue_depth() as f64);
        let tick = core.tick() as u32;
        tr.time(Name::Pump, tick, NO_PARENT, || core.pump());
        core.take_outcomes(outcomes);
        for o in outcomes.drain(..) {
            let admitted = self.admit_tick[o.ticket.value() as usize];
            self.wait_ticks.push((core.tick() - admitted) as f64);
        }
    }

    fn finish(mut self, core: &mut ServiceCore, tr: &mut Tracer, result: &mut RunResult) {
        let mut outcomes = Vec::new();
        while core.work_pending() {
            self.pump(core, tr, &mut outcomes);
        }
        let s = core.stats();
        check_ledger(&s, result);
        let p99 = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            quantile(v, 0.99)
        };
        result.set("core.service.submit_us", tr.mean_us(Name::Submit));
        result.set("core.service.pump_ms", tr.mean_us(Name::Pump) / 1e3);
        result.set("core.service.wait_ticks_p99", p99(&mut self.wait_ticks));
        result.set("core.service.queue_depth_p99", p99(&mut self.queue_depth));
        result.set(
            "core.service.rejected",
            (s.rejected_queue_full + s.rejected_session_quota + s.rejected_draining) as f64,
        );
        result.set("core.service.expired", s.expired as f64);
        result.set("bench.gen_late_ms_p99", p99(&mut self.late_ms));
    }
}

/// The service trace: `ServiceCore` driven directly on this thread with
/// the workload's arrival schedule, exactly as the timed run drives it.
fn service_open_loop_probe(mix: &JobMix, seconds: f64, tr: &mut Tracer, result: &mut RunResult) {
    let schedule = poisson_schedule(mix, workload::SERVICE_RATE_HZ, seconds);
    let mut core = ServiceCore::new(service_config());
    let tables = ServiceTables::load(&mut core, mix, &arq_messages(mix, &schedule));
    let run = open_loop(&mut core, &tables, &schedule, |call, id, t0, t1| {
        let name = match call {
            CoreCall::Submit => Name::Submit,
            CoreCall::Pump => Name::Pump,
        };
        tr.record(name, id, t0, t1);
    });
    for a in &run.anomalies {
        result.fail(a.clone());
    }
    let probe = ServiceProbe {
        wait_ticks: run.wait_ticks.iter().map(|&t| t as f64).collect(),
        queue_depth: run.queue_depth.iter().map(|&d| d as f64).collect(),
        late_ms: run.late_s.iter().map(|s| s * 1e3).collect(),
        ..ServiceProbe::default()
    };
    probe.finish(&mut core, tr, result);
}

/// The service trace of a closed-loop workload: every round, each session
/// submits one job as queue capacity allows (the round's start is every
/// job's due time) and the core pumps until the round is done.
fn service_closed_loop_probe(mix: &JobMix, rounds: usize, tr: &mut Tracer, result: &mut RunResult) {
    let mut core = ServiceCore::new(service_config());
    let tables = ServiceTables::load(&mut core, mix, &vec![rounds; mix.sessions.len()]);
    let mut probe = ServiceProbe::default();
    let mut outcomes = Vec::new();
    for round in 0..rounds {
        let start = Instant::now();
        for i in 0..mix.sessions.len() {
            while core.queue_depth() >= core.effective_capacity() {
                probe.pump(&mut core, tr, &mut outcomes);
            }
            let a = workload::Arrival {
                due_s: 0.0,
                session: i,
                payload: mix.payload_for(i, round),
                control: mix.control_for(i, round),
            };
            probe.submit(&mut core, &tables, &a, start.elapsed().as_secs_f64(), tr);
        }
        while core.work_pending() {
            probe.pump(&mut core, tr, &mut outcomes);
        }
    }
    probe.finish(&mut core, tr, result);
}

/// The traced run of workload `w`.
pub fn run(w: Workload, seed: u64, seconds: f64, threads: usize, s: &Scale) -> RunResult {
    let mut result = RunResult::new();
    let mut tr = Tracer::new();
    let mut work = Work::default();
    let begin = Instant::now();
    let at = |frac: f64| begin + Duration::from_secs_f64(seconds * frac);

    // Inputs, and the mesh (native for the mesh workload, a probe built
    // from the mix for the others).
    let (mix, cells) = match w {
        Workload::Engine64qamBulk => (workload::bulk_mix(seed, s.bulk_sessions), None),
        Workload::EngineLowrateChurn => (workload::churn_mix(seed, s.churn_sessions), None),
        Workload::ServiceOpenLoop => (workload::service_mix(seed, s.service_sessions), None),
        Workload::MeshHiddenCells => {
            let cells = workload::mesh_cells(seed, s.mesh_cells);
            let net = mesh_probe(
                &cells,
                threads,
                s.mesh_sim_ticks,
                at(0.25),
                &mut tr,
                &mut result,
            );
            (mesh_mix(&net, &cells, seed), Some((cells, net)))
        }
    };
    let (cells, net) = match cells {
        Some(c) => c,
        None => {
            let cells = probe_cells(&mix, if s.mesh_cells > 2 { 4 } else { 1 });
            let net = mesh_probe(&cells, threads, 64, at(0.15), &mut tr, &mut result);
            (cells, net)
        }
    };
    replay_overlaps(&net, &cells, &mut tr, &mut work);
    drop(net);

    let rmix = replay_mix(&mix);
    engine_probe(
        &mix,
        threads,
        if s.sim_rounds > 1 { 2 } else { 1 },
        &mut tr,
        &mut result,
    );

    match w {
        Workload::ServiceOpenLoop => {
            service_open_loop_probe(&mix, seconds * 0.2, &mut tr, &mut result)
        }
        _ => service_closed_loop_probe(&rmix, 1, &mut tr, &mut result),
    }

    // The stage replay, for the rest of the run.
    let mut replay = Replay::new(&rmix.sessions);
    let replay_from = Instant::now();
    let spans_before = tr.spans.len();
    let mut round = 0;
    while round == 0 || Instant::now() < at(1.0) {
        replay.round(&rmix, round, &mut tr, &mut work, &mut result);
        round += 1;
    }
    let replay_wall = replay_from.elapsed().as_secs_f64();
    work.arq_retries = replay
        .sessions
        .iter()
        .map(|r| r.session.metrics().arq_retries)
        .sum();

    layer_metrics(&tr, &work, &mut result);
    let span_cost = Tracer::span_cost_ns();
    let replay_spans = (tr.spans.len() - spans_before) as f64;
    result.set(
        "bench.trace_overhead_frac",
        replay_spans * span_cost / (replay_wall * 1e9),
    );
    result.set(
        "bench.traced_frames_per_s",
        work.frames as f64 / replay_wall,
    );
    result.attempted = work.frames;
    result.digest = replay.digest.0;
    // A frame the receiver could not acquire is a simulated outcome, not
    // a failed call: every replayed frame ran to completion.
    result.notes.push((
        "front_end_failures".to_string(),
        work.front_end_failures as f64,
    ));
    result
        .notes
        .push(("replay_rounds".to_string(), round as f64));
    result.notes.push(("span_cost_ns".to_string(), span_cost));
    result
        .notes
        .push(("spans".to_string(), tr.spans.len() as f64));

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-spans.csv", w.name()));
    if let Err(e) =
        std::fs::create_dir_all(path.parent().expect("out dir")).and_then(|()| tr.write_csv(&path))
    {
        eprintln!("cosbench: could not write {}: {e}", path.display());
    }
    result
}

/// Per-layer metrics from the replay spans and work counts, plus the
/// layer shares of frame time for the record.
fn layer_metrics(tr: &Tracer, work: &Work, result: &mut RunResult) {
    let per = |name: Name, count: u64| {
        let (t, _) = tr.total(name);
        if count == 0 {
            0.0
        } else {
            t / count as f64
        }
    };
    result.set("phy.tx.build_us", tr.mean_us(Name::TxBuild));
    result.set("phy.tx.render_us", tr.mean_us(Name::Render));
    result.set(
        "channel.transmit_ns_per_sample",
        per(Name::Channel, work.tx_samples),
    );
    result.set(
        "dsp.rng.gauss_ns_per_draw",
        per(Name::Gauss, work.gauss_draws),
    );
    result.set("channel.overlap_us", tr.mean_us(Name::Overlap));
    result.set("phy.rx.front_end_us", tr.mean_us(Name::FrontEnd));
    result.set(
        "phy.rx.demap_ns_per_point",
        per(Name::Demap, work.demap_points),
    );
    result.set("phy.rx.demap_us", tr.mean_us(Name::Demap));
    result.set("fec.stage_us", tr.mean_us(Name::FecStage));
    result.set(
        "fec.viterbi_ns_per_step",
        per(Name::Viterbi, work.viterbi_steps),
    );
    result.set(
        "fec.viterbi_lockstep_ns_per_step",
        per(Name::Lockstep, work.lockstep_steps),
    );
    result.set("phy.rx.finish_us", tr.mean_us(Name::Finish));
    result.set("core.energy_detector.detect_us", tr.mean_us(Name::Detect));
    result.set("core.validation.validate_us", tr.mean_us(Name::Validate));

    // Session self time: the real session's send minus the replayed
    // stages of the same frame.
    let (send_total, sends) = tr.total(Name::SessionSend);
    let (frame_total, _) = tr.total(Name::Frame);
    let send_us = send_total / sends.max(1) as f64 / 1e3;
    result.set("core.session.send_us", send_us);
    result.set(
        "core.session.self_us",
        send_us - frame_total / work.frames.max(1) as f64 / 1e3,
    );
    let d = &work.detection;
    result.set(
        "core.energy_detector.fp_rate",
        ratio(d.false_positives as u64, d.actual_normals as u64),
    );
    result.set(
        "core.energy_detector.fn_rate",
        ratio(d.false_negatives as u64, d.actual_silences as u64),
    );
    result.set("core.resilience.arq_retries", work.arq_retries as f64);

    for name in [
        Name::TxBuild,
        Name::Render,
        Name::Channel,
        Name::FrontEnd,
        Name::Demap,
        Name::FecStage,
        Name::Viterbi,
        Name::Finish,
    ] {
        let (t, _) = tr.total(name);
        result
            .notes
            .push((format!("share.{}", name.label()), t / frame_total.max(1.0)));
    }
    result.notes.push((
        "lockstep_bundles".to_string(),
        (work.lockstep_steps > 0) as u64 as f64,
    ));
}
