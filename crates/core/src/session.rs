//! An end-to-end CoS link: data packets with embedded free control
//! messages over an indoor fading channel, with EVM feedback, subcarrier
//! selection and rate adaptation in the loop — the whole Fig. 8
//! architecture in one object.
//!
//! A session has one control plane, as the paper's link has one control
//! channel (§III-A, §III-D): one ARQ queue
//! ([`CosSession::queue_control`]) whose messages ride the silences of
//! data frames and are confirmed by the feedback report, the
//! [`crate::resilience`] guard (degraded-mode controller, detector
//! recalibration, PHY-error tally, feedback history) and the
//! [`crate::adaptation`] policy. Both resilient and adaptive frames draw
//! from that one queue; the guard and the policy are built with the
//! session and each is consulted only by frames of its own kind.
//!
//! Three send entry points share one frame path and differ only in where
//! the control message comes from and what the sender does with the
//! outcome; each returns one `Copy` summary of its frame:
//!
//! * [`CosSession::send_packet_summary`] — the paper's loop verbatim:
//!   embed the given control bits, trust every feedback report.
//! * [`CosSession::send_packet_resilient_summary`] — the same loop under
//!   the resilience guard: the control message is the ARQ head, feedback
//!   passes through the link's fault engine (loss, staleness,
//!   corruption), the detector bias recalibrates on false-alarm spikes,
//!   and a degraded-mode state machine drops to plain data transmission
//!   when the control channel stops working.
//! * [`CosSession::send_packet_adaptive_summary`] — the closed loop of
//!   the adaptation policy: the rate staircase picks the rate from the
//!   EWMA of measured SNR and the silence-budget probe search sizes the
//!   control payload (the ARQ head plus filler), with ARQ-confirmed
//!   probes (paper §II-B, Fig. 2).
//!
//! A control message that no frame can carry, even with all 48 data
//! subcarriers selected, is not embedded: the frame goes out without
//! silences, and a queued message is retried and finally dropped as
//! failed by the ARQ.
//!
//! The frame path is one pass per frame, in the order of the paper's
//! Fig. 8: build, embed, channel, front end, energy detection, the
//! erasure decode (demap, Viterbi, CRC), control extraction, silence
//! validation, EVM feedback, then the per-kind sender tail. Each frame
//! runs on a `FrameScratch` lent by the caller: the session's own on the
//! per-frame path, an engine worker's in a batch.

use crate::adaptation::{
    AdaptationConfig, LinkAdaptationController, ProbeEvent, ProbeState, StaircaseEvent,
};
use crate::control_rate::{ControlRateAdapter, ControlRateTable};
use crate::energy_detector::{Detection, DetectionAccuracy, EnergyDetector};
use crate::engine::JobResult;
use crate::interval::IntervalCodec;
use crate::power_controller::{EmbedError, PowerController};
use crate::resilience::{
    corrupt_selection, ArqHistograms, ArqStats, ControlArq, DegradedModeController, LinkMode,
    ModeTransition, PacketObservation, PhyErrorTally, ResilienceConfig, ThresholdRecalibrator,
};
use crate::subcarrier_select::{select_control_subcarriers_into, SelectionPolicy};
use crate::validation::{sanitize_selection, validate_silences_into};
use cos_channel::{ChannelConfig, FaultEngine, FeedbackFate, Link};
use cos_phy::error::PhyError;
use cos_phy::evm::{per_subcarrier_evm, reconstruct_points_into};
use cos_phy::rates::DataRate;
use cos_phy::rx::Receiver;
use cos_phy::subcarriers::NUM_DATA;
use cos_phy::tx::Transmitter;
use cos_phy::{PhyWorkspace, TxWorkspace};
use std::collections::VecDeque;

/// Where one frame's control message comes from — the only per-kind
/// input of the frame path.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ControlSource<'a> {
    /// Embed these bits and trust every feedback report (the paper's
    /// loop).
    Fixed(&'a [u8]),
    /// The ARQ head, embedded only in modes where the degraded-mode
    /// controller allows it, with fault-gated feedback.
    Resilient,
    /// The ARQ head padded to the adaptation policy's probe budget, at
    /// the policy's rate.
    Adaptive,
}

/// What the control source decided that the frame's sender-side tail
/// needs back.
#[derive(Debug, Clone, Copy)]
enum Tail {
    Plain,
    Resilient { mode: LinkMode },
    Adaptive { target: usize },
}

/// The frame-sized planes of one frame in flight: the tx frame and
/// waveform, the rx landing zone, front end and decoder scratch, the
/// reference-frame reconstruction for the EVM feedback loop (kept apart
/// from `phy.tx`, which still holds the sent frame), and the decoded
/// control bits, whose worst-case size grows with the frame's control
/// slots.
///
/// Workspaces carry no semantic state between frames (every step fully
/// overwrites what it writes), so a `FrameScratch` is lent to a frame by
/// whoever runs it, never owned by the session the frame belongs to: the
/// per-frame `send_*` path lends the session's own, an engine worker
/// lends its own. A session driven only by the engine never grows its
/// own.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrameScratch {
    phy: PhyWorkspace,
    ref_tx: TxWorkspace,
    control: Vec<u8>,
}

impl FrameScratch {
    /// Heap capacity of the frame-sized buffers, in elements — zero until
    /// a frame has run through this scratch.
    #[cfg(test)]
    fn planes_capacity(&self) -> usize {
        let PhyWorkspace { tx, rx } = &self.phy;
        let fec = &rx.scratch.fec;
        [tx, &self.ref_tx]
            .iter()
            .map(|t| {
                t.samples.capacity()
                    + t.frame.data_symbols.capacity()
                    + t.frame.mapped_points.capacity()
            })
            .sum::<usize>()
            + rx.samples.capacity()
            + rx.fe.raw_symbols.capacity()
            + rx.fe.equalized.capacity()
            + rx.scratch.llrs.capacity()
            + fec.mother_llrs.capacity()
            + fec.decoded.capacity()
            + rx.out.data_bits.capacity()
            + self.control.capacity()
    }
}

/// Configuration of a CoS session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Channel model.
    pub channel: ChannelConfig,
    /// Average link SNR in dB.
    pub snr_db: f64,
    /// Fixed data rate; `None` enables SNR-based rate adaptation.
    pub rate: Option<DataRate>,
    /// Energy-detection adaptive-threshold bias (dB above the geometric
    /// midpoint between noise floor and subcarrier signal energy).
    pub detector_bias_db: f64,
    /// Control bits per interval (paper: 4).
    pub bits_per_interval: usize,
    /// Minimum number of control subcarriers to keep selected (0 keeps
    /// one, like 1), at most 39: the bootstrap block, subcarriers 9..,
    /// must fit the 48 data subcarriers.
    pub min_control_subcarriers: usize,
    /// Wall-clock gap between packets in seconds (drives channel
    /// evolution).
    pub packet_interval: f64,
    /// The control plane's ARQ and resilience-guard settings. The ARQ
    /// fields (`arq_max_retries`, `arq_backoff`, `arq_backoff_max`)
    /// govern the one queue that resilient and adaptive frames both draw
    /// from; the rest tune the guard, which only
    /// [`CosSession::send_packet_resilient_summary`] consults.
    pub resilience: ResilienceConfig,
    /// The link-adaptation policy, which only
    /// [`CosSession::send_packet_adaptive_summary`] consults. Checked
    /// when the session is made: an invalid one panics there.
    pub adaptation: AdaptationConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            channel: ChannelConfig::default(),
            snr_db: 18.0,
            rate: None,
            detector_bias_db: 1.0,
            bits_per_interval: 4,
            min_control_subcarriers: 6,
            packet_interval: 1e-3,
            resilience: ResilienceConfig::default(),
            adaptation: AdaptationConfig::default(),
        }
    }
}

/// What the receiver computed for one packet, before the sender-side
/// feedback loop is applied. Plain `Copy` metadata: the variable-length
/// results (decoded control bits, feedback selection) live in the
/// session's [`SessionScratch`], gated by `control_present` /
/// `feedback`.
#[derive(Debug, Clone, Copy)]
struct Transceived {
    data_ok: bool,
    front_end_ok: bool,
    /// The detected silence pattern decoded to a valid control message.
    control_present: bool,
    /// FNV-1a hash of the decoded control bits, 0 when none decoded.
    control_hash: u64,
    control_ok: bool,
    silences_sent: usize,
    accuracy: DetectionAccuracy,
    measured: f64,
    rate: DataRate,
    phy_error: Option<PhyError>,
    feedback: Option<FeedbackMeta>,
}

/// The fixed-size part of the feedback report the receiver would send
/// (exists only on CRC pass); the selection itself is in
/// `SessionScratch::fb_selection`.
#[derive(Debug, Clone, Copy)]
struct FeedbackMeta {
    measured_snr_db: f64,
    /// Energy detections rejected by coherent validation — false alarms.
    false_alarms: usize,
    /// Non-silence control positions in the frame.
    normal_positions: usize,
}

/// Per-packet variable-length results, owned by the session so the hot
/// path never allocates: every field is fully overwritten (or explicitly
/// gated off by a `Transceived` flag) each packet.
#[derive(Debug, Clone, Default)]
struct SessionScratch {
    /// The control message of the frame in flight, written by the
    /// control source and verified against the decode.
    msg: Vec<u8>,
    /// Silence positions actually embedded (ground truth).
    truth: Vec<usize>,
    /// Coherently validated silence positions (CRC-pass refinement).
    refined: Vec<usize>,
    /// The receiver's next-packet subcarrier selection (valid when
    /// `Transceived::feedback` is `Some`).
    fb_selection: Vec<usize>,
}

/// Monotonic per-session counters, snapshot via
/// [`CosSession::metrics`] — the netpoke-style observability surface a
/// fleet operator (or the mesh layer) scrapes per station. All counters
/// are maintained identically across the plain, resilient and adaptive
/// send paths and reset by [`CosSession::reinit`], so a recycled
/// session reports like a fresh one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionMetrics {
    /// Frames transmitted (every frame, all send paths).
    pub frames_tx: u64,
    /// Frames whose data CRC passed at the receiver.
    pub frames_rx_ok: u64,
    /// Frames that embedded control silences (CoS attempts).
    pub control_embedded: u64,
    /// Frames whose control message was recovered exactly as sent.
    pub control_ok: u64,
    /// Packets whose EVM feedback report reached the sender (fresh on
    /// the adaptive path; fresh, stale or corrupt on the resilient one —
    /// mirroring each path's own `feedback_delivered` flag).
    pub feedback_delivered: u64,
    /// ARQ transmission attempts beyond each message's first, on the
    /// session's one queue, whichever kind of frame carried them
    /// (`attempts` minus offered messages, saturating — messages still
    /// waiting for their first attempt are not counted against it).
    pub arq_retries: u64,
    /// Adaptation state-machine transitions: every non-`Hold` staircase
    /// or probe event counts one.
    pub adaptation_events: u64,
    /// The silence budget the adaptation policy currently targets for
    /// the next adaptive frame (its first probe target on a session that
    /// never sent one).
    pub silence_budget: usize,
}

/// FNV-1a over a byte stream — the summary types' byte-identity proxy and
/// the one allocation-free digest behind every outcome digest (service
/// journal, mesh, storm gates). `f64`s enter via `to_bits`, integers
/// little-endian. The byte stream is frozen: every recorded digest
/// depends on it.
///
/// Two multipliers are frozen in recorded digests: [`Fnv::new`]'s
/// `0x1_0000_01b3` (the session hashes, the mesh and the storm gates) and
/// [`Fnv::standard`]'s 64-bit FNV prime `0x100_0000_01b3` (the service
/// journal). The two agree in the low 32 bits of every digest.
#[derive(Debug, Clone)]
pub struct Fnv {
    h: u64,
    prime: u64,
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

    /// The offset basis, with the multiplier of the session, mesh and
    /// storm-gate digests.
    pub fn new() -> Self {
        Fnv { h: Self::OFFSET_BASIS, prime: 0x1_0000_01b3 }
    }

    /// The offset basis, with the 64-bit FNV prime of the service
    /// journal's outcome digest.
    pub fn standard() -> Self {
        Fnv { h: Self::OFFSET_BASIS, prime: 0x100_0000_01b3 }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.h
    }

    /// Feeds one byte.
    pub fn byte(&mut self, b: u8) {
        self.h = (self.h ^ b as u64).wrapping_mul(self.prime);
    }

    /// Feeds each byte of `bs` in order.
    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    /// Feeds `v` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds `v` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Feeds `v`'s bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Feeds `v` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.byte(v as u8);
    }

    /// Feeds every field of a packet summary in declaration order; the
    /// rate enters as its [`DataRate::ALL`] index.
    pub fn packet(&mut self, p: &PacketSummary) {
        self.bool(p.data_ok);
        self.bool(p.control_present);
        self.bool(p.control_ok);
        self.usize(p.silences_sent);
        self.usize(p.detection.false_positives);
        self.usize(p.detection.false_negatives);
        self.usize(p.detection.actual_silences);
        self.usize(p.detection.actual_normals);
        self.f64(p.measured_snr_db);
        self.byte(p.rate as u8);
        self.usize(p.selected_len);
        self.u64(p.selected_hash);
        self.u64(p.control_hash);
    }

    /// Feeds every field of an adaptive summary in declaration order; the
    /// enums enter as their variant index.
    pub fn adaptive(&mut self, a: &AdaptiveSummary) {
        self.packet(&a.packet);
        self.f64(a.ewma_snr_db);
        self.usize(a.budget);
        self.byte(a.rate_after as u8);
        self.usize(a.budget_after);
        self.byte(a.search_state as u8);
        self.byte(a.staircase_event as u8);
        self.byte(a.probe_event as u8);
        self.bool(a.control_acked);
        self.bool(a.feedback_delivered);
    }
}

/// Fixed-size (`Copy`) outcome of one packet: per-packet heap results
/// would defeat the zero-allocation engine. The variable-length results
/// (decoded control bits, the selection left in force) are represented
/// by FNV-1a digests: equal summaries ⇔ byte-identical results (up to
/// hash collisions, which determinism tests treat as impossible in
/// practice).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketSummary {
    /// Did the data packet pass its CRC?
    pub data_ok: bool,
    /// Did the silence pattern decode to a control message at all?
    pub control_present: bool,
    /// Did the control message arrive exactly as sent?
    pub control_ok: bool,
    /// Silence symbols inserted.
    pub silences_sent: usize,
    /// Detection accuracy against the transmitted silence pattern.
    pub detection: DetectionAccuracy,
    /// The receiver's measured SNR for this packet (dB).
    pub measured_snr_db: f64,
    /// Rate the packet was sent at.
    pub rate: DataRate,
    /// Number of control subcarriers in force after the feedback loop.
    pub selected_len: usize,
    /// FNV-1a digest of the post-feedback selection indices.
    pub selected_hash: u64,
    /// FNV-1a digest of the decoded control bits (0 when absent).
    pub control_hash: u64,
}

/// Fixed-size (`Copy`) outcome of one resilient-path packet: the
/// [`PacketSummary`] plus the resilience layer's view of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilientSummary {
    /// The underlying packet outcome.
    pub packet: PacketSummary,
    /// Mode this packet was sent in.
    pub mode: LinkMode,
    /// Mode the next packet will be sent in.
    pub mode_after: LinkMode,
    /// Whether control silences were embedded (Cos/Probing modes).
    pub control_attempted: bool,
    /// Whether the sender received confirmation of the control message.
    pub control_acked: bool,
    /// Whether a feedback report reached the sender this packet.
    pub feedback_delivered: bool,
    /// Kind label of the receive-chain error, if one occurred.
    pub phy_error: Option<&'static str>,
}

/// Fixed-size (`Copy`) outcome of one adaptive-path packet: the
/// [`PacketSummary`] plus the adaptation loop's view of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSummary {
    /// The underlying packet outcome.
    pub packet: PacketSummary,
    /// The EWMA SNR estimate after this packet (`f64::NEG_INFINITY`
    /// before any feedback arrived, so the field stays `Copy`).
    pub ewma_snr_db: f64,
    /// The silence budget the controller targeted for this packet.
    pub budget: usize,
    /// The rate the next packet will use.
    pub rate_after: DataRate,
    /// The silence budget the next packet will target.
    pub budget_after: usize,
    /// The probe search's state after this packet.
    pub search_state: ProbeState,
    /// The staircase transition this packet triggered.
    pub staircase_event: StaircaseEvent,
    /// The probe-search transition this packet triggered.
    pub probe_event: ProbeEvent,
    /// Whether the sender received confirmation of the control message.
    pub control_acked: bool,
    /// Whether a feedback report reached the sender this packet.
    pub feedback_delivered: bool,
}

/// A stored feedback report (for serving stale deliveries).
#[derive(Debug, Clone)]
struct HistoryEntry {
    selection: Vec<usize>,
    measured_snr_db: f64,
}

/// The session's one control plane: the ARQ queue every send kind draws
/// from, the resilience guard that resilient frames consult, and the
/// adaptation policy that adaptive frames consult. Built whole with the
/// session; building it allocates nothing, its queue and history grow
/// on first use.
#[derive(Debug, Clone)]
struct ControlPlane {
    arq: ControlArq,
    /// The guard: degraded-mode controller, detector recalibration,
    /// PHY-error tally and the recent receiver reports, newest first
    /// (consulted for [`FeedbackFate::Stale`] deliveries).
    guard: DegradedModeController,
    recal: ThresholdRecalibrator,
    tally: PhyErrorTally,
    history: VecDeque<HistoryEntry>,
    policy: LinkAdaptationController,
}

impl ControlPlane {
    fn new(config: &SessionConfig) -> Self {
        let cfg = &config.resilience;
        ControlPlane {
            arq: ControlArq::new(cfg),
            guard: DegradedModeController::new(cfg.clone()),
            recal: ThresholdRecalibrator::new(config.detector_bias_db, cfg),
            tally: PhyErrorTally::new(),
            history: VecDeque::new(),
            policy: LinkAdaptationController::new(config.adaptation.clone()),
        }
    }
}

/// First subcarrier of the bootstrap selection, the centred contiguous
/// block (the Fig. 10(a) layout) a session starts from before any EVM
/// feedback exists.
const BOOTSTRAP_FIRST: usize = 9;

/// The largest `min_control_subcarriers` whose bootstrap block still
/// fits the data subcarriers.
pub(crate) const MAX_MIN_CONTROL_SUBCARRIERS: usize = NUM_DATA - BOOTSTRAP_FIRST;

/// The bootstrap selection of a session keeping at least `min` control
/// subcarriers (one when `min` is 0).
///
/// # Panics
///
/// Panics if `min` exceeds [`MAX_MIN_CONTROL_SUBCARRIERS`], so a bad
/// config fails where the session is made, not on its first frame.
fn bootstrap_selection(min: usize) -> std::ops::Range<usize> {
    assert!(
        min <= MAX_MIN_CONTROL_SUBCARRIERS,
        "min_control_subcarriers = {min} exceeds MAX_MIN_CONTROL_SUBCARRIERS = \
         {MAX_MIN_CONTROL_SUBCARRIERS}: the bootstrap block {BOOTSTRAP_FIRST}.. must fit the \
         {NUM_DATA} data subcarriers"
    );
    BOOTSTRAP_FIRST..BOOTSTRAP_FIRST + min.max(1)
}

/// How many past feedback reports are kept for stale delivery.
const FEEDBACK_HISTORY: usize = 16;

/// Control-message bits reserved when a session is created. Reserving
/// here, on the creating thread, keeps the first frame's small message
/// allocation from landing between the large workspace buffers that
/// the first frames grow on an engine worker thread; without it,
/// allocator fragmentation raised the peak RSS of a 512-session
/// 54 Mbps engine run by about 8 MiB. Longer messages still grow the
/// buffer on demand.
const MSG_RESERVE: usize = 64;

/// Adds up to six unselected subcarriers to `sel`, spread across the
/// band, and sorts it: the first unselected ones in the fixed order
/// 0, 47, 46, …, 1 — ascending `(sc · 7919) % 48`, as 7919 ≡ −1
/// (mod 48). Walking the order in place keeps embed retries
/// allocation-free.
fn expand_selection(sel: &mut Vec<usize>) {
    let base = sel.len();
    for sc in std::iter::once(0).chain((1..NUM_DATA).rev()) {
        if sel.len() == base + 6 {
            break;
        }
        if !sel[..base].contains(&sc) {
            sel.push(sc);
        }
    }
    sel.sort_unstable();
}

/// An end-to-end CoS session between one sender and one receiver.
#[derive(Debug, Clone)]
pub struct CosSession {
    config: SessionConfig,
    link: Link,
    phy_tx: Transmitter,
    phy_rx: Receiver,
    controller: PowerController,
    detector: EnergyDetector,
    adapter: ControlRateAdapter,
    /// Current control subcarriers (receiver feedback; bootstrap default).
    selected: Vec<usize>,
    /// Rate for the next packet.
    rate: DataRate,
    seq: u64,
    plane: ControlPlane,
    /// The frame planes the per-frame `send_*` path lends its frames.
    /// Engine-driven frames use the worker lane's instead, so this stays
    /// empty for a session the engine drives.
    fs: FrameScratch,
    /// Energy-detection scratch.
    det: Detection,
    /// Adaptive-threshold scratch.
    thresholds: Vec<f64>,
    /// The per-packet (possibly expanded) working copy of `selected`.
    sel_scratch: Vec<usize>,
    /// Per-packet variable-length results (truth/refined positions,
    /// decoded control, feedback selection).
    xs: SessionScratch,
    /// Monotonic observability counters (see [`SessionMetrics`]).
    m: SessionMetrics,
}

impl CosSession {
    /// Creates a session over a fresh channel realisation.
    ///
    /// # Panics
    ///
    /// Panics if `config.min_control_subcarriers` exceeds 39 (the bound
    /// the journal reader also enforces) or `config.adaptation` is
    /// inconsistent (see [`AdaptationConfig`]).
    pub fn new(config: SessionConfig, seed: u64) -> Self {
        let selected = bootstrap_selection(config.min_control_subcarriers).collect();
        let codec = IntervalCodec::new(config.bits_per_interval);
        let link = Link::new(config.channel, config.snr_db, seed);
        let rate = config.rate.unwrap_or(DataRate::Mbps12);
        CosSession {
            detector: EnergyDetector::new(config.detector_bias_db),
            controller: PowerController::new(codec),
            adapter: ControlRateAdapter::new(ControlRateTable::default()),
            phy_tx: Transmitter::new(),
            phy_rx: Receiver::new(),
            link,
            selected,
            rate,
            seq: 0,
            plane: ControlPlane::new(&config),
            fs: FrameScratch::default(),
            det: Detection::default(),
            thresholds: Vec::new(),
            sel_scratch: Vec::new(),
            xs: SessionScratch { msg: Vec::with_capacity(MSG_RESERVE), ..Default::default() },
            m: SessionMetrics::default(),
            config,
        }
    }

    /// Resets the session to the state [`CosSession::new`]`(config, seed)`
    /// would produce, while keeping every scratch buffer's capacity — the
    /// pool-recycling entry point. A recycled session is behaviourally
    /// indistinguishable from a fresh one because every `*_into` stage
    /// fully overwrites its outputs (see `docs/ARCHITECTURE.md`).
    ///
    /// # Panics
    ///
    /// As [`CosSession::new`], before touching any state.
    pub fn reinit(&mut self, config: SessionConfig, seed: u64) {
        let bootstrap = bootstrap_selection(config.min_control_subcarriers);
        let codec = IntervalCodec::new(config.bits_per_interval);
        self.plane = ControlPlane::new(&config);
        self.link = Link::new(config.channel, config.snr_db, seed);
        self.selected.clear();
        self.selected.extend(bootstrap);
        self.rate = config.rate.unwrap_or(DataRate::Mbps12);
        self.detector = EnergyDetector::new(config.detector_bias_db);
        self.controller = PowerController::new(codec);
        self.adapter = ControlRateAdapter::new(ControlRateTable::default());
        self.seq = 0;
        self.m = SessionMetrics::default();
        self.config = config;
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The control subcarriers currently in force.
    pub fn selected_subcarriers(&self) -> &[usize] {
        &self.selected
    }

    /// The rate the next packet will use.
    pub fn current_rate(&self) -> DataRate {
        self.rate
    }

    /// The silence budget (per packet) the rate adapter currently allows.
    pub fn silence_budget(&self, psdu_bytes: usize) -> usize {
        self.adapter.silence_budget(self.rate, psdu_bytes)
    }

    /// The underlying link (e.g. for sounding the true channel).
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Attaches a fault-injection engine to the link.
    pub fn set_faults(&mut self, engine: FaultEngine) {
        self.link.set_faults(Some(engine));
    }

    /// The detection bias currently in force (recalibration may have
    /// moved it from the configured value).
    pub fn detector_bias_db(&self) -> f64 {
        self.detector.bias_db()
    }

    /// The link mode the next resilient packet will be sent in.
    pub fn mode(&self) -> LinkMode {
        self.plane.guard.mode()
    }

    /// Every degraded-mode transition recorded so far.
    pub fn transitions(&self) -> &[ModeTransition] {
        self.plane.guard.transitions()
    }

    /// Statistics of the session's one control-message ARQ queue.
    pub fn arq_stats(&self) -> ArqStats {
        self.plane.arq.stats()
    }

    /// Control messages still queued for delivery.
    pub fn arq_backlog(&self) -> usize {
        self.plane.arq.backlog()
    }

    /// Per-message attempt/latency histograms of the ARQ queue.
    pub fn arq_histograms(&self) -> ArqHistograms {
        *self.plane.arq.histograms()
    }

    /// Receive-chain failures on resilient frames, tallied by kind.
    pub fn phy_errors(&self) -> &PhyErrorTally {
        &self.plane.tally
    }

    /// Queues a control message for reliable (ARQ) delivery on the next
    /// resilient or adaptive frames.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of the codec's `k`
    /// (default 4) — here, not in whichever later send carries it. The
    /// contract also keeps an adaptive frame's padded probe message
    /// decodable.
    pub fn queue_control(&mut self, bits: Vec<u8>) {
        let k = self.controller.codec().bits_per_interval();
        assert!(
            bits.len().is_multiple_of(k),
            "control message length {} is not a multiple of k = {k}",
            bits.len()
        );
        self.plane.arq.enqueue(bits, self.seq);
    }

    /// [`queue_control`](Self::queue_control), under the name the
    /// frame-pipeline benchmark still calls.
    #[doc(hidden)]
    #[deprecated(note = "use queue_control; kept for cosbench")]
    pub fn queue_adaptive_control(&mut self, bits: Vec<u8>) {
        self.queue_control(bits)
    }

    /// [`arq_backlog`](Self::arq_backlog), under the name the
    /// frame-pipeline benchmark still calls.
    #[doc(hidden)]
    #[deprecated(note = "use arq_backlog; kept for cosbench")]
    pub fn adaptive_backlog(&self) -> usize {
        self.arq_backlog()
    }

    /// The link-adaptation policy that adaptive frames consult.
    pub fn adaptation_controller(&self) -> &LinkAdaptationController {
        &self.plane.policy
    }

    /// Mutable access to the link-adaptation policy — the hook
    /// coordination layers (e.g. `cos_core::mesh`) use to impose
    /// [`rate caps`](LinkAdaptationController::set_rate_cap) and
    /// [`budget grants`](LinkAdaptationController::set_budget_ceiling)
    /// on a running station.
    pub fn adaptation_controller_mut(&mut self) -> &mut LinkAdaptationController {
        &mut self.plane.policy
    }

    /// A snapshot of the session's observability counters. The two
    /// derived fields are computed at snapshot time: `arq_retries` from
    /// the ARQ queue's [`ArqStats`], `silence_budget` from the adaptation
    /// policy's current target.
    pub fn metrics(&self) -> SessionMetrics {
        let arq = self.arq_stats();
        SessionMetrics {
            arq_retries: arq.attempts.saturating_sub(arq.enqueued),
            silence_budget: self.plane.policy.target_budget(),
            ..self.m
        }
    }

    /// Retargets the link's average SNR mid-session — the mobility /
    /// coherence-time drift hook used by `fig07_adaptation`. The channel
    /// realisation and all RNG streams are untouched, so a drift
    /// trajectory is bit-exactly reproducible (see
    /// [`cos_channel::Link::set_snr_db`]).
    pub fn set_snr_db(&mut self, snr_db: f64) {
        self.config.snr_db = snr_db;
        self.link.set_snr_db(snr_db);
    }

    /// One frame through the whole path on the planes `fs`, in one pass
    /// (the paper's Fig. 8): the control source writes the message into
    /// `xs.msg`; the frame is built, embedded, rendered and sent over the
    /// link; the receiver runs its front end, energy detection, the
    /// erasure decode (demap, Viterbi, CRC), control extraction, silence
    /// validation and EVM feedback; then the channel advances, the
    /// metrics count the frame, the control source's sender tail
    /// (feedback fate, controller observation) applies the outcome and
    /// the ARQ settles the head the frame carried. The per-frame `send_*`
    /// methods lend the session's own planes, the engine a worker's; both
    /// run this one path.
    pub(crate) fn run_frame(
        &mut self,
        fs: &mut FrameScratch,
        payload: &[u8],
        src: ControlSource<'_>,
    ) -> JobResult {
        let (mut embed_control, from_queue, tail) = self.choose_control(payload, src);
        self.seq += 1;
        let scrambler_seed = (self.seq % 127 + 1) as u8;
        let rate = self.rate;
        // Split-borrow the session so the link, detector and per-packet
        // scratch can be used side by side without intermediate
        // allocations.
        let CosSession {
            config,
            link,
            phy_tx,
            phy_rx,
            controller,
            detector,
            selected,
            det,
            thresholds,
            sel_scratch,
            xs,
            ..
        } = &mut *self;
        let FrameScratch { phy: ws, ref_tx, control } = fs;
        phy_tx.build_frame_into(payload, rate, scrambler_seed, &mut ws.tx);

        // Embed; if the message outgrows the current selection (short
        // frame or long message), expand the control-subcarrier set for
        // this packet with evenly spaced extras — best effort, exactly
        // what a sender with a stale feedback vector would do. A message
        // too long even for all NUM_DATA subcarriers is not embedded: the
        // frame goes out without silences. The working copy lives in
        // session scratch so the session's own `selected` stays the
        // receiver's last report.
        sel_scratch.clear();
        sel_scratch.extend_from_slice(selected);
        xs.truth.clear();
        while embed_control {
            match controller.embed_into(&mut ws.tx.frame, sel_scratch, &xs.msg, &mut xs.truth) {
                Ok(()) => break,
                Err(EmbedError::NoControlSubcarriers) => {
                    panic!("session always keeps a non-empty selection")
                }
                Err(EmbedError::MessageTooLong { .. }) if sel_scratch.len() >= NUM_DATA => {
                    embed_control = false;
                    xs.truth.clear();
                }
                Err(EmbedError::MessageTooLong { .. }) => expand_selection(sel_scratch),
            }
        }
        let silences_sent = xs.truth.len();
        ws.tx.render();
        // The channel output lands straight in the receive workspace.
        link.transmit_into(&ws.tx.samples, &mut ws.rx.samples);

        let t = match phy_rx.front_end_into(&ws.rx.samples, &mut ws.rx.fe) {
            Ok(()) => {
                if embed_control {
                    detector.detect_into(&ws.rx.fe, sel_scratch, thresholds, det);
                }
                let erasures = embed_control.then_some(det.erasures.as_slice());
                phy_rx.decode_into(&ws.rx.fe, erasures, &mut ws.rx.scratch, &mut ws.rx.out);

                let codec = *controller.codec();
                let total = ws.rx.fe.raw_symbols.len() * sel_scratch.len();
                // Decoded control bits are bounded by one interval per
                // control slot; reserving that bound here keeps the two
                // `decode_into` calls below reallocation-free even on
                // frames with record silence counts.
                control.reserve(total.saturating_sub(1) * codec.bits_per_interval());
                let mut accuracy = if embed_control {
                    DetectionAccuracy::evaluate_sorted(&det.positions, &xs.truth, total)
                } else {
                    DetectionAccuracy::default()
                };
                let mut control_present =
                    embed_control && det.control_bits_into(&codec, control);
                let measured = ws.rx.fe.measured_snr_db();

                // Feedback loop: EVM-based subcarrier selection for the
                // next packet, valid only when the CRC passed. The same
                // point reconstruction also refines the control message by
                // coherent silence validation (inner QAM points stop
                // masquerading as silences).
                let next_rate = config.rate.unwrap_or_else(|| DataRate::select(measured));
                let mut feedback = None;
                if let (true, Some(seed)) = (ws.rx.out.crc_ok, ws.rx.out.scrambler_seed) {
                    let reference =
                        reconstruct_points_into(&ws.rx.out.payload, rate, seed, ref_tx);
                    let mut false_alarms = 0;
                    let mut normal_positions = 0;
                    if embed_control {
                        validate_silences_into(&ws.rx.fe, sel_scratch, reference, &mut xs.refined);
                        accuracy = DetectionAccuracy::evaluate_sorted(&xs.refined, &xs.truth, total);
                        control_present = codec.decode_into(&xs.refined, control);
                        false_alarms =
                            det.positions.iter().filter(|p| !xs.refined.contains(p)).count();
                        normal_positions = total - xs.refined.len();
                    }
                    let evm = per_subcarrier_evm(
                        &ws.rx.fe.equalized,
                        reference,
                        rate.modulation(),
                        erasures,
                    );
                    let snrs = ws.rx.fe.per_subcarrier_snr();
                    let mut snr_db = [0.0f64; NUM_DATA];
                    for (slot, &s) in snr_db.iter_mut().zip(snrs.iter()) {
                        *slot = cos_dsp::linear_to_db(s.max(1e-12));
                    }
                    // At least one subcarrier, whatever the config: the
                    // next frame's start marker needs a slot.
                    let min = config.min_control_subcarriers.max(1);
                    select_control_subcarriers_into(
                        &evm,
                        &snr_db,
                        SelectionPolicy::weak_by_evm(next_rate.modulation(), min),
                        &mut xs.fb_selection,
                    );
                    feedback = Some(FeedbackMeta {
                        measured_snr_db: measured,
                        false_alarms,
                        normal_positions,
                    });
                }

                let control_ok = embed_control && control_present && *control == xs.msg;
                let control_hash = if control_present {
                    let mut h = Fnv::new();
                    h.bytes(control);
                    h.value()
                } else {
                    0
                };
                Transceived {
                    data_ok: ws.rx.out.crc_ok,
                    front_end_ok: true,
                    control_present,
                    control_hash,
                    control_ok,
                    silences_sent,
                    accuracy,
                    measured,
                    rate,
                    phy_error: ws.rx.out.decode_error,
                    feedback,
                }
            }
            Err(e) => Transceived {
                data_ok: false,
                front_end_ok: false,
                control_present: false,
                control_hash: 0,
                control_ok: false,
                silences_sent,
                accuracy: DetectionAccuracy::default(),
                measured: f64::NEG_INFINITY,
                rate,
                phy_error: Some(e),
                feedback: None,
            },
        };

        // The world moves on between packets.
        link.channel_mut().advance(config.packet_interval);
        self.m.frames_tx += 1;
        self.m.control_embedded += embed_control as u64;
        self.m.frames_rx_ok += t.data_ok as u64;
        self.m.control_ok += t.control_ok as u64;
        let (result, acked) = match tail {
            Tail::Plain => {
                self.plain_tail(&t);
                (JobResult::Plain(self.summarize(&t)), false)
            }
            Tail::Resilient { mode } => {
                let s = self.resilient_tail(t, mode, embed_control);
                (JobResult::Resilient(s), s.control_acked)
            }
            Tail::Adaptive { target } => {
                let s = self.adaptive_tail(t, target);
                (JobResult::Adaptive(s), s.control_acked)
            }
        };
        // The confirmation rides the feedback report: no report
        // delivered, no ACK — the ARQ retries (a lost ACK costs a
        // duplicate, never a silent loss).
        if from_queue {
            if acked {
                self.plane.arq.confirm(self.seq);
            } else {
                self.plane.arq.reject();
            }
        }
        result
    }

    /// [`run_frame`](Self::run_frame) on the session's own planes; moving
    /// the struct out and back copies a few KiB of headers, never the
    /// buffers.
    fn send(&mut self, payload: &[u8], src: ControlSource<'_>) -> JobResult {
        let mut fs = std::mem::take(&mut self.fs);
        let result = self.run_frame(&mut fs, payload, src);
        self.fs = fs;
        result
    }

    /// The control source of a frame: writes its control message into
    /// `xs.msg` and decides whether it is embedded and whether it is the
    /// ARQ head (the one poll site); adaptive only, sets the frame's rate.
    fn choose_control(&mut self, payload: &[u8], src: ControlSource<'_>) -> (bool, bool, Tail) {
        let CosSession { config, controller, rate, seq, plane, xs, .. } = self;
        let msg = &mut xs.msg;
        msg.clear();
        let (embed, tail) = match src {
            ControlSource::Fixed(bits) => {
                msg.extend_from_slice(bits);
                return (true, false, Tail::Plain);
            }
            // The guard's mode decides whether the control channel is
            // exercised; with an empty queue the bare marker probes it.
            ControlSource::Resilient => {
                let mode = plane.guard.mode();
                (mode != LinkMode::DataOnly, Tail::Resilient { mode })
            }
            // The staircase owns the rate unless the config pins one.
            ControlSource::Adaptive => {
                *rate = config.rate.unwrap_or_else(|| plane.policy.rate());
                (true, Tail::Adaptive { target: plane.policy.target_budget() })
            }
        };
        let from_queue =
            embed && plane.arq.poll().map(|bits| msg.extend_from_slice(bits)).is_some();

        if let Tail::Adaptive { target } = tail {
            // Clamp the probe to what this frame can physically carry:
            // the interval code spends at most 2^k + 1 control positions
            // per interval, and the embedder can expand the selection up
            // to all NUM_DATA subcarriers, so a frame of `n` symbols
            // always fits `(n·NUM_DATA − 1) / (2^k + 1)` intervals. Short
            // frames at fast rates would otherwise overflow the frame's
            // control capacity.
            let k = controller.codec().bits_per_interval();
            let total_positions = rate.data_symbol_count(payload.len() + 4) * NUM_DATA;
            let max_intervals = total_positions.saturating_sub(1) / ((1usize << k) + 1);
            let capacity_bits = target.min(max_intervals + 1).saturating_sub(1) * k;

            // Pad the message (the ARQ head, if any) with filler bits to
            // the full budget, so every adaptive packet exercises exactly
            // the budget it claims to probe. The filler is a pure
            // function of the packet sequence number — determinism by
            // construction.
            let next_seq = *seq + 1;
            while msg.len() < capacity_bits {
                let i = msg.len() as u64;
                let x = next_seq
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i.wrapping_mul(0xA24B_AED4_963E_E407));
                msg.push(((x >> 32) & 1) as u8);
            }
        }
        (embed, from_queue, tail)
    }

    /// Applies the feedback report in `xs.fb_selection` by swapping it
    /// into `selected`. That scratch is dead after the frame (the next
    /// frame overwrites it), so a stale or corrupted report may be
    /// written there first.
    fn apply_feedback(&mut self, measured_snr_db: f64) {
        std::mem::swap(&mut self.selected, &mut self.xs.fb_selection);
        self.adapter.feedback(measured_snr_db);
        self.rate = self.config.rate.unwrap_or_else(|| DataRate::select(measured_snr_db));
    }

    /// The sender tail of the paper's plain loop: trust every feedback
    /// report.
    fn plain_tail(&mut self, t: &Transceived) {
        if let Some(fb) = t.feedback {
            self.apply_feedback(fb.measured_snr_db);
            self.m.feedback_delivered += 1;
            return;
        }
        self.adapter.transmission_failed();
        if t.front_end_ok {
            self.rate = self.config.rate.unwrap_or_else(|| DataRate::select(t.measured));
        }
    }

    /// The sender tail of the resilient path: fault-gated feedback
    /// application, recalibration and mode bookkeeping.
    fn resilient_tail(
        &mut self,
        t: Transceived,
        mode: LinkMode,
        attempted: bool,
    ) -> ResilientSummary {
        let fate = self.link.feedback_fate();
        if let Some(e) = &t.phy_error {
            self.plane.tally.record(e);
        }

        let mut delivered = false;
        match t.feedback {
            Some(fb) => {
                // The receiver generated a report; remember the truth for
                // later stale deliveries regardless of this packet's fate.
                let history = &mut self.plane.history;
                let mut entry = if history.len() == FEEDBACK_HISTORY {
                    history.pop_back().expect("full history")
                } else {
                    HistoryEntry { selection: Vec::new(), measured_snr_db: 0.0 }
                };
                entry.selection.clone_from(&self.xs.fb_selection);
                entry.measured_snr_db = fb.measured_snr_db;
                history.push_front(entry);

                // Recalibration is receiver-side: it needs no reverse path.
                if attempted {
                    if let Some(bias) =
                        self.plane.recal.observe(fb.false_alarms, fb.normal_positions)
                    {
                        self.detector = EnergyDetector::new(bias);
                    }
                }

                match fate {
                    FeedbackFate::Deliver => {
                        self.apply_feedback(fb.measured_snr_db);
                        delivered = true;
                    }
                    FeedbackFate::Drop => {
                        self.adapter.transmission_failed();
                    }
                    FeedbackFate::Stale(d) => {
                        // Index 0 is the report just pushed; `d` packets
                        // ago is index d (when that far back exists).
                        if let Some(old) = self.plane.history.get(d) {
                            self.xs.fb_selection.clone_from(&old.selection);
                            let snr = old.measured_snr_db;
                            self.apply_feedback(snr);
                            delivered = true;
                        } else {
                            self.adapter.transmission_failed();
                        }
                    }
                    FeedbackFate::Corrupt { xor_mask } => {
                        // Corrupted where it sits: the history already
                        // holds the true report.
                        let sel = &mut self.xs.fb_selection;
                        corrupt_selection(sel, xor_mask);
                        sanitize_selection(sel, self.config.min_control_subcarriers);
                        self.apply_feedback(fb.measured_snr_db);
                        delivered = true;
                    }
                }
            }
            None => {
                self.adapter.transmission_failed();
            }
        }

        self.m.feedback_delivered += delivered as u64;
        let acked = attempted && t.control_ok && delivered;
        self.plane.guard.observe(
            self.seq,
            PacketObservation {
                feedback_fresh: delivered,
                control_attempted: attempted,
                control_ok: acked,
                crc_ok: t.data_ok,
            },
        );
        ResilientSummary {
            packet: self.summarize(&t),
            mode,
            mode_after: self.plane.guard.mode(),
            control_attempted: attempted,
            control_acked: acked,
            feedback_delivered: delivered,
            phy_error: t.phy_error.map(|e| e.kind()),
        }
    }

    /// The sender tail of the adaptive path: the feedback gate and the
    /// policy's observation.
    fn adaptive_tail(&mut self, t: Transceived, target: usize) -> AdaptiveSummary {
        let fate = self.link.feedback_fate();

        // Adaptation trusts only fresh feedback: stale, corrupt or
        // dropped reports all count as misses (the resilience guard is
        // the place that salvages degraded reports). The fresh report
        // swaps in the selection but leaves the rate alone — the
        // staircase owns it.
        let mut delivered = false;
        match t.feedback {
            Some(fb) if matches!(fate, FeedbackFate::Deliver) => {
                std::mem::swap(&mut self.selected, &mut self.xs.fb_selection);
                self.adapter.feedback(fb.measured_snr_db);
                delivered = true;
            }
            _ => self.adapter.transmission_failed(),
        }

        // Probe confirmation rides the feedback report, exactly like the
        // resilient path's ACKs: no report, no ACK. A clamped packet
        // carried fewer silences than the probe target, so its outcome
        // says nothing about the probed budget.
        let acked = t.control_ok && delivered;
        let carried_full = t.silences_sent >= target;
        let snr = delivered.then_some(t.measured);
        let events = self.plane.policy.observe(snr, acked, carried_full);
        self.m.feedback_delivered += delivered as u64;
        self.m.adaptation_events += (events.staircase != StaircaseEvent::Hold) as u64
            + (events.probe != ProbeEvent::Hold) as u64;

        let policy = &self.plane.policy;
        AdaptiveSummary {
            packet: self.summarize(&t),
            ewma_snr_db: policy.ewma_snr_db().unwrap_or(f64::NEG_INFINITY),
            budget: target,
            rate_after: self.config.rate.unwrap_or_else(|| policy.rate()),
            budget_after: policy.target_budget(),
            search_state: policy.search_state(),
            staircase_event: events.staircase,
            probe_event: events.probe,
            control_acked: acked,
            feedback_delivered: delivered,
        }
    }

    /// Builds the fixed-size summary of the frame just finished.
    fn summarize(&self, t: &Transceived) -> PacketSummary {
        let mut selected_hash = Fnv::new();
        for &sc in &self.selected {
            selected_hash.usize(sc);
        }
        PacketSummary {
            data_ok: t.data_ok,
            control_present: t.control_present,
            control_ok: t.control_ok,
            silences_sent: t.silences_sent,
            detection: t.accuracy,
            measured_snr_db: t.measured,
            rate: t.rate,
            selected_len: self.selected.len(),
            selected_hash: selected_hash.value(),
            control_hash: t.control_hash,
        }
    }

    /// Sends one data packet with `control_bits` embedded as silence
    /// symbols; runs the complete receive pipeline and feedback loop,
    /// trusting every feedback report (the paper's loop). Zero heap
    /// allocations at steady state.
    ///
    /// # Panics
    ///
    /// Panics if `control_bits` length is not a multiple of the codec's
    /// `k`.
    pub fn send_packet_summary(&mut self, payload: &[u8], control_bits: &[u8]) -> PacketSummary {
        let JobResult::Plain(s) = self.send(payload, ControlSource::Fixed(control_bits)) else {
            unreachable!("a fixed-bits frame finishes as a plain frame")
        };
        s
    }

    /// Sends one data packet under the resilience guard: control bits
    /// come from the ARQ queue (see [`CosSession::queue_control`]), the
    /// feedback report passes through the link's fault engine, and the
    /// degraded-mode state machine decides whether silences are embedded
    /// at all.
    pub fn send_packet_resilient_summary(&mut self, payload: &[u8]) -> ResilientSummary {
        let JobResult::Resilient(s) = self.send(payload, ControlSource::Resilient) else {
            unreachable!("a resilient frame finishes as a resilient frame")
        };
        s
    }

    /// Sends one data packet through the closed adaptation loop: the
    /// [`crate::adaptation`] rate staircase picks the rate, the
    /// silence-budget probe search sizes the control payload (the head
    /// of the session's one ARQ queue, see [`CosSession::queue_control`],
    /// plus deterministic filler bits up to the probe budget), and the
    /// packet's outcome — measured SNR, feedback fate, control ACK —
    /// feeds both state machines for the next packet. The batch engine's
    /// adaptive jobs run the same path.
    ///
    /// # Examples
    ///
    /// Queue a control message, then drive the loop for a few packets:
    /// the staircase acquires a rate from the first feedback report, the
    /// probe search starts sizing the silence budget, and the ARQ
    /// confirms delivery:
    ///
    /// ```
    /// use cos_core::session::{CosSession, SessionConfig};
    ///
    /// let mut s = CosSession::new(SessionConfig { snr_db: 24.0, ..Default::default() }, 7);
    /// s.queue_control(vec![1, 0, 1, 1, 0, 0, 1, 0]);
    /// let mut delivered = false;
    /// for _ in 0..8 {
    ///     let r = s.send_packet_adaptive_summary(&[0xAB; 600]);
    ///     delivered |= r.control_acked;
    /// }
    /// assert!(delivered, "ARQ delivers over a clean 24 dB link");
    /// assert_eq!(s.arq_stats().delivered, 1);
    /// ```
    pub fn send_packet_adaptive_summary(&mut self, payload: &[u8]) -> AdaptiveSummary {
        let JobResult::Adaptive(s) = self.send(payload, ControlSource::Adaptive) else {
            unreachable!("an adaptive frame finishes as an adaptive frame")
        };
        s
    }

    /// Bounds the session's control-subcarrier selection to the 48 data
    /// subcarriers, in place: out-of-range indices are dropped, duplicates
    /// removed, and a selection that ends up empty (all indices out of
    /// range — corrupted feedback) is replaced by the bootstrap fallback
    /// block, so silence placement never sees an empty or out-of-range
    /// set. Harness code that builds custom selections outside a session
    /// should use [`crate::validation::sanitize_selection`] directly.
    pub fn clamp_selection(&mut self) {
        sanitize_selection(&mut self.selected, self.config.min_control_subcarriers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cos_channel::{BurstInterference, FeedbackCorruption, FeedbackLoss};

    fn bits(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 5 + 1) % 3 == 0) as u8).collect()
    }

    #[test]
    fn high_snr_session_delivers_data_and_control() {
        let mut s = CosSession::new(SessionConfig { snr_db: 24.0, ..Default::default() }, 42);
        let msg = bits(16);
        s.send_packet_summary(&[0xAB; 600], &msg); // warm-up: establish feedback
        let mut control_hits = 0;
        let mut data_hits = 0;
        for _ in 0..20 {
            let r = s.send_packet_summary(&[0xAB; 600], &msg);
            control_hits += r.control_ok as u32;
            data_hits += r.data_ok as u32;
        }
        assert!(data_hits >= 19, "data {data_hits}/20");
        assert!(control_hits >= 19, "control {control_hits}/20");
    }

    #[test]
    fn selection_adapts_after_first_packet() {
        let mut s = CosSession::new(SessionConfig { snr_db: 20.0, ..Default::default() }, 3);
        let r = s.send_packet_summary(&[1; 400], &bits(8));
        assert!(r.data_ok);
        // After EVM feedback the selection is recomputed (it may or may
        // not equal the bootstrap, but it must be valid and big enough).
        assert!(s.selected_subcarriers().len() >= 6);
        assert!(s.selected_subcarriers().iter().all(|&sc| sc < NUM_DATA));
    }

    #[test]
    fn rate_adaptation_tracks_snr() {
        let mut high = CosSession::new(SessionConfig { snr_db: 26.0, ..Default::default() }, 11);
        let mut low = CosSession::new(SessionConfig { snr_db: 8.0, ..Default::default() }, 11);
        for _ in 0..3 {
            high.send_packet_summary(&[0; 200], &bits(4));
            low.send_packet_summary(&[0; 200], &bits(4));
        }
        assert!(high.current_rate() > low.current_rate());
    }

    #[test]
    fn fixed_rate_is_respected() {
        let cfg = SessionConfig { rate: Some(DataRate::Mbps18), snr_db: 25.0, ..Default::default() };
        let mut s = CosSession::new(cfg, 5);
        for _ in 0..3 {
            let r = s.send_packet_summary(&[0; 200], &bits(4));
            assert_eq!(r.rate, DataRate::Mbps18);
        }
    }

    #[test]
    fn report_counts_silences() {
        let mut s = CosSession::new(SessionConfig { snr_db: 22.0, ..Default::default() }, 9);
        let msg = bits(12); // 3 groups → 4 silences
        let r = s.send_packet_summary(&[0; 300], &msg);
        assert_eq!(r.silences_sent, 4);
    }

    #[test]
    fn empty_control_message_still_sends_marker() {
        let mut s = CosSession::new(SessionConfig { snr_db: 22.0, ..Default::default() }, 13);
        // Warm up: the bootstrap selection is blind to the channel, so
        // the first packet only establishes EVM/SNR feedback. Use a
        // realistically sized packet — EVM feedback from a 4-symbol frame
        // is too noisy to select subcarriers from.
        s.send_packet_summary(&[0; 600], &[]);
        let r = s.send_packet_summary(&[0; 600], &[]);
        assert_eq!(r.silences_sent, 1);
        assert!(r.data_ok);
        assert!(r.control_ok, "the empty message decodes exactly");
    }

    /// The in-place expansion against the sort it replaced, for
    /// selections of every size (strides coprime to 48 keep them
    /// distinct).
    #[test]
    fn expand_selection_matches_the_sorted_extras() {
        for len in 0..NUM_DATA {
            for (stride, offset) in [(1, 0), (5, 9), (7, 40), (11, 3), (13, 27)] {
                let mut sel: Vec<usize> = (0..len).map(|i| (i * stride + offset) % NUM_DATA).collect();
                let mut extra: Vec<usize> = (0..NUM_DATA).filter(|sc| !sel.contains(sc)).collect();
                extra.sort_by_key(|&sc| (sc * 7919) % NUM_DATA);
                let mut want = sel.clone();
                want.extend(extra.into_iter().take(6));
                want.sort_unstable();
                expand_selection(&mut sel);
                assert_eq!(sel, want, "len {len}, stride {stride}");
            }
        }
    }

    /// [`Fnv::standard`] is the published 64-bit FNV-1a; [`Fnv::new`]'s
    /// multiplier is pinned by the storm gates' `digest_outcome_is_pinned`.
    #[test]
    fn standard_fnv_matches_the_published_vectors() {
        for (input, want) in [
            (&b""[..], 0xcbf2_9ce4_8422_2325),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"foobar", 0x8594_4171_f739_67e8),
        ] {
            let mut h = Fnv::standard();
            h.bytes(input);
            assert_eq!(h.value(), want, "{input:?}");
        }
    }

    #[test]
    fn clamp_selection_sanitises() {
        let mut s = CosSession::new(SessionConfig::default(), 1);
        s.selected = vec![50, 3, 3, 12];
        s.clamp_selection();
        assert_eq!(s.selected_subcarriers(), &[3, 12]);
    }

    #[test]
    fn clamp_selection_falls_back_when_emptied() {
        // Everything out of range — the paper's loop would panic deep in
        // silence placement; the fallback keeps the link alive.
        let mut s = CosSession::new(SessionConfig::default(), 1);
        s.selected = vec![48, 99, 1000];
        s.clamp_selection();
        assert!(!s.selected_subcarriers().is_empty());
        assert!(s.selected_subcarriers().iter().all(|&sc| sc < NUM_DATA));
        assert!(s.selected_subcarriers().len() >= s.config.min_control_subcarriers);
    }

    #[test]
    fn silence_budget_is_positive() {
        let s = CosSession::new(SessionConfig::default(), 1);
        assert!(s.silence_budget(1024) > 0);
    }

    #[test]
    fn resilient_path_delivers_queued_messages_on_clean_link() {
        let mut s = CosSession::new(SessionConfig { snr_db: 24.0, ..Default::default() }, 21);
        s.send_packet_resilient_summary(&[0xAB; 600]); // warm-up feedback
        for _ in 0..4 {
            s.queue_control(bits(8));
        }
        for _ in 0..12 {
            s.send_packet_resilient_summary(&[0xAB; 600]);
        }
        let stats = s.arq_stats();
        assert_eq!(stats.delivered, 4, "stats: {stats:?}");
        assert_eq!(stats.failed, 0);
        assert_eq!(s.mode(), LinkMode::Cos);
        assert_eq!(s.arq_backlog(), 0);
    }

    #[test]
    fn feedback_blackout_degrades_then_recovers() {
        let mut s = CosSession::new(SessionConfig { snr_db: 24.0, ..Default::default() }, 33);
        // Total reverse-path loss for packets 5..20, then clear skies.
        s.set_faults(
            cos_channel::FaultEngine::new()
                .with(FeedbackLoss::new(1.0, 7))
                .with_window(5, 20),
        );
        let mut saw_data_only = false;
        for _ in 0..40 {
            let r = s.send_packet_resilient_summary(&[0x55; 600]);
            saw_data_only |= r.mode == LinkMode::DataOnly;
            // Data keeps flowing whatever the mode.
            assert!(r.packet.data_ok || r.phy_error.is_some());
        }
        assert!(saw_data_only, "blackout never degraded the link");
        assert_eq!(s.mode(), LinkMode::Cos, "link never recovered: {:?}", s.transitions());
    }

    #[test]
    fn corrupted_feedback_never_yields_invalid_selection() {
        let mut s = CosSession::new(SessionConfig { snr_db: 22.0, ..Default::default() }, 17);
        s.set_faults(
            cos_channel::FaultEngine::new().with(FeedbackCorruption::new(1.0, 48, 13)),
        );
        for _ in 0..15 {
            s.send_packet_resilient_summary(&[0x0F; 500]);
            assert!(!s.selected_subcarriers().is_empty());
            assert!(s.selected_subcarriers().iter().all(|&sc| sc < NUM_DATA));
            let sel = s.selected_subcarriers();
            assert!(sel.windows(2).all(|w| w[0] < w[1]), "unsorted/dup selection {sel:?}");
        }
    }

    #[test]
    fn adaptive_path_climbs_rate_and_budget_on_clean_link() {
        let mut s = CosSession::new(SessionConfig { snr_db: 24.0, ..Default::default() }, 51);
        let mut r = s.send_packet_adaptive_summary(&[0xAB; 600]);
        // First packet goes out at the unacquired staircase state.
        assert_eq!(r.packet.rate, DataRate::Mbps6);
        for _ in 0..40 {
            r = s.send_packet_adaptive_summary(&[0xAB; 600]);
        }
        let ctrl = s.adaptation_controller();
        assert!(ctrl.rate() >= DataRate::Mbps36, "staircase stuck at {:?}", ctrl.rate());
        assert!(
            ctrl.target_budget() > 2,
            "probe search never confirmed a budget above base: {}",
            ctrl.target_budget()
        );
        assert_ne!(r.ewma_snr_db, f64::NEG_INFINITY, "no feedback ever arrived");
    }

    #[test]
    fn adaptive_path_respects_pinned_rate() {
        let cfg = SessionConfig { rate: Some(DataRate::Mbps18), snr_db: 25.0, ..Default::default() };
        let mut s = CosSession::new(cfg, 5);
        for _ in 0..6 {
            let r = s.send_packet_adaptive_summary(&[0; 400]);
            assert_eq!(r.packet.rate, DataRate::Mbps18);
            assert_eq!(r.rate_after, DataRate::Mbps18);
        }
    }

    #[test]
    fn adaptive_short_frame_clamps_probe_without_panicking() {
        // A 30-byte payload at a fast pinned rate has very few symbols;
        // the probe must clamp to the frame instead of overflowing the
        // embedder.
        let cfg = SessionConfig {
            rate: Some(DataRate::Mbps54),
            snr_db: 26.0,
            adaptation: AdaptationConfig {
                base_budget: 2,
                probe_step: 16,
                max_budget: 64,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut s = CosSession::new(cfg, 91);
        for _ in 0..10 {
            let r = s.send_packet_adaptive_summary(&[0x77; 30]);
            assert!(r.packet.silences_sent <= r.budget);
        }
    }

    #[test]
    fn adaptive_reinit_equals_fresh_session() {
        let cfg = SessionConfig { snr_db: 19.0, ..Default::default() };
        let mut recycled = CosSession::new(
            SessionConfig { snr_db: 9.0, rate: Some(DataRate::Mbps6), ..Default::default() },
            999,
        );
        recycled.queue_control(bits(8));
        for _ in 0..5 {
            recycled.send_packet_adaptive_summary(&[0x11; 300]);
        }
        recycled.reinit(cfg.clone(), 4242);
        let mut fresh = CosSession::new(cfg, 4242);
        for _ in 0..8 {
            let a = recycled.send_packet_adaptive_summary(&[0x22; 400]);
            let b = fresh.send_packet_adaptive_summary(&[0x22; 400]);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn set_snr_db_drift_downgrades_rate() {
        let mut s = CosSession::new(SessionConfig { snr_db: 26.0, ..Default::default() }, 61);
        for _ in 0..12 {
            s.send_packet_adaptive_summary(&[0xAB; 600]);
        }
        let high_rate = s.adaptation_controller().rate();
        assert!(high_rate >= DataRate::Mbps36);
        s.set_snr_db(8.0);
        for _ in 0..12 {
            s.send_packet_adaptive_summary(&[0xAB; 600]);
        }
        let low_rate = s.adaptation_controller().rate();
        assert!(low_rate < high_rate, "rate never tracked the SNR collapse");
    }

    #[test]
    fn metrics_count_across_paths_and_reset_on_reinit() {
        let cfg = SessionConfig { snr_db: 24.0, ..Default::default() };
        let mut s = CosSession::new(cfg.clone(), 42);
        let first_target = s.adaptation_controller().target_budget();
        assert_eq!(
            s.metrics(),
            SessionMetrics { silence_budget: first_target, ..Default::default() },
            "a fresh session reports the policy's first probe target"
        );

        s.send_packet_summary(&[0xAB; 600], &bits(8));
        s.queue_control(bits(8));
        s.send_packet_resilient_summary(&[0xAB; 600]);
        s.queue_control(bits(8));
        for _ in 0..6 {
            s.send_packet_adaptive_summary(&[0xAB; 600]);
        }
        let m = s.metrics();
        assert_eq!(m.frames_tx, 8);
        assert_eq!(m.control_embedded, 8, "all three paths embed on a clean link");
        assert!(m.frames_rx_ok >= 7, "24 dB link: {m:?}");
        assert!(m.control_ok >= 6, "{m:?}");
        assert!(m.feedback_delivered >= 7, "{m:?}");
        assert!(m.adaptation_events >= 2, "acquire + probe confirmations: {m:?}");
        assert!(m.silence_budget >= 2, "{m:?}");

        // A recycled session reports like a fresh one.
        s.reinit(cfg.clone(), 43);
        assert_eq!(s.metrics(), CosSession::new(cfg, 43).metrics());
    }

    #[test]
    fn metrics_arq_retries_count_reattempts() {
        // Reverse-path blackout for a stretch: the queued message must be
        // retried, and every attempt beyond the first counts.
        let mut s = CosSession::new(SessionConfig { snr_db: 24.0, ..Default::default() }, 33);
        s.send_packet_resilient_summary(&[0x55; 600]); // warm-up feedback
        s.set_faults(
            cos_channel::FaultEngine::new().with(FeedbackLoss::new(1.0, 7)).with_window(0, 4),
        );
        s.queue_control(bits(8));
        for _ in 0..8 {
            s.send_packet_resilient_summary(&[0x55; 600]);
        }
        let m = s.metrics();
        assert!(m.arq_retries >= 1, "blackout forced no retries: {m:?}");
    }

    #[test]
    fn engine_driven_session_keeps_empty_frame_planes() {
        use crate::engine::{BatchEngine, EngineConfig, JobResult, SessionPool};
        let mut pool = SessionPool::new();
        let ids: Vec<_> = (0..9)
            .map(|i| {
                let rate = Some(if i % 2 == 0 { DataRate::Mbps54 } else { DataRate::Mbps6 });
                pool.create(SessionConfig { snr_db: 22.0, rate, ..Default::default() }, i)
            })
            .collect();
        for threads in [1, 2] {
            let mut engine = BatchEngine::new(EngineConfig { threads });
            let p = engine.add_payload(&[0x3C; 200]);
            let c = engine.add_control(&[1, 0, 1, 1]);
            for &id in &ids {
                engine.submit(id, p, c);
                engine.submit_resilient(id, p);
                engine.submit_adaptive(id, p);
            }
            let out = engine.drain(&mut pool);
            assert!(out.iter().all(|o| o.result != JobResult::StaleSession));
        }
        for &id in &ids {
            assert_eq!(pool.get(id).unwrap().fs.planes_capacity(), 0, "{id:?}");
        }
        // The per-frame path lends the session its own planes.
        let s = pool.get_mut(ids[0]).unwrap();
        s.send_packet_summary(&[0x3C; 200], &[1, 0, 1, 1]);
        assert!(s.fs.planes_capacity() > 0);
    }

    #[test]
    #[should_panic(expected = "control message length 3 is not a multiple of k = 4")]
    fn queue_control_rejects_a_partial_interval() {
        CosSession::new(SessionConfig::default(), 1).queue_control(vec![1, 0, 1]);
    }

    #[test]
    #[allow(deprecated)]
    #[should_panic(expected = "control message length 3 is not a multiple of k = 4")]
    fn queue_adaptive_control_rejects_a_partial_interval() {
        CosSession::new(SessionConfig::default(), 1).queue_adaptive_control(vec![1, 0, 1]);
    }

    /// Every send kind draws from the one queue: a message queued with
    /// `queue_control` rides adaptive frames and is confirmed by them,
    /// and its retries count once. The benchmark's alias names reach
    /// the same queue.
    #[test]
    #[allow(deprecated)]
    fn adaptive_frames_carry_and_confirm_the_one_queue() {
        let mut s = CosSession::new(SessionConfig { snr_db: 24.0, ..Default::default() }, 21);
        s.send_packet_adaptive_summary(&[0xAB; 600]); // warm-up feedback
        s.set_faults(
            cos_channel::FaultEngine::new().with(FeedbackLoss::new(1.0, 7)).with_window(0, 2),
        );
        s.queue_control(bits(8));
        for _ in 0..12 {
            assert_eq!(s.arq_backlog(), s.adaptive_backlog());
            s.send_packet_adaptive_summary(&[0xAB; 600]);
        }
        let stats = s.arq_stats();
        assert_eq!((stats.enqueued, stats.delivered, s.arq_backlog()), (1, 1, 0), "{stats:?}");
        assert!(stats.attempts >= 2, "the feedback blackout forced no retry: {stats:?}");
        assert_eq!(s.metrics().arq_retries, stats.attempts - 1);
        s.queue_adaptive_control(bits(8));
        assert_eq!((s.arq_backlog(), s.arq_stats().enqueued), (1, 2));
    }

    /// A queued message no frame can carry — 64 one-bits span 257
    /// control positions, a 30-byte frame at 54 Mbps offers 96 — leaves
    /// its frames without silences instead of panicking, and the ARQ
    /// drops it as failed after `arq_max_retries`. Per frame and through
    /// the engine, for both queue-fed kinds.
    #[test]
    fn uncarriable_message_goes_unembedded_and_fails() {
        use crate::engine::{BatchEngine, EngineConfig, SessionPool};
        let cfg = SessionConfig {
            rate: Some(DataRate::Mbps54),
            snr_db: 26.0,
            resilience: ResilienceConfig { arq_max_retries: 2, ..Default::default() },
            ..Default::default()
        };
        let payload = [0x77; 30];
        let mut pool = SessionPool::new();
        let mut engine = BatchEngine::new(EngineConfig { threads: 1 });
        let p = engine.add_payload(&payload);
        for src in [ControlSource::Resilient, ControlSource::Adaptive] {
            let mut s = CosSession::new(cfg.clone(), 5);
            let id = pool.create(cfg.clone(), 5);
            s.queue_control(vec![1; 64]);
            pool.get_mut(id).unwrap().queue_control(vec![1; 64]);
            for _ in 0..10 {
                match src {
                    ControlSource::Adaptive => engine.submit_adaptive(id, p),
                    _ => engine.submit_resilient(id, p),
                }
            }
            let out = engine.drain(&mut pool);
            for (k, o) in out.iter().enumerate() {
                let want = s.send(&payload, src);
                assert_eq!(o.result, want, "{src:?} frame {k}");
                let silences = match want {
                    JobResult::Resilient(r) => r.packet.silences_sent,
                    JobResult::Adaptive(a) => a.packet.silences_sent,
                    other => unreachable!("{other:?}"),
                };
                if k == 0 {
                    assert_eq!(silences, 0, "{src:?}: the first attempt embeds nothing");
                }
            }
            let stats = s.arq_stats();
            assert_eq!((stats.failed, stats.delivered, s.arq_backlog()), (1, 0, 0), "{stats:?}");
            assert_eq!(pool.get(id).unwrap().arq_stats(), stats);
        }
    }

    #[test]
    fn burst_interference_is_tallied_not_panicking() {
        let mut s = CosSession::new(SessionConfig { snr_db: 20.0, ..Default::default() }, 29);
        s.set_faults(
            cos_channel::FaultEngine::new().with(BurstInterference::new(30.0, 400, 0.8, 3)),
        );
        for _ in 0..15 {
            s.send_packet_resilient_summary(&[0xA5; 400]);
        }
        // No assertion on delivery — the point is surviving the bursts and
        // classifying failures instead of panicking.
        let _ = s.phy_errors();
    }
}
