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
//! validation, EVM feedback, then one sender tail for every kind, as
//! the paper's link has one ACK feedback loop: the report's fate (plain
//! frames trust every report, the others cross the link's reverse
//! path), one gate that picks the report reaching the sender (only the
//! resilience guard salvages stale and corrupt reports), its
//! application, and the kind's observer (none for plain frames, the
//! guard for resilient ones, the policy for adaptive ones), whose
//! confirmation settles the ARQ head. Each frame runs on a
//! `FrameScratch` lent by the caller: the session's own on the per-frame
//! path, an engine worker's in a batch.

use crate::adaptation::{
    LinkAdaptationController, ProbeEvent, ProbeState, StaircaseEvent, BASE_BUDGET,
};
use crate::control_rate;
use crate::energy_detector::{Detection, DetectionAccuracy, EnergyDetector};
use crate::engine::JobResult;
use crate::interval::IntervalCodec;
use crate::power_controller::{EmbedError, PowerController};
use crate::resilience::{
    corrupt_selection, ArqHistograms, ArqStats, ControlArq, DegradedModeController, LinkMode,
    ModeTransition, PacketObservation, PhyErrorTally, ThresholdRecalibrator,
};
use crate::subcarrier_select::{select_control_subcarriers_into, SelectionPolicy};
use crate::validation::{sanitize_selection, validate_silences_into};
use cos_channel::{ChannelConfig, FaultEngine, FeedbackFate, Link};
use cos_dsp::Complex;
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

/// The frame's kind as the sender tail ([`CosSession::settle`]) sees
/// it, with what its control source decided that the tail needs back.
#[derive(Debug, Clone, Copy)]
enum Tail {
    Plain,
    Resilient { mode: LinkMode },
    Adaptive { target: usize },
}

/// The frame-sized planes of one frame in flight: the tx frame and
/// waveform (whose mapped points double as the §III-D reference of the
/// EVM feedback loop, see [`reference_points`]), the rx landing zone,
/// front end and decoder scratch, and the decoded control bits, whose
/// worst-case size grows with the frame's control slots.
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
    control: Vec<u8>,
}

impl FrameScratch {
    /// Heap capacity of the frame-sized buffers, in elements — zero until
    /// a frame has run through this scratch.
    #[cfg(test)]
    fn planes_capacity(&self) -> usize {
        let PhyWorkspace { tx, rx } = &self.phy;
        let fec = &rx.scratch.fec;
        tx.samples.capacity()
            + tx.frame.data_symbols.capacity()
            + tx.frame.mapped_points.capacity()
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

/// The §III-D reference points of a frame that passed its CRC, decoded
/// as `(payload, scrambler seed)`, from `tx`, which holds the frame built
/// from `sent`. When the two agree the sender's own mapped points are the
/// reference: the receiver's reconstruction runs the same
/// `encode_data_field` on the same PSDU, rate and seed, and embedding
/// writes only the symbols and the silence mask, never the points. When
/// they differ (a CRC false positive) the points are rebuilt from what was
/// decoded, into `tx`, whose frame is spent once it has been rendered.
fn reference_points<'a>(
    tx: &'a mut TxWorkspace,
    sent: (&[u8], u8),
    decoded: (&[u8], u8),
    rate: DataRate,
) -> &'a [[Complex; NUM_DATA]] {
    if decoded == sent {
        &tx.frame.mapped_points
    } else {
        reconstruct_points_into(decoded.0, rate, decoded.1, tx)
    }
}

/// Energy-detection adaptive-threshold bias every session starts from
/// (dB above the geometric midpoint between noise floor and subcarrier
/// signal energy); the resilience guard's recalibration moves it from
/// there.
pub const DETECTOR_BIAS_DB: f64 = 1.0;

/// Control bits per interval of every session's interval code (the
/// paper's k = 4).
pub const BITS_PER_INTERVAL: usize = 4;

/// Configuration of a CoS session. [`SessionConfig::validate`] holds the
/// one rule set for its values.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Channel model.
    pub channel: ChannelConfig,
    /// Average link SNR in dB.
    pub snr_db: f64,
    /// Fixed data rate; `None` enables SNR-based rate adaptation.
    pub rate: Option<DataRate>,
    /// Minimum number of control subcarriers to keep selected (0 keeps
    /// one, like 1), at most 39: the bootstrap block, subcarriers 9..,
    /// must fit the 48 data subcarriers.
    pub min_control_subcarriers: usize,
    /// Wall-clock gap between packets in seconds (drives channel
    /// evolution).
    pub packet_interval: f64,
    /// Retransmissions allowed per control message on the session's one
    /// ARQ queue, which resilient and adaptive frames both draw from,
    /// before the message is dropped as failed.
    pub arq_max_retries: u32,
    /// The largest silence budget the adaptation policy's probe search
    /// climbs to (at least [`BASE_BUDGET`]); only
    /// [`CosSession::send_packet_adaptive_summary`] consults the policy.
    pub max_budget: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            channel: ChannelConfig::default(),
            snr_db: 18.0,
            rate: None,
            min_control_subcarriers: 6,
            packet_interval: 1e-3,
            arq_max_retries: 8,
            max_budget: 46,
        }
    }
}

impl SessionConfig {
    /// The one rule per field: `Err` names the first field outside its
    /// domain. [`CosSession::new`] and [`CosSession::reinit`] panic on
    /// it; the service journal's reader rejects it. Each rule keeps a
    /// value from panicking deep in the channel or the session later.
    pub fn validate(&self) -> Result<(), &'static str> {
        let c = &self.channel;
        let checks = [
            ((1..=16).contains(&c.n_taps), "n_taps"),
            (c.tap_decay.is_finite(), "tap_decay"),
            (c.k_factor.is_finite(), "k_factor"),
            (c.doppler_hz.is_finite(), "doppler_hz"),
            (self.snr_db.is_finite(), "snr_db"),
            (self.min_control_subcarriers <= MAX_MIN_CONTROL_SUBCARRIERS, "min_control_subcarriers"),
            (self.packet_interval.is_finite() && self.packet_interval >= 0.0, "packet_interval"),
            (self.max_budget >= BASE_BUDGET, "max_budget"),
        ];
        match checks.into_iter().find(|&(ok, _)| !ok) {
            Some((_, field)) => Err(field),
            None => Ok(()),
        }
    }

    /// Panics, naming the field, unless [`validate`](Self::validate)
    /// passes.
    fn assert_valid(&self) {
        match self.validate() {
            Ok(()) => {}
            Err("min_control_subcarriers") => panic!(
                "min_control_subcarriers = {} exceeds MAX_MIN_CONTROL_SUBCARRIERS = \
                 {MAX_MIN_CONTROL_SUBCARRIERS}: the bootstrap block {BOOTSTRAP_FIRST}.. must fit \
                 the {NUM_DATA} data subcarriers",
                self.min_control_subcarriers
            ),
            Err(field) => panic!("SessionConfig::{field} out of range in {self:?}"),
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
    /// never sent one). Not the same number as
    /// [`CosSession::silence_budget`], the §III-F rate table's budget.
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

    /// Feeds a resilient summary in declaration order, the error kind
    /// only as whether one occurred; the modes enter as their variant
    /// index.
    pub fn resilient(&mut self, r: &ResilientSummary) {
        self.packet(&r.packet);
        self.byte(r.mode as u8);
        self.byte(r.mode_after as u8);
        self.bool(r.control_attempted);
        self.bool(r.control_acked);
        self.bool(r.feedback_delivered);
        self.bool(r.phy_error.is_some());
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
        ControlPlane {
            arq: ControlArq::new(config.arq_max_retries),
            guard: DegradedModeController::new(),
            recal: ThresholdRecalibrator::new(DETECTOR_BIAS_DB),
            tally: PhyErrorTally::new(),
            history: VecDeque::new(),
            policy: LinkAdaptationController::new(config.max_budget),
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
/// subcarriers (one when `min` is 0); `min` is at most
/// [`MAX_MIN_CONTROL_SUBCARRIERS`] in a validated config.
fn bootstrap_selection(min: usize) -> std::ops::Range<usize> {
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
    /// The receiver's measured SNR of the last report that reached the
    /// sender; `None` after a miss (the §III-F budget falls back).
    fed_back_snr: Option<f64>,
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
    /// Panics, naming the field, if `config` fails
    /// [`SessionConfig::validate`] — here, not deep in the channel.
    pub fn new(config: SessionConfig, seed: u64) -> Self {
        config.assert_valid();
        let selected = bootstrap_selection(config.min_control_subcarriers).collect();
        let codec = IntervalCodec::new(BITS_PER_INTERVAL);
        let link = Link::new(config.channel, config.snr_db, seed);
        let rate = config.rate.unwrap_or(DataRate::Mbps12);
        CosSession {
            detector: EnergyDetector::new(DETECTOR_BIAS_DB),
            controller: PowerController::new(codec),
            fed_back_snr: None,
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
        config.assert_valid();
        let bootstrap = bootstrap_selection(config.min_control_subcarriers);
        let codec = IntervalCodec::new(BITS_PER_INTERVAL);
        self.plane = ControlPlane::new(&config);
        self.link = Link::new(config.channel, config.snr_db, seed);
        self.selected.clear();
        self.selected.extend(bootstrap);
        self.rate = config.rate.unwrap_or(DataRate::Mbps12);
        self.detector = EnergyDetector::new(DETECTOR_BIAS_DB);
        self.controller = PowerController::new(codec);
        self.fed_back_snr = None;
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

    /// The silence budget (per packet) the §III-F control-rate table
    /// currently allows for a `psdu_bytes` frame at the current rate. Not
    /// the same number as [`SessionMetrics::silence_budget`], the
    /// adaptation policy's probe target for the next adaptive frame.
    pub fn silence_budget(&self, psdu_bytes: usize) -> usize {
        control_rate::silence_budget(self.fed_back_snr, self.rate, psdu_bytes)
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
    /// moved it from [`DETECTOR_BIAS_DB`]).
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
    /// Panics if `bits.len()` is not a multiple of the codec's
    /// [`BITS_PER_INTERVAL`] or a bit is not 0/1 — here, not in whichever
    /// later send carries it. The length rule also keeps an adaptive
    /// frame's padded probe message decodable.
    pub fn queue_control(&mut self, bits: Vec<u8>) {
        crate::engine::check_control_bits(&bits);
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
    /// metrics count the frame, the one sender tail
    /// ([`settle`](Self::settle)) applies the outcome and the ARQ settles
    /// the head the frame carried. The per-frame `send_*` methods lend
    /// the session's own planes, the engine a worker's; both run this one
    /// path.
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
        let FrameScratch { phy: ws, control } = fs;
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
                    let sent = (payload, scrambler_seed);
                    let reference =
                        reference_points(&mut ws.tx, sent, (&ws.rx.out.payload, seed), rate);
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
        let (result, acked) = self.settle(t, tail, embed_control);
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

    /// The one sender tail: settles the frame's feedback report through
    /// one gate and runs the kind's observer, returning the frame's
    /// summary and whether the control message it carried was
    /// confirmed. `embedded` is whether the frame carried silences.
    ///
    /// The steps, the same for every kind: the fate of the report (the
    /// paper's plain loop trusts every report; resilient and adaptive
    /// reports cross the link's reverse path), the resilience guard's
    /// receiver-side bookkeeping (resilient only), the gate that picks
    /// the report reaching the sender (only the guard salvages stale and
    /// corrupt reports; every other fate is a miss), its application,
    /// and the kind's observer.
    fn settle(&mut self, t: Transceived, tail: Tail, embedded: bool) -> (JobResult, bool) {
        let fate = match tail {
            Tail::Plain => FeedbackFate::Deliver,
            Tail::Resilient { .. } | Tail::Adaptive { .. } => self.link.feedback_fate(),
        };
        let resilient = matches!(tail, Tail::Resilient { .. });
        if resilient {
            self.keep_report(&t, embedded);
        }

        let CosSession { config, plane, xs, selected, fed_back_snr, rate, .. } = &mut *self;
        let report = match (t.feedback, fate) {
            (Some(fb), FeedbackFate::Deliver) => Some(fb.measured_snr_db),
            // Index 0 is the report just kept; `d` packets ago is index d
            // (when that far back exists).
            (Some(_), FeedbackFate::Stale(d)) if resilient => plane.history.get(d).map(|old| {
                xs.fb_selection.clone_from(&old.selection);
                old.measured_snr_db
            }),
            // Corrupted where it sits: the history already holds the true
            // report.
            (Some(fb), FeedbackFate::Corrupt { xor_mask }) if resilient => {
                corrupt_selection(&mut xs.fb_selection, xor_mask);
                sanitize_selection(&mut xs.fb_selection, config.min_control_subcarriers);
                Some(fb.measured_snr_db)
            }
            _ => None,
        };
        // A report feeds the §III-F budget and swaps in its selection (the
        // scratch is dead after the frame); the rate follows it except on
        // adaptive frames, whose rate the staircase owns. A miss drops the
        // budget to the fallback; the plain loop alone then re-picks the
        // rate from what its front end measured.
        let pick = |snr| config.rate.unwrap_or_else(|| DataRate::select(snr));
        *fed_back_snr = report;
        match report {
            Some(snr) => {
                std::mem::swap(selected, &mut xs.fb_selection);
                if !matches!(tail, Tail::Adaptive { .. }) {
                    *rate = pick(snr);
                }
            }
            None if matches!(tail, Tail::Plain) && t.front_end_ok => *rate = pick(t.measured),
            None => {}
        }

        let delivered = report.is_some();
        self.m.feedback_delivered += delivered as u64;
        let acked = embedded && t.control_ok && delivered;
        let packet = self.summarize(&t);
        let result = match tail {
            Tail::Plain => JobResult::Plain(packet),
            Tail::Resilient { mode } => {
                let guard = &mut self.plane.guard;
                guard.observe(
                    self.seq,
                    PacketObservation {
                        feedback_fresh: delivered,
                        control_attempted: embedded,
                        control_ok: acked,
                        crc_ok: t.data_ok,
                    },
                );
                JobResult::Resilient(ResilientSummary {
                    packet,
                    mode,
                    mode_after: guard.mode(),
                    control_attempted: embedded,
                    control_acked: acked,
                    feedback_delivered: delivered,
                    phy_error: t.phy_error.map(|e| e.kind()),
                })
            }
            Tail::Adaptive { target } => {
                // A clamped packet carried fewer silences than the probe
                // target, so its outcome says nothing about the probed
                // budget.
                let carried_full = t.silences_sent >= target;
                let policy = &mut self.plane.policy;
                let events = policy.observe(delivered.then_some(t.measured), acked, carried_full);
                self.m.adaptation_events += (events.staircase != StaircaseEvent::Hold) as u64
                    + (events.probe != ProbeEvent::Hold) as u64;
                JobResult::Adaptive(AdaptiveSummary {
                    packet,
                    ewma_snr_db: policy.ewma_snr_db().unwrap_or(f64::NEG_INFINITY),
                    budget: target,
                    rate_after: self.config.rate.unwrap_or_else(|| policy.rate()),
                    budget_after: policy.target_budget(),
                    search_state: policy.search_state(),
                    staircase_event: events.staircase,
                    probe_event: events.probe,
                    control_acked: acked,
                    feedback_delivered: delivered,
                })
            }
        };
        (result, acked)
    }

    /// The resilience guard's receiver-side bookkeeping, before the gate:
    /// tallies the frame's PHY error, keeps the receiver's report for
    /// later stale deliveries whatever its fate, and recalibrates the
    /// detector on the report's false alarms (receiver-side, so it needs
    /// no reverse path).
    fn keep_report(&mut self, t: &Transceived, embedded: bool) {
        let plane = &mut self.plane;
        if let Some(e) = &t.phy_error {
            plane.tally.record(e);
        }
        let Some(fb) = t.feedback else { return };
        let mut entry = if plane.history.len() == FEEDBACK_HISTORY {
            plane.history.pop_back().expect("full history")
        } else {
            HistoryEntry { selection: Vec::new(), measured_snr_db: 0.0 }
        };
        entry.selection.clone_from(&self.xs.fb_selection);
        entry.measured_snr_db = fb.measured_snr_db;
        plane.history.push_front(entry);
        if embedded {
            if let Some(bias) = plane.recal.observe(fb.false_alarms, fb.normal_positions) {
                self.detector = EnergyDetector::new(bias);
            }
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
        // A 30-byte payload at a fast pinned rate has very few symbols
        // (two, 96 control positions: at most 5 intervals, 6 silences);
        // once the search probes past that, the probe must clamp to the
        // frame instead of overflowing the embedder.
        let cfg = SessionConfig {
            rate: Some(DataRate::Mbps54),
            snr_db: 26.0,
            max_budget: 64,
            ..Default::default()
        };
        let mut s = CosSession::new(cfg, 91);
        let mut clamped = 0;
        for _ in 0..10 {
            let r = s.send_packet_adaptive_summary(&[0x77; 30]);
            assert!(r.packet.silences_sent <= r.budget);
            assert!(r.packet.silences_sent <= 6, "{r:?}");
            clamped += (r.packet.silences_sent < r.budget) as usize;
        }
        assert!(clamped > 0, "the probe never outgrew the frame");
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

    /// A NaN SNR used to reach the AWGN's noise-variance assert on the
    /// first frame; the config check names the field at construction.
    #[test]
    #[should_panic(expected = "SessionConfig::snr_db out of range")]
    fn new_rejects_a_non_finite_snr() {
        CosSession::new(SessionConfig { snr_db: f64::NAN, ..Default::default() }, 1);
    }

    #[test]
    #[should_panic(expected = "SessionConfig::n_taps out of range")]
    fn reinit_rejects_an_invalid_config() {
        let mut s = CosSession::new(SessionConfig::default(), 1);
        let mut bad = SessionConfig::default();
        bad.channel.n_taps = 0;
        s.reinit(bad, 2);
    }

    /// Each rule of `validate`, at the first value outside and the last
    /// value inside its domain.
    #[test]
    fn validate_names_the_first_bad_field() {
        assert_eq!(SessionConfig::default().validate(), Ok(()));
        type Patch = fn(&mut SessionConfig, bool);
        let cases: [(&str, Patch); 8] = [
            ("n_taps", |c, bad| c.channel.n_taps = if bad { 17 } else { 16 }),
            ("tap_decay", |c, bad| c.channel.tap_decay = if bad { f64::NAN } else { 0.0 }),
            ("k_factor", |c, bad| c.channel.k_factor = if bad { f64::INFINITY } else { 0.0 }),
            ("doppler_hz", |c, bad| c.channel.doppler_hz = if bad { -f64::INFINITY } else { 0.0 }),
            ("snr_db", |c, bad| c.snr_db = if bad { f64::NAN } else { -30.0 }),
            ("min_control_subcarriers", |c, bad| {
                c.min_control_subcarriers = MAX_MIN_CONTROL_SUBCARRIERS + bad as usize
            }),
            ("packet_interval", |c, bad| c.packet_interval = if bad { -1e-9 } else { 0.0 }),
            ("max_budget", |c, bad| c.max_budget = BASE_BUDGET - bad as usize),
        ];
        for (field, patch) in cases {
            let mut c = SessionConfig::default();
            patch(&mut c, true);
            assert_eq!(c.validate(), Err(field));
            patch(&mut c, false);
            assert_eq!(c.validate(), Ok(()), "{field}");
        }
        let mut zero_taps = SessionConfig::default();
        zero_taps.channel.n_taps = 0;
        assert_eq!(zero_taps.validate(), Err("n_taps"));
    }

    #[test]
    #[should_panic(expected = "control message length 3 is not a multiple of k = 4")]
    fn queue_control_rejects_a_partial_interval() {
        CosSession::new(SessionConfig::default(), 1).queue_control(vec![1, 0, 1]);
    }

    /// A non-binary bit used to queue, then panic in a later send.
    #[test]
    #[should_panic(expected = "control bits must be 0 or 1, got 2")]
    fn queue_control_rejects_a_bit_that_is_not_binary() {
        CosSession::new(SessionConfig::default(), 1).queue_control(vec![2, 0, 0, 0]);
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
            arq_max_retries: 2,
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

    /// The §III-D reference is the sender's own points when the decoded
    /// payload and seed are the ones sent, and otherwise (a CRC false
    /// positive) the points of what was decoded, rebuilt over the sent
    /// frame: a wrong seed, a wrong payload of the same length and one of
    /// another length.
    #[test]
    fn reference_points_reuse_the_sent_frame_only_when_it_was_decoded() {
        use cos_phy::evm::reconstruct_points;
        let sent: &[u8] = &[0x5A; 300];
        let (other, short) = ([0xA5u8; 300], [0x5Au8; 40]);
        let mut tx = TxWorkspace::new();
        for rate in [DataRate::Mbps6, DataRate::Mbps24, DataRate::Mbps54] {
            for decoded in [(sent, 17), (sent, 18), (&other[..], 17), (&short[..], 17)] {
                Transmitter::new().build_frame_into(sent, rate, 17, &mut tx);
                let got = reference_points(&mut tx, (sent, 17), decoded, rate);
                let want = reconstruct_points(decoded.0, rate, decoded.1);
                assert!(got == &want[..], "{rate:?}, {} B, seed {}", decoded.0.len(), decoded.1);
            }
        }
    }
}
