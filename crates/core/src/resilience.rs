//! The resilience layer: what keeps a CoS link useful when its
//! assumptions break.
//!
//! Three cooperating mechanisms, the parts of a session's one control
//! plane that its resilient packets
//! ([`crate::session::CosSession::send_packet_resilient_summary`])
//! drive:
//!
//! * [`ControlArq`] — control messages are queued and retransmitted with
//!   bounded retries and exponential backoff until the reverse path
//!   confirms them (the confirmation is the control-echo on the next
//!   delivered feedback report, so a lost ACK forces a — harmless —
//!   duplicate rather than a silent loss). A session has one queue;
//!   its adaptive packets
//!   ([`crate::session::CosSession::send_packet_adaptive_summary`])
//!   draw from it too, so the ARQ fields of [`ResilienceConfig`] govern
//!   them as well,
//! * [`ThresholdRecalibrator`] — the energy detector's false-alarm rate is
//!   estimated online (energy detections that coherent validation rejects
//!   after a CRC pass are false alarms by definition) and smoothed with an
//!   EWMA; a spike raises the detection bias in steps, and a quiet spell
//!   decays it back toward the configured base,
//! * [`DegradedModeController`] — a three-state machine
//!   (`Cos → DataOnly → Probing → Cos`) that stops embedding control
//!   silences when feedback goes stale or control errors exceed budget,
//!   keeps the data flowing unimpaired, and re-probes with exponentially
//!   backed-off single-probe packets until the control channel proves
//!   healthy again.
//!
//! Thresholds and budgets live in [`ResilienceConfig`]; the defaults are
//! what `docs/ROBUSTNESS.md` documents and the robustness soak exercises.

use cos_phy::error::PhyError;
use cos_phy::subcarriers::NUM_DATA;
use std::collections::{BTreeMap, VecDeque};

/// Tunable thresholds and budgets of the resilience layer. In a session
/// the `arq_*` fields configure its one [`ControlArq`], which adaptive
/// packets draw from as well as resilient ones.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Consecutive packets without a delivered feedback report before the
    /// link degrades to data-only mode.
    pub stale_after: u32,
    /// Length of the sliding window of control-attempt outcomes.
    pub ctrl_window: usize,
    /// Failures tolerated inside the window; one more degrades the link.
    pub ctrl_fail_budget: usize,
    /// EWMA false-alarm rate above which the detector bias is raised.
    pub fa_spike: f64,
    /// EWMA smoothing factor for the false-alarm estimate.
    pub fa_alpha: f64,
    /// Bias increment/decrement per recalibration step (dB).
    pub recalib_step_db: f64,
    /// Upper clamp on the recalibrated detector bias (dB).
    pub max_bias_db: f64,
    /// Packets to wait in data-only mode before the first re-probe.
    pub reprobe_backoff: u32,
    /// Upper clamp on the re-probe backoff (doubles per failed probe).
    pub reprobe_backoff_max: u32,
    /// Retransmissions allowed per control message before it is dropped.
    pub arq_max_retries: u32,
    /// Packets to wait before the first retransmission.
    pub arq_backoff: u32,
    /// Upper clamp on the ARQ backoff (doubles per retry).
    pub arq_backoff_max: u32,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            stale_after: 4,
            ctrl_window: 8,
            ctrl_fail_budget: 2,
            fa_spike: 0.05,
            fa_alpha: 0.3,
            recalib_step_db: 0.75,
            max_bias_db: 6.0,
            reprobe_backoff: 2,
            reprobe_backoff_max: 16,
            arq_max_retries: 8,
            arq_backoff: 1,
            arq_backoff_max: 8,
        }
    }
}

/// The link's operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkMode {
    /// Normal operation: control messages ride as silence symbols.
    Cos,
    /// Degraded: plain data frames, no silences, feedback still consumed.
    DataOnly,
    /// One-packet health check: a probe control message is embedded; its
    /// outcome decides between recovery and further backoff.
    Probing,
}

impl LinkMode {
    /// Stable label for CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            LinkMode::Cos => "cos",
            LinkMode::DataOnly => "data_only",
            LinkMode::Probing => "probing",
        }
    }
}

/// Why a mode transition happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// Feedback age crossed `stale_after`.
    StaleFeedback,
    /// Control failures exceeded `ctrl_fail_budget` within the window.
    ControlBerBudget,
    /// The data-only backoff elapsed; time to probe.
    ProbeDue,
    /// The probe packet's control message did not come back confirmed.
    ProbeFailed,
    /// The probe succeeded; back to CoS.
    ProbeRecovered,
}

/// One recorded mode transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeTransition {
    /// Session sequence number (packet) at which the transition fired.
    pub packet: u64,
    /// Mode left behind.
    pub from: LinkMode,
    /// Mode entered.
    pub to: LinkMode,
    /// Trigger.
    pub reason: DegradeReason,
}

/// What the session observed for one packet, as the controller sees it.
#[derive(Debug, Clone, Copy)]
pub struct PacketObservation {
    /// A feedback report (fresh or stale-but-delivered) arrived.
    pub feedback_fresh: bool,
    /// A control message (possibly the empty marker probe) was embedded.
    pub control_attempted: bool,
    /// The embedded control message came back confirmed.
    pub control_ok: bool,
    /// The data frame passed its CRC.
    pub crc_ok: bool,
}

/// The degraded-mode state machine.
#[derive(Debug, Clone)]
pub struct DegradedModeController {
    cfg: ResilienceConfig,
    mode: LinkMode,
    feedback_age: u32,
    window: VecDeque<bool>,
    probe_wait: u32,
    backoff: u32,
    transitions: Vec<ModeTransition>,
}

impl DegradedModeController {
    /// Starts in [`LinkMode::Cos`].
    pub fn new(cfg: ResilienceConfig) -> Self {
        let backoff = cfg.reprobe_backoff;
        DegradedModeController {
            cfg,
            mode: LinkMode::Cos,
            feedback_age: 0,
            window: VecDeque::new(),
            probe_wait: 0,
            backoff,
            transitions: Vec::new(),
        }
    }

    /// The mode the *next* packet should be sent in.
    pub fn mode(&self) -> LinkMode {
        self.mode
    }

    /// Packets since the last delivered feedback report.
    pub fn feedback_age(&self) -> u32 {
        self.feedback_age
    }

    /// Every transition recorded so far, in order.
    pub fn transitions(&self) -> &[ModeTransition] {
        &self.transitions
    }

    fn transition(&mut self, packet: u64, to: LinkMode, reason: DegradeReason) {
        self.transitions.push(ModeTransition { packet, from: self.mode, to, reason });
        self.mode = to;
    }

    /// Feeds one packet's outcome; may change the mode for the next one.
    pub fn observe(&mut self, packet: u64, obs: PacketObservation) {
        self.feedback_age = if obs.feedback_fresh { 0 } else { self.feedback_age.saturating_add(1) };
        match self.mode {
            LinkMode::Cos => {
                if obs.control_attempted {
                    self.window.push_back(obs.control_ok);
                    while self.window.len() > self.cfg.ctrl_window {
                        self.window.pop_front();
                    }
                }
                let failures = self.window.iter().filter(|&&ok| !ok).count();
                let stale = self.feedback_age >= self.cfg.stale_after;
                if stale || failures > self.cfg.ctrl_fail_budget {
                    let reason = if stale {
                        DegradeReason::StaleFeedback
                    } else {
                        DegradeReason::ControlBerBudget
                    };
                    self.window.clear();
                    self.probe_wait = self.backoff;
                    self.transition(packet, LinkMode::DataOnly, reason);
                }
            }
            LinkMode::DataOnly => {
                if self.probe_wait == 0 {
                    self.transition(packet, LinkMode::Probing, DegradeReason::ProbeDue);
                } else {
                    self.probe_wait -= 1;
                }
            }
            LinkMode::Probing => {
                if obs.control_ok && obs.feedback_fresh {
                    self.backoff = self.cfg.reprobe_backoff;
                    self.transition(packet, LinkMode::Cos, DegradeReason::ProbeRecovered);
                } else {
                    self.backoff = (self.backoff.saturating_mul(2)).min(self.cfg.reprobe_backoff_max);
                    self.probe_wait = self.backoff;
                    self.transition(packet, LinkMode::DataOnly, DegradeReason::ProbeFailed);
                }
            }
        }
    }
}

/// Attempt buckets of [`ArqHistograms`]: index `k < 9` counts messages
/// resolved after exactly `k + 1` transmission attempts; the last bucket
/// collects everything beyond.
pub const ARQ_ATTEMPT_BUCKETS: usize = 10;

/// Latency buckets of [`ArqHistograms`] (delivery latency in packets):
/// `0`, `1`, `2`, `3–4`, `5–8`, `9–16`, `17–32`, `33+`.
pub const ARQ_LATENCY_BUCKETS: usize = 8;

/// Per-message delivery histograms of a [`ControlArq`] — the data that
/// makes retry budgets and backoff caps tunable from measurement rather
/// than guesswork (the robustness soak reports these per fault scenario,
/// and the service layer sizes its own retry budget against them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArqHistograms {
    /// Attempts needed per **delivered** message (see
    /// [`ARQ_ATTEMPT_BUCKETS`]).
    pub delivered_attempts: [u64; ARQ_ATTEMPT_BUCKETS],
    /// Attempts spent per **failed** (retry-exhausted) message.
    pub failed_attempts: [u64; ARQ_ATTEMPT_BUCKETS],
    /// Enqueue-to-confirmation latency per delivered message, in packets
    /// — backoff waits included (see [`ARQ_LATENCY_BUCKETS`]).
    pub delivery_latency: [u64; ARQ_LATENCY_BUCKETS],
}

impl ArqHistograms {
    fn attempt_bucket(attempts: u32) -> usize {
        (attempts.max(1) as usize - 1).min(ARQ_ATTEMPT_BUCKETS - 1)
    }

    fn latency_bucket(latency: u64) -> usize {
        match latency {
            0 => 0,
            1 => 1,
            2 => 2,
            3..=4 => 3,
            5..=8 => 4,
            9..=16 => 5,
            17..=32 => 6,
            _ => 7,
        }
    }

    fn record_delivered(&mut self, attempts: u32, latency: u64) {
        self.delivered_attempts[Self::attempt_bucket(attempts)] += 1;
        self.delivery_latency[Self::latency_bucket(latency)] += 1;
    }

    fn record_failed(&mut self, attempts: u32) {
        self.failed_attempts[Self::attempt_bucket(attempts)] += 1;
    }

    /// Element-wise accumulation (for aggregating across trials).
    pub fn merge(&mut self, other: &ArqHistograms) {
        for (a, b) in self.delivered_attempts.iter_mut().zip(&other.delivered_attempts) {
            *a += b;
        }
        for (a, b) in self.failed_attempts.iter_mut().zip(&other.failed_attempts) {
            *a += b;
        }
        for (a, b) in self.delivery_latency.iter_mut().zip(&other.delivery_latency) {
            *a += b;
        }
    }

    /// Smallest attempt count whose cumulative delivered share reaches
    /// `q` (e.g. 0.99 ⇒ "99 % of messages deliver within N attempts");
    /// `None` when nothing was delivered. The last bucket reports as
    /// [`ARQ_ATTEMPT_BUCKETS`] (a `10+` reading).
    pub fn attempts_quantile(&self, q: f64) -> Option<usize> {
        let total: u64 = self.delivered_attempts.iter().sum();
        if total == 0 {
            return None;
        }
        let target = (q * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (k, &n) in self.delivered_attempts.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                return Some(k + 1);
            }
        }
        Some(ARQ_ATTEMPT_BUCKETS)
    }
}

/// Aggregate ARQ statistics (latencies are in packets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArqStats {
    /// Messages accepted into the queue.
    pub enqueued: u64,
    /// Messages confirmed delivered.
    pub delivered: u64,
    /// Messages dropped after exhausting their retries.
    pub failed: u64,
    /// Transmission attempts across all messages.
    pub attempts: u64,
    /// Sum over delivered messages of (confirmation packet − enqueue
    /// packet) — divide by `delivered` for the mean delivery latency.
    pub total_delivery_latency: u64,
}

impl ArqStats {
    /// Delivered fraction of all resolved (delivered + failed) messages;
    /// 1.0 when nothing has resolved yet.
    pub fn delivery_rate(&self) -> f64 {
        let resolved = self.delivered + self.failed;
        if resolved == 0 {
            1.0
        } else {
            self.delivered as f64 / resolved as f64
        }
    }

    /// Mean packets from enqueue to confirmation (0 when nothing
    /// delivered).
    pub fn mean_delivery_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_delivery_latency as f64 / self.delivered as f64
        }
    }
}

#[derive(Debug, Clone)]
struct ArqEntry {
    bits: Vec<u8>,
    attempts: u32,
    wait: u32,
    backoff: u32,
    enqueued_at: u64,
}

/// Stop-and-wait ARQ for control messages: one message in flight, bounded
/// retries, exponential backoff between attempts.
#[derive(Debug, Clone)]
pub struct ControlArq {
    max_retries: u32,
    backoff0: u32,
    backoff_max: u32,
    queue: VecDeque<ArqEntry>,
    stats: ArqStats,
    hist: ArqHistograms,
}

impl ControlArq {
    /// Creates the ARQ from the resilience configuration.
    pub fn new(cfg: &ResilienceConfig) -> Self {
        ControlArq {
            max_retries: cfg.arq_max_retries,
            backoff0: cfg.arq_backoff,
            backoff_max: cfg.arq_backoff_max.max(cfg.arq_backoff),
            queue: VecDeque::new(),
            stats: ArqStats::default(),
            hist: ArqHistograms::default(),
        }
    }

    /// Accepts a control message for reliable delivery.
    pub fn enqueue(&mut self, bits: Vec<u8>, now_packet: u64) {
        self.stats.enqueued += 1;
        self.queue.push_back(ArqEntry {
            bits,
            attempts: 0,
            wait: 0,
            backoff: self.backoff0,
            enqueued_at: now_packet,
        });
    }

    /// Messages still queued (including the one in flight).
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Running statistics.
    pub fn stats(&self) -> ArqStats {
        self.stats
    }

    /// Per-message attempt/latency histograms.
    pub fn histograms(&self) -> &ArqHistograms {
        &self.hist
    }

    /// Returns the bits to transmit this packet, if the head message's
    /// backoff has elapsed; otherwise counts the packet against the
    /// backoff and returns `None`. The bits are borrowed from the queue
    /// head, so polling never allocates.
    pub fn poll(&mut self) -> Option<&[u8]> {
        let head = self.queue.front_mut()?;
        if head.wait > 0 {
            head.wait -= 1;
            return None;
        }
        head.attempts += 1;
        self.stats.attempts += 1;
        Some(&head.bits)
    }

    /// The head message (last polled) was confirmed delivered.
    pub fn confirm(&mut self, now_packet: u64) {
        if let Some(entry) = self.queue.pop_front() {
            let latency = now_packet.saturating_sub(entry.enqueued_at);
            self.stats.delivered += 1;
            self.stats.total_delivery_latency += latency;
            self.hist.record_delivered(entry.attempts, latency);
        }
    }

    /// The head message (last polled) went unconfirmed: back off, retry,
    /// or — past the retry bound — drop it as failed.
    pub fn reject(&mut self) {
        let Some(head) = self.queue.front_mut() else { return };
        if head.attempts > self.max_retries {
            let attempts = head.attempts;
            self.queue.pop_front();
            self.stats.failed += 1;
            self.hist.record_failed(attempts);
        } else {
            head.wait = head.backoff;
            head.backoff = (head.backoff.saturating_mul(2)).min(self.backoff_max);
        }
    }
}

/// Online false-alarm tracking and detector-bias recalibration.
///
/// After every CRC-pass packet the session knows which energy detections
/// coherent validation rejected — those are false alarms. Their rate over
/// the frame's normal (non-silence) positions is EWMA-smoothed; a spike
/// above `fa_spike` raises the bias one step (capped), a rate sustained
/// below a quarter of the spike threshold decays it one step toward the
/// base.
#[derive(Debug, Clone)]
pub struct ThresholdRecalibrator {
    base_bias_db: f64,
    step_db: f64,
    max_bias_db: f64,
    spike: f64,
    alpha: f64,
    bias_db: f64,
    ewma: f64,
}

impl ThresholdRecalibrator {
    /// Creates a recalibrator anchored at the session's configured bias.
    pub fn new(base_bias_db: f64, cfg: &ResilienceConfig) -> Self {
        ThresholdRecalibrator {
            base_bias_db,
            step_db: cfg.recalib_step_db,
            max_bias_db: cfg.max_bias_db.max(base_bias_db),
            spike: cfg.fa_spike,
            alpha: cfg.fa_alpha,
            bias_db: base_bias_db,
            ewma: 0.0,
        }
    }

    /// The bias currently in force (dB).
    pub fn bias_db(&self) -> f64 {
        self.bias_db
    }

    /// Feeds one frame's false-alarm evidence. Returns the new bias when
    /// it changed.
    pub fn observe(&mut self, false_alarms: usize, normal_positions: usize) -> Option<f64> {
        if normal_positions == 0 {
            return None;
        }
        let rate = false_alarms as f64 / normal_positions as f64;
        self.ewma = self.alpha * rate + (1.0 - self.alpha) * self.ewma;
        if self.ewma > self.spike && self.bias_db < self.max_bias_db {
            self.bias_db = (self.bias_db + self.step_db).min(self.max_bias_db);
            // Partial reset so one spike does not trigger a staircase of
            // raises before new evidence arrives.
            self.ewma = self.spike * 0.5;
            Some(self.bias_db)
        } else if self.ewma < self.spike * 0.25 && self.bias_db > self.base_bias_db {
            self.bias_db = (self.bias_db - self.step_db).max(self.base_bias_db);
            Some(self.bias_db)
        } else {
            None
        }
    }
}

/// Deterministic per-kind tally of receive-chain failures.
#[derive(Debug, Clone, Default)]
pub struct PhyErrorTally {
    counts: BTreeMap<&'static str, u64>,
}

impl PhyErrorTally {
    /// An empty tally.
    pub fn new() -> Self {
        PhyErrorTally::default()
    }

    /// Records one error.
    pub fn record(&mut self, err: &PhyError) {
        *self.counts.entry(err.kind()).or_insert(0) += 1;
    }

    /// Sum over all kinds.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Per-kind counts, sorted by kind (deterministic iteration).
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }
}

/// XORs a 48-bit corruption mask onto a subcarrier selection, in place:
/// `selection` becomes the corrupted (still unsanitised) indices, in
/// ascending order.
pub fn corrupt_selection(selection: &mut Vec<usize>, xor_mask: u64) {
    let mut bitset = 0u64;
    for &sc in selection.iter() {
        if sc < NUM_DATA {
            bitset |= 1u64 << sc;
        }
    }
    bitset ^= xor_mask & ((1u64 << NUM_DATA) - 1);
    selection.clear();
    selection.extend((0..NUM_DATA).filter(|&sc| (bitset >> sc) & 1 == 1));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(fresh: bool, attempted: bool, ok: bool) -> PacketObservation {
        PacketObservation {
            feedback_fresh: fresh,
            control_attempted: attempted,
            control_ok: ok,
            crc_ok: true,
        }
    }

    #[test]
    fn stale_feedback_degrades_then_probe_recovers() {
        let cfg = ResilienceConfig::default();
        let mut c = DegradedModeController::new(cfg.clone());
        let mut packet = 0u64;
        // Feedback vanishes: after `stale_after` packets the link degrades.
        while c.mode() == LinkMode::Cos {
            c.observe(packet, obs(false, true, true));
            packet += 1;
            assert!(packet < 20, "never degraded");
        }
        assert_eq!(c.mode(), LinkMode::DataOnly);
        assert_eq!(c.transitions().last().map(|t| t.reason), Some(DegradeReason::StaleFeedback));
        // Feedback returns: wait out the backoff, probe, recover.
        let mut steps = 0;
        while c.mode() != LinkMode::Cos {
            c.observe(packet, obs(true, c.mode() == LinkMode::Probing, true));
            packet += 1;
            steps += 1;
            assert!(steps < 20, "never recovered");
        }
        assert_eq!(c.transitions().last().map(|t| t.reason), Some(DegradeReason::ProbeRecovered));
    }

    #[test]
    fn control_failures_exceeding_budget_degrade() {
        let cfg = ResilienceConfig::default();
        let budget = cfg.ctrl_fail_budget;
        let mut c = DegradedModeController::new(cfg);
        for p in 0..budget as u64 {
            c.observe(p, obs(true, true, false));
            assert_eq!(c.mode(), LinkMode::Cos, "degraded within budget");
        }
        c.observe(budget as u64, obs(true, true, false));
        assert_eq!(c.mode(), LinkMode::DataOnly);
        assert_eq!(
            c.transitions().last().map(|t| t.reason),
            Some(DegradeReason::ControlBerBudget)
        );
    }

    #[test]
    fn failed_probes_back_off_exponentially() {
        let cfg = ResilienceConfig::default();
        let mut c = DegradedModeController::new(cfg.clone());
        // Force a degrade.
        for p in 0..10 {
            c.observe(p, obs(false, true, true));
        }
        assert_eq!(c.mode(), LinkMode::DataOnly);
        // Count DataOnly dwell lengths across failed probes: they double.
        let mut dwells = Vec::new();
        let mut dwell = 0u32;
        for p in 10..120 {
            match c.mode() {
                LinkMode::DataOnly => dwell += 1,
                LinkMode::Probing => {
                    dwells.push(dwell);
                    dwell = 0;
                }
                LinkMode::Cos => break,
            }
            c.observe(p, obs(false, c.mode() == LinkMode::Probing, false));
        }
        assert!(dwells.len() >= 3);
        for pair in dwells.windows(2).take(3) {
            assert!(pair[1] >= pair[0], "backoff shrank: {dwells:?}");
        }
        let cap = cfg.reprobe_backoff_max + 1;
        assert!(dwells.iter().all(|&d| d <= cap), "dwell exceeded cap: {dwells:?}");
    }

    #[test]
    fn arq_retries_then_fails_bounded() {
        let cfg = ResilienceConfig { arq_max_retries: 2, arq_backoff: 1, ..Default::default() };
        let mut arq = ControlArq::new(&cfg);
        arq.enqueue(vec![1, 0, 1, 1], 0);
        let mut polls = 0u32;
        let mut ticks = 0u64;
        while arq.backlog() > 0 {
            ticks += 1;
            assert!(ticks < 100, "ARQ never resolved");
            if arq.poll().is_some() {
                polls += 1;
                arq.reject();
            }
        }
        // initial attempt + max_retries retransmissions
        assert_eq!(polls, 3);
        let s = arq.stats();
        assert_eq!((s.enqueued, s.delivered, s.failed, s.attempts), (1, 0, 1, 3));
        assert_eq!(s.delivery_rate(), 0.0);
    }

    #[test]
    fn arq_confirm_records_latency() {
        let cfg = ResilienceConfig::default();
        let mut arq = ControlArq::new(&cfg);
        arq.enqueue(vec![1, 1, 0, 0], 10);
        assert_eq!(arq.poll(), Some(&[1, 1, 0, 0][..]));
        arq.confirm(13);
        let s = arq.stats();
        assert_eq!((s.delivered, s.total_delivery_latency), (1, 3));
        assert_eq!(s.delivery_rate(), 1.0);
        assert_eq!(s.mean_delivery_latency(), 3.0);
    }

    #[test]
    fn arq_backoff_doubles_between_retries() {
        let cfg = ResilienceConfig { arq_max_retries: 8, arq_backoff: 1, arq_backoff_max: 8, ..Default::default() };
        let mut arq = ControlArq::new(&cfg);
        arq.enqueue(vec![1], 0);
        let mut gaps = Vec::new();
        let mut gap = 0u32;
        for _ in 0..40 {
            match arq.poll() {
                Some(_) => {
                    gaps.push(gap);
                    gap = 0;
                    arq.reject();
                }
                None => gap += 1,
            }
            if arq.backlog() == 0 {
                break;
            }
        }
        // First attempt immediate, then 1, 2, 4, 8, 8... packet gaps.
        assert_eq!(&gaps[..5], &[0, 1, 2, 4, 8]);
    }

    #[test]
    fn histograms_track_attempts_and_latency() {
        let cfg = ResilienceConfig { arq_max_retries: 2, arq_backoff: 1, ..Default::default() };
        let mut arq = ControlArq::new(&cfg);
        // Message 1: delivered first try, latency 0.
        arq.enqueue(vec![1, 0], 0);
        assert!(arq.poll().is_some());
        arq.confirm(0);
        // Message 2: one reject, delivered on the 2nd attempt at packet 5.
        arq.enqueue(vec![0, 1], 2);
        assert!(arq.poll().is_some());
        arq.reject();
        while arq.poll().is_none() {}
        arq.confirm(5);
        // Message 3: rejected to exhaustion (1 + 2 retries = 3 attempts).
        arq.enqueue(vec![1, 1], 6);
        while arq.backlog() > 0 {
            if arq.poll().is_some() {
                arq.reject();
            }
        }
        let h = arq.histograms();
        assert_eq!(h.delivered_attempts[0], 1);
        assert_eq!(h.delivered_attempts[1], 1);
        assert_eq!(h.failed_attempts[2], 1);
        assert_eq!(h.delivery_latency[0], 1, "{h:?}");
        assert_eq!(h.delivery_latency[3], 1, "latency 3 lands in the 3-4 bucket: {h:?}");
        assert_eq!(h.attempts_quantile(0.5), Some(1));
        assert_eq!(h.attempts_quantile(1.0), Some(2));

        let mut merged = ArqHistograms::default();
        merged.merge(h);
        merged.merge(h);
        assert_eq!(merged.delivered_attempts[0], 2);
        assert_eq!(merged.failed_attempts[2], 2);
    }

    #[test]
    fn recalibrator_raises_on_spike_and_decays_back() {
        let cfg = ResilienceConfig::default();
        let mut r = ThresholdRecalibrator::new(1.0, &cfg);
        // Sustained 20% false alarms: bias must rise above base.
        let mut raised = None;
        for _ in 0..10 {
            if let Some(b) = r.observe(20, 100) {
                raised = Some(b);
            }
        }
        let high = raised.expect("bias never raised");
        assert!(high > 1.0);
        assert!(r.bias_db() <= cfg.max_bias_db);
        // A long quiet spell decays it back to base.
        for _ in 0..100 {
            r.observe(0, 100);
        }
        assert!((r.bias_db() - 1.0).abs() < 1e-12, "bias {} not decayed", r.bias_db());
    }

    #[test]
    fn recalibrator_caps_at_max_bias() {
        let cfg = ResilienceConfig { max_bias_db: 2.0, recalib_step_db: 1.0, ..Default::default() };
        let mut r = ThresholdRecalibrator::new(1.0, &cfg);
        for _ in 0..50 {
            r.observe(50, 100);
        }
        assert!(r.bias_db() <= 2.0);
    }

    #[test]
    fn tally_is_deterministic_and_counts() {
        let mut t = PhyErrorTally::new();
        t.record(&PhyError::SignalParity);
        t.record(&PhyError::SignalParity);
        t.record(&PhyError::NoPreamble);
        assert_eq!(t.total(), 3);
        assert_eq!(t.counts().get("signal_parity"), Some(&2));
    }

    #[test]
    fn corrupt_selection_flips_bits() {
        let mut sel = vec![1, 5, 9];
        corrupt_selection(&mut sel, (1u64 << 5) | (1u64 << 20));
        assert_eq!(sel, vec![1, 9, 20]);
        // Corrupting everything away is possible — sanitisation is the
        // session's job.
        let mut wiped = vec![3];
        corrupt_selection(&mut wiped, 1u64 << 3);
        assert!(wiped.is_empty());
    }
}
