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
//!   draw from it too; its retry bound is the session's
//!   `arq_max_retries`,
//! * [`ThresholdRecalibrator`] — the energy detector's false-alarm rate is
//!   estimated online (energy detections that coherent validation rejects
//!   after a CRC pass are false alarms by definition) and smoothed with an
//!   EWMA; a spike raises the detection bias in steps, and a quiet spell
//!   decays it back toward the configured base,
//! * the guard — a [`crate::budget::BudgetSearch`] whose ceiling is the
//!   floor, so it never searches: it stops embedding control silences
//!   when feedback goes stale or control errors exceed budget (ERROR),
//!   keeps the data flowing unimpaired, and re-probes with exponentially
//!   backed-off single-probe packets (BASE) until the control channel
//!   proves healthy again.
//!
//! Thresholds and budgets are the constants below and the budget
//! machine's; they are what `docs/ROBUSTNESS.md` documents and the
//! robustness soak exercises.

use cos_phy::subcarriers::NUM_DATA;
use std::collections::VecDeque;

/// EWMA false-alarm rate above which the detector bias is raised.
pub const FA_SPIKE: f64 = 0.05;
/// EWMA smoothing factor for the false-alarm estimate.
pub const FA_ALPHA: f64 = 0.3;
/// Bias increment/decrement per recalibration step (dB).
pub const RECALIB_STEP_DB: f64 = 0.75;
/// Upper clamp on the recalibrated detector bias (dB).
pub const MAX_BIAS_DB: f64 = 6.0;
/// Packets to wait before an ARQ message's first retransmission.
pub const ARQ_BACKOFF: u32 = 1;
/// Upper clamp on the ARQ backoff (doubles per retry).
pub const ARQ_BACKOFF_MAX: u32 = 8;

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
    queue: VecDeque<ArqEntry>,
    stats: ArqStats,
    hist: ArqHistograms,
}

impl ControlArq {
    /// Creates an ARQ that drops a message after `max_retries`
    /// retransmissions, backing off [`ARQ_BACKOFF`] packets before the
    /// first and doubling up to [`ARQ_BACKOFF_MAX`].
    pub fn new(max_retries: u32) -> Self {
        ControlArq {
            max_retries,
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
            backoff: ARQ_BACKOFF,
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
            head.backoff = (head.backoff.saturating_mul(2)).min(ARQ_BACKOFF_MAX);
        }
    }
}

/// Online false-alarm tracking and detector-bias recalibration.
///
/// After every CRC-pass packet the session knows which energy detections
/// coherent validation rejected — those are false alarms. Their rate over
/// the frame's normal (non-silence) positions is EWMA-smoothed
/// ([`FA_ALPHA`]); a spike above [`FA_SPIKE`] raises the bias one
/// [`RECALIB_STEP_DB`] step (capped at [`MAX_BIAS_DB`]), a rate sustained
/// below a quarter of the spike threshold decays it one step toward the
/// base.
#[derive(Debug, Clone)]
pub struct ThresholdRecalibrator {
    base_bias_db: f64,
    max_bias_db: f64,
    bias_db: f64,
    ewma: f64,
}

impl ThresholdRecalibrator {
    /// Creates a recalibrator anchored at the session's configured bias.
    pub fn new(base_bias_db: f64) -> Self {
        ThresholdRecalibrator {
            base_bias_db,
            max_bias_db: MAX_BIAS_DB.max(base_bias_db),
            bias_db: base_bias_db,
            ewma: 0.0,
        }
    }

    /// The bias currently in force (dB).
    pub fn bias_db(&self) -> f64 {
        self.bias_db
    }

    /// Feeds one frame's false-alarm evidence; may move the bias.
    pub fn observe(&mut self, false_alarms: usize, normal_positions: usize) {
        if normal_positions == 0 {
            return;
        }
        let rate = false_alarms as f64 / normal_positions as f64;
        self.ewma = FA_ALPHA * rate + (1.0 - FA_ALPHA) * self.ewma;
        if self.ewma > FA_SPIKE && self.bias_db < self.max_bias_db {
            self.bias_db = (self.bias_db + RECALIB_STEP_DB).min(self.max_bias_db);
            // Partial reset so one spike does not trigger a staircase of
            // raises before new evidence arrives.
            self.ewma = FA_SPIKE * 0.5;
        } else if self.ewma < FA_SPIKE * 0.25 && self.bias_db > self.base_bias_db {
            self.bias_db = (self.bias_db - RECALIB_STEP_DB).max(self.base_bias_db);
        }
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

    #[test]
    fn arq_retries_then_fails_bounded() {
        let mut arq = ControlArq::new(2);
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
        let mut arq = ControlArq::new(8);
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
        let mut arq = ControlArq::new(8);
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
        // First attempt immediate, then ARQ_BACKOFF (1) doubling to
        // ARQ_BACKOFF_MAX (8): 1, 2, 4, 8, 8... packet gaps.
        assert_eq!(&gaps[..5], &[0, 1, 2, 4, 8]);
    }

    #[test]
    fn histograms_track_attempts_and_latency() {
        let mut arq = ControlArq::new(2);
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
        let mut r = ThresholdRecalibrator::new(1.0);
        // Sustained 20% false alarms: bias must rise above base.
        for _ in 0..10 {
            r.observe(20, 100);
        }
        assert!(r.bias_db() > 1.0, "bias never raised");
        assert!(r.bias_db() <= MAX_BIAS_DB);
        // A long quiet spell decays it back to base.
        for _ in 0..100 {
            r.observe(0, 100);
        }
        assert!((r.bias_db() - 1.0).abs() < 1e-12, "bias {} not decayed", r.bias_db());
    }

    #[test]
    fn recalibrator_caps_at_max_bias() {
        // 1.0 dB + 7 steps of 0.75 dB would overshoot the 6 dB cap.
        let mut r = ThresholdRecalibrator::new(1.0);
        for _ in 0..50 {
            r.observe(50, 100);
        }
        assert_eq!(r.bias_db(), MAX_BIAS_DB);
        // A base above the cap is its own cap: the bias never rises.
        let mut high = ThresholdRecalibrator::new(MAX_BIAS_DB + 1.0);
        for _ in 0..10 {
            high.observe(50, 100);
            assert_eq!(high.bias_db(), MAX_BIAS_DB + 1.0);
        }
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
