//! Composable, deterministic fault injection for the link.
//!
//! Real indoor WLANs violate the assumptions the CoS prototype leans on:
//! microwave ovens and colliding stations smash whole symbol runs, AGC
//! retrains through the preamble, oscillators drift, frames get cut short
//! by co-channel preemption, and the EVM feedback riding the reverse path
//! is itself lost, delayed or corrupted. Each failure mode is an
//! [`Impairment`]; a [`FaultEngine`] composes any subset and applies it to
//! every transmission, optionally gated to a packet-index window so soak
//! tests can watch the link degrade *and* recover.
//!
//! Everything is seeded: two engines built with the same parameters and
//! seeds impair identical sample streams identically, which is what keeps
//! the robustness soak byte-identical across thread counts.

use cos_dsp::{db_to_linear, Complex, GaussianSource};
use std::fmt;

/// Per-transmission context handed to each impairment.
#[derive(Debug, Clone, Copy)]
pub struct ImpairmentCtx {
    /// Index of the packet being transmitted (0-based, monotonic).
    pub packet_index: u64,
    /// Accumulated airtime (seconds at 20 Msps) before this packet.
    pub time_s: f64,
    /// The link's per-sample AWGN variance — lets impairments scale
    /// relative to the noise floor rather than absolute units.
    pub noise_var: f64,
}

/// What happens to the EVM feedback report for one packet on the reverse
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackFate {
    /// The report arrives intact and fresh.
    Deliver,
    /// The report is lost outright (ACK collision, reverse-link outage).
    Drop,
    /// The report arrives, but it describes the channel as it was
    /// `packets` transmissions ago (queueing / aggregation delay).
    Stale(usize),
    /// The report arrives with bit errors: the mask is XORed onto the
    /// 48-bit selection bitmask before the session sanitises it.
    Corrupt {
        /// Bit flips over the 48 logical data subcarriers.
        xor_mask: u64,
    },
}

/// One deterministic failure mode.
///
/// Implementations keep their own seeded RNG so that a given engine
/// configuration replays exactly. The two hooks default to no-ops, so an
/// impairment can touch only the waveform, only the feedback path, or
/// both.
///
/// The `Send` bound lets a `Link` carrying a fault engine move between
/// worker threads — the batch engine shards whole sessions (link
/// included) across workers.
pub trait Impairment: fmt::Debug + Send {
    /// Stable short name, used in soak CSVs and smoke-test output.
    fn name(&self) -> &'static str;

    /// Mutates the received waveform of one transmission in place.
    fn impair_waveform(&mut self, _samples: &mut Vec<Complex>, _ctx: &ImpairmentCtx) {}

    /// Decides the fate of this packet's EVM feedback report.
    fn feedback_fate(&mut self, _ctx: &ImpairmentCtx) -> FeedbackFate {
        FeedbackFate::Deliver
    }

    /// Clones the impairment behind the trait object (the link is
    /// `Clone`, so its fault engine must be too).
    fn boxed_clone(&self) -> Box<dyn Impairment>;
}

impl Clone for Box<dyn Impairment> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// A composition of impairments, optionally gated to a packet window.
#[derive(Debug, Clone, Default)]
pub struct FaultEngine {
    impairments: Vec<Box<dyn Impairment>>,
    /// Active for `packet_index` in `[start, end)`; `None` = always on.
    window: Option<(u64, u64)>,
}

impl FaultEngine {
    /// An engine with no impairments (transparent).
    pub fn new() -> Self {
        FaultEngine::default()
    }

    /// Adds an impairment (builder style).
    pub fn with(mut self, imp: impl Impairment + 'static) -> Self {
        self.impairments.push(Box::new(imp));
        self
    }

    /// Restricts the engine to packets in `[start, end)` — faults strike
    /// mid-run and then clear, so recovery behaviour is observable.
    pub fn with_window(mut self, start: u64, end: u64) -> Self {
        self.window = Some((start, end));
        self
    }

    /// Whether the engine applies to the given packet.
    pub fn active(&self, packet_index: u64) -> bool {
        match self.window {
            Some((start, end)) => packet_index >= start && packet_index < end,
            None => true,
        }
    }

    /// True when no impairments are attached.
    pub fn is_empty(&self) -> bool {
        self.impairments.is_empty()
    }

    /// Names of the attached impairments, in application order.
    pub fn names(&self) -> Vec<&'static str> {
        self.impairments.iter().map(|i| i.name()).collect()
    }

    /// Applies every active impairment's waveform hook, in order.
    pub fn impair_waveform(&mut self, samples: &mut Vec<Complex>, ctx: &ImpairmentCtx) {
        if !self.active(ctx.packet_index) {
            return;
        }
        for imp in &mut self.impairments {
            imp.impair_waveform(samples, ctx);
        }
    }

    /// Combines every active impairment's feedback fate. `Drop` dominates;
    /// otherwise the largest staleness wins over corruption, and corruption
    /// masks accumulate by XOR.
    pub fn feedback_fate(&mut self, ctx: &ImpairmentCtx) -> FeedbackFate {
        if !self.active(ctx.packet_index) {
            return FeedbackFate::Deliver;
        }
        let mut stale = 0usize;
        let mut mask = 0u64;
        for imp in &mut self.impairments {
            match imp.feedback_fate(ctx) {
                FeedbackFate::Drop => return FeedbackFate::Drop,
                FeedbackFate::Stale(d) => stale = stale.max(d),
                FeedbackFate::Corrupt { xor_mask } => mask ^= xor_mask,
                FeedbackFate::Deliver => {}
            }
        }
        if stale > 0 {
            FeedbackFate::Stale(stale)
        } else if mask != 0 {
            FeedbackFate::Corrupt { xor_mask: mask }
        } else {
            FeedbackFate::Deliver
        }
    }
}

/// Burst / impulsive co-channel interference: with probability
/// `strike_prob` per packet, a contiguous run of `burst_len` samples at a
/// uniformly random offset is hit with complex-Gaussian interference of
/// the given power. Short bursts model impulsive noise (microwave ovens),
/// long ones model a jamming burst.
#[derive(Debug, Clone)]
pub struct BurstInterference {
    power: f64,
    burst_len: usize,
    strike_prob: f64,
    rng: GaussianSource,
}

impl BurstInterference {
    /// Creates the impairment.
    ///
    /// # Panics
    ///
    /// Panics if `strike_prob` is outside `[0, 1]`, `power` is negative,
    /// or `burst_len` is zero (configuration bugs).
    pub fn new(power: f64, burst_len: usize, strike_prob: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&strike_prob), "strike_prob must be in [0, 1]");
        assert!(power >= 0.0 && power.is_finite(), "invalid burst power {power}");
        assert!(burst_len > 0, "burst length must be positive");
        BurstInterference { power, burst_len, strike_prob, rng: GaussianSource::new(seed) }
    }
}

impl Impairment for BurstInterference {
    fn name(&self) -> &'static str {
        "burst_interference"
    }

    fn impair_waveform(&mut self, samples: &mut Vec<Complex>, _ctx: &ImpairmentCtx) {
        if samples.is_empty() || self.rng.uniform() >= self.strike_prob {
            return;
        }
        let start = (self.rng.uniform() * samples.len() as f64) as usize;
        let end = (start + self.burst_len).min(samples.len());
        for x in &mut samples[start..end] {
            *x += self.rng.complex_normal(self.power);
        }
    }

    fn boxed_clone(&self) -> Box<dyn Impairment> {
        Box::new(self.clone())
    }
}

/// A colliding transmission: with probability `collide_prob` another
/// frame's energy overlaps from a random offset to the end of the packet
/// (hidden-terminal style partial overlap).
#[derive(Debug, Clone)]
pub struct CollisionOverlap {
    power: f64,
    collide_prob: f64,
    rng: GaussianSource,
}

impl CollisionOverlap {
    /// Creates the impairment.
    ///
    /// # Panics
    ///
    /// Panics if `collide_prob` is outside `[0, 1]` or `power` is
    /// negative.
    pub fn new(power: f64, collide_prob: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&collide_prob), "collide_prob must be in [0, 1]");
        assert!(power >= 0.0 && power.is_finite(), "invalid collision power {power}");
        CollisionOverlap { power, collide_prob, rng: GaussianSource::new(seed) }
    }
}

impl Impairment for CollisionOverlap {
    fn name(&self) -> &'static str {
        "collision_overlap"
    }

    fn impair_waveform(&mut self, samples: &mut Vec<Complex>, _ctx: &ImpairmentCtx) {
        if samples.is_empty() || self.rng.uniform() >= self.collide_prob {
            return;
        }
        let start = (self.rng.uniform() * samples.len() as f64) as usize;
        for x in &mut samples[start..] {
            *x += self.rng.complex_normal(self.power);
        }
    }

    fn boxed_clone(&self) -> Box<dyn Impairment> {
        Box::new(self.clone())
    }
}

/// Oscillator drift: a carrier frequency offset that grows linearly with
/// airtime at `rate_hz_per_s`, capped at `max_hz`. Deterministic — no RNG.
#[derive(Debug, Clone)]
pub struct CfoDrift {
    rate_hz_per_s: f64,
    max_hz: f64,
}

/// Rotates `samples` by a carrier frequency offset of `cfo_hz` at the
/// 20 MHz sample rate: sample `i` is multiplied by `e^{j·2π·cfo·i/20e6}`,
/// the phasor advanced by one multiply per sample. The link's static
/// offset and [`CfoDrift`] both run it.
pub(crate) fn rotate_cfo(samples: &mut [Complex], cfo_hz: f64) {
    let step = 2.0 * std::f64::consts::PI * cfo_hz / 20e6;
    let rot_step = Complex::from_angle(step);
    let mut rot = Complex::ONE;
    for s in samples.iter_mut() {
        *s *= rot;
        rot *= rot_step;
    }
}

impl CfoDrift {
    /// Creates the impairment.
    pub fn new(rate_hz_per_s: f64, max_hz: f64) -> Self {
        CfoDrift { rate_hz_per_s, max_hz }
    }

    /// The drifted CFO at a given airtime.
    pub fn cfo_at(&self, time_s: f64) -> f64 {
        (self.rate_hz_per_s * time_s).clamp(-self.max_hz.abs(), self.max_hz.abs())
    }
}

impl Impairment for CfoDrift {
    fn name(&self) -> &'static str {
        "cfo_drift"
    }

    fn impair_waveform(&mut self, samples: &mut Vec<Complex>, ctx: &ImpairmentCtx) {
        let cfo = self.cfo_at(ctx.time_s);
        if cfo == 0.0 {
            return;
        }
        rotate_cfo(samples, cfo);
    }

    fn boxed_clone(&self) -> Box<dyn Impairment> {
        Box::new(self.clone())
    }
}

/// An AGC retrain transient: with probability `prob` the receiver gain is
/// off by `swing_db` at the first sample and settles exponentially over
/// `settle_samples` — corrupting exactly the preamble the channel estimate
/// comes from.
#[derive(Debug, Clone)]
pub struct AgcTransient {
    prob: f64,
    swing_db: f64,
    settle_samples: usize,
    rng: GaussianSource,
}

impl AgcTransient {
    /// Creates the impairment.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]` or `settle_samples` is zero.
    pub fn new(prob: f64, swing_db: f64, settle_samples: usize, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "prob must be in [0, 1]");
        assert!(settle_samples > 0, "settle time must be positive");
        AgcTransient { prob, swing_db, settle_samples, rng: GaussianSource::new(seed) }
    }
}

impl Impairment for AgcTransient {
    fn name(&self) -> &'static str {
        "agc_transient"
    }

    fn impair_waveform(&mut self, samples: &mut Vec<Complex>, _ctx: &ImpairmentCtx) {
        if self.rng.uniform() >= self.prob {
            return;
        }
        let tau = self.settle_samples as f64;
        for (i, s) in samples.iter_mut().enumerate().take(self.settle_samples * 4) {
            // Gain error decays e^{-i/τ}: swing_db at sample 0, ~0 dB by 4τ.
            let err_db = self.swing_db * (-(i as f64) / tau).exp();
            *s = s.scale(db_to_linear(err_db).sqrt());
        }
    }

    fn boxed_clone(&self) -> Box<dyn Impairment> {
        Box::new(self.clone())
    }
}

/// Mid-frame truncation: with probability `prob` the stream is cut to a
/// uniformly random fraction in `[min_keep, 1)` of its samples — the
/// receiver sees a frame whose SIGNAL field promises more symbols than
/// arrive.
#[derive(Debug, Clone)]
pub struct MidFrameTruncation {
    prob: f64,
    min_keep: f64,
    rng: GaussianSource,
}

impl MidFrameTruncation {
    /// Creates the impairment.
    ///
    /// # Panics
    ///
    /// Panics if `prob` or `min_keep` is outside `[0, 1]`.
    pub fn new(prob: f64, min_keep: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "prob must be in [0, 1]");
        assert!((0.0..=1.0).contains(&min_keep), "min_keep must be in [0, 1]");
        MidFrameTruncation { prob, min_keep, rng: GaussianSource::new(seed) }
    }
}

impl Impairment for MidFrameTruncation {
    fn name(&self) -> &'static str {
        "mid_frame_truncation"
    }

    fn impair_waveform(&mut self, samples: &mut Vec<Complex>, _ctx: &ImpairmentCtx) {
        if self.rng.uniform() >= self.prob {
            return;
        }
        let frac = self.min_keep + self.rng.uniform() * (1.0 - self.min_keep);
        let keep = ((samples.len() as f64 * frac) as usize).max(1);
        samples.truncate(keep);
    }

    fn boxed_clone(&self) -> Box<dyn Impairment> {
        Box::new(self.clone())
    }
}

/// Reverse-path outage: each packet's EVM feedback report is dropped with
/// probability `loss_prob`.
#[derive(Debug, Clone)]
pub struct FeedbackLoss {
    loss_prob: f64,
    rng: GaussianSource,
}

impl FeedbackLoss {
    /// Creates the impairment.
    ///
    /// # Panics
    ///
    /// Panics if `loss_prob` is outside `[0, 1]`.
    pub fn new(loss_prob: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&loss_prob), "loss_prob must be in [0, 1]");
        FeedbackLoss { loss_prob, rng: GaussianSource::new(seed) }
    }
}

impl Impairment for FeedbackLoss {
    fn name(&self) -> &'static str {
        "feedback_loss"
    }

    fn feedback_fate(&mut self, _ctx: &ImpairmentCtx) -> FeedbackFate {
        if self.rng.uniform() < self.loss_prob {
            FeedbackFate::Drop
        } else {
            FeedbackFate::Deliver
        }
    }

    fn boxed_clone(&self) -> Box<dyn Impairment> {
        Box::new(self.clone())
    }
}

/// Reverse-path delay: every report describes the channel `delay` packets
/// ago. Deterministic — no RNG.
#[derive(Debug, Clone)]
pub struct FeedbackStaleness {
    delay: usize,
}

impl FeedbackStaleness {
    /// Creates the impairment.
    pub fn new(delay: usize) -> Self {
        FeedbackStaleness { delay }
    }
}

impl Impairment for FeedbackStaleness {
    fn name(&self) -> &'static str {
        "feedback_staleness"
    }

    fn feedback_fate(&mut self, _ctx: &ImpairmentCtx) -> FeedbackFate {
        if self.delay == 0 {
            FeedbackFate::Deliver
        } else {
            FeedbackFate::Stale(self.delay)
        }
    }

    fn boxed_clone(&self) -> Box<dyn Impairment> {
        Box::new(self.clone())
    }
}

/// Reverse-path bit errors: with probability `corrupt_prob` the 48-bit
/// selection bitmask is hit by `1..=max_flips` random bit flips.
#[derive(Debug, Clone)]
pub struct FeedbackCorruption {
    corrupt_prob: f64,
    max_flips: usize,
    rng: GaussianSource,
}

impl FeedbackCorruption {
    /// Bits in the selection bitmask (one per logical data subcarrier).
    const MASK_BITS: usize = 48;

    /// Creates the impairment.
    ///
    /// # Panics
    ///
    /// Panics if `corrupt_prob` is outside `[0, 1]` or `max_flips` is zero.
    pub fn new(corrupt_prob: f64, max_flips: usize, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&corrupt_prob), "corrupt_prob must be in [0, 1]");
        assert!(max_flips > 0, "max_flips must be positive");
        FeedbackCorruption { corrupt_prob, max_flips, rng: GaussianSource::new(seed) }
    }
}

impl Impairment for FeedbackCorruption {
    fn name(&self) -> &'static str {
        "feedback_corruption"
    }

    fn feedback_fate(&mut self, _ctx: &ImpairmentCtx) -> FeedbackFate {
        if self.rng.uniform() >= self.corrupt_prob {
            return FeedbackFate::Deliver;
        }
        let flips = 1 + (self.rng.uniform() * self.max_flips as f64) as usize;
        let mut mask = 0u64;
        for _ in 0..flips.min(self.max_flips) {
            let bit = (self.rng.uniform() * Self::MASK_BITS as f64) as usize;
            mask ^= 1u64 << bit.min(Self::MASK_BITS - 1);
        }
        if mask == 0 {
            FeedbackFate::Deliver
        } else {
            FeedbackFate::Corrupt { xor_mask: mask }
        }
    }

    fn boxed_clone(&self) -> Box<dyn Impairment> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(packet_index: u64) -> ImpairmentCtx {
        ImpairmentCtx { packet_index, time_s: packet_index as f64 * 1e-3, noise_var: 1e-4 }
    }

    fn tone(n: usize) -> Vec<Complex> {
        vec![Complex::ONE; n]
    }

    #[test]
    fn engine_replays_identically() {
        let build = || {
            FaultEngine::new()
                .with(BurstInterference::new(5.0, 160, 0.5, 7))
                .with(MidFrameTruncation::new(0.3, 0.5, 8))
                .with(FeedbackLoss::new(0.4, 9))
        };
        let (mut a, mut b) = (build(), build());
        for p in 0..50 {
            let (mut sa, mut sb) = (tone(4000), tone(4000));
            a.impair_waveform(&mut sa, &ctx(p));
            b.impair_waveform(&mut sb, &ctx(p));
            assert_eq!(sa, sb, "packet {p}");
            assert_eq!(a.feedback_fate(&ctx(p)), b.feedback_fate(&ctx(p)));
        }
    }

    #[test]
    fn window_gates_both_hooks() {
        let mut e = FaultEngine::new()
            .with(BurstInterference::new(100.0, 80, 1.0, 1))
            .with(FeedbackLoss::new(1.0, 2))
            .with_window(10, 20);
        for p in [0, 9, 20, 35] {
            let mut s = tone(800);
            e.impair_waveform(&mut s, &ctx(p));
            assert_eq!(s, tone(800), "packet {p} impaired outside window");
            assert_eq!(e.feedback_fate(&ctx(p)), FeedbackFate::Deliver);
        }
        let mut s = tone(800);
        e.impair_waveform(&mut s, &ctx(15));
        assert_ne!(s, tone(800));
        assert_eq!(e.feedback_fate(&ctx(15)), FeedbackFate::Drop);
    }

    #[test]
    fn drop_dominates_and_masks_accumulate() {
        let mut e = FaultEngine::new()
            .with(FeedbackCorruption::new(1.0, 3, 4))
            .with(FeedbackLoss::new(1.0, 5));
        assert_eq!(e.feedback_fate(&ctx(0)), FeedbackFate::Drop);

        let mut c = FaultEngine::new().with(FeedbackCorruption::new(1.0, 3, 4));
        match c.feedback_fate(&ctx(0)) {
            FeedbackFate::Corrupt { xor_mask } => {
                assert_ne!(xor_mask, 0);
                assert_eq!(xor_mask >> 48, 0, "mask must stay within 48 bits");
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn staleness_is_deterministic() {
        let mut e = FaultEngine::new().with(FeedbackStaleness::new(4));
        for p in 0..5 {
            assert_eq!(e.feedback_fate(&ctx(p)), FeedbackFate::Stale(4));
        }
    }

    #[test]
    fn truncation_shortens_but_never_empties() {
        let mut t = MidFrameTruncation::new(1.0, 0.0, 11);
        for _ in 0..100 {
            let mut s = tone(1000);
            t.impair_waveform(&mut s, &ctx(0));
            assert!(!s.is_empty());
            assert!(s.len() <= 1000);
        }
    }

    #[test]
    fn agc_transient_scales_only_the_head() {
        let mut a = AgcTransient::new(1.0, -12.0, 40, 3);
        let mut s = tone(4000);
        a.impair_waveform(&mut s, &ctx(0));
        assert!((s[0].norm() - db_to_linear(-12.0f64).sqrt()).abs() < 1e-9);
        assert!((s[3999].norm() - 1.0).abs() < 1e-12, "tail must be untouched");
    }

    #[test]
    fn cfo_drift_caps_at_max() {
        let d = CfoDrift::new(1000.0, 300.0);
        assert_eq!(d.cfo_at(0.1), 100.0);
        assert_eq!(d.cfo_at(10.0), 300.0);
    }

    #[test]
    fn collision_covers_tail() {
        let mut c = CollisionOverlap::new(50.0, 1.0, 6);
        let mut s = vec![Complex::ZERO; 2000];
        c.impair_waveform(&mut s, &ctx(0));
        assert!(s.last().expect("non-empty").norm_sqr() > 0.0, "tail must be struck");
    }

    #[test]
    fn empty_engine_is_transparent() {
        let mut e = FaultEngine::new();
        assert!(e.is_empty());
        let mut s = tone(100);
        e.impair_waveform(&mut s, &ctx(0));
        assert_eq!(s, tone(100));
        assert_eq!(e.feedback_fate(&ctx(0)), FeedbackFate::Deliver);
    }
}
