//! Multi-transmitter overlap composition for shared-medium scenarios.
//!
//! [`CollisionOverlap`](crate::impairment::CollisionOverlap) models *one*
//! random colliding frame with a coin-flip per packet. A mesh needs the
//! opposite: the medium scheduler already *knows* exactly which stations
//! transmit concurrently in a slot and at which offsets, and wants each
//! victim frame impaired by precisely that set of interferers — no coin
//! flips. [`OverlapComposer`] is that deterministic composition: a list of
//! [`Overlap`] specs (one per concurrent transmitter as seen by the
//! receiver), each adding seeded complex-Gaussian energy from its start
//! offset to the end of the victim frame.
//!
//! The interference is drawn as Gaussian noise at the interferer's
//! received power — the standard Gaussian approximation for a co-channel
//! OFDM transmission, and the same model `CollisionOverlap` uses. Powers
//! are specified in dB *over the victim link's noise floor* (via
//! [`ImpairmentCtx::noise_var`]), so an interferer heard at SNR `s` dB
//! drives the victim's SINR to roughly `snr − s` dB over the overlapped
//! region regardless of the link's absolute calibration.
//!
//! Each application re-seeds its draws from the per-overlap seed, so a
//! composer is a pure function of (spec, victim waveform): replaying the
//! same slot plan on the same link yields bit-identical samples, which is
//! what keeps the mesh byte-identical at any thread count.

use crate::awgn::add_gaussian_lanes;
use crate::impairment::{Impairment, ImpairmentCtx};
use cos_dsp::lanes::KernelMode;
use cos_dsp::{db_to_linear, Complex, GaussianSource};

/// One concurrent transmission overlapping a victim frame, as seen by the
/// victim's receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overlap {
    /// Interferer received power in dB over the victim link's noise
    /// floor. Setting this near the victim's own SNR yields ≈ 0 dB SINR
    /// over the overlapped span — a destroyed frame.
    pub power_db_over_noise: f64,
    /// Where the interferer starts relative to the victim frame, as a
    /// fraction of the victim's length in `[0, 1]`. `0.0` is a full
    /// overlap (both frames started together); a hidden terminal barging
    /// in mid-frame lands somewhere in `(0, 1)`. The overlap always runs
    /// to the end of the victim frame.
    pub start_frac: f64,
    /// Seed for this interferer's Gaussian waveform draw.
    pub seed: u64,
}

impl Overlap {
    /// Creates an overlap spec.
    ///
    /// # Panics
    ///
    /// Panics if `power_db_over_noise` is not finite or `start_frac` is
    /// outside `[0, 1]` (scheduler bugs).
    pub fn new(power_db_over_noise: f64, start_frac: f64, seed: u64) -> Self {
        assert!(power_db_over_noise.is_finite(), "invalid overlap power {power_db_over_noise}");
        assert!((0.0..=1.0).contains(&start_frac), "start_frac must be in [0, 1]");
        Overlap { power_db_over_noise, start_frac, seed }
    }
}

/// Deterministic composition of the concurrent transmissions striking one
/// receiver — built per slot by a medium scheduler, attached to the
/// victim's link for exactly the colliding transmission.
#[derive(Debug, Clone, Default)]
pub struct OverlapComposer {
    overlaps: Vec<Overlap>,
}

impl OverlapComposer {
    /// A composer with no interferers (transparent).
    pub fn new() -> Self {
        OverlapComposer::default()
    }

    /// Adds one concurrent transmitter (builder style).
    pub fn with(mut self, overlap: Overlap) -> Self {
        self.overlaps.push(overlap);
        self
    }

    /// Adds one concurrent transmitter in place.
    pub fn push(&mut self, overlap: Overlap) {
        self.overlaps.push(overlap);
    }

    /// The composed overlap specs, in application order.
    pub fn overlaps(&self) -> &[Overlap] {
        &self.overlaps
    }

    /// True when no interferers are attached.
    pub fn is_empty(&self) -> bool {
        self.overlaps.is_empty()
    }

    /// [`Impairment::impair_waveform`] on an explicit kernel, so the
    /// differential tests can pin a path. The lane path pre-draws each
    /// interferer's normals in the exact scalar order (re, im per
    /// sample), then applies the same `x + n·s` expression lanewise —
    /// bit-identical to scalar.
    pub fn impair_waveform_with(
        &mut self,
        samples: &mut [Complex],
        ctx: &ImpairmentCtx,
        mode: KernelMode,
    ) {
        if samples.is_empty() {
            return;
        }
        let len = samples.len();
        for overlap in &self.overlaps {
            let power = ctx.noise_var * db_to_linear(overlap.power_db_over_noise);
            let start = ((overlap.start_frac.clamp(0.0, 1.0) * len as f64) as usize).min(len);
            // Re-seeded per application: the draw depends only on the spec
            // and the victim length, never on how often it was applied.
            let mut rng = GaussianSource::new(overlap.seed);
            match mode {
                KernelMode::Scalar => {
                    for x in &mut samples[start..] {
                        *x += rng.complex_normal(power);
                    }
                }
                KernelMode::Lanes => {
                    add_gaussian_lanes(&mut samples[start..], &mut rng, power);
                }
            }
        }
    }
}

impl Impairment for OverlapComposer {
    fn name(&self) -> &'static str {
        "overlap_composer"
    }

    fn impair_waveform(&mut self, samples: &mut Vec<Complex>, ctx: &ImpairmentCtx) {
        self.impair_waveform_with(samples, ctx, KernelMode::Lanes);
    }

    fn boxed_clone(&self) -> Box<dyn Impairment> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ImpairmentCtx {
        ImpairmentCtx { packet_index: 0, time_s: 0.0, noise_var: 1e-4 }
    }

    fn power(samples: &[Complex]) -> f64 {
        samples.iter().map(|x| x.norm_sqr()).sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn empty_composer_is_transparent() {
        let mut c = OverlapComposer::new();
        let mut s = vec![Complex::ONE; 256];
        c.impair_waveform(&mut s, &ctx());
        assert_eq!(s, vec![Complex::ONE; 256]);
    }

    #[test]
    fn strikes_from_start_frac_to_end() {
        let mut c = OverlapComposer::new().with(Overlap::new(30.0, 0.5, 7));
        let mut s = vec![Complex::ZERO; 1000];
        c.impair_waveform(&mut s, &ctx());
        assert!(s[..500].iter().all(|x| x.norm_sqr() == 0.0), "head must be clean");
        assert!(s[500..].iter().any(|x| x.norm_sqr() > 0.0), "tail must be struck");
        assert!(s.last().expect("non-empty").norm_sqr() > 0.0);
    }

    #[test]
    fn power_tracks_noise_floor() {
        // 20 dB over a 1e-4 noise floor ⇒ 1e-2 mean interference power.
        let mut c = OverlapComposer::new().with(Overlap::new(20.0, 0.0, 3));
        let mut s = vec![Complex::ZERO; 200_000];
        c.impair_waveform(&mut s, &ctx());
        let p = power(&s);
        assert!((p - 1e-2).abs() / 1e-2 < 0.05, "measured {p}");
    }

    #[test]
    fn composition_accumulates_energy() {
        let one = |seed| {
            let mut c = OverlapComposer::new().with(Overlap::new(20.0, 0.0, seed));
            let mut s = vec![Complex::ZERO; 50_000];
            c.impair_waveform(&mut s, &ctx());
            power(&s)
        };
        let mut both = OverlapComposer::new()
            .with(Overlap::new(20.0, 0.0, 1))
            .with(Overlap::new(20.0, 0.0, 2));
        let mut s = vec![Complex::ZERO; 50_000];
        both.impair_waveform(&mut s, &ctx());
        let expect = one(1) + one(2);
        assert!((power(&s) - expect).abs() / expect < 0.05);
    }

    #[test]
    fn replays_identically_across_applications() {
        let mut c = OverlapComposer::new()
            .with(Overlap::new(25.0, 0.25, 11))
            .with(Overlap::new(18.0, 0.0, 12));
        let mut a = vec![Complex::ONE; 4096];
        let mut b = vec![Complex::ONE; 4096];
        c.impair_waveform(&mut a, &ctx());
        // Same composer applied again (fresh buffer): identical strike.
        c.impair_waveform(&mut b, &ctx());
        assert_eq!(a, b);
    }

    #[test]
    fn lane_kernel_matches_scalar_bit_for_bit() {
        let mut c = OverlapComposer::new()
            .with(Overlap::new(25.0, 0.37, 11))
            .with(Overlap::new(18.0, 0.0, 12))
            .with(Overlap::new(5.0, 0.93, 13));
        for len in [1usize, 7, 8, 100, 1021] {
            let mut a = vec![Complex::ONE; len];
            let mut b = vec![Complex::ONE; len];
            c.impair_waveform_with(&mut a, &ctx(), cos_dsp::KernelMode::Scalar);
            c.impair_waveform_with(&mut b, &ctx(), cos_dsp::KernelMode::Lanes);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "len {len}");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "len {len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "start_frac")]
    fn rejects_out_of_range_start() {
        let _ = Overlap::new(10.0, 1.5, 0);
    }
}
