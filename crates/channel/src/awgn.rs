//! Additive white Gaussian noise.
//!
//! The per-sample apply has a scalar reference and a lane kernel selected
//! by [`cos_dsp::lanes::kernel_mode`]. Both produce the same bits: the
//! lane path takes a waveform's standard normals from
//! [`GaussianSource::fill_standard_normal`], which runs the Box–Muller
//! transform eight pairs per lane step yet returns **exactly the scalar
//! draw sequence**, then applies `x + n·s` with the same per-element
//! expression the scalar loop uses; see `docs/KERNELS.md`.

use cos_dsp::lanes::{kernel_mode, KernelMode};
use cos_dsp::{Complex, GaussianSource};

/// Samples noised per batch draw: the interleaved normals fit a 2 KiB
/// stack row that stays in L1 between the draw and the apply.
const BLOCK: usize = 128;

/// Lane apply of seeded complex Gaussian noise, shared by [`Awgn`] and
/// [`crate::overlap::OverlapComposer`].
///
/// Draws `2 · samples.len()` standard normals from `rng` in exactly the
/// order the scalar `complex_normal` loop would (re, im, re, im, …) —
/// batch draws split anywhere continue one stream — then adds
/// `Complex::new(n_re · s, n_im · s)` to each sample where
/// `s = (variance / 2).sqrt()`: the same expression, in the same order,
/// as `complex_normal`, so the result is bit-identical to the scalar
/// path.
pub(crate) fn add_gaussian_lanes(samples: &mut [Complex], rng: &mut GaussianSource, variance: f64) {
    let s = (variance / 2.0).sqrt();
    let mut row = [0.0; 2 * BLOCK];
    for block in samples.chunks_mut(BLOCK) {
        let normals = &mut row[..2 * block.len()];
        rng.fill_standard_normal(normals);
        for (x, n) in block.iter_mut().zip(normals.chunks_exact(2)) {
            *x += Complex::new(n[0] * s, n[1] * s);
        }
    }
}

/// A seeded AWGN source with a fixed per-sample (time-domain) noise
/// variance.
///
/// # Examples
///
/// ```
/// use cos_channel::Awgn;
/// use cos_dsp::Complex;
///
/// let mut awgn = Awgn::new(0.01, 7);
/// let noisy = awgn.add_noise(&[Complex::ONE; 8]);
/// assert_eq!(noisy.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct Awgn {
    noise_var: f64,
    rng: GaussianSource,
}

impl Awgn {
    /// Creates a noise source with total complex variance `noise_var`
    /// (`E[|n|²] = noise_var`).
    ///
    /// # Panics
    ///
    /// Panics if `noise_var` is negative or not finite.
    pub fn new(noise_var: f64, seed: u64) -> Self {
        assert!(noise_var >= 0.0 && noise_var.is_finite(), "invalid noise variance {noise_var}");
        Awgn { noise_var, rng: GaussianSource::new(seed) }
    }

    /// The configured per-sample noise variance.
    pub fn noise_var(&self) -> f64 {
        self.noise_var
    }

    /// Retargets the noise variance without touching the RNG stream:
    /// subsequent samples draw from the *same* Gaussian sequence, scaled
    /// to the new variance. This is what keeps SNR drift scenarios
    /// deterministic — the draw order is a pure function of the sample
    /// count, not of when the variance changed.
    ///
    /// # Panics
    ///
    /// Panics if `noise_var` is negative or not finite.
    pub fn set_noise_var(&mut self, noise_var: f64) {
        assert!(noise_var >= 0.0 && noise_var.is_finite(), "invalid noise variance {noise_var}");
        self.noise_var = noise_var;
    }

    /// Returns `samples + noise`.
    pub fn add_noise(&mut self, samples: &[Complex]) -> Vec<Complex> {
        samples
            .iter()
            .map(|&x| x + self.rng.complex_normal(self.noise_var))
            .collect()
    }

    /// Adds noise in place, on the process-wide kernel mode.
    pub fn add_noise_in_place(&mut self, samples: &mut [Complex]) {
        self.add_noise_in_place_with(samples, kernel_mode());
    }

    /// [`Awgn::add_noise_in_place`] on an explicit kernel, so the
    /// differential tests can pin a path. Scalar and lanes are
    /// bit-identical (same draw order, same per-element expression).
    pub fn add_noise_in_place_with(&mut self, samples: &mut [Complex], mode: KernelMode) {
        match mode {
            KernelMode::Scalar => {
                for x in samples.iter_mut() {
                    *x += self.rng.complex_normal(self.noise_var);
                }
            }
            KernelMode::Lanes => add_gaussian_lanes(samples, &mut self.rng, self.noise_var),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_variance_is_transparent() {
        let mut awgn = Awgn::new(0.0, 1);
        let tx = vec![Complex::new(1.5, -0.5); 16];
        assert_eq!(awgn.add_noise(&tx), tx);
    }

    #[test]
    fn noise_energy_matches_variance() {
        let mut awgn = Awgn::new(0.25, 2);
        let zeros = vec![Complex::ZERO; 100_000];
        let noisy = awgn.add_noise(&zeros);
        let measured: f64 =
            noisy.iter().map(|n| n.norm_sqr()).sum::<f64>() / noisy.len() as f64;
        assert!((measured - 0.25).abs() / 0.25 < 0.03, "measured {measured}");
    }

    #[test]
    fn in_place_matches_owned() {
        let tx = vec![Complex::ONE; 64];
        let owned = Awgn::new(0.1, 3).add_noise(&tx);
        let mut buf = tx;
        Awgn::new(0.1, 3).add_noise_in_place(&mut buf);
        assert_eq!(buf, owned);
    }

    #[test]
    fn lane_kernel_matches_scalar_bit_for_bit() {
        // Uneven length exercises both the lane body and the tail.
        for len in [0usize, 1, 7, 8, 9, 64, 171] {
            let tx: Vec<Complex> =
                (0..len).map(|i| Complex::new(i as f64 * 0.25 - 3.0, 1.5 - i as f64 * 0.125)).collect();
            let mut a = tx.clone();
            let mut b = tx;
            Awgn::new(0.05, 77).add_noise_in_place_with(&mut a, KernelMode::Scalar);
            Awgn::new(0.05, 77).add_noise_in_place_with(&mut b, KernelMode::Lanes);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "len {len}");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "len {len}");
            }
        }
    }

    #[test]
    fn lane_kernel_leaves_rng_stream_in_scalar_state() {
        // Interleaving kernel modes mid-stream must not fork the draws.
        let mut a = Awgn::new(0.1, 5);
        let mut b = Awgn::new(0.1, 5);
        let mut buf_a = vec![Complex::ONE; 13];
        let mut buf_b = vec![Complex::ONE; 13];
        a.add_noise_in_place_with(&mut buf_a, KernelMode::Scalar);
        b.add_noise_in_place_with(&mut buf_b, KernelMode::Lanes);
        a.add_noise_in_place_with(&mut buf_a, KernelMode::Lanes);
        b.add_noise_in_place_with(&mut buf_b, KernelMode::Scalar);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    #[should_panic(expected = "invalid noise variance")]
    fn negative_variance_panics() {
        Awgn::new(-1.0, 0);
    }
}
