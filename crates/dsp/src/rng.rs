//! Seeded Gaussian noise sources.
//!
//! AWGN and Rayleigh fading both need standard-normal draws. The simulator
//! keeps its dependency surface small by generating them with the Box–Muller
//! transform over [`rand`]'s uniform source instead of pulling in
//! `rand_distr`. Every source is explicitly seeded so experiments are
//! reproducible.
//!
//! The transform's transcendentals are crate-owned, branch-free kernels
//! rather than host libm: `ln` is the fdlibm/musl `log` polynomial and
//! `sin`/`cos` of `2π·u` are the fdlibm `__kernel_sin`/`__kernel_cos`
//! polynomials after an exact quarter-turn reduction. The noise stream is
//! therefore the same on every host and codegen target, and
//! [`GaussianSource::fill_standard_normal`] can run eight pairs per lane
//! step with the very expressions the one-at-a-time
//! [`GaussianSource::standard_normal`] uses.

use crate::complex::Complex;
use crate::lanes::LANES;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// fdlibm/musl `log`: ln 2 split so `k·LN2_HI` is exact, and the
// Remez coefficients of `R(z) ≈ (ln((1+s)/(1−s)) − 2s)/s`, `z = s²`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);

// fdlibm `__kernel_sin` / `__kernel_cos` coefficients on [−π/4, π/4].
const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);
const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);

/// Natural log on Box–Muller's `u1` domain, the normal numbers of
/// `(0, 1]` (the uniform source never yields less than 2⁻⁵³).
///
/// fdlibm/musl `log` without its branches for zero, negative, subnormal
/// and non-finite input — none can reach it. The exponent split moves the
/// mantissa into `[√2/2, √2)`, so `ln x = k·ln 2 + ln(1 + f)`. Within
/// 1 ulp of a correctly rounded `ln`.
#[inline(always)]
fn ln_unit(x: f64) -> f64 {
    // Adding `0x3ff00000 − 0x3fe6a09e` to the high word carries into the
    // exponent exactly when the mantissa is at or above √2/2's.
    let ix = x.to_bits() + (0x0009_5f62 << 32);
    // `k = exponent − 1023`, converted without an int→float instruction:
    // `2⁵² + e` has `e` in its low mantissa bits.
    let dk = f64::from_bits(0x4330_0000_0000_0000 | (ix >> 52)) - (4_503_599_627_370_496.0 + 1023.0);
    let x = f64::from_bits((ix & 0x000f_ffff_ffff_ffff) + 0x3fe6_a09e_0000_0000);
    let f = x - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    s * (hfsq + r) + dk * LN2_LO - hfsq + f + dk * LN2_HI
}

/// `(sin 2πu, cos 2πu)` for `u` in `[0, 1)`.
///
/// `q = round(4u)` is taken exactly with the `1.5·2⁵²` rounding constant,
/// `t = u − q/4` is exact (Sterbenz), and the fdlibm kernels evaluate
/// `x = 2π·t` in `[−π/4, π/4]`; the quadrant `q mod 4` then swaps and
/// negates through sign-bit masks, with no branch.
#[inline(always)]
fn sincos_turn(u: f64) -> (f64, f64) {
    const ROUND: f64 = 6_755_399_441_055_744.0;
    let big = 4.0 * u + ROUND;
    let q = big.to_bits();
    let x = (u - (big - ROUND) * 0.25) * std::f64::consts::TAU;
    let z = x * x;
    let w = z * z;
    let rs = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin = x + z * x * (S1 + z * rs);
    let rc = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let v = 1.0 - hz;
    let cos = v + (((1.0 - v) - hz) + z * rc);
    // Odd quadrants swap the pair; sin is negated in quadrants 2 and 3,
    // cos in 1 and 2.
    let swap = 0u64.wrapping_sub(q & 1);
    let (sb, cb) = (sin.to_bits(), cos.to_bits());
    let sin_q = (sb & !swap) | (cb & swap);
    let cos_q = (cb & !swap) | (sb & swap);
    (
        f64::from_bits(sin_q ^ ((q & 2) << 62)),
        f64::from_bits(cos_q ^ (((q + 1) & 2) << 62)),
    )
}

/// One Box–Muller pair from `u1 ∈ (0, 1]` and `u2 ∈ [0, 1)`:
/// `(r·cos 2πu₂, r·sin 2πu₂)` with `r = √(−2 ln u₁)`.
#[inline(always)]
fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * ln_unit(u1)).sqrt();
    let (sin, cos) = sincos_turn(u2);
    (r * cos, r * sin)
}

/// A seeded source of Gaussian (and circularly-symmetric complex Gaussian)
/// samples.
///
/// # Examples
///
/// ```
/// use cos_dsp::GaussianSource;
///
/// let mut g = GaussianSource::new(42);
/// let x = g.standard_normal();
/// let z = g.complex_normal(2.0); // E[|z|²] = 2.0
/// assert!(x.is_finite() && z.is_finite());
///
/// // The batch draw continues the same stream.
/// let mut a = GaussianSource::new(7);
/// let mut b = a.clone();
/// let mut row = [0.0; 5];
/// a.fill_standard_normal(&mut row);
/// assert!(row.iter().all(|&x| x.to_bits() == b.standard_normal().to_bits()));
/// ```
#[derive(Debug, Clone)]
pub struct GaussianSource {
    rng: StdRng,
    /// Box–Muller produces samples in pairs; the spare is cached here.
    spare: Option<f64>,
}

impl GaussianSource {
    /// Creates a source from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        GaussianSource {
            rng: StdRng::seed_from_u64(seed),
            spare: None,
        }
    }

    /// The next pair's uniforms, in stream order: `u1` in `(0, 1]` (so
    /// `ln` never sees 0), then `u2`.
    #[inline(always)]
    fn uniform_pair(&mut self) -> (f64, f64) {
        let u1 = 1.0 - self.rng.gen::<f64>();
        (u1, self.rng.gen())
    }

    /// Draws one standard-normal sample (mean 0, variance 1).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        let (u1, u2) = self.uniform_pair();
        let (x, spare) = box_muller(u1, u2);
        self.spare = Some(spare);
        x
    }

    /// Fills `out` with exactly the values `out.len()` successive
    /// [`GaussianSource::standard_normal`] calls would return, bit for
    /// bit, leaving the source in the same state (spare included).
    ///
    /// The uniforms are drawn serially in stream order; the transform then
    /// runs [`LANES`] pairs per step on the same per-element expressions
    /// as the scalar call, and allocates nothing.
    pub fn fill_standard_normal(&mut self, out: &mut [f64]) {
        let out = match self.spare.take() {
            Some(s) if !out.is_empty() => {
                out[0] = s;
                &mut out[1..]
            }
            spare => {
                self.spare = spare;
                out
            }
        };
        let mut steps = out.chunks_exact_mut(2 * LANES);
        for step in &mut steps {
            let mut u1 = [0.0; LANES];
            let mut u2 = [0.0; LANES];
            for l in 0..LANES {
                (u1[l], u2[l]) = self.uniform_pair();
            }
            for (l, pair) in step.chunks_exact_mut(2).enumerate() {
                (pair[0], pair[1]) = box_muller(u1[l], u2[l]);
            }
        }
        // Fewer than a step's worth remain: the scalar call is the same
        // sequence, and it leaves the spare of an odd tail pending.
        for x in steps.into_remainder() {
            *x = self.standard_normal();
        }
    }

    /// Draws a real Gaussian with the given variance.
    pub fn normal(&mut self, variance: f64) -> f64 {
        self.standard_normal() * variance.sqrt()
    }

    /// Draws a circularly-symmetric complex Gaussian with total variance
    /// `variance`, i.e. `E[|z|²] = variance` (each quadrature carries half).
    pub fn complex_normal(&mut self, variance: f64) -> Complex {
        let s = (variance / 2.0).sqrt();
        Complex::new(self.standard_normal() * s, self.standard_normal() * s)
    }

    /// Draws a uniform `f64` in `[0, 1)`. Exposed so channel models can share
    /// one seeded stream for both Gaussian and uniform needs.
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen()
    }

    /// Draws a uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_index needs a non-empty range");
        self.rng.gen_range(0..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_deterministic_per_seed() {
        let mut a = GaussianSource::new(7);
        let mut b = GaussianSource::new(7);
        for _ in 0..100 {
            assert_eq!(a.standard_normal(), b.standard_normal());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = GaussianSource::new(1);
        let mut b = GaussianSource::new(2);
        let same = (0..32).filter(|_| a.standard_normal() == b.standard_normal()).count();
        assert!(same < 4);
    }

    /// Distance in units in the last place between two finite `f64`s of
    /// the same sign.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn ln_is_within_one_ulp_of_libm() {
        // Every power of two the uniform source can produce, u = 1 included.
        for k in 0..=53 {
            let u = (-(k as f64)).exp2();
            assert!(ulps(ln_unit(u), u.ln()) <= 1, "2^-{k}: {} vs {}", ln_unit(u), u.ln());
        }
        assert_eq!(ln_unit(1.0), 0.0);
        // A dense grid: 2^14 mantissas in each of the 53 binades of (0, 1],
        // plus the top of the domain where ln is near zero.
        let mut worst = 0;
        for e in 1..=53 {
            for m in 0..1u64 << 14 {
                let mant = m << 38 | (m * 0x9e37_79b9) & ((1 << 38) - 1);
                let u = f64::from_bits(((1023 - e) << 52) | mant);
                worst = worst.max(ulps(ln_unit(u), u.ln()));
            }
        }
        for m in 1..1u64 << 16 {
            let u = 1.0 - m as f64 * f64::EPSILON / 2.0;
            worst = worst.max(ulps(ln_unit(u), u.ln()));
        }
        assert!(worst <= 1, "worst ln error {worst} ulp");
    }

    #[test]
    fn sincos_matches_libm_and_is_exact_at_quarter_turns() {
        let mut worst = 0.0f64;
        let mut check = |u: f64| {
            let (s, c) = sincos_turn(u);
            let theta = std::f64::consts::TAU * u;
            worst = worst.max((s - theta.sin()).abs()).max((c - theta.cos()).abs());
        };
        for i in 0..1 << 20 {
            check(i as f64 / (1 << 20) as f64);
        }
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1 << 20 {
            check(rng.gen());
        }
        assert!(worst <= 1e-15, "worst sincos error {worst:e}");
        for (u, sin, cos) in [(0.0, 0.0, 1.0), (0.25, 1.0, 0.0), (0.5, 0.0, -1.0), (0.75, -1.0, 0.0)] {
            assert_eq!(sincos_turn(u), (sin, cos), "u = {u}");
        }
    }

    #[test]
    fn largest_radius_is_exact() {
        // The smallest u1 the source can yield caps |x| at √(106·ln 2) ≈
        // 8.57: the 6σ tail is reachable but too rare (~0.008 hits in
        // 4 M draws) to test by counting, so the radius is pinned instead.
        let r = (-2.0 * ln_unit(f64::EPSILON / 2.0)).sqrt();
        let want = (106.0 * std::f64::consts::LN_2).sqrt();
        assert!(ulps(r, want) <= 1, "{r} vs {want}");
    }

    /// Standard normal CDF Φ via the Numerical Recipes `erfcc` Chebyshev
    /// fit (fractional error < 1.2e-7, far below the KS resolution here).
    fn normal_cdf(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = -z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
        let erfc = t * poly.exp();
        if x >= 0.0 {
            1.0 - 0.5 * erfc
        } else {
            0.5 * erfc
        }
    }

    #[test]
    fn four_million_draws_pass_the_acceptance_statistics() {
        const N: usize = 4_000_000;
        let mut x = vec![0.0; N];
        GaussianSource::new(2017).fill_standard_normal(&mut x);
        let n = N as f64;
        let sigma = 1.0 / n.sqrt();

        let mean = x.iter().sum::<f64>() / n;
        let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 4.0 * sigma, "mean {mean}");
        assert!((var - 1.0).abs() < 4.0 * 2f64.sqrt() * sigma, "variance {var}");

        // Lag-1 correlation across the stream, and within Box–Muller pairs.
        let lag1 = x.windows(2).map(|w| w[0] * w[1]).sum::<f64>() / (n - 1.0);
        assert!(lag1.abs() < 4.0 * sigma, "lag-1 correlation {lag1}");
        let pairs = x.chunks_exact(2);
        let in_pair = pairs.map(|p| p[0] * p[1]).sum::<f64>() / (n / 2.0);
        assert!(in_pair.abs() < 4.0 * 2f64.sqrt() * sigma, "in-pair correlation {in_pair}");

        // Tail mass beyond 4σ: P = 6.334e-5, Poisson count within ±4√λ.
        let lambda = 6.334e-5 * n;
        let tail = x.iter().filter(|v| v.abs() > 4.0).count() as f64;
        assert!((tail - lambda).abs() < 4.0 * lambda.sqrt(), "4σ tail {tail} vs {lambda}");

        // Kolmogorov–Smirnov against Φ at the 1 % level (1.628/√n).
        x.sort_unstable_by(f64::total_cmp);
        let d = x
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let f = normal_cdf(v);
                (f - i as f64 / n).max((i + 1) as f64 / n - f)
            })
            .fold(0.0, f64::max);
        assert!(d < 1.628 * sigma, "KS D = {d:e}");
    }

    #[test]
    fn complex_normal_energy_matches_variance() {
        let mut g = GaussianSource::new(99);
        let n = 100_000;
        let target = 3.5;
        let energy: f64 = (0..n).map(|_| g.complex_normal(target).norm_sqr()).sum::<f64>() / n as f64;
        assert!((energy - target).abs() / target < 0.03, "energy={energy}");
    }

    #[test]
    fn complex_normal_quadratures_uncorrelated() {
        let mut g = GaussianSource::new(5);
        let n = 100_000;
        let mut cross = 0.0;
        for _ in 0..n {
            let z = g.complex_normal(1.0);
            cross += z.re * z.im;
        }
        assert!((cross / n as f64).abs() < 0.01);
    }

    #[test]
    fn uniform_index_in_range() {
        let mut g = GaussianSource::new(4);
        for _ in 0..1000 {
            assert!(g.uniform_index(10) < 10);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn uniform_index_zero_panics() {
        GaussianSource::new(0).uniform_index(0);
    }
}
