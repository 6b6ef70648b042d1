//! In-place radix-2 decimation-in-time FFT and IFFT.
//!
//! 802.11a OFDM uses 64-point transforms; this implementation supports any
//! power-of-two length so the tests can cross-check against a direct DFT at
//! several sizes. Twiddle factors and the bit-reversal permutation are
//! precomputed by [`Fft::new`] (in both directions, so the butterfly loop
//! never branches on direction), the trivial first two stages (twiddles
//! `1` and `±i`) are specialised to pure additions, and [`plan`] hands out
//! `'static` cached plans so the hot 64-point case never rebuilds its
//! tables. The free functions [`fft`]/[`ifft`] use that cache.
//!
//! The 64-point transform — every OFDM symbol, preamble and LTF — runs
//! one in-register lane kernel in [`KernelMode::Lanes`]: the same radix-2
//! butterflies regrouped into two passes over 8 rows of [`LANES`]
//! complex values, bit-identical to the scalar recursion (see
//! `docs/KERNELS.md`). Every other length, and `COS_KERNELS=scalar`, runs
//! the scalar recursion.
//!
//! # Conventions
//!
//! The forward transform computes `X[k] = Σ_n x[n]·e^{-i2πkn/N}` (no
//! normalisation); the inverse computes `x[n] = (1/N)·Σ_k X[k]·e^{+i2πkn/N}`,
//! matching Eq. (3)/(4) of the CoS paper where the transmitter IFFT carries
//! the `1/N` factor.

use crate::complex::Complex;
use crate::lanes::{kernel_mode, transpose, C64xL, F64xL, KernelMode, LANES};
use std::sync::OnceLock;

/// The transform length the in-register lane kernel covers: the OFDM
/// symbol. Every other length runs the scalar recursion.
const KERNEL_LEN: usize = LANES * LANES;

/// `rev3(i)`: the 3-bit reversal of `i`.
const REV3: [usize; LANES] = [0, 4, 2, 6, 1, 5, 3, 7];

/// Twiddles of the in-register 64-point kernel for one direction, **copied**
/// from the scalar twiddle table `w` (never recomputed from angles), so
/// both paths multiply by the same bits.
#[derive(Debug, Clone)]
struct Kernel64 {
    /// The length-8 stage's `w[0], w[8], w[16], w[24]`, splat across lanes.
    w8: [C64xL; 4],
    /// The length-16 stage: lane `j` holds `w[4j]`.
    w16: C64xL,
    /// The length-32 stage: lane `j` of row `m` holds `w[2(8m + j)]`.
    w32: [C64xL; 2],
    /// The length-64 stage: lane `j` of row `m` holds `w[8m + j]`.
    w64: [C64xL; 4],
}

impl Kernel64 {
    fn new(w: &[Complex]) -> Self {
        let row = |f: &dyn Fn(usize) -> usize| C64xL {
            re: F64xL(std::array::from_fn(|j| w[f(j)].re)),
            im: F64xL(std::array::from_fn(|j| w[f(j)].im)),
        };
        Kernel64 {
            w8: std::array::from_fn(|k| C64xL::splat(w[8 * k].re, w[8 * k].im)),
            w16: row(&|j| 4 * j),
            w32: std::array::from_fn(|m| row(&|j| 2 * (8 * m + j))),
            w64: std::array::from_fn(|m| row(&|j| 8 * m + j)),
        }
    }

    /// The scalar radix-2 DIT (bit reversal, then stages of length 2 to
    /// 64, then the inverse's `1/64`), regrouped into two register passes
    /// over 8 complex rows. Every butterfly is the scalar expression —
    /// `b·w` with the full complex multiply (also at `w = w[0]`, whose
    /// signed zero matters), then `a + bw` and `a − bw` — and the ∓i stage
    /// is written as the scalar code writes it, so the output is the
    /// scalar path's bit for bit.
    ///
    /// Pass 1 puts the 8 blocks of 8 in the lanes: row `j` holds element
    /// `j` of every block, so the stages of length 2, 4 and 8 pair rows.
    /// The bit reversal is folded into the load: element `j` of block `b`
    /// after reversal is input `8·rev3(j) + rev3(b)`, so row `j` loads
    /// input block `rev3(j)` with lane permutation `rev3`. One transpose
    /// later row `b` holds block `b`, and the stages of length 16, 32 and
    /// 64 pair rows again, with a per-lane twiddle row.
    #[inline(always)]
    fn transform<const INVERSE: bool>(&self, buf: &mut [Complex; KERNEL_LEN]) {
        let (blocks, _) = buf.as_chunks_mut::<LANES>();
        let mut v: [C64xL; LANES] =
            std::array::from_fn(|j| C64xL::load_permuted(&blocks[REV3[j]], REV3));
        // Length 2: the only twiddle is 1.
        for p in (0..LANES).step_by(2) {
            let (a, b) = (v[p], v[p + 1]);
            v[p] = a + b;
            v[p + 1] = a - b;
        }
        // Length 4: twiddles 1 and ∓i — a swap and a sign flip.
        for q in (0..LANES).step_by(4) {
            let (a, b) = (v[q], v[q + 2]);
            v[q] = a + b;
            v[q + 2] = a - b;
            let (c, x3) = (v[q + 1], v[q + 3]);
            let d = if INVERSE {
                C64xL { re: -x3.im, im: x3.re }
            } else {
                C64xL { re: x3.im, im: -x3.re }
            };
            v[q + 1] = c + d;
            v[q + 3] = c - d;
        }
        // Length 8: one twiddle per row pair, the same in every lane.
        for (k, &w) in self.w8.iter().enumerate() {
            butterfly(&mut v, k, k + 4, w);
        }

        let mut re = v.map(|c| c.re);
        let mut im = v.map(|c| c.im);
        transpose(&mut re);
        transpose(&mut im);
        let mut v: [C64xL; LANES] = std::array::from_fn(|b| C64xL { re: re[b], im: im[b] });

        // Lengths 16, 32 and 64: row pairs 1, 2 and 4 apart.
        for c in 0..4 {
            butterfly(&mut v, 2 * c, 2 * c + 1, self.w16);
        }
        for c in 0..2 {
            for (m, &w) in self.w32.iter().enumerate() {
                butterfly(&mut v, 4 * c + m, 4 * c + m + 2, w);
            }
        }
        for (m, &w) in self.w64.iter().enumerate() {
            butterfly(&mut v, m, m + 4, w);
        }
        if INVERSE {
            let scale = F64xL::splat(1.0 / KERNEL_LEN as f64);
            for x in v.iter_mut() {
                *x = C64xL { re: x.re * scale, im: x.im * scale };
            }
        }
        for (x, block) in v.into_iter().zip(blocks.iter_mut()) {
            x.store_interleaved(block);
        }
    }
}

/// One radix-2 butterfly over rows `lo` and `hi`: `b = x[hi]·w`, then
/// `x[lo] = a + b`, `x[hi] = a − b`, as the scalar loop computes it.
#[inline(always)]
fn butterfly(v: &mut [C64xL; LANES], lo: usize, hi: usize, w: C64xL) {
    let a = v[lo];
    let b = v[hi] * w;
    v[lo] = a + b;
    v[hi] = a - b;
}

/// A reusable FFT plan for a fixed power-of-two length.
///
/// # Examples
///
/// ```
/// use cos_dsp::{Complex, fft::Fft};
///
/// let plan = Fft::new(64);
/// let mut buf = vec![Complex::ONE; 64];
/// plan.forward(&mut buf);
/// // A constant signal concentrates on bin 0.
/// assert!((buf[0].re - 64.0).abs() < 1e-9);
/// assert!(buf[1].norm() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    /// Twiddles `e^{-i2πj/N}` for `j in 0..N/2` (forward direction).
    twiddles: Vec<Complex>,
    /// Conjugate twiddles `e^{+i2πj/N}`, so the butterfly loop never
    /// branches on transform direction.
    inv_twiddles: Vec<Complex>,
    /// Bit-reversal permutation indices.
    rev: Vec<u32>,
    /// The in-register lane kernel's twiddles, forward then inverse
    /// (64-point plans only).
    kernel64: Option<[Kernel64; 2]>,
}

impl Fft {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n > 0, "FFT length must be a power of two, got {n}");
        let twiddles: Vec<Complex> = (0..n / 2)
            .map(|j| Complex::from_angle(-2.0 * std::f64::consts::PI * j as f64 / n as f64))
            .collect();
        let inv_twiddles: Vec<Complex> = twiddles.iter().map(|w| w.conj()).collect();
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        let kernel64 = (n == KERNEL_LEN)
            .then(|| [Kernel64::new(&twiddles), Kernel64::new(&inv_twiddles)]);
        Fft { n, twiddles, inv_twiddles, rev, kernel64 }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the plan length is zero (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward DFT (no normalisation), on the process-wide
    /// [`kernel_mode`].
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan length.
    pub fn forward(&self, buf: &mut [Complex]) {
        self.forward_with(buf, kernel_mode());
    }

    /// [`Fft::forward`] with an explicit [`KernelMode`]. The lane kernel
    /// (64-point plans) is bit-identical to the scalar recursion, so this
    /// exists for differential tests and benchmarks only.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan length.
    pub fn forward_with(&self, buf: &mut [Complex], mode: KernelMode) {
        self.check_len(buf);
        match (&self.kernel64, mode) {
            (Some([fwd, _]), KernelMode::Lanes) => fwd.transform::<false>(as_kernel_block(buf)),
            _ => self.transform(buf, &self.twiddles, false),
        }
    }

    /// In-place inverse DFT including the `1/N` normalisation, on the
    /// process-wide [`kernel_mode`].
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan length.
    pub fn inverse(&self, buf: &mut [Complex]) {
        self.inverse_with(buf, kernel_mode());
    }

    /// [`Fft::inverse`] with an explicit [`KernelMode`]. The lane kernel
    /// (64-point plans) is bit-identical to the scalar recursion, so this
    /// exists for differential tests and benchmarks only.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan length.
    pub fn inverse_with(&self, buf: &mut [Complex], mode: KernelMode) {
        self.check_len(buf);
        match (&self.kernel64, mode) {
            (Some([_, inv]), KernelMode::Lanes) => inv.transform::<true>(as_kernel_block(buf)),
            _ => {
                self.transform(buf, &self.inv_twiddles, true);
                let scale = 1.0 / self.n as f64;
                for x in buf.iter_mut() {
                    *x = x.scale(scale);
                }
            }
        }
    }

    fn check_len(&self, buf: &[Complex]) {
        assert_eq!(buf.len(), self.n, "buffer length {} != plan length {}", buf.len(), self.n);
    }

    /// The scalar radix-2 recursion: the reference the lane kernel
    /// reproduces bit for bit, and the path for every other length.
    fn transform(&self, buf: &mut [Complex], twiddles: &[Complex], inverse: bool) {
        let n = self.n;
        // Bit-reversal permutation.
        for (i, &j) in self.rev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        // Stage len=2: the only twiddle is 1 — pure add/subtract.
        for pair in buf.chunks_exact_mut(2) {
            let (a, b) = (pair[0], pair[1]);
            pair[0] = a + b;
            pair[1] = a - b;
        }
        // Stage len=4: twiddles are 1 and ∓i — a swap and sign flip
        // instead of a complex multiply.
        if n >= 4 {
            for quad in buf.chunks_exact_mut(4) {
                let (a, b) = (quad[0], quad[2]);
                quad[0] = a + b;
                quad[2] = a - b;
                let c = quad[1];
                // d·(−i) forward, d·(+i) inverse.
                let d = if inverse {
                    Complex::new(-quad[3].im, quad[3].re)
                } else {
                    Complex::new(quad[3].im, -quad[3].re)
                };
                quad[1] = c + d;
                quad[3] = c - d;
            }
        }
        // Remaining Cooley–Tukey stages with precomputed twiddles.
        let mut len = 8;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            for chunk in buf.chunks_exact_mut(len) {
                let (lo, hi) = chunk.split_at_mut(half);
                for ((a_ref, b_ref), &w) in
                    lo.iter_mut().zip(hi.iter_mut()).zip(twiddles.iter().step_by(step))
                {
                    let a = *a_ref;
                    let b = *b_ref * w;
                    *a_ref = a + b;
                    *b_ref = a - b;
                }
            }
            len <<= 1;
        }
    }
}

/// Views a checked 64-point buffer as the kernel's fixed-size block.
fn as_kernel_block(buf: &mut [Complex]) -> &mut [Complex; KERNEL_LEN] {
    buf.try_into().expect("plan length checked")
}

/// The number of power-of-two lengths the [`plan`] cache covers
/// (`2^0 ..= 2^16`); larger transforms fall back to a fresh plan in
/// [`fft`]/[`ifft`].
const PLAN_CACHE_SLOTS: usize = 17;

static PLANS: [OnceLock<Fft>; PLAN_CACHE_SLOTS] =
    [const { OnceLock::new() }; PLAN_CACHE_SLOTS];

/// Returns the process-wide cached plan for length `n`, building it on
/// first use. The 64-point OFDM transform hits this cache on every symbol,
/// so callers in loops can simply call [`plan`] instead of threading an
/// [`Fft`] value through.
///
/// # Panics
///
/// Panics if `n` is zero, not a power of two, or larger than `2^16`.
pub fn plan(n: usize) -> &'static Fft {
    assert!(n.is_power_of_two() && n > 0, "FFT length must be a power of two, got {n}");
    let log2 = n.trailing_zeros() as usize;
    assert!(log2 < PLAN_CACHE_SLOTS, "plan cache covers lengths up to 2^16, got {n}");
    PLANS[log2].get_or_init(|| Fft::new(n))
}

/// One-shot forward FFT using the process-wide [`plan`] cache (falling
/// back to a fresh plan for lengths beyond the cache).
///
/// # Panics
///
/// Panics if the length is zero or not a power of two.
pub fn fft(buf: &mut [Complex]) {
    if (buf.len().trailing_zeros() as usize) < PLAN_CACHE_SLOTS {
        plan(buf.len()).forward(buf);
    } else {
        Fft::new(buf.len()).forward(buf);
    }
}

/// One-shot inverse FFT (with `1/N` normalisation) using the process-wide
/// [`plan`] cache (falling back to a fresh plan for lengths beyond the
/// cache).
///
/// # Panics
///
/// Panics if the length is zero or not a power of two.
pub fn ifft(buf: &mut [Complex]) {
    if (buf.len().trailing_zeros() as usize) < PLAN_CACHE_SLOTS {
        plan(buf.len()).inverse(buf);
    } else {
        Fft::new(buf.len()).inverse(buf);
    }
}

/// Direct O(N²) DFT used as a reference in tests and available for
/// cross-checking. Computes the same (unnormalised) forward transform as
/// [`Fft::forward`].
pub fn dft_reference(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    (0..n)
        .map(|k| {
            (0..n)
                .map(|t| {
                    input[t]
                        * Complex::from_angle(-2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64)
                })
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x - *y).norm()).fold(0.0, f64::max)
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut buf = vec![Complex::ZERO; 16];
        buf[0] = Complex::ONE;
        fft(&mut buf);
        for x in &buf {
            assert!((x.re - 1.0).abs() < 1e-12 && x.im.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_on_its_bin() {
        let n = 64;
        let k0 = 7;
        let mut buf: Vec<Complex> = (0..n)
            .map(|t| Complex::from_angle(2.0 * std::f64::consts::PI * (k0 * t) as f64 / n as f64))
            .collect();
        fft(&mut buf);
        for (k, x) in buf.iter().enumerate() {
            if k == k0 {
                assert!((x.re - n as f64).abs() < 1e-9);
            } else {
                assert!(x.norm() < 1e-9, "leakage at bin {k}: {x}");
            }
        }
    }

    #[test]
    fn matches_direct_dft_at_multiple_sizes() {
        for &n in &[2usize, 4, 8, 32, 64, 128] {
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.71).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let expect = dft_reference(&input);
            let mut got = input.clone();
            fft(&mut got);
            assert!(max_err(&got, &expect) < 1e-9, "mismatch at n={n}");
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let n = 64;
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let mut buf = input.clone();
        let plan = Fft::new(n);
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        assert!(max_err(&buf, &input) < 1e-12);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 64;
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new((3 * i % 7) as f64 - 3.0, (5 * i % 11) as f64 - 5.0))
            .collect();
        let time_energy: f64 = input.iter().map(|x| x.norm_sqr()).sum();
        let mut buf = input;
        fft(&mut buf);
        let freq_energy: f64 = buf.iter().map(|x| x.norm_sqr()).sum();
        assert!((freq_energy - n as f64 * time_energy).abs() / freq_energy < 1e-12);
    }

    #[test]
    fn ifft_normalisation_is_one_over_n() {
        // IFFT of a flat spectrum of ones is a unit impulse.
        let mut buf = vec![Complex::ONE; 32];
        ifft(&mut buf);
        assert!((buf[0].re - 1.0).abs() < 1e-12);
        for x in &buf[1..] {
            assert!(x.norm() < 1e-12);
        }
    }

    #[test]
    fn linearity() {
        let n = 16;
        let a: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, -(i as f64))).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new((i * i) as f64 % 5.0, 1.0)).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let (mut fa, mut fb, mut fs) = (a.clone(), b.clone(), sum.clone());
        fft(&mut fa);
        fft(&mut fb);
        fft(&mut fs);
        let combined: Vec<Complex> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&fs, &combined) < 1e-9);
    }

    #[test]
    fn cached_plan_is_bit_identical_to_fresh_plan() {
        // The `plan` cache must be a pure memoisation: identical outputs,
        // down to the last bit, to a freshly built plan.
        for &n in &[2usize, 4, 8, 64, 256] {
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
                .collect();
            let (mut cached, mut fresh) = (input.clone(), input.clone());
            plan(n).forward(&mut cached);
            Fft::new(n).forward(&mut fresh);
            assert_eq!(cached, fresh, "forward n={n}");
            plan(n).inverse(&mut cached);
            Fft::new(n).inverse(&mut fresh);
            assert_eq!(cached, fresh, "inverse n={n}");
        }
    }

    #[test]
    fn lane_kernel_is_bit_identical_to_scalar() {
        use crate::lanes::KernelMode;
        for &n in &[8usize, 16, 64, 256] {
            let plan = Fft::new(n);
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin() * 3.0, (i as f64 * 0.91).cos() - 0.2))
                .collect();
            let (mut lane, mut scalar) = (input.clone(), input.clone());
            plan.forward_with(&mut lane, KernelMode::Lanes);
            plan.forward_with(&mut scalar, KernelMode::Scalar);
            for (a, b) in lane.iter().zip(&scalar) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "forward n={n}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "forward n={n}");
            }
            plan.inverse_with(&mut lane, KernelMode::Lanes);
            plan.inverse_with(&mut scalar, KernelMode::Scalar);
            for (a, b) in lane.iter().zip(&scalar) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "inverse n={n}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "inverse n={n}");
            }
        }
    }

    #[test]
    fn plan_cache_returns_the_same_instance() {
        assert!(std::ptr::eq(plan(64), plan(64)));
        assert_eq!(plan(64).len(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        Fft::new(48);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn plan_rejects_non_power_of_two() {
        plan(48);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_buffer_length_panics() {
        let plan = Fft::new(8);
        let mut buf = vec![Complex::ZERO; 4];
        plan.forward(&mut buf);
    }
}
