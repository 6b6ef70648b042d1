//! Fixed-width lane primitives for the SIMD symbol plane.
//!
//! Stable Rust has no portable SIMD, but LLVM reliably autovectorizes
//! arithmetic over small fixed-size `f64` arrays. [`F64xL`] and [`C64xL`]
//! are exactly that: [`LANES`]-wide lane structs whose every operation is
//! written as a per-element loop in the *same order* a scalar kernel would
//! use, so a lane kernel built on them is **bit-identical** to its scalar
//! reference by construction (see `docs/KERNELS.md` for the ordering
//! contract). The hot kernels — the Viterbi add-compare-select in
//! `cos-fec` and the 64-point OFDM FFT in [`crate::fft`] — are written
//! twice, once scalar and once on these lanes, and a process-wide
//! [`KernelMode`] switch selects between them at runtime. Because the two
//! paths produce the same bits, the switch exists purely so benchmarks and
//! differential tests can compare them; it never affects results.
//!
//! # Examples
//!
//! ```
//! use cos_dsp::lanes::F64xL;
//!
//! let a = F64xL([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
//! let b = F64xL::splat(10.0);
//! assert_eq!((a + b).0[0], 11.0);
//! let (max, mask) = F64xL::max_select(a, b);
//! assert_eq!(max.0, [10.0; 8]);
//! assert_eq!(mask, 0b1111_1111); // b won every lane
//! ```

use crate::complex::Complex;
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::atomic::{AtomicU8, Ordering};

/// The lane width every SIMD kernel in the workspace is built around.
///
/// Eight `f64`s fill one AVX-512 register; on AVX2 targets LLVM splits
/// the ops into register pairs and on SSE2 into quads, still well ahead
/// of scalar code either way.
pub const LANES: usize = 8;

/// [`LANES`] `f64` lanes operated on elementwise.
///
/// Every method applies the scalar operation to each lane in ascending
/// lane order with no reassociation, so lane code is bit-identical to the
/// equivalent scalar loop.
///
/// On AVX-512 targets `+`, `-` and `*` are one `vaddpd`/`vsubpd`/`vmulpd`
/// each: in a long straight-line kernel (the 64-point FFT) LLVM compiles
/// the portable loops partly to narrower ops and gathers. They are the
/// same IEEE operations lane for lane, so the results are the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C, align(64))]
pub struct F64xL(pub [f64; LANES]);

impl F64xL {
    /// All lanes set to `v`.
    #[inline(always)]
    pub const fn splat(v: f64) -> Self {
        F64xL([v; LANES])
    }

    /// Loads [`LANES`] consecutive values from the front of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` holds fewer than [`LANES`] elements.
    #[inline(always)]
    pub fn load(src: &[f64]) -> Self {
        let mut out = [0.0; LANES];
        out.copy_from_slice(&src[..LANES]);
        F64xL(out)
    }

    /// Stores the lanes to the front of `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` holds fewer than [`LANES`] elements.
    #[inline(always)]
    pub fn store(self, dst: &mut [f64]) {
        dst[..LANES].copy_from_slice(&self.0);
    }

    /// Per-lane maximum with a winner mask: lane `l` of the result is
    /// `if b > a { b } else { a }`, and bit `l` of the mask is set when
    /// `b` won.
    ///
    /// The comparison is the strict `>` the Viterbi ACS uses, so ties
    /// keep `a` — matching the scalar kernel's lower-predecessor tie
    /// rule exactly.
    #[inline(always)]
    pub fn max_select(a: F64xL, b: F64xL) -> (F64xL, u8) {
        // On AVX-512 targets the compare already produces the packed
        // winner mask in a `k` register, but LLVM does not recognise the
        // portable bit-packing loop below and re-extracts it one bit at a
        // time (~26 instructions where `kmovd` needs one). `VMAXPD(b, a)`
        // returns `b` iff `b > a` (ties and NaN take the second operand),
        // which is exactly the portable select below, so this path is
        // bit-identical — the differential kernel tests cover it.
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        {
            const { assert!(LANES == 8, "the AVX-512 path packs exactly 8 f64 lanes") };
            use std::arch::x86_64::{
                _mm512_cmp_pd_mask, _mm512_loadu_pd, _mm512_max_pd, _mm512_storeu_pd, _CMP_GT_OQ,
            };
            // SAFETY: `avx512f` is statically enabled for this target, and
            // both loads/stores touch `LANES == 8` in-bounds f64 values.
            unsafe {
                let va = _mm512_loadu_pd(a.0.as_ptr());
                let vb = _mm512_loadu_pd(b.0.as_ptr());
                let mask = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(vb, va);
                let mut out = [0.0; LANES];
                _mm512_storeu_pd(out.as_mut_ptr(), _mm512_max_pd(vb, va));
                return (F64xL(out), mask);
            }
        }
        #[allow(unreachable_code)]
        {
            let mut out = [0.0; LANES];
            let mut mask = 0u8;
            for (l, o) in out.iter_mut().enumerate() {
                let b_wins = b.0[l] > a.0[l];
                *o = if b_wins { b.0[l] } else { a.0[l] };
                mask |= (b_wins as u8) << l;
            }
            (F64xL(out), mask)
        }
    }

    /// Multiplies lanewise by a scalar (`lane * s` per lane, the same
    /// expression as [`crate::Complex::scale`]).
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        let mut out = [0.0; LANES];
        for (l, o) in out.iter_mut().enumerate() {
            *o = self.0[l] * s;
        }
        F64xL(out)
    }
}

impl Add for F64xL {
    type Output = F64xL;
    #[inline(always)]
    fn add(self, rhs: F64xL) -> F64xL {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        return avx512::add(self, rhs);
        #[allow(unreachable_code)]
        {
            let mut out = [0.0; LANES];
            for (l, o) in out.iter_mut().enumerate() {
                *o = self.0[l] + rhs.0[l];
            }
            F64xL(out)
        }
    }
}

impl Sub for F64xL {
    type Output = F64xL;
    #[inline(always)]
    fn sub(self, rhs: F64xL) -> F64xL {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        return avx512::sub(self, rhs);
        #[allow(unreachable_code)]
        {
            let mut out = [0.0; LANES];
            for (l, o) in out.iter_mut().enumerate() {
                *o = self.0[l] - rhs.0[l];
            }
            F64xL(out)
        }
    }
}

impl Mul for F64xL {
    type Output = F64xL;
    #[inline(always)]
    fn mul(self, rhs: F64xL) -> F64xL {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        return avx512::mul(self, rhs);
        #[allow(unreachable_code)]
        {
            let mut out = [0.0; LANES];
            for (l, o) in out.iter_mut().enumerate() {
                *o = self.0[l] * rhs.0[l];
            }
            F64xL(out)
        }
    }
}

impl Neg for F64xL {
    type Output = F64xL;
    #[inline(always)]
    fn neg(self) -> F64xL {
        let mut out = [0.0; LANES];
        for (l, o) in out.iter_mut().enumerate() {
            *o = -self.0[l];
        }
        F64xL(out)
    }
}

/// [`LANES`] complex numbers in SoA form: one lane vector of real parts,
/// one of imaginary parts.
///
/// The multiply uses the exact expression of `Complex`'s `Mul` impl
/// (`re·re − im·im`, `re·im + im·re`, in that order) so a lane butterfly
/// is bit-identical to [`LANES`] scalar butterflies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64xL {
    /// Real parts.
    pub re: F64xL,
    /// Imaginary parts.
    pub im: F64xL,
}

impl C64xL {
    /// All lanes set to the complex value `(re, im)`.
    #[inline(always)]
    pub const fn splat(re: f64, im: f64) -> Self {
        C64xL { re: F64xL::splat(re), im: F64xL::splat(im) }
    }

    /// Loads [`LANES`] complex values from split (SoA) real/imaginary
    /// slices — the staging layout the channel-plane kernels use.
    ///
    /// # Panics
    ///
    /// Panics if either slice holds fewer than [`LANES`] elements.
    #[inline(always)]
    pub fn load_split(re: &[f64], im: &[f64]) -> Self {
        C64xL { re: F64xL::load(re), im: F64xL::load(im) }
    }

    /// Stores the lanes to split (SoA) real/imaginary slices.
    ///
    /// # Panics
    ///
    /// Panics if either slice holds fewer than [`LANES`] elements.
    #[inline(always)]
    pub fn store_split(self, re: &mut [f64], im: &mut [f64]) {
        self.re.store(re);
        self.im.store(im);
    }
}

impl Add for C64xL {
    type Output = C64xL;
    #[inline(always)]
    fn add(self, rhs: C64xL) -> C64xL {
        C64xL { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl Sub for C64xL {
    type Output = C64xL;
    #[inline(always)]
    fn sub(self, rhs: C64xL) -> C64xL {
        C64xL { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl Mul for C64xL {
    type Output = C64xL;
    #[inline(always)]
    fn mul(self, rhs: C64xL) -> C64xL {
        C64xL {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl C64xL {
    /// Loads [`LANES`] interleaved complex values with a lane
    /// permutation: lane `l` holds `src[perm[l]]`. Pure data movement.
    ///
    /// # Panics
    ///
    /// Panics if an entry of `perm` is not below [`LANES`].
    #[inline(always)]
    pub fn load_permuted(src: &[Complex; LANES], perm: [usize; LANES]) -> C64xL {
        assert!(perm.iter().all(|&p| p < LANES), "lane permutation out of range");
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        return avx512::load_permuted(src, perm);
        #[allow(unreachable_code)]
        portable::load_permuted(src, perm)
    }

    /// Stores the lanes as [`LANES`] interleaved complex values: lane `l`
    /// goes to `dst[l]`. Pure data movement.
    #[inline(always)]
    pub fn store_interleaved(self, dst: &mut [Complex; LANES]) {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        return avx512::store_interleaved(self, dst);
        #[allow(unreachable_code)]
        portable::store_interleaved(self, dst)
    }
}

/// Transposes an 8×8 block in place: lane `j` of row `i` swaps with lane
/// `i` of row `j`. Pure data movement.
#[inline(always)]
pub fn transpose(rows: &mut [F64xL; LANES]) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    return avx512::transpose(rows);
    #[allow(unreachable_code)]
    portable::transpose(rows)
}

/// Index-arithmetic bodies of the data-movement primitives, for targets
/// without AVX-512. They build everywhere, so the unit tests check them
/// on every host.
mod portable {
    use super::{C64xL, F64xL, LANES};
    use crate::complex::Complex;

    #[inline(always)]
    pub(super) fn load_permuted(src: &[Complex; LANES], perm: [usize; LANES]) -> C64xL {
        C64xL {
            re: F64xL(std::array::from_fn(|l| src[perm[l]].re)),
            im: F64xL(std::array::from_fn(|l| src[perm[l]].im)),
        }
    }

    #[inline(always)]
    pub(super) fn store_interleaved(v: C64xL, dst: &mut [Complex; LANES]) {
        for (l, d) in dst.iter_mut().enumerate() {
            *d = Complex::new(v.re.0[l], v.im.0[l]);
        }
    }

    #[inline(always)]
    pub(super) fn transpose(rows: &mut [F64xL; LANES]) {
        let src = *rows;
        for (i, row) in rows.iter_mut().enumerate() {
            *row = F64xL(std::array::from_fn(|j| src[j].0[i]));
        }
    }
}

/// AVX-512 bodies: the arithmetic is one packed IEEE op per [`F64xL`] op,
/// and the data movement is `vpermt2pd`/`vunpck*pd`/`vshuff64x2` shuffles.
///
/// SAFETY (every `unsafe` block below): `avx512f` is statically enabled
/// for this target — the module only exists under that cfg — and every
/// load and store touches 8 in-bounds f64 values.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod avx512 {
    use super::{C64xL, F64xL, LANES};
    use crate::complex::Complex;
    use std::arch::x86_64::*;

    const _: () = assert!(LANES == 8, "the AVX-512 bodies hold exactly 8 f64 lanes");

    #[inline(always)]
    fn get(v: F64xL) -> __m512d {
        // SAFETY: see the module docs; `F64xL` is 64-byte aligned.
        unsafe { _mm512_load_pd(v.0.as_ptr()) }
    }

    #[inline(always)]
    fn put(v: __m512d) -> F64xL {
        let mut out = F64xL::default();
        // SAFETY: as in `get`.
        unsafe { _mm512_store_pd(out.0.as_mut_ptr(), v) };
        out
    }

    #[inline(always)]
    pub(super) fn add(a: F64xL, b: F64xL) -> F64xL {
        // SAFETY: see the module docs.
        put(unsafe { _mm512_add_pd(get(a), get(b)) })
    }

    #[inline(always)]
    pub(super) fn sub(a: F64xL, b: F64xL) -> F64xL {
        // SAFETY: see the module docs.
        put(unsafe { _mm512_sub_pd(get(a), get(b)) })
    }

    #[inline(always)]
    pub(super) fn mul(a: F64xL, b: F64xL) -> F64xL {
        // SAFETY: see the module docs.
        put(unsafe { _mm512_mul_pd(get(a), get(b)) })
    }

    /// `vpermt2pd` index vector picking f64 `idx[l]` of the 16-value
    /// concatenation `a ++ b` into lane `l`.
    #[inline(always)]
    fn index(idx: [usize; LANES]) -> __m512i {
        let [i0, i1, i2, i3, i4, i5, i6, i7] = idx.map(|i| i as i64);
        // SAFETY: see the module docs.
        unsafe { _mm512_setr_epi64(i0, i1, i2, i3, i4, i5, i6, i7) }
    }

    #[inline(always)]
    pub(super) fn load_permuted(src: &[Complex; LANES], perm: [usize; LANES]) -> C64xL {
        let (re_idx, im_idx) = (index(perm.map(|i| 2 * i)), index(perm.map(|i| 2 * i + 1)));
        let p = src.as_ptr().cast::<f64>();
        // SAFETY: see the module docs; `Complex` is `repr(C)` `{ re, im }`,
        // so `src` is 16 contiguous f64 values.
        unsafe {
            let (lo, hi) = (_mm512_loadu_pd(p), _mm512_loadu_pd(p.add(LANES)));
            C64xL {
                re: put(_mm512_permutex2var_pd(lo, re_idx, hi)),
                im: put(_mm512_permutex2var_pd(lo, im_idx, hi)),
            }
        }
    }

    #[inline(always)]
    pub(super) fn store_interleaved(v: C64xL, dst: &mut [Complex; LANES]) {
        let (lo_idx, hi_idx) =
            (index([0, 8, 1, 9, 2, 10, 3, 11]), index([4, 12, 5, 13, 6, 14, 7, 15]));
        let (re, im) = (get(v.re), get(v.im));
        let p = dst.as_mut_ptr().cast::<f64>();
        // SAFETY: as in `load_permuted`.
        unsafe {
            _mm512_storeu_pd(p, _mm512_permutex2var_pd(re, lo_idx, im));
            _mm512_storeu_pd(p.add(LANES), _mm512_permutex2var_pd(re, hi_idx, im));
        }
    }

    /// Three rounds of pairwise block swaps with block sizes 1, 2 and 4:
    /// round `s` pairs rows `i` and `i + s` and swaps their off-diagonal
    /// `s`-wide blocks, so after it every aligned `2s × 2s` tile is
    /// transposed.
    #[inline(always)]
    pub(super) fn transpose(rows: &mut [F64xL; LANES]) {
        let (lo2, hi2) = (index([0, 1, 8, 9, 4, 5, 12, 13]), index([2, 3, 10, 11, 6, 7, 14, 15]));
        let r = rows.map(get);
        // SAFETY: see the module docs.
        unsafe {
            let t: [__m512d; LANES] = std::array::from_fn(|i| {
                let (a, b) = (r[i & !1], r[i | 1]);
                if i % 2 == 0 {
                    _mm512_unpacklo_pd(a, b)
                } else {
                    _mm512_unpackhi_pd(a, b)
                }
            });
            let u: [__m512d; LANES] = std::array::from_fn(|i| {
                let (a, b) = (t[i & !2], t[i | 2]);
                _mm512_permutex2var_pd(a, if i & 2 == 0 { lo2 } else { hi2 }, b)
            });
            *rows = std::array::from_fn(|i| {
                let (a, b) = (u[i & !4], u[i | 4]);
                put(if i < 4 {
                    _mm512_shuffle_f64x2::<0x44>(a, b)
                } else {
                    _mm512_shuffle_f64x2::<0xEE>(a, b)
                })
            });
        }
    }
}

/// Which implementation the symbol-plane kernels run on.
///
/// Both produce the same bits (gated by the kernel differential
/// proptests), so the mode affects throughput only — it exists so
/// `session_storm --kernels` can benchmark one against the other and so
/// tests can pin a path explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// The plain scalar reference kernels.
    Scalar,
    /// The [`F64xL`]/[`C64xL`] lane kernels (the default).
    Lanes,
}

impl std::str::FromStr for KernelMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Ok(KernelMode::Scalar),
            "lanes" | "lane" | "simd" => Ok(KernelMode::Lanes),
            other => Err(format!("unknown kernel mode {other:?} (expected \"scalar\" or \"lanes\")")),
        }
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelMode::Scalar => "scalar",
            KernelMode::Lanes => "lanes",
        })
    }
}

const MODE_UNSET: u8 = 0;
const MODE_SCALAR: u8 = 1;
const MODE_LANES: u8 = 2;

/// Process-wide kernel mode, resolved lazily from `COS_KERNELS` on first
/// read and overridable via [`set_kernel_mode`].
static KERNEL_MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// The process-wide kernel mode.
///
/// Defaults to [`KernelMode::Lanes`]; the `COS_KERNELS` environment
/// variable (`scalar` / `lanes`) overrides the default the first time any
/// kernel asks, and [`set_kernel_mode`] overrides both. Because scalar and
/// lane kernels are bit-identical, flipping the mode mid-run changes
/// performance, never results.
pub fn kernel_mode() -> KernelMode {
    match KERNEL_MODE.load(Ordering::Relaxed) {
        MODE_SCALAR => KernelMode::Scalar,
        MODE_LANES => KernelMode::Lanes,
        _ => {
            let resolved = match std::env::var("COS_KERNELS") {
                Ok(v) => v.parse().unwrap_or(KernelMode::Lanes),
                Err(_) => KernelMode::Lanes,
            };
            set_kernel_mode(resolved);
            resolved
        }
    }
}

/// Pins the process-wide kernel mode, overriding `COS_KERNELS`.
///
/// Intended for benchmarks (`session_storm --kernels`) and tests; call it
/// before spawning worker threads so every worker observes the same mode
/// for a whole run.
pub fn set_kernel_mode(mode: KernelMode) {
    let raw = match mode {
        KernelMode::Scalar => MODE_SCALAR,
        KernelMode::Lanes => MODE_LANES,
    };
    KERNEL_MODE.store(raw, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_ops_match_scalar() {
        let a = F64xL([1.5, -2.0, 0.25, 1e300, -7.5, 0.0, 3.25, -1e-9]);
        let b = F64xL([0.5, 3.0, -0.25, 1e-300, 2.5, -0.0, 1.75, 4e9]);
        for l in 0..LANES {
            assert_eq!((a + b).0[l].to_bits(), (a.0[l] + b.0[l]).to_bits());
            assert_eq!((a - b).0[l].to_bits(), (a.0[l] - b.0[l]).to_bits());
            assert_eq!((a * b).0[l].to_bits(), (a.0[l] * b.0[l]).to_bits());
            assert_eq!((-a).0[l].to_bits(), (-a.0[l]).to_bits());
            assert_eq!(a.scale(3.7).0[l].to_bits(), (a.0[l] * 3.7).to_bits());
        }
    }

    #[test]
    fn max_select_uses_strict_greater() {
        // Equal lanes keep `a` (mask bit clear), matching the Viterbi
        // lower-predecessor tie rule.
        let a = F64xL([1.0, 2.0, 3.0, f64::NEG_INFINITY, 0.0, -1.0, 9.0, 2.5]);
        let b = F64xL([1.0, 5.0, -3.0, f64::NEG_INFINITY, -0.0, 1.0, 9.0, 2.6]);
        let (m, mask) = F64xL::max_select(a, b);
        assert_eq!(m.0, [1.0, 5.0, 3.0, f64::NEG_INFINITY, 0.0, 1.0, 9.0, 2.6]);
        assert_eq!(mask, 0b1010_0010);
    }

    #[test]
    fn complex_mul_matches_complex_type() {
        use crate::Complex;
        let xs = [
            Complex::new(1.3, -0.7),
            Complex::new(0.0, 2.0),
            Complex::new(-1e9, 3.1),
            Complex::new(0.125, 0.5),
            Complex::new(-2.25, 0.0),
            Complex::new(0.5, -0.5),
            Complex::new(7.0, 11.0),
            Complex::new(-0.001, 0.002),
        ];
        let w = Complex::new(0.6, -0.8);
        let a = C64xL {
            re: F64xL(std::array::from_fn(|l| xs[l].re)),
            im: F64xL(std::array::from_fn(|l| xs[l].im)),
        };
        let prod = a * C64xL::splat(w.re, w.im);
        for (l, &x) in xs.iter().enumerate() {
            let scalar = x * w;
            assert_eq!(prod.re.0[l].to_bits(), scalar.re.to_bits());
            assert_eq!(prod.im.0[l].to_bits(), scalar.im.to_bits());
        }
    }

    #[test]
    fn split_load_store_roundtrip() {
        let re = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 99.0];
        let im = [-1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0, -8.0, 99.0];
        let v = C64xL::load_split(&re, &im);
        let mut out_re = [0.0; LANES + 1];
        let mut out_im = [0.0; LANES + 1];
        v.store_split(&mut out_re, &mut out_im);
        assert_eq!(&out_re[..LANES], &re[..LANES]);
        assert_eq!(&out_im[..LANES], &im[..LANES]);
        assert_eq!(out_re[LANES], 0.0);
    }

    #[test]
    fn load_store_roundtrip() {
        let src = [9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0];
        let v = F64xL::load(&src);
        let mut dst = [0.0; LANES + 2];
        v.store(&mut dst);
        assert_eq!(&dst[..LANES], &src[..LANES]);
        assert_eq!(dst[LANES], 0.0);
    }

    /// Distinct, sign-carrying values (one `-0.0`) tagged by position.
    fn tagged(i: usize) -> f64 {
        if i == 0 {
            -0.0
        } else {
            (i as f64 + 0.25) * if i.is_multiple_of(3) { -1.0 } else { 1.0 }
        }
    }

    fn check_transpose(transpose: fn(&mut [F64xL; LANES])) {
        let mut rows: [F64xL; LANES] =
            std::array::from_fn(|i| F64xL(std::array::from_fn(|j| tagged(8 * i + j))));
        transpose(&mut rows);
        for (i, row) in rows.iter().enumerate() {
            for (j, x) in row.0.iter().enumerate() {
                assert_eq!(x.to_bits(), tagged(8 * j + i).to_bits(), "row {i} lane {j}");
            }
        }
    }

    fn check_load_permuted(load: fn(&[Complex; LANES], [usize; LANES]) -> C64xL) {
        let src: [Complex; LANES] =
            std::array::from_fn(|k| Complex::new(tagged(2 * k), tagged(2 * k + 1)));
        for perm in [
            [0, 1, 2, 3, 4, 5, 6, 7],
            [0, 4, 2, 6, 1, 5, 3, 7],
            [7, 6, 5, 4, 3, 2, 1, 0],
            [3, 3, 0, 7, 1, 1, 6, 2],
        ] {
            let v = load(&src, perm);
            for (l, &p) in perm.iter().enumerate() {
                assert_eq!(v.re.0[l].to_bits(), tagged(2 * p).to_bits(), "re lane {l} of {perm:?}");
                assert_eq!(v.im.0[l].to_bits(), tagged(2 * p + 1).to_bits(), "im lane {l} of {perm:?}");
            }
        }
    }

    fn check_store_interleaved(store: fn(C64xL, &mut [Complex; LANES])) {
        let v = C64xL {
            re: F64xL(std::array::from_fn(tagged)),
            im: F64xL(std::array::from_fn(|l| tagged(LANES + l))),
        };
        let mut dst = [Complex::new(f64::NAN, f64::NAN); LANES];
        store(v, &mut dst);
        for (l, d) in dst.iter().enumerate() {
            assert_eq!(d.re.to_bits(), tagged(l).to_bits(), "re of slot {l}");
            assert_eq!(d.im.to_bits(), tagged(LANES + l).to_bits(), "im of slot {l}");
        }
    }

    #[test]
    fn portable_data_movement_matches_index_arithmetic() {
        check_transpose(portable::transpose);
        check_load_permuted(portable::load_permuted);
        check_store_interleaved(portable::store_interleaved);
    }

    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    #[test]
    fn avx512_data_movement_matches_index_arithmetic() {
        check_transpose(avx512::transpose);
        check_load_permuted(avx512::load_permuted);
        check_store_interleaved(avx512::store_interleaved);
    }

    #[test]
    #[should_panic(expected = "lane permutation out of range")]
    fn load_permuted_rejects_out_of_range_lane() {
        C64xL::load_permuted(&[Complex::ZERO; LANES], [0, 1, 2, 3, 4, 5, 6, 8]);
    }

    #[test]
    fn mode_parses_and_displays() {
        assert_eq!("scalar".parse::<KernelMode>().unwrap(), KernelMode::Scalar);
        assert_eq!("LANES".parse::<KernelMode>().unwrap(), KernelMode::Lanes);
        assert!("vliw".parse::<KernelMode>().is_err());
        assert_eq!(KernelMode::Scalar.to_string(), "scalar");
        assert_eq!(KernelMode::Lanes.to_string(), "lanes");
    }

    #[test]
    fn set_kernel_mode_round_trips() {
        let before = kernel_mode();
        set_kernel_mode(KernelMode::Scalar);
        assert_eq!(kernel_mode(), KernelMode::Scalar);
        set_kernel_mode(KernelMode::Lanes);
        assert_eq!(kernel_mode(), KernelMode::Lanes);
        set_kernel_mode(before);
    }
}
