//! Fixed-width lane primitives for the SIMD symbol plane.
//!
//! Stable Rust has no portable SIMD, but LLVM reliably autovectorizes
//! arithmetic over small fixed-size `f64` arrays. [`F64xL`] and [`C64xL`]
//! are exactly that: [`LANES`]-wide lane structs whose every operation is
//! written as a per-element loop in the *same order* a scalar kernel would
//! use, so a lane kernel built on them is **bit-identical** to its scalar
//! reference by construction (see `docs/KERNELS.md` for the ordering
//! contract). The hot kernels — the Viterbi add-compare-select in
//! `cos-fec` and the OFDM FFT butterflies in [`crate::fft`] — are written
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
        let mut out = [0.0; LANES];
        for (l, o) in out.iter_mut().enumerate() {
            *o = self.0[l] + rhs.0[l];
        }
        F64xL(out)
    }
}

impl Sub for F64xL {
    type Output = F64xL;
    #[inline(always)]
    fn sub(self, rhs: F64xL) -> F64xL {
        let mut out = [0.0; LANES];
        for (l, o) in out.iter_mut().enumerate() {
            *o = self.0[l] - rhs.0[l];
        }
        F64xL(out)
    }
}

impl Mul for F64xL {
    type Output = F64xL;
    #[inline(always)]
    fn mul(self, rhs: F64xL) -> F64xL {
        let mut out = [0.0; LANES];
        for (l, o) in out.iter_mut().enumerate() {
            *o = self.0[l] * rhs.0[l];
        }
        F64xL(out)
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
