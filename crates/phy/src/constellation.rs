//! Gray-mapped constellations of IEEE 802.11a (Clause 17.3.5.8) and their
//! two demap kernels: [`Modulation::demap_row_into`] (quantised max-log
//! soft LLRs, the decoder's input) and [`Modulation::hard_demap_row_into`]
//! (nearest-point hard decisions, a measurement).
//!
//! All constellations are normalised to unit average energy by the
//! standard's `K_MOD` factors, so the minimum constellation distance `D_m`
//! shrinks as the modulation order grows — the quantity the CoS subcarrier
//! selector compares per-subcarrier EVM against (`EVM > D_m / 2` ⇒ the
//! subcarrier is error-prone; paper §III-D).

use cos_dsp::lanes::{F64xL, KernelMode, LANES};
use cos_dsp::Complex;
use cos_fec::viterbi::{quantise, SOFT_MAX};

/// A subcarrier modulation scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Modulation {
    /// 1 bit per subcarrier.
    Bpsk,
    /// 2 bits per subcarrier.
    Qpsk,
    /// 4 bits per subcarrier.
    Qam16,
    /// 6 bits per subcarrier.
    Qam64,
}

/// Per-axis Gray level tables from Table 17-9..17-12: `LEVELS[g]` is the
/// amplitude for Gray-coded bit group `g` (bits MSB-first within the group).
const BPSK_LEVELS: [f64; 2] = [-1.0, 1.0];
const QAM16_LEVELS: [f64; 4] = [-3.0, -1.0, 3.0, 1.0]; // 00,01,10,11
const QAM64_LEVELS: [f64; 8] = [-7.0, -5.0, -1.0, -3.0, 7.0, 5.0, 1.0, 3.0]; // 000..111

impl Modulation {
    /// All modulations, lowest order first.
    pub const ALL: [Modulation; 4] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ];

    /// Coded bits per subcarrier symbol (`N_BPSC`).
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// The normalisation factor `K_MOD` (Table 17-8).
    pub fn kmod(self) -> f64 {
        match self {
            Modulation::Bpsk => 1.0,
            Modulation::Qpsk => 1.0 / 2f64.sqrt(),
            Modulation::Qam16 => 1.0 / 10f64.sqrt(),
            Modulation::Qam64 => 1.0 / 42f64.sqrt(),
        }
    }

    /// Number of constellation points `M`.
    pub fn points_count(self) -> usize {
        1 << self.bits_per_symbol()
    }

    /// The minimum distance `D_m` between constellation points (after
    /// normalisation); adjacent levels differ by 2·`K_MOD`.
    pub fn min_distance(self) -> f64 {
        2.0 * self.kmod()
    }

    /// The largest max-log LLR magnitude a constellation point demaps to
    /// at unit weight: the outermost level's first bit, whose nearest
    /// opposite level sits just across the origin, gives
    /// `((max level + 1)·K_MOD)²` (BPSK 4, QPSK 2, 16QAM 1.6, 64QAM
    /// 64/42).
    fn max_llr_gap(self) -> f64 {
        let top = self.axis_levels().iter().fold(0.0f64, |m, &l| m.max(l.abs()));
        ((top + 1.0) * self.kmod()).powi(2)
    }

    /// Scales a frame's LLR weights (`|H|²/σ²` per subcarrier) to the
    /// quantised soft-bit range: the median subcarrier's outermost point
    /// demaps to `±SOFT_MAX`, so every point inside the constellation on
    /// a subcarrier at most that strong stays within range, and stronger
    /// subcarriers' outer points and noisy points saturate. Zero weights
    /// stay zero. The scale comes from the weights alone, never from a
    /// pass over the LLRs. Of the rules measured (`docs/KERNELS.md`,
    /// "The i16 Viterbi"), the median moved the committed results least.
    pub fn soft_weights<const N: usize>(self, weights: [f64; N]) -> [f64; N] {
        let mut sorted = weights;
        let (_, &mut reference, _) = sorted.select_nth_unstable_by((N - 1) / 2, f64::total_cmp);
        let scale = if reference > 0.0 {
            f64::from(SOFT_MAX) / (reference * self.max_llr_gap())
        } else {
            0.0
        };
        weights.map(|w| w * scale)
    }

    /// The energy of the lowest-energy constellation point. For QAM the
    /// inner points carry far less energy than average (16QAM: 0.2,
    /// 64QAM: ≈ 0.048), which bounds how well a silence symbol can be
    /// told apart from a *transmitted* symbol by energy detection — the
    /// constraint behind CoS's modulation-aware detectability floor.
    pub fn min_point_energy(self) -> f64 {
        // The innermost point sits at the smallest |level| on each axis
        // (±1 in every table), so no enumeration of the constellation —
        // this runs per frame in the detector's threshold computation.
        let min_axis = self
            .axis_levels()
            .iter()
            .fold(f64::INFINITY, |m, &l| m.min(l.abs()))
            * self.kmod();
        let e = min_axis * min_axis;
        if self == Modulation::Bpsk {
            e
        } else {
            2.0 * e
        }
    }

    /// The average constellation energy after `K_MOD` normalisation —
    /// exactly 1 by construction (Table 17-8), but computed from the
    /// mapping so the EVM denominator can never drift from it. Sums in
    /// bit-pattern order without materialising the point list.
    pub fn average_energy(self) -> f64 {
        let n = self.bits_per_symbol();
        let mut sum = 0.0;
        for idx in 0..self.points_count() {
            let mut bits = [0u8; 6];
            for (i, b) in bits[..n].iter_mut().enumerate() {
                *b = ((idx >> (n - 1 - i)) & 1) as u8;
            }
            sum += self.map(&bits[..n]).norm_sqr();
        }
        sum / self.points_count() as f64
    }

    /// The per-axis amplitude levels *before* `K_MOD` scaling, indexed by
    /// the Gray bit group read MSB-first.
    fn axis_levels(self) -> &'static [f64] {
        match self {
            Modulation::Bpsk | Modulation::Qpsk => &BPSK_LEVELS,
            Modulation::Qam16 => &QAM16_LEVELS,
            Modulation::Qam64 => &QAM64_LEVELS,
        }
    }

    /// Bits per axis (0 for the Q axis of BPSK).
    fn bits_per_axis(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 1,
            Modulation::Qam16 => 2,
            Modulation::Qam64 => 3,
        }
    }

    /// Maps `N_BPSC` coded bits (first bit = `b0`, the standard's table
    /// order) to a normalised constellation point.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != N_BPSC` or any bit is not 0/1.
    pub fn map(self, bits: &[u8]) -> Complex {
        let n = self.bits_per_symbol();
        assert_eq!(bits.len(), n, "expected {n} bits for {self}");
        for &b in bits {
            assert!(b <= 1, "bits must be 0 or 1, got {b}");
        }
        let ba = self.bits_per_axis();
        let group = |slice: &[u8]| slice.iter().fold(0usize, |g, &b| (g << 1) | b as usize);
        let levels = self.axis_levels();
        let i = levels[group(&bits[..ba])];
        let q = if self == Modulation::Bpsk {
            0.0
        } else {
            levels[group(&bits[ba..])]
        };
        Complex::new(i, q).scale(self.kmod())
    }

    /// All `M` normalised constellation points, in bit-pattern order
    /// (`b0..b_{n-1}` as the binary digits of the index, MSB first).
    pub fn points(self) -> Vec<Complex> {
        let n = self.bits_per_symbol();
        (0..self.points_count())
            .map(|idx| {
                let bits: Vec<u8> = (0..n).map(|i| ((idx >> (n - 1 - i)) & 1) as u8).collect();
                self.map(&bits)
            })
            .collect()
    }

    /// Hard-decides the nearest constellation point, appending its bits
    /// to `out` in transmit order.
    pub fn hard_demap_into(self, y: Complex, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + self.bits_per_symbol(), 0);
        self.hard_demap_row_into(&[y], None, &mut out[start..]);
    }

    /// Hard-decides the nearest constellation point, returning its bits.
    pub fn hard_demap(self, y: Complex) -> Vec<u8> {
        let mut bits = Vec::with_capacity(self.bits_per_symbol());
        self.hard_demap_into(y, &mut bits);
        bits
    }

    /// Hard-decides the nearest constellation point, returning the point.
    pub fn nearest_point(self, y: Complex) -> Complex {
        let n = self.bits_per_symbol();
        let mut bits = [0u8; 6];
        self.hard_demap_row_into(&[y], None, &mut bits[..n]);
        self.map(&bits[..n])
    }

    /// Quantised max-log per-bit LLRs for an equalised symbol `y_eq`
    /// with reliability `weight` (paper Eq. 8: `|H|² / σ²`, times the
    /// frame's soft-bit scale, see [`Modulation::soft_weights`]).
    ///
    /// Positive LLR ⇒ bit more likely **0** (the convention of
    /// [`cos_fec::viterbi`]). LLRs are appended to `out` in transmit order
    /// `b0..b_{n-1}`.
    ///
    /// A non-finite `y_eq` (NaN or ±∞ on a demapped axis) carries no
    /// information and is treated as an erasure: every LLR is `0`. See
    /// [`Modulation::demap_row_into`].
    pub fn soft_demap(self, y_eq: Complex, weight: f64, out: &mut Vec<i16>) {
        let start = out.len();
        out.resize(start + self.bits_per_symbol(), 0);
        self.soft_demap_to_slice(y_eq, weight, &mut out[start..]);
    }

    /// [`Modulation::soft_demap`] writing into a caller-owned slice of
    /// exactly `bits_per_symbol()` LLRs — the allocation-free core.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.bits_per_symbol()`.
    pub fn soft_demap_to_slice(self, y_eq: Complex, weight: f64, out: &mut [i16]) {
        assert_eq!(out.len(), self.bits_per_symbol(), "one LLR slot per coded bit");
        self.demap_row_into(&[y_eq], &[weight], None, out);
    }

    /// The soft demap kernel: quantised max-log LLRs (paper Eq. 8) for a
    /// row of equalised points, written in transmit order — point `p`
    /// owns `llrs[p·n..(p+1)·n]` with `n = bits_per_symbol()`. Every soft
    /// demap entry point is a view of this one.
    ///
    /// * **Soft bits:** per bit, [`quantise`]`(weight · (d₁ − d₀))` where
    ///   `d_b` is the smallest `(value − level·k)²` over the levels whose
    ///   bit is `b`. Each level's distance is evaluated once per axis and
    ///   shared by every bit; a minimum over NaN-free values is exact in
    ///   any order, so the `f64` LLR is bit-identical to a per-bit search
    ///   over every level (`docs/KERNELS.md`, "Soft demap"). The weights
    ///   carry the frame's scale ([`Modulation::soft_weights`]).
    /// * **Erasures:** a point whose `erased` flag is set, or whose
    ///   demapped axes are not finite, gets `0` LLRs.
    ///
    /// Hard decisions are a separate kernel,
    /// [`Modulation::hard_demap_row_into`]. Every output slot is
    /// overwritten, so dirty buffers are fine. Builds with `avx512bw`
    /// demap whole blocks of eight points in registers; see
    /// [`Modulation::demap_row_with`].
    ///
    /// # Panics
    ///
    /// Panics if `weights` or `erased` differ in length from `row`, or
    /// `llrs` is not `row.len() · bits_per_symbol()` long.
    pub fn demap_row_into(
        self,
        row: &[Complex],
        weights: &[f64],
        erased: Option<&[bool]>,
        llrs: &mut [i16],
    ) {
        self.demap_row_with(row, weights, erased, llrs, KernelMode::Lanes);
    }

    /// [`Modulation::demap_row_into`] on the body `mode` selects: `Lanes`
    /// runs the `avx512bw` register body on whole 8-point blocks where the
    /// build has it, and the portable lane body on the rest; `Scalar` runs
    /// the portable lane body on every point. Both write the same soft
    /// bits.
    ///
    /// # Panics
    ///
    /// As [`Modulation::demap_row_into`].
    pub fn demap_row_with(
        self,
        row: &[Complex],
        weights: &[f64],
        erased: Option<&[bool]>,
        llrs: &mut [i16],
        mode: KernelMode,
    ) {
        assert_eq!(weights.len(), row.len(), "one weight per point");
        assert!(erased.is_none_or(|m| m.len() == row.len()), "one erasure flag per point");
        assert_eq!(llrs.len(), row.len() * self.bits_per_symbol(), "one LLR slot per coded bit");
        let k = self.kmod();
        match self {
            Modulation::Bpsk => soft_row::<2, 1, false>(&BPSK_LEVELS, k, row, weights, erased, llrs, mode),
            Modulation::Qpsk => soft_row::<2, 1, true>(&BPSK_LEVELS, k, row, weights, erased, llrs, mode),
            Modulation::Qam16 => soft_row::<4, 2, true>(&QAM16_LEVELS, k, row, weights, erased, llrs, mode),
            Modulation::Qam64 => soft_row::<8, 3, true>(&QAM64_LEVELS, k, row, weights, erased, llrs, mode),
        }
    }

    /// The hard-decision kernel: the nearest constellation point's bits
    /// for a row of equalised points, in transmit order — point `p` owns
    /// `hard[p·n..(p+1)·n]` with `n = bits_per_symbol()`. Every hard
    /// demap entry point is a view of this one. The receiver's decode
    /// never runs it: hard decisions are a measurement (Fig. 3's
    /// decoder-input BER, Fig. 6's symbol errors), not a decode input.
    ///
    /// * **Rule:** per axis, the level minimising `|level − value/k|` (a
    ///   true division), ties going to the first entry in Gray-group
    ///   order (a strict `<` in table order) — a different metric from
    ///   the soft one, so hard bits are never read off LLR signs.
    /// * **Erasures:** a point whose `erased` flag is set, or whose
    ///   demapped axes are not finite, gets bit group 0.
    ///
    /// Every output slot is overwritten, so dirty buffers are fine.
    ///
    /// # Panics
    ///
    /// Panics if `erased` differs in length from `row`, or `hard` is not
    /// `row.len() · bits_per_symbol()` long.
    pub fn hard_demap_row_into(self, row: &[Complex], erased: Option<&[bool]>, hard: &mut [u8]) {
        assert!(erased.is_none_or(|m| m.len() == row.len()), "one erasure flag per point");
        assert_eq!(hard.len(), row.len() * self.bits_per_symbol(), "one hard slot per coded bit");
        let k = self.kmod();
        match self {
            Modulation::Bpsk => hard_row::<2, 1, false>(&BPSK_LEVELS, k, row, erased, hard),
            Modulation::Qpsk => hard_row::<2, 1, true>(&BPSK_LEVELS, k, row, erased, hard),
            Modulation::Qam16 => hard_row::<4, 2, true>(&QAM16_LEVELS, k, row, erased, hard),
            Modulation::Qam64 => hard_row::<8, 3, true>(&QAM64_LEVELS, k, row, erased, hard),
        }
    }
}

/// [`Modulation::demap_row_with`] monomorphised per axis shape: `N`
/// levels (in table order) carrying `B` bits per axis; `IQ` is false only
/// for BPSK, whose Q axis carries no bits. Under [`KernelMode::Lanes`] an
/// `avx512bw` build demaps the whole 8-point blocks in registers; the
/// portable lane body takes every other point.
#[inline(always)]
fn soft_row<const N: usize, const B: usize, const IQ: bool>(
    levels: &[f64; N],
    k: f64,
    row: &[Complex],
    weights: &[f64],
    erased: Option<&[bool]>,
    llrs: &mut [i16],
    mode: KernelMode,
) {
    // `level·k`, the soft metric's per-level products, once per row.
    let at = levels.map(|level| level * k);
    let done = match mode {
        // SAFETY: the build enables `avx512bw`, as this arm's `cfg`
        // requires.
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512bw"))]
        KernelMode::Lanes => unsafe { avx512::soft_blocks::<N, B, IQ>(&at, row, weights, erased, llrs) },
        _ => 0,
    };
    if done < row.len() {
        let width = if IQ { 2 * B } else { B };
        let erased = erased.map(|mask| &mask[done..]);
        soft_lanes::<N, B, IQ>(&at, &row[done..], &weights[done..], erased, &mut llrs[done * width..]);
    }
}

/// The portable soft body. Points go through in blocks of [`LANES`],
/// one lane per point: every lane op is the scalar expression applied
/// lane by lane, so the lanes only regroup independent per-point
/// computations (`docs/KERNELS.md`, leg 1).
// Not inlined: each modulation stays its own function, which LLVM
// vectorises reliably (inlined into one `match`, parts of one path came
// out scalar).
#[inline(never)]
fn soft_lanes<const N: usize, const B: usize, const IQ: bool>(
    at: &[f64; N],
    row: &[Complex],
    weights: &[f64],
    erased: Option<&[bool]>,
    llrs: &mut [i16],
) {
    let width = if IQ { 2 * B } else { B };
    let blocks = row.chunks(LANES).zip(weights.chunks(LANES)).zip(llrs.chunks_mut(LANES * width));
    for (block, ((points, weights), llrs)) in blocks.enumerate() {
        let (re, im, skip) = load_block::<IQ>(points, erased.map(|mask| &mask[block * LANES..]));
        let mut weight = F64xL::default();
        weight.0[..weights.len()].copy_from_slice(weights);

        let mut soft = [[[0i16; LANES]; B]; 2];
        soft[0] = soft_axis(at, re, weight);
        if IQ {
            soft[1] = soft_axis(at, im, weight);
        }

        for ((l, llrs), &skip) in llrs.chunks_exact_mut(width).enumerate().zip(&skip) {
            if skip {
                llrs.fill(0);
                continue;
            }
            for (i, llr) in llrs.iter_mut().enumerate() {
                *llr = soft[i / B][i % B][l];
            }
        }
    }
}

/// [`Modulation::hard_demap_row_into`] monomorphised per axis shape (as
/// [`soft_row`]), in blocks of [`LANES`] points like the portable soft
/// body.
#[inline(never)]
fn hard_row<const N: usize, const B: usize, const IQ: bool>(
    levels: &[f64; N],
    k: f64,
    row: &[Complex],
    erased: Option<&[bool]>,
    hard: &mut [u8],
) {
    let width = if IQ { 2 * B } else { B };
    for (block, (points, hard)) in row.chunks(LANES).zip(hard.chunks_mut(LANES * width)).enumerate() {
        let (re, im, skip) = load_block::<IQ>(points, erased.map(|mask| &mask[block * LANES..]));
        let mut group = [F64xL::default(); 2];
        group[0] = hard_axis(levels, k, re);
        if IQ {
            group[1] = hard_axis(levels, k, im);
        }

        for ((l, hard), &skip) in hard.chunks_exact_mut(width).enumerate().zip(&skip) {
            if skip {
                hard.fill(0);
                continue;
            }
            for (i, bit) in hard.iter_mut().enumerate() {
                *bit = ((group[i / B].0[l] as usize >> (B - 1 - i % B)) & 1) as u8;
            }
        }
    }
}

/// Loads up to [`LANES`] points, one per lane, and flags the lanes to
/// skip: erased points and points not finite on a demapped axis.
#[inline(always)]
fn load_block<const IQ: bool>(points: &[Complex], erased: Option<&[bool]>) -> (F64xL, F64xL, [bool; LANES]) {
    let mut re = F64xL::default();
    let mut im = F64xL::default();
    let mut skip = [false; LANES];
    for (l, y) in points.iter().enumerate() {
        re.0[l] = y.re;
        im.0[l] = y.im;
        skip[l] = !(y.re.is_finite() && (!IQ || y.im.is_finite()));
    }
    if let Some(mask) = erased {
        for (skip, &erased) in skip.iter_mut().zip(mask) {
            *skip |= erased;
        }
    }
    (re, im, skip)
}

/// Demaps one axis value per lane into `B` quantised max-log LLR lanes.
/// Lanes holding non-finite values produce garbage, never a panic, and
/// the caller overwrites them.
#[inline(always)]
fn soft_axis<const N: usize, const B: usize>(at: &[f64; N], value: F64xL, weight: F64xL) -> [[i16; LANES]; B] {
    // Each level's squared distance once, then per bit the minimum over
    // the constant set of levels with that bit 0 resp. 1, in table order
    // — the retired per-bit search without re-evaluating the distances
    // for every bit.
    let dist = at.map(|at| {
        let d = value - F64xL::splat(at);
        d * d
    });
    let mut soft = [[0i16; LANES]; B];
    for (i, soft) in soft.iter_mut().enumerate() {
        let mut d0 = F64xL::splat(f64::INFINITY);
        let mut d1 = F64xL::splat(f64::INFINITY);
        for (g, &dist) in dist.iter().enumerate() {
            if (g >> (B - 1 - i)) & 1 == 0 {
                d0 = lane_min(d0, dist);
            } else {
                d1 = lane_min(d1, dist);
            }
        }
        *soft = quantise_lanes(weight * (d1 - d0));
    }
    soft
}

/// The hard decision on one axis value per lane: the Gray group of the
/// first level in table order minimising `|level − value/k|` (a strict
/// `<`, so ties keep the earlier group), held exactly in an `f64` lane so
/// its select stays a lane op. Lanes holding non-finite values produce
/// garbage, never a panic, and the caller overwrites them.
#[inline(always)]
fn hard_axis<const N: usize>(levels: &[f64; N], k: f64, value: F64xL) -> F64xL {
    let mut scaled = value;
    for s in &mut scaled.0 {
        *s /= k;
    }
    let dist = |level: f64| {
        let mut d = F64xL::splat(level) - scaled;
        for d in &mut d.0 {
            *d = d.abs();
        }
        d
    };
    let mut best = dist(levels[0]);
    let mut group = F64xL::default();
    for (g, &level) in levels.iter().enumerate().skip(1) {
        let d = dist(level);
        for l in 0..LANES {
            group.0[l] = if d.0[l] < best.0[l] { g as f64 } else { group.0[l] };
        }
        best = lane_min(best, d);
    }
    group
}

/// [`quantise`] per lane: a loop over the lanes, which LLVM vectorises
/// where `array::map` stays scalar.
#[inline(always)]
fn quantise_lanes(v: F64xL) -> [i16; LANES] {
    let mut out = [0; LANES];
    for (q, &llr) in out.iter_mut().zip(&v.0) {
        *q = quantise(llr);
    }
    out
}

/// Lane-wise `a.min(b)` for values that are never NaN in a kept lane
/// (squared and absolute distances), without `f64::min`'s NaN handling.
#[inline(always)]
fn lane_min(a: F64xL, b: F64xL) -> F64xL {
    let mut out = a;
    for (o, &b) in out.0.iter_mut().zip(&b.0) {
        *o = if b < *o { b } else { *o };
    }
    out
}

/// The `avx512bw` body of the soft demap (`docs/KERNELS.md`, "Soft
/// demap"): eight points per block, one per `f64` lane, through the
/// portable body's expressions in the same order, then one transpose of
/// the quantised soft bits into transmit order.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512bw"))]
mod avx512 {
    use cos_dsp::Complex;
    use cos_fec::viterbi::SOFT_MAX;
    use std::arch::x86_64::*;

    /// The `vpermt2w` indices of the transpose for `width` soft bits per
    /// point: output slot `o = l·width + i` (bit `i` of point `l`) reads
    /// word `4l + i` of the register of bits 0–3, or for `i ≥ 4` word
    /// `4l + i − 4` of the register of bits 4–5 (index `32 +` that). Two
    /// 32-slot output registers; slots past `8·width` read word 0 and are
    /// never stored.
    const fn transpose_index(width: usize) -> [[u16; 32]; 2] {
        let mut index = [[0u16; 32]; 2];
        let mut o = 0;
        while o < 8 * width {
            let (l, i) = (o / width, o % width);
            let word = if i < 4 { 4 * l + i } else { 32 + 4 * l + i - 4 };
            index[o / 32][o % 32] = word as u16;
            o += 1;
        }
        index
    }

    /// Demaps the whole 8-point blocks of `row` (as the portable body
    /// would) and returns how many points it did. Per block: two loads
    /// and two `vpermt2pd` split the points' I and Q values; the keep-set
    /// (finite on every demapped axis, not erased) is a `__mmask8`; per
    /// axis every level's `(value − level·k)²`, the subset minima and
    /// `weight·(d₁ − d₀)` are the portable expressions lane for lane; the
    /// quantised bits (one 64-bit lane per point, the soft bit in its low
    /// word) pack into two registers and leave in transmit order through
    /// one `vpermt2w` per 32 output words and masked stores.
    // Not inlined: one function per modulation, like the portable body.
    #[inline(never)]
    #[target_feature(enable = "avx512bw")]
    pub(super) fn soft_blocks<const N: usize, const B: usize, const IQ: bool>(
        at: &[f64; N],
        row: &[Complex],
        weights: &[f64],
        erased: Option<&[bool]>,
        llrs: &mut [i16],
    ) -> usize {
        let width = if IQ { 2 * B } else { B };
        let index = const { transpose_index(if IQ { 2 * B } else { B }) };
        let blocks = row.len() / 8;
        assert!(weights.len() >= 8 * blocks && llrs.len() >= 8 * width * blocks);
        assert!(erased.is_none_or(|mask| mask.len() >= 8 * blocks));
        // SAFETY: `avx512bw` (which implies `avx512f`) is enabled for the
        // whole build, as this module's `cfg` requires. Block `b` reads
        // points `8b..8b + 8` of `row` (16 `f64`, `Complex` is `repr(C)`
        // `{ re, im }`), weights and erasure flags `8b..8b + 8` (a `bool`
        // is one byte), and writes soft bits `8·width·b ..
        // 8·width·(b + 1)`, the last register masked to them; the
        // asserts above keep all of it in bounds. Each index table is
        // exactly 64 bytes.
        unsafe {
            let even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
            let odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
            let at = at.map(|at| _mm512_set1_pd(at));
            let index = index.map(|index| _mm512_loadu_si512(index.as_ptr().cast()));
            let zero = _mm512_setzero_si512();
            for b in 0..blocks {
                let points = row.as_ptr().add(8 * b).cast::<f64>();
                let (lo, hi) = (_mm512_loadu_pd(points), _mm512_loadu_pd(points.add(8)));
                let re = _mm512_permutex2var_pd(lo, even, hi);
                let im = _mm512_permutex2var_pd(lo, odd, hi);
                let weight = _mm512_loadu_pd(weights.as_ptr().add(8 * b));
                let mut keep = finite(re);
                if IQ {
                    keep &= finite(im);
                }
                if let Some(mask) = erased {
                    let flags = _mm_loadl_epi64(mask.as_ptr().add(8 * b).cast());
                    let flags = _mm512_cvtepu8_epi64(flags);
                    keep &= _mm512_testn_epi64_mask(flags, flags);
                }

                let mut bits = [zero; 6];
                soft_axis::<N, B>(&at, re, weight, keep, &mut bits[..B]);
                if IQ {
                    soft_axis::<N, B>(&at, im, weight, keep, &mut bits[B..2 * B]);
                }
                let low = pack(&bits[..width.min(4)]);
                let high = pack(&bits[width.min(4)..width]);

                let out = llrs.as_mut_ptr().add(8 * width * b);
                for (c, &index) in index.iter().enumerate().take((8 * width).div_ceil(32)) {
                    let words = _mm512_permutex2var_epi16(low, index, high);
                    let lanes = u32::MAX >> (32 - (8 * width - 32 * c).min(32));
                    _mm512_mask_storeu_epi16(out.add(32 * c), lanes, words);
                }
            }
        }
        8 * blocks
    }

    /// The lanes whose value is finite (`|v| < ∞` is false for NaN).
    #[inline]
    #[target_feature(enable = "avx512bw")]
    fn finite(v: __m512d) -> __mmask8 {
        _mm512_cmp_pd_mask::<_CMP_LT_OQ>(_mm512_abs_pd(v), _mm512_set1_pd(f64::INFINITY))
    }

    /// The portable `soft_axis` on one register of values: `bits[i]`
    /// gets bit `i`'s quantised soft bit per lane (lanes outside `keep`
    /// zero).
    #[inline]
    #[target_feature(enable = "avx512bw")]
    fn soft_axis<const N: usize, const B: usize>(
        at: &[__m512d; N],
        value: __m512d,
        weight: __m512d,
        keep: __mmask8,
        bits: &mut [__m512i],
    ) {
        let dist = at.map(|at| {
            let d = _mm512_sub_pd(value, at);
            _mm512_mul_pd(d, d)
        });
        let inf = _mm512_set1_pd(f64::INFINITY);
        for (i, bit) in bits.iter_mut().enumerate() {
            let (mut d0, mut d1) = (inf, inf);
            for (g, &dist) in dist.iter().enumerate() {
                // `min_pd(a, b)` is `if a < b { a } else { b }`, so
                // `min_pd(dist, acc)` is the portable `lane_min(acc, dist)`.
                if (g >> (B - 1 - i)) & 1 == 0 {
                    d0 = _mm512_min_pd(dist, d0);
                } else {
                    d1 = _mm512_min_pd(dist, d1);
                }
            }
            *bit = quantise(_mm512_mul_pd(weight, _mm512_sub_pd(d1, d0)), keep);
        }
    }

    /// `cos_fec::viterbi::quantise` per lane, in each 64-bit lane's low
    /// word (the upper words are left over), and `0` in the lanes outside
    /// `keep`.
    #[inline]
    #[target_feature(enable = "avx512bw")]
    fn quantise(x: __m512d, keep: __mmask8) -> __m512i {
        // The rounding constant of `quantise`: `c + 1.5·2⁵²` rounds `c`
        // to the nearest integer, ties to even, in the low mantissa bits.
        const ROUND: f64 = 6_755_399_441_055_744.0;
        let max = f64::from(SOFT_MAX);
        // `x.clamp(-max, max)`: `max_pd`/`min_pd` return their second
        // operand when either is NaN, so NaN passes through as in
        // `clamp`; then NaN (and every lane outside `keep`) becomes +0.0,
        // which quantises to 0.
        let c = _mm512_max_pd(_mm512_set1_pd(-max), x);
        let c = _mm512_min_pd(_mm512_set1_pd(max), c);
        let c = _mm512_maskz_mov_pd(keep & _mm512_cmp_pd_mask::<_CMP_ORD_Q>(c, c), c);
        let q = _mm512_castpd_si512(_mm512_add_pd(c, _mm512_set1_pd(ROUND)));
        // A nonzero `c` that rounds to 0 keeps its sign as ±1.
        let zero = _mm512_setzero_pd();
        let fix = _mm512_testn_epi64_mask(q, _mm512_set1_epi64(0xFFFF))
            & _mm512_cmp_pd_mask::<_CMP_NEQ_OQ>(c, zero);
        let positive = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(c, zero);
        let q = _mm512_mask_mov_epi64(q, fix & positive, _mm512_set1_epi64(1));
        _mm512_mask_mov_epi64(q, fix & !positive, _mm512_set1_epi64(-1))
    }

    /// Gathers the low words of up to four soft-bit registers into one:
    /// word `4l + i` is lane `l`'s soft bit from `bits[i]`.
    #[inline]
    #[target_feature(enable = "avx512bw")]
    fn pack(bits: &[__m512i]) -> __m512i {
        let mut packed = _mm512_setzero_si512();
        for (i, &bit) in bits.iter().enumerate() {
            let shifted = _mm512_sllv_epi64(bit, _mm512_set1_epi64(16 * i as i64));
            packed = _mm512_mask_blend_epi16(0x1111_1111 << i, packed, shifted);
        }
        packed
    }
}

impl std::fmt::Display for Modulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Modulation::Bpsk => "BPSK",
            Modulation::Qpsk => "QPSK",
            Modulation::Qam16 => "16QAM",
            Modulation::Qam64 => "64QAM",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_average_energy() {
        for m in Modulation::ALL {
            let pts = m.points();
            let energy: f64 = pts.iter().map(|p| p.norm_sqr()).sum::<f64>() / pts.len() as f64;
            assert!((energy - 1.0).abs() < 1e-12, "{m} energy {energy}");
        }
    }

    #[test]
    fn bpsk_mapping_matches_standard() {
        assert_eq!(Modulation::Bpsk.map(&[0]), Complex::new(-1.0, 0.0));
        assert_eq!(Modulation::Bpsk.map(&[1]), Complex::new(1.0, 0.0));
    }

    #[test]
    fn qpsk_mapping_matches_standard() {
        let k = 1.0 / 2f64.sqrt();
        assert_eq!(Modulation::Qpsk.map(&[0, 0]), Complex::new(-k, -k));
        assert_eq!(Modulation::Qpsk.map(&[1, 0]), Complex::new(k, -k));
        assert_eq!(Modulation::Qpsk.map(&[0, 1]), Complex::new(-k, k));
        assert_eq!(Modulation::Qpsk.map(&[1, 1]), Complex::new(k, k));
    }

    #[test]
    fn qam16_gray_levels_match_standard() {
        // Table 17-11: b0b1 ∈ {00,01,11,10} → I ∈ {-3,-1,1,3}.
        let k = 1.0 / 10f64.sqrt();
        let cases = [([0, 0], -3.0), ([0, 1], -1.0), ([1, 1], 1.0), ([1, 0], 3.0)];
        for (b, level) in cases {
            let p = Modulation::Qam16.map(&[b[0], b[1], 0, 0]);
            assert!((p.re - level * k).abs() < 1e-12, "bits {b:?}");
        }
    }

    #[test]
    fn qam64_gray_levels_match_standard() {
        // Table 17-12: b0b1b2 ∈ {000,001,011,010,110,111,101,100} → -7..7.
        let k = 1.0 / 42f64.sqrt();
        let cases = [
            ([0, 0, 0], -7.0),
            ([0, 0, 1], -5.0),
            ([0, 1, 1], -3.0),
            ([0, 1, 0], -1.0),
            ([1, 1, 0], 1.0),
            ([1, 1, 1], 3.0),
            ([1, 0, 1], 5.0),
            ([1, 0, 0], 7.0),
        ];
        for (b, level) in cases {
            let p = Modulation::Qam64.map(&[b[0], b[1], b[2], 0, 0, 0]);
            assert!((p.re - level * k).abs() < 1e-12, "bits {b:?} got {}", p.re / k);
        }
    }

    #[test]
    fn gray_property_neighbours_differ_by_one_bit() {
        // Sort points of each axis by amplitude; adjacent bit groups must
        // differ in exactly one bit (Gray coding).
        for m in [Modulation::Qam16, Modulation::Qam64] {
            let levels = m.axis_levels();
            let mut order: Vec<usize> = (0..levels.len()).collect();
            order.sort_by(|&a, &b| levels[a].partial_cmp(&levels[b]).expect("finite"));
            for pair in order.windows(2) {
                let diff = (pair[0] ^ pair[1]).count_ones();
                assert_eq!(diff, 1, "{m}: groups {pair:?}");
            }
        }
    }

    #[test]
    fn hard_demap_inverts_map() {
        for m in Modulation::ALL {
            let n = m.bits_per_symbol();
            for idx in 0..m.points_count() {
                let bits: Vec<u8> = (0..n).map(|i| ((idx >> (n - 1 - i)) & 1) as u8).collect();
                let p = m.map(&bits);
                assert_eq!(m.hard_demap(p), bits, "{m} idx {idx}");
            }
        }
    }

    #[test]
    fn hard_demap_tolerates_small_noise() {
        for m in Modulation::ALL {
            let eps = m.min_distance() * 0.3;
            for idx in 0..m.points_count() {
                let n = m.bits_per_symbol();
                let bits: Vec<u8> = (0..n).map(|i| ((idx >> (n - 1 - i)) & 1) as u8).collect();
                let p = m.map(&bits) + Complex::new(eps, -eps * 0.5);
                assert_eq!(m.hard_demap(p), bits, "{m} idx {idx}");
            }
        }
    }

    #[test]
    fn soft_demap_signs_match_hard_decision_on_clean_points() {
        for m in Modulation::ALL {
            for idx in 0..m.points_count() {
                let n = m.bits_per_symbol();
                let bits: Vec<u8> = (0..n).map(|i| ((idx >> (n - 1 - i)) & 1) as u8).collect();
                let p = m.map(&bits);
                let mut llrs = Vec::new();
                m.soft_demap(p, 1.0, &mut llrs);
                assert_eq!(llrs.len(), n);
                for (i, &llr) in llrs.iter().enumerate() {
                    if bits[i] == 0 {
                        assert!(llr > 0, "{m} idx {idx} bit {i}: llr {llr}");
                    } else {
                        assert!(llr < 0, "{m} idx {idx} bit {i}: llr {llr}");
                    }
                }
            }
        }
    }

    #[test]
    fn soft_demap_scales_with_weight() {
        let m = Modulation::Qam16;
        let y = Complex::new(0.2, -0.4);
        let mut a = Vec::new();
        let mut b = Vec::new();
        m.soft_demap(y, 10.0, &mut a);
        m.soft_demap(y, 40.0, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((y - 4 * x).abs() <= 2, "{x} {y}");
        }
    }

    #[test]
    fn soft_weights_map_the_median_outer_point_to_full_scale() {
        let mut weights = [0.0; 48];
        for (i, w) in weights.iter_mut().enumerate() {
            *w = 3.0 + i as f64;
        }
        weights[7] = 0.0;
        for m in Modulation::ALL {
            let scaled = m.soft_weights(weights);
            assert_eq!(scaled[7], 0.0, "{m}");
            // The lower median of the 48 weights (the 24th smallest: 0,
            // then 3..=9, then 3 + i from i = 8) is subcarrier 23's; its
            // outermost point reaches ±SOFT_MAX.
            let median = scaled[23];
            let n = m.bits_per_symbol();
            let outer = m.map(&vec![0; n]);
            let mut llrs = Vec::new();
            m.soft_demap(outer, median, &mut llrs);
            assert_eq!(llrs.iter().map(|l| l.abs()).max(), Some(SOFT_MAX), "{m}");
            // Every constellation point demaps within range without clipping.
            for p in m.points() {
                llrs.clear();
                m.soft_demap(p, median * 0.999, &mut llrs);
                assert!(llrs.iter().all(|l| l.abs() < SOFT_MAX), "{m}");
            }
        }
        assert_eq!(Modulation::Qam64.soft_weights([0.0; 48]), [0.0; 48]);
    }

    #[test]
    fn min_point_energy_values() {
        assert!((Modulation::Bpsk.min_point_energy() - 1.0).abs() < 1e-12);
        assert!((Modulation::Qpsk.min_point_energy() - 1.0).abs() < 1e-12);
        assert!((Modulation::Qam16.min_point_energy() - 0.2).abs() < 1e-12);
        assert!((Modulation::Qam64.min_point_energy() - 2.0 / 42.0).abs() < 1e-12);
    }

    #[test]
    fn min_distance_shrinks_with_order() {
        let d: Vec<f64> = Modulation::ALL.iter().map(|m| m.min_distance()).collect();
        for pair in d.windows(2) {
            assert!(pair[1] < pair[0]);
        }
    }

    #[test]
    fn nearest_point_is_a_constellation_point() {
        let m = Modulation::Qam64;
        let pts = m.points();
        let y = Complex::new(0.11, -0.73);
        let p = m.nearest_point(y);
        assert!(pts.iter().any(|&q| (q - p).norm() < 1e-12));
    }

    #[test]
    fn hard_ties_go_to_the_first_table_entry() {
        // |level − 0| ties between −1 (group 2) and 1 (group 6): group 2.
        assert_eq!(Modulation::Qam64.hard_demap(Complex::ZERO), vec![0, 1, 0, 0, 1, 0]);
        // Midway between −3 (group 3) and −1 (group 2) on the I axis.
        let k = Modulation::Qam64.kmod();
        let y = Complex::new(-2.0 * k, -2.0 * k);
        assert_eq!(Modulation::Qam64.hard_demap(y), vec![0, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn non_finite_points_demap_as_erasures() {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for m in Modulation::ALL {
            let n = m.bits_per_symbol();
            for &v in &bad {
                let axes: &[Complex] = if m == Modulation::Bpsk {
                    &[Complex::new(v, 0.0)]
                } else {
                    &[Complex::new(v, 0.3), Complex::new(-0.3, v), Complex::new(v, v)]
                };
                for &y in axes {
                    let mut llrs = Vec::new();
                    m.soft_demap(y, 7.5, &mut llrs);
                    assert!(llrs.iter().all(|&l| l == 0), "{m} {y:?}: {llrs:?}");
                    assert_eq!(m.hard_demap(y), vec![0; n], "{m} {y:?}");
                    assert_eq!(m.nearest_point(y), m.map(&vec![0; n]), "{m} {y:?}");
                }
            }
        }
        // BPSK demaps only the I axis, so a non-finite Q is ignored.
        let mut llrs = Vec::new();
        Modulation::Bpsk.soft_demap(Complex::new(0.5, f64::NAN), 1.0, &mut llrs);
        assert!(llrs[0] < 0);
        assert_eq!(Modulation::Bpsk.hard_demap(Complex::new(0.5, f64::NAN)), vec![1]);
    }

    #[test]
    #[should_panic(expected = "expected 4 bits")]
    fn wrong_bit_count_panics() {
        Modulation::Qam16.map(&[0, 1]);
    }
}
