//! Soft-decision Viterbi decoding of the 802.11a convolutional code, with
//! native erasure support (EVD).
//!
//! # Soft-bit convention
//!
//! A soft input `llr[i] > 0` means coded bit `i` is more likely **0**;
//! `llr[i] < 0` means more likely **1**; `llr[i] == 0` is an **erasure** —
//! the bit contributes nothing to any path metric. Erasures arise from
//! three sources that all compose through the same mechanism:
//!
//! 1. de-puncturing (positions the transmitter never sent),
//! 2. CoS silence symbols flagged by the energy detector (paper Eq. 7),
//! 3. any upstream processing that wants to neutralise a bit.
//!
//! This is precisely the paper's erasure Viterbi decoding: "the proposed
//! EVD does not modify the existing Viterbi decoder, but only the
//! calculation of bit metrics" — the add-compare-select kernel below is a
//! textbook Viterbi.
//!
//! The receive chain hands the decoder **quantised** soft bits: `i16`
//! values in `±`[`SOFT_MAX`], made by [`quantise`], which keeps zero (the
//! erasure) exactly and never turns a nonzero LLR into one. The paper's
//! Sora/SoftWiFi prototype decodes fixed-point soft bits the same way.
//!
//! # Kernels
//!
//! One production kernel, [`ViterbiDecoder::decode_i16`], decodes one
//! frame at a time. Its add-compare-select holds all 64 path metrics as
//! `i16` in two 512-bit registers; it has an `avx512bw` body and a
//! portable body that performs the same operations. The build
//! picks the body: `avx512bw` builds run the intrinsics, every other
//! build the portable body, which [`ViterbiDecoder::decode_i16_with`]
//! under [`KernelMode::Scalar`] also runs for the differential tests.
//! Both are exact against an `f64` Viterbi on the same integers
//! (`docs/KERNELS.md`, "The i16 Viterbi").
//!
//! [`ViterbiDecoder::decode_to_slices`] keeps the `f64` add-compare-select
//! as the reference the kernel is tested against; the owned
//! [`ViterbiDecoder::decode`] and [`ViterbiDecoder::decode_into`] run it
//! too. [`ViterbiDecoder::decode_lockstep`] survives only as a shim over
//! the per-frame kernel (see its docs).

use crate::conv::{branch_output, next_state, STATES};
use crate::workspace::{SymbolBatch, ViterbiWorkspace};
use cos_dsp::lanes::KernelMode;
use std::sync::OnceLock;

/// The largest soft-bit magnitude: [`quantise`] saturates at `±SOFT_MAX`.
///
/// The bound is what makes the `i16` kernel exact: branch metrics stay
/// within `±2·SOFT_MAX`, so every metric difference the add-compare-select
/// takes fits in 15 bits (`docs/KERNELS.md`, "The i16 Viterbi").
pub const SOFT_MAX: i16 = 511;

/// Quantises a scaled LLR to a soft bit: rounded to the nearest integer
/// (ties to even) and saturated at `±`[`SOFT_MAX`]. Zero (an erasure)
/// stays zero, and a nonzero value keeps its sign: `|x| < 0.5` becomes
/// `±1`, never an erasure. A NaN carries no information and becomes `0`.
///
/// Branch-free, so the demap kernel's lanes vectorise it: after the
/// clamp, adding 1.5·2⁵² rounds to an integer (ties to even, the IEEE
/// default) that then sits in the low mantissa bits.
///
/// # Examples
///
/// ```
/// use cos_fec::viterbi::{quantise, SOFT_MAX};
///
/// assert_eq!(quantise(0.0), 0);
/// assert_eq!(quantise(-0.2), -1);
/// assert_eq!(quantise(37.6), 38);
/// assert_eq!(quantise(1e9), SOFT_MAX);
/// ```
#[inline(always)]
pub fn quantise(x: f64) -> i16 {
    const ROUND: f64 = 6_755_399_441_055_744.0;
    let max = f64::from(SOFT_MAX);
    // Independent selects, not an `else if` chain, so LLVM keeps them
    // branch-free; the clamp passes NaN through, then NaN becomes 0.
    let c = x.clamp(-max, max);
    let c = if c.is_nan() { 0.0 } else { c };
    let q = (c + ROUND).to_bits() as u16 as i16;
    let sign = if c > 0.0 { 1 } else { -1 };
    if q == 0 && c != 0.0 {
        sign
    } else {
        q
    }
}

/// A soft-decision Viterbi decoder for the 133/171 rate-1/2 code.
///
/// The decoder is stateless between calls; construct once and reuse.
///
/// # Examples
///
/// ```
/// use cos_fec::{ConvEncoder, ViterbiDecoder};
///
/// let mut data = vec![1, 1, 0, 1, 0, 0, 1, 0];
/// data.extend_from_slice(&[0; 6]); // tail
/// let coded = ConvEncoder::new().encode(&data);
/// let mut llrs: Vec<i16> = coded.iter().map(|&b| if b == 0 { 100 } else { -100 }).collect();
/// llrs[3] = 0; // erase one coded bit — EVD bridges it
/// llrs[10] = -llrs[10]; // flip another — classical error correction
/// let steps = llrs.len() / 2;
/// let (mut survivors, mut out) = (vec![0u64; steps], vec![0u8; steps]);
/// ViterbiDecoder::new().decode_i16(&llrs, true, &mut survivors, &mut out);
/// assert_eq!(out, data);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ViterbiDecoder {
    _private: (),
}

/// One frame's borrows for [`ViterbiDecoder::decode_lockstep`]: the soft
/// input plus the caller-owned traceback scratch and output slice, both
/// sized `llrs.len() / 2`.
#[derive(Debug)]
pub struct LaneFrame<'a> {
    /// Quantised soft coded bits (pairs `A_t B_t`), even-length and
    /// non-empty.
    pub llrs: &'a [i16],
    /// Traceback scratch: one 64-bit predecessor bitset per trellis step.
    pub prev_lsbs: &'a mut [u64],
    /// Decoded data bits, one per trellis step.
    pub out: &'a mut [u8],
}

/// Per source state, the ±1 signs (`+1` ⇔ coded 0) of the two coded bits
/// emitted for input 0, as parallel arrays so the reference ACS is pure
/// vectorisable arithmetic.
///
/// Two structural facts of the 133/171 trellis make this one table enough
/// for the whole add-compare-select step:
///
/// * sources `2j` and `2j + 1` both fan out exactly to destinations `j`
///   (input 0) and `j + 32` (input 1), since `dest = (input << 5) | (src >> 1)`;
/// * both generators tap the input bit, so the input-1 coded pair is the
///   complement of the input-0 pair and its branch metric the negation.
#[derive(Debug)]
struct SignTables {
    /// Sign of coded bit A for input 0, per source state.
    sa: [f64; STATES],
    /// Sign of coded bit B for input 0, per source state.
    sb: [f64; STATES],
}

fn sign_tables() -> &'static SignTables {
    static TABLE: OnceLock<SignTables> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut sa = [0.0; STATES];
        let mut sb = [0.0; STATES];
        for src in 0..STATES {
            let (a0, b0) = branch_output(src as u8, 0);
            sa[src] = if a0 == 0 { 1.0 } else { -1.0 };
            sb[src] = if b0 == 0 { 1.0 } else { -1.0 };
            // The two invariants the ACS kernels rely on.
            let (a1, b1) = branch_output(src as u8, 1);
            debug_assert_eq!((a1, b1), (a0 ^ 1, b0 ^ 1));
            debug_assert_eq!(next_state(src as u8, 0) as usize, src >> 1);
            debug_assert_eq!(next_state(src as u8, 1) as usize, (src >> 1) | 32);
        }
        SignTables { sa, sb }
    })
}

/// Validates one frame's decode inputs, panicking with the documented
/// messages on misuse.
fn validate<T>(llrs: &[T], prev_lsbs: &[u64], out: &[u8]) -> usize {
    assert!(!llrs.is_empty(), "cannot decode an empty frame");
    assert!(llrs.len().is_multiple_of(2), "soft input length {} is not a whole number of (A,B) pairs", llrs.len());
    let steps = llrs.len() / 2;
    assert_eq!(prev_lsbs.len(), steps, "traceback scratch must hold one word per step");
    assert_eq!(out.len(), steps, "output must hold one bit per step");
    steps
}

/// Picks the reference decoder's traceback start state from the final
/// metrics: state 0 for a terminated trellis, otherwise the best final
/// state (last max on ties, matching `Iterator::max_by`).
fn start_state(metric: &[f64; STATES], terminated: bool) -> usize {
    if terminated {
        0
    } else {
        metric
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("metrics are never NaN"))
            .map(|(s, _)| s)
            .expect("STATES > 0")
    }
}

/// Walks the survivor bitsets backwards, emitting one data bit per step.
/// The input bit at step `t` is the top bit of the state the trellis
/// landed in; the predecessor is `((state & 0x1F) << 1) | prev_lsb`.
fn traceback(prev_lsbs: &[u64], mut state: usize, out: &mut [u8]) {
    for t in (0..out.len()).rev() {
        out[t] = (state >> 5) as u8;
        let prev_lsb = ((prev_lsbs[t] >> state) & 1) as usize;
        state = ((state & 0x1F) << 1) | prev_lsb;
    }
}

impl ViterbiDecoder {
    /// Creates a decoder.
    pub fn new() -> Self {
        ViterbiDecoder::default()
    }

    /// Decodes a frame of soft coded bits (pairs `A_t B_t`, so
    /// `llrs.len()` must be even) on the reference `f64` kernel. Returns
    /// one data bit per pair.
    ///
    /// If `terminated` is `true` the trellis is traced back from state 0
    /// (the frame ended in six tail zeros); otherwise from the best final
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is odd or zero.
    pub fn decode(&self, llrs: &[f64], terminated: bool) -> Vec<u8> {
        let mut ws = ViterbiWorkspace::new();
        let mut out = Vec::new();
        self.decode_into(llrs, terminated, &mut ws, &mut out);
        out
    }

    /// [`ViterbiDecoder::decode`] writing into caller-owned buffers.
    ///
    /// `ws` holds the traceback scratch and `out` receives the decoded
    /// bits; both are fully overwritten, so a dirty workspace from a
    /// previous frame produces bit-identical output to a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is odd or zero.
    pub fn decode_into(
        &self,
        llrs: &[f64],
        terminated: bool,
        ws: &mut ViterbiWorkspace,
        out: &mut Vec<u8>,
    ) {
        assert!(!llrs.is_empty(), "cannot decode an empty frame");
        assert!(llrs.len().is_multiple_of(2), "soft input length {} is not a whole number of (A,B) pairs", llrs.len());
        let steps = llrs.len() / 2;
        ws.prev_lsbs.clear();
        ws.prev_lsbs.resize(steps, 0);
        out.clear();
        out.resize(steps, 0);
        self.decode_to_slices(llrs, terminated, &mut ws.prev_lsbs, out);
    }

    /// The reference decoder: [`ViterbiDecoder::decode`] writing into
    /// caller-owned slices, on the `f64` add-compare-select. The `i16`
    /// kernel ([`ViterbiDecoder::decode_i16`]) is tested against it.
    ///
    /// `prev_lsbs` is the traceback scratch and `out` receives the
    /// decoded bits; both must hold exactly `llrs.len() / 2` elements
    /// and are fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is odd or zero, or either slice has the
    /// wrong length.
    pub fn decode_to_slices(
        &self,
        llrs: &[f64],
        terminated: bool,
        prev_lsbs: &mut [u64],
        out: &mut [u8],
    ) {
        validate(llrs, prev_lsbs, out);
        let metric = acs_scalar(llrs, prev_lsbs);
        traceback(prev_lsbs, start_state(&metric, terminated), out);
    }

    /// Decodes one frame of quantised soft bits (pairs `A_t B_t`, each in
    /// `±`[`SOFT_MAX`]) — the production decoder, allocation-free.
    ///
    /// `prev_lsbs` is the traceback scratch (one survivor word per step)
    /// and `out` receives the decoded bits; both must hold exactly
    /// `llrs.len() / 2` elements and are fully overwritten. For soft bits
    /// within `±SOFT_MAX` the decoded bits equal
    /// [`ViterbiDecoder::decode_to_slices`] on the same values as `f64`,
    /// and so does every survivor word from step 6 on (before it the
    /// oracle's unreachable states hold −∞, the kernel's a finite floor).
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is odd or zero, or either slice has the
    /// wrong length.
    pub fn decode_i16(
        &self,
        llrs: &[i16],
        terminated: bool,
        prev_lsbs: &mut [u64],
        out: &mut [u8],
    ) {
        self.decode_i16_with(llrs, terminated, KernelMode::Lanes, prev_lsbs, out);
    }

    /// [`ViterbiDecoder::decode_i16`] with an explicit [`KernelMode`]:
    /// `Lanes` runs the `avx512bw` body where the build has one, `Scalar`
    /// the portable body. Both give the same bits on every input.
    ///
    /// # Panics
    ///
    /// As [`ViterbiDecoder::decode_i16`].
    pub fn decode_i16_with(
        &self,
        llrs: &[i16],
        terminated: bool,
        mode: KernelMode,
        prev_lsbs: &mut [u64],
        out: &mut [u8],
    ) {
        validate(llrs, prev_lsbs, out);
        let metric = acs_i16(llrs, prev_lsbs, mode);
        let start = if terminated { 0 } else { best_state(&metric) };
        traceback(prev_lsbs, start, out);
    }

    /// Decodes each frame with [`ViterbiDecoder::decode_i16`] — a shim
    /// kept for the frame-pipeline benchmark, which still calls it; it
    /// retires with the benchmark's next change. The decoded bits and
    /// survivor words land in each frame's own borrows; `batch` holds
    /// nothing.
    ///
    /// # Panics
    ///
    /// Per frame, as [`ViterbiDecoder::decode_i16`].
    pub fn decode_lockstep(
        &self,
        frames: &mut [LaneFrame<'_>],
        terminated: bool,
        _batch: &mut SymbolBatch,
    ) {
        for f in frames {
            self.decode_i16(f.llrs, terminated, f.prev_lsbs, f.out);
        }
    }
}

const NEG: f64 = f64::NEG_INFINITY;

/// The reference ACS: one state per source-ordered butterfly, in `f64`.
/// Returns the final metrics.
fn acs_scalar(llrs: &[f64], prev_lsbs: &mut [u64]) -> [f64; STATES] {
    let steps = llrs.len() / 2;
    let tables = sign_tables();
    let (sa, sb) = (&tables.sa, &tables.sb);
    let mut metric = [NEG; STATES];
    metric[0] = 0.0; // encoder starts from the zero state
    let mut next = [NEG; STATES];
    // Track the predecessor implicitly: dest = (input<<5)|(src>>1), so
    // src = ((dest & 0x1F) << 1) | prev_lsb; we store the winning
    // prev_lsb per destination state in a per-step bitset. The winning
    // *input* needs no storage at all — it is `dest >> 5`.
    for t in 0..steps {
        let la = llrs[2 * t];
        let lb = llrs[2 * t + 1];
        let mut lsb_bits = 0u64;
        for j in 0..STATES / 2 {
            let m0 = metric[2 * j];
            let m1 = metric[2 * j + 1];
            // Branch metric of the input-0 edge out of each source.
            let t0 = sa[2 * j] * la + sb[2 * j] * lb;
            let t1 = sa[2 * j + 1] * la + sb[2 * j + 1] * lb;
            // Destination j takes input 0; destination j+32 takes
            // input 1, whose branch metric is the negation. Strict `>`
            // keeps the lower-numbered predecessor on ties.
            let (a0, a1) = (m0 + t0, m1 + t1);
            let odd_wins_lo = a1 > a0;
            next[j] = if odd_wins_lo { a1 } else { a0 };
            lsb_bits |= (odd_wins_lo as u64) << j;
            let (b0, b1) = (m0 - t0, m1 - t1);
            let odd_wins_hi = b1 > b0;
            next[j + 32] = if odd_wins_hi { b1 } else { b0 };
            lsb_bits |= (odd_wins_hi as u64) << (j + 32);
        }
        prev_lsbs[t] = lsb_bits;
        std::mem::swap(&mut metric, &mut next);
    }
    metric
}

/// The `i16` kernel's initial metric for the states the encoder cannot be
/// in yet: far enough below every reachable metric that a reachable
/// predecessor always wins during the six warm-up steps, and high enough
/// that no candidate of the warm-up leaves the `i16` range.
const UNREACHED: i16 = -16_384;

/// Steps between two renormalisations of the `i16` kernel's metrics: at
/// the start of every `RENORM`-th step both bodies subtract state 0's
/// metric from all 64. A common shift changes no decision and no
/// [`best_state`], and it keeps every metric inside the `i16` range, so
/// the compares and the max take the true values (`docs/KERNELS.md`,
/// "The i16 Viterbi").
const RENORM: usize = 16;

// The bounds behind `UNREACHED` and `RENORM`, from `SOFT_MAX`. A branch
// metric is `±la ± lb`, at most `2·SOFT_MAX` in size; after the K − 1 = 6
// warm-up steps every state reaches every other, so the metrics spread by
// at most `2·6·2·SOFT_MAX` = 12 264. A renormalisation leaves them within
// that spread of 0, and the next `RENORM` steps move them by at most
// `RENORM·2·SOFT_MAX` more: 12 264 + 16·1022 = 28 616. (Before the first
// renormalisation that does not subtract 0, at step `RENORM`, reachable
// metrics lie within `RENORM·2·SOFT_MAX` of the start.)
const _: () = {
    let branch = 2 * SOFT_MAX as i32;
    let warm_up = (crate::conv::CONSTRAINT - 1) as i32;
    let spread = 2 * warm_up * branch;
    assert!(spread + RENORM as i32 * branch <= i16::MAX as i32, "renormalise more often");
    // During warm-up an unreachable candidate stays below every reachable
    // one and inside the range.
    assert!((UNREACHED as i32) + warm_up * branch < -warm_up * branch);
    assert!((UNREACHED as i32) - (warm_up + 1) * branch > i16::MIN as i32);
};

/// Per butterfly `j`, the index of source `2j`'s input-0 branch metric in
/// the step palette `[la+lb, la−lb, −(la+lb), −(la−lb)]`, the only values
/// a branch metric takes. Source `2j + 1` emits the complementary pair —
/// both generators tap the oldest bit, which is all the two sources
/// differ in — so its branch metric is the negation.
const PICK: [u8; STATES / 2] = {
    let mut pick = [0u8; STATES / 2];
    let mut j = 0;
    while j < STATES / 2 {
        let (a, b) = branch_output(2 * j as u8, 0);
        let (a1, b1) = branch_output(2 * j as u8 + 1, 0);
        assert!(a1 == a ^ 1 && b1 == b ^ 1, "sources 2j and 2j+1 emit complementary pairs");
        // sa·la + sb·lb with sa = +1 ⇔ a = 0: a picks the sign, a ≠ b the
        // difference.
        pick[j] = (a << 1) | (a ^ b);
        j += 1;
    }
    pick
};

/// The `i16` add-compare-select on the body `mode` selects. Writes one
/// survivor word per step and returns the final metrics.
fn acs_i16(llrs: &[i16], prev_lsbs: &mut [u64], mode: KernelMode) -> [i16; STATES] {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512bw"))]
    if mode == KernelMode::Lanes {
        return acs_avx512(llrs, prev_lsbs);
    }
    let _ = mode;
    acs_portable(llrs, prev_lsbs)
}

/// Per butterfly `j`, the signs (±1, `+1` ⇔ coded 0) of source `2j`'s
/// input-0 coded pair: `SIGNS[0][j]·la + SIGNS[1][j]·lb` is palette
/// entry `PICK[j]`, also in wrapping arithmetic (negation commutes with
/// it).
const SIGNS: [[i16; STATES / 2]; 2] = {
    let mut signs = [[0i16; STATES / 2]; 2];
    let mut j = 0;
    while j < STATES / 2 {
        signs[0][j] = 1 - 2 * (PICK[j] >> 1) as i16;
        signs[1][j] = signs[0][j] * (1 - 2 * (PICK[j] & 1) as i16);
        j += 1;
    }
    signs
};

/// The portable body of [`acs_i16`]: every [`RENORM`] steps the metrics
/// drop by state 0's; per butterfly, the candidates of both destinations
/// in wrapping arithmetic, the survivor their `max` and the decision
/// `odd > even` (strict: a tie keeps the even, lower-numbered
/// predecessor). The same operations as the `avx512bw` body, lane for
/// lane, so the two agree on every input; written as whole-row loops over
/// fixed-size arrays, which LLVM vectorises.
fn acs_portable(llrs: &[i16], prev_lsbs: &mut [u64]) -> [i16; STATES] {
    const HALF: usize = STATES / 2;
    let [sign_a, sign_b] = SIGNS;
    let mut lo = [UNREACHED; HALF];
    let mut hi = [UNREACHED; HALF];
    lo[0] = 0; // encoder starts from the zero state
    for (pairs, words) in llrs.chunks(2 * RENORM).zip(prev_lsbs.chunks_mut(RENORM)) {
        let base = lo[0];
        for j in 0..HALF {
            (lo[j], hi[j]) = (lo[j].wrapping_sub(base), hi[j].wrapping_sub(base));
        }
        for (pair, word) in pairs.chunks_exact(2).zip(words.iter_mut()) {
            let (la, lb) = (pair[0], pair[1]);
            let (mut e, mut o) = ([0i16; HALF], [0i16; HALF]);
            for j in 0..HALF / 2 {
                (e[j], o[j]) = (lo[2 * j], lo[2 * j + 1]);
                (e[j + HALF / 2], o[j + HALF / 2]) = (hi[2 * j], hi[2 * j + 1]);
            }
            let (mut wl, mut wh) = ([false; HALF], [false; HALF]);
            for j in 0..HALF {
                let t = sign_a[j].wrapping_mul(la).wrapping_add(sign_b[j].wrapping_mul(lb));
                let (a0, a1) = (e[j].wrapping_add(t), o[j].wrapping_sub(t));
                let (b0, b1) = (e[j].wrapping_sub(t), o[j].wrapping_add(t));
                (wl[j], wh[j]) = (a1 > a0, b1 > b0);
                (lo[j], hi[j]) = (a0.max(a1), b0.max(b1));
            }
            *word = (0..HALF).fold(0, |w, j| w | u64::from(wl[j]) << j | u64::from(wh[j]) << (j + HALF));
        }
    }
    let mut metric = [0i16; STATES];
    metric[..HALF].copy_from_slice(&lo);
    metric[HALF..].copy_from_slice(&hi);
    metric
}

/// The `avx512bw` body of [`acs_i16`]. The metrics of states `0..32` and
/// `32..64` sit in two registers in natural order, so the decision masks
/// (`vpcmpgtw`, odd candidate over even) are already the step's survivor
/// word. Per step one `vpshufb` spreads the step palette over the
/// butterflies; to gather the next step's even and odd sources, one
/// `vpshufb` per register groups each 128-bit block's even words before
/// its odd ones, and one `vpermt2q` per output picks the even (odd)
/// quarter-blocks of both registers in order — 4 cycles of latency where
/// a word-granular `vpermt2w` takes 7. The survivor is one `vpmaxsw`, so
/// the recursion's chain is shuffle, permute, add and max; the compares
/// hang off it. Every [`RENORM`] steps a broadcast of state 0's metric is
/// subtracted. The palettes of a block of steps are computed with vector
/// ops ahead of the recursion, so each step reads its own with one
/// broadcast load.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512bw"))]
fn acs_avx512(llrs: &[i16], prev_lsbs: &mut [u64]) -> [i16; STATES] {
    use std::arch::x86_64::*;
    const HALF: usize = STATES / 2;
    const BLOCK: usize = 64;
    // `vpshufb` controls, per 128-bit lane: `PALETTE` sends word `j` of
    // the result palette entry `PICK[j]` (the 8-byte palette repeats
    // through the lane); `EVEN_ODD` moves words 0, 2, 4, 6 to the low
    // quadword and 1, 3, 5, 7 to the high one.
    const PALETTE: [u8; 2 * HALF] = {
        let mut ctl = [0u8; 2 * HALF];
        let mut j = 0;
        while j < HALF {
            ctl[2 * j] = 2 * PICK[j];
            ctl[2 * j + 1] = 2 * PICK[j] + 1;
            j += 1;
        }
        ctl
    };
    const EVEN_ODD: [u8; 2 * HALF] = {
        let mut ctl = [0u8; 2 * HALF];
        let mut i = 0;
        while i < 2 * HALF {
            let w = (i % 16) / 2; // destination word within the lane
            let src = if w < 4 { 2 * w } else { 2 * (w - 4) + 1 };
            ctl[i] = (2 * src + i % 2) as u8;
            i += 1;
        }
        ctl
    };
    // Quadword `q` of each `EVEN_ODD` output holds the even (q even) or
    // odd (q odd) words of lane `q / 2`: the even sources are quadwords
    // 0, 2, …, 14 of the pair, the odd ones 1, 3, …, 15.
    const EVEN_Q: [i64; 8] = [0, 2, 4, 6, 8, 10, 12, 14];
    const ODD_Q: [i64; 8] = [1, 3, 5, 7, 9, 11, 13, 15];
    // The `unpack` outputs below hold the palettes of steps 0, 1, 4, 5, …
    // and 2, 3, 6, 7, …; these put them back in step order.
    const FIRST_Q: [i64; 8] = [0, 1, 8, 9, 2, 3, 10, 11];
    const SECOND_Q: [i64; 8] = [4, 5, 12, 13, 6, 7, 14, 15];
    /// The palettes `[la+lb, la−lb, −(la+lb), −(la−lb)]` (wrapping) of up
    /// to `BLOCK` steps, one `u64` each, 16 steps per vector; a short
    /// block is padded with erasures.
    fn palettes(pairs: &[i16], out: &mut [u64; BLOCK]) {
        let mut padded = [0i16; 2 * BLOCK];
        let pairs = match pairs.len() {
            n if n == 2 * BLOCK => pairs,
            n => {
                padded[..n].copy_from_slice(pairs);
                &padded
            }
        };
        // SAFETY: `avx512bw` is enabled for the whole build (the outer
        // function's `cfg`); each load reads 64 bytes of the 256 in
        // `pairs`, each store writes 64 of the 512 in `out`.
        unsafe {
            let (first, second) = (
                _mm512_loadu_si512(FIRST_Q.as_ptr().cast()),
                _mm512_loadu_si512(SECOND_Q.as_ptr().cast()),
            );
            for (src, dst) in pairs.chunks_exact(32).zip(out.chunks_exact_mut(16)) {
                // Per 32-bit pair [la, lb]: [lb, la], then [s, s] and
                // [lb − la, la − lb], blended to [s, d].
                let x = _mm512_loadu_si512(src.as_ptr().cast());
                let swapped = _mm512_rol_epi32(x, 16);
                let sum = _mm512_add_epi16(x, swapped);
                let diff = _mm512_sub_epi16(swapped, x);
                let sd = _mm512_mask_blend_epi16(0xAAAA_AAAA, sum, diff);
                let neg = _mm512_sub_epi16(_mm512_setzero_si512(), sd);
                let (lo, hi) = (_mm512_unpacklo_epi32(sd, neg), _mm512_unpackhi_epi32(sd, neg));
                _mm512_storeu_si512(dst.as_mut_ptr().cast(), _mm512_permutex2var_epi64(lo, first, hi));
                _mm512_storeu_si512(dst[8..].as_mut_ptr().cast(), _mm512_permutex2var_epi64(lo, second, hi));
            }
        }
    }
    let mut block = [0u64; BLOCK];
    let mut metric = [UNREACHED; STATES];
    metric[0] = 0;
    // SAFETY: `avx512bw` (which implies `avx512f`) is enabled for the
    // whole build, as this function's `cfg` requires. Every load and
    // store stays inside memory this function borrows or owns: the
    // controls and each half of `metric` are exactly 64 bytes, and each
    // survivor word is one `u64` of `prev_lsbs`, written as its two
    // 4-byte halves.
    unsafe {
        let palette_ctl = _mm512_loadu_si512(PALETTE.as_ptr().cast());
        let even_odd = _mm512_loadu_si512(EVEN_ODD.as_ptr().cast());
        let even_q = _mm512_loadu_si512(EVEN_Q.as_ptr().cast());
        let odd_q = _mm512_loadu_si512(ODD_Q.as_ptr().cast());
        let mut lo = _mm512_loadu_si512(metric.as_ptr().cast());
        let mut hi = _mm512_loadu_si512(metric[HALF..].as_ptr().cast());
        for (pairs, words) in llrs.chunks(2 * BLOCK).zip(prev_lsbs.chunks_mut(BLOCK)) {
            palettes(pairs, &mut block);
            for (run, words) in block.chunks_exact(RENORM).zip(words.chunks_mut(RENORM)) {
                let base = _mm512_broadcastw_epi16(_mm512_castsi512_si128(lo));
                (lo, hi) = (_mm512_sub_epi16(lo, base), _mm512_sub_epi16(hi, base));
                for (&p, word) in run.iter().zip(words.iter_mut()) {
                    let lo_g = _mm512_shuffle_epi8(lo, even_odd);
                    let hi_g = _mm512_shuffle_epi8(hi, even_odd);
                    let e = _mm512_permutex2var_epi64(lo_g, even_q, hi_g);
                    let o = _mm512_permutex2var_epi64(lo_g, odd_q, hi_g);
                    let t = _mm512_shuffle_epi8(_mm512_set1_epi64(p as i64), palette_ctl);
                    let (a0, a1) = (_mm512_add_epi16(e, t), _mm512_sub_epi16(o, t));
                    let (b0, b1) = (_mm512_sub_epi16(e, t), _mm512_add_epi16(o, t));
                    (lo, hi) = (_mm512_max_epi16(a0, a1), _mm512_max_epi16(b0, b1));
                    let halves: *mut u32 = (word as *mut u64).cast();
                    _store_mask32(halves, _mm512_cmpgt_epi16_mask(a1, a0));
                    _store_mask32(halves.add(1), _mm512_cmpgt_epi16_mask(b1, b0));
                }
            }
        }
        _mm512_storeu_si512(metric.as_mut_ptr().cast(), lo);
        _mm512_storeu_si512(metric[HALF..].as_mut_ptr().cast(), hi);
    }
    metric
}

/// The best final state of the `i16` kernel, for an unterminated trellis:
/// the last maximum on ties, like the reference's `Iterator::max_by`.
/// States are compared by their difference to state 0, which is exact:
/// the metric spread stays below 2¹⁵.
fn best_state(metric: &[i16; STATES]) -> usize {
    (0..STATES).max_by_key(|&s| metric[s].wrapping_sub(metric[0])).expect("STATES > 0")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::ConvEncoder;

    fn frame(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        let mut data: Vec<u8> = (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 62) & 1) as u8
            })
            .collect();
        data.extend_from_slice(&[0; 6]);
        data
    }

    fn ideal_llrs(coded: &[u8]) -> Vec<f64> {
        coded.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect()
    }

    /// Pseudo-random soft values including erasures and sign flips.
    fn noisy_llrs(coded: &[u8], seed: u64) -> Vec<f64> {
        let mut x = seed;
        coded
            .iter()
            .map(|&b| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let mag = ((x >> 32) & 0xFFFF) as f64 / 65536.0;
                match x % 13 {
                    0 => 0.0,
                    1 => if b == 0 { -mag } else { mag },
                    _ => if b == 0 { mag } else { -mag },
                }
            })
            .collect()
    }

    #[test]
    fn noiseless_roundtrip() {
        let data = frame(120, 42);
        let coded = ConvEncoder::new().encode(&data);
        assert_eq!(ViterbiDecoder::new().decode(&ideal_llrs(&coded), true), data);
    }

    #[test]
    fn corrects_scattered_bit_flips() {
        let data = frame(200, 7);
        let coded = ConvEncoder::new().encode(&data);
        let mut llrs = ideal_llrs(&coded);
        // Flip well-separated bits: free distance 10 ⇒ isolated flips are
        // always correctable.
        for i in (0..llrs.len()).step_by(41) {
            llrs[i] = -llrs[i];
        }
        assert_eq!(ViterbiDecoder::new().decode(&llrs, true), data);
    }

    #[test]
    fn bridges_scattered_erasures() {
        let data = frame(200, 9);
        let coded = ConvEncoder::new().encode(&data);
        let mut llrs = ideal_llrs(&coded);
        for i in (0..llrs.len()).step_by(13) {
            llrs[i] = 0.0;
        }
        assert_eq!(ViterbiDecoder::new().decode(&llrs, true), data);
    }

    #[test]
    fn erasures_are_cheaper_than_errors() {
        // A burst of E erasures is survivable when a burst of E errors is
        // not: erasures remove information, errors inject wrong information.
        let data = frame(100, 3);
        let coded = ConvEncoder::new().encode(&data);
        let dec = ViterbiDecoder::new();

        let burst = 8;
        let start = 60;

        let mut erased = ideal_llrs(&coded);
        for l in erased.iter_mut().skip(start).take(burst) {
            *l = 0.0;
        }
        assert_eq!(dec.decode(&erased, true), data, "erasure burst of {burst} must decode");

        let mut flipped = ideal_llrs(&coded);
        for l in flipped.iter_mut().skip(start).take(burst) {
            *l = -*l;
        }
        assert_ne!(dec.decode(&flipped, true), data, "error burst of {burst} should break decoding");
    }

    #[test]
    fn soft_confidence_is_respected() {
        // A strongly confident wrong bit next to weakly confident correct
        // bits: the decoder should still recover thanks to accumulated weak
        // evidence.
        let data = frame(64, 11);
        let coded = ConvEncoder::new().encode(&data);
        let mut llrs: Vec<f64> = ideal_llrs(&coded).iter().map(|l| l * 0.4).collect();
        llrs[30] = -2.0 * llrs[30].signum();
        assert_eq!(ViterbiDecoder::new().decode(&llrs, true), data);
    }

    #[test]
    fn unterminated_traceback_works() {
        let mut data = frame(80, 5);
        // Strip tail: frame() appended zeros; replace with live data so the
        // final state is arbitrary.
        let len = data.len();
        data[len - 6..].copy_from_slice(&[1, 0, 1, 1, 0, 1]);
        let coded = ConvEncoder::new().encode(&data);
        let decoded = ViterbiDecoder::new().decode(&ideal_llrs(&coded), false);
        // The last few bits may be unreliable without termination, but the
        // body must match.
        assert_eq!(&decoded[..len - 6], &data[..len - 6]);
    }

    #[test]
    fn all_erased_frame_decodes_to_some_valid_word() {
        // With zero information every path ties; the decoder must still
        // return a well-formed output (all-zeros wins ties from state 0).
        let llrs = vec![0.0; 120];
        let decoded = ViterbiDecoder::new().decode(&llrs, true);
        assert_eq!(decoded.len(), 60);
    }

    #[test]
    fn decode_into_with_dirty_workspace_matches_owned() {
        let dec = ViterbiDecoder::new();
        let mut ws = ViterbiWorkspace::new();
        let mut out = Vec::new();
        // Dirty the workspace with a longer frame first, then decode a
        // shorter one: leftovers must not leak into the result.
        for (len, seed) in [(300, 21u64), (80, 4), (200, 17)] {
            let data = frame(len, seed);
            let coded = ConvEncoder::new().encode(&data);
            let llrs = ideal_llrs(&coded);
            dec.decode_into(&llrs, true, &mut ws, &mut out);
            assert_eq!(out, dec.decode(&llrs, true));
            assert_eq!(out, data);
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_input_panics() {
        ViterbiDecoder::new().decode(&[], true);
    }

    #[test]
    #[should_panic(expected = "pairs")]
    fn odd_input_panics() {
        ViterbiDecoder::new().decode(&[1.0; 7], true);
    }

    /// Soft values in ±1 scaled to the full soft-bit range.
    fn soft_bits(llrs: &[f64]) -> Vec<i16> {
        llrs.iter().map(|&l| quantise(l * f64::from(SOFT_MAX))).collect()
    }

    /// The `i16` kernel's survivor words and decoded bits on one body.
    fn run_i16(llrs: &[i16], terminated: bool, mode: KernelMode) -> (Vec<u64>, Vec<u8>) {
        let steps = llrs.len() / 2;
        let (mut prev, mut out) = (vec![0u64; steps], vec![0u8; steps]);
        ViterbiDecoder::new().decode_i16_with(llrs, terminated, mode, &mut prev, &mut out);
        (prev, out)
    }

    #[test]
    fn quantiser_keeps_erasures_and_signs_and_saturates() {
        assert_eq!(quantise(0.0), 0);
        assert_eq!(quantise(-0.0), 0);
        assert_eq!(quantise(f64::NAN), 0);
        for x in [1e-300, 0.3, 0.5, 0.7, 1.5, 2.5, 200.4, 510.6, 511.0, 1e6, f64::INFINITY] {
            let q = quantise(x);
            assert!(q > 0 && q <= SOFT_MAX, "{x} -> {q}");
            assert_eq!(quantise(-x), -q, "{x}");
        }
        assert_eq!((quantise(0.3), quantise(2.5), quantise(2.6)), (1, 2, 3));
        assert_eq!((quantise(510.6), quantise(1e6)), (SOFT_MAX, SOFT_MAX));
        assert_eq!(quantise(f64::NEG_INFINITY), -SOFT_MAX);
        for v in -SOFT_MAX..=SOFT_MAX {
            assert_eq!(quantise(f64::from(v)), v, "integers in range are fixed points");
        }
    }

    #[test]
    fn i16_kernel_matches_the_reference_on_noisy_frames() {
        for (k, len) in [1usize, 40, 200, 1000].into_iter().enumerate() {
            let data = frame(len, k as u64 + 99);
            let coded = ConvEncoder::new().encode(&data);
            let soft = soft_bits(&noisy_llrs(&coded, k as u64 * 7 + 1));
            let wide: Vec<f64> = soft.iter().map(|&q| f64::from(q)).collect();
            let steps = soft.len() / 2;
            for terminated in [true, false] {
                let (mut prev, mut out) = (vec![0u64; steps], vec![0u8; steps]);
                ViterbiDecoder::new().decode_to_slices(&wide, terminated, &mut prev, &mut out);
                for mode in [KernelMode::Lanes, KernelMode::Scalar] {
                    let (got_prev, got_out) = run_i16(&soft, terminated, mode);
                    assert_eq!(got_out, out, "len {len}, {mode:?}, terminated {terminated}");
                    assert_eq!(got_prev[6..], prev[6..], "len {len}, {mode:?}");
                }
            }
            let clean = soft_bits(&ideal_llrs(&coded));
            assert_eq!(run_i16(&clean, true, KernelMode::Lanes).1, data, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "pairs")]
    fn lockstep_rejects_odd_frames() {
        let llrs = [1i16; 7];
        let mut p = [0u64; 3];
        let mut o = [0u8; 3];
        let mut frames = [LaneFrame { llrs: &llrs, prev_lsbs: &mut p, out: &mut o }];
        ViterbiDecoder::new().decode_lockstep(&mut frames, true, &mut SymbolBatch::new());
    }
}
