//! Soft-decision Viterbi decoding of the 802.11a convolutional code, with
//! native erasure support (EVD).
//!
//! # LLR convention
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
//! # Kernels
//!
//! The add-compare-select recursion has two implementations that emit
//! the same bits (see `docs/KERNELS.md` for the ordering contract):
//!
//! * the per-frame kernel, one frame at a time (LLVM autovectorizes it
//!   across states), and
//! * a lockstep batch kernel ([`ViterbiDecoder::decode_lockstep`])
//!   processing the same trellis step of [`LANES`] *frames* per op, with
//!   per-frame fallback for remainder frames.
//!
//! Every owned or workspace entry point funnels into the single
//! [`ViterbiDecoder::decode_to_slices`] core, so there is exactly one
//! per-frame implementation and no owned/workspace drift.
//!
//! # Hard decisions
//!
//! [`ViterbiDecoder::decode_hard`] converts hard bits to ±1 LLRs, giving
//! the classical error-only decoder used by the `ablation_evd` experiment.

use crate::conv::{branch_output, next_state, STATES};
use crate::workspace::{SymbolBatch, ViterbiWorkspace};
use cos_dsp::lanes::{kernel_mode, F64xL, KernelMode, LANES};
use std::sync::OnceLock;

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
/// let mut llrs: Vec<f64> = coded.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
/// llrs[3] = 0.0; // erase one coded bit — EVD bridges it
/// llrs[10] = -llrs[10]; // flip another — classical error correction
/// assert_eq!(ViterbiDecoder::new().decode(&llrs, true), data);
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
    /// Soft coded bits (pairs `A_t B_t`), even-length and non-empty.
    pub llrs: &'a [f64],
    /// Traceback scratch: one 64-bit predecessor bitset per trellis step.
    /// Only the per-frame fallback path writes it — the lockstep kernel
    /// keeps its survivors lane-major in the [`SymbolBatch`] instead, so
    /// after a batched decode this scratch holds no meaningful data.
    pub prev_lsbs: &'a mut [u64],
    /// Decoded data bits, one per trellis step.
    pub out: &'a mut [u8],
}

/// Butterfly ACS lookup, built once per process: per source state, the
/// ±1 signs (`+1` ⇔ coded 0) of the two coded bits emitted for input 0,
/// as parallel arrays so the per-frame ACS is pure vectorisable
/// arithmetic.
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

/// Per source state, the palette index of its input-0 branch metric
/// among `[la+lb, la−lb, −(la−lb), −(la+lb)]`. Because the signs are
/// ±1 (exact multiplies) and IEEE rounding commutes with negation,
/// selecting from this palette is bit-identical to evaluating
/// `sa·la + sb·lb` — and costs zero arithmetic in the lockstep loop.
///
/// A compile-time constant (the generator polynomials are `const`), so
/// after LLVM unrolls the lockstep butterfly loop every palette pick
/// folds into a register move instead of two dependent table loads.
const TSEL: [u8; STATES] = {
    let mut t = [0u8; STATES];
    let mut src = 0;
    while src < STATES {
        let (a0, b0) = branch_output(src as u8, 0);
        t[src] = match (a0 == 0, b0 == 0) {
            (true, true) => 0,   //  la + lb
            (true, false) => 1,  //  la - lb
            (false, true) => 2,  // -(la - lb)
            (false, false) => 3, // -(la + lb)
        };
        src += 1;
    }
    t
};

fn sign_tables() -> &'static SignTables {
    static TABLE: OnceLock<SignTables> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut sa = [0.0; STATES];
        let mut sb = [0.0; STATES];
        for src in 0..STATES {
            let (a0, b0) = branch_output(src as u8, 0);
            sa[src] = if a0 == 0 { 1.0 } else { -1.0 };
            sb[src] = if b0 == 0 { 1.0 } else { -1.0 };
            // The two invariants the ACS kernel relies on.
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
fn validate(llrs: &[f64], prev_lsbs: &[u64], out: &[u8]) -> usize {
    assert!(!llrs.is_empty(), "cannot decode an empty frame");
    assert!(llrs.len().is_multiple_of(2), "soft input length {} is not a whole number of (A,B) pairs", llrs.len());
    let steps = llrs.len() / 2;
    assert_eq!(prev_lsbs.len(), steps, "traceback scratch must hold one word per step");
    assert_eq!(out.len(), steps, "output must hold one bit per step");
    steps
}

/// Picks the traceback start state from the final metrics: state 0 for a
/// terminated trellis, otherwise the best final state (last max on ties,
/// matching `Iterator::max_by`).
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
    /// `llrs.len()` must be even). Returns one data bit per pair.
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

    /// [`ViterbiDecoder::decode`] writing into caller-owned slices — the
    /// allocation-free per-frame core every other per-frame entry point
    /// funnels into.
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

    /// Decodes several independent frames in lockstep on the process-wide
    /// [`kernel_mode`]: groups of [`LANES`] equal-length frames advance
    /// through the trellis together, [`LANES`] frames' add-compare-select
    /// per op; remainder frames (batch not a multiple of [`LANES`], or
    /// unequal lengths) fall back to the per-frame kernel transparently.
    ///
    /// `batch` is the reusable SoA staging and survivor-mask scratch; at
    /// steady state the call performs no allocations. The slice is
    /// reordered (sorted by frame length) to form lane groups; each
    /// frame's decoded bits land in its own `out` borrow regardless.
    /// Every frame's `out` is bit-identical to
    /// [`ViterbiDecoder::decode_to_slices`] on that frame alone; the
    /// `prev_lsbs` scratch is only written on the per-frame fallback path
    /// (lane groups keep survivors in `batch`).
    ///
    /// # Panics
    ///
    /// Per frame, as [`ViterbiDecoder::decode_to_slices`].
    pub fn decode_lockstep(
        &self,
        frames: &mut [LaneFrame<'_>],
        terminated: bool,
        batch: &mut SymbolBatch,
    ) {
        self.decode_lockstep_with(frames, terminated, kernel_mode(), batch);
    }

    /// [`ViterbiDecoder::decode_lockstep`] with an explicit
    /// [`KernelMode`]. In scalar mode every frame runs the per-frame
    /// kernel — bit-identical, just not batched.
    ///
    /// # Panics
    ///
    /// Per frame, as [`ViterbiDecoder::decode_to_slices`].
    pub fn decode_lockstep_with(
        &self,
        frames: &mut [LaneFrame<'_>],
        terminated: bool,
        mode: KernelMode,
        batch: &mut SymbolBatch,
    ) {
        for f in frames.iter() {
            validate(f.llrs, f.prev_lsbs, f.out);
        }
        if mode == KernelMode::Scalar {
            for f in frames.iter_mut() {
                self.decode_to_slices(f.llrs, terminated, f.prev_lsbs, f.out);
            }
            return;
        }
        // Lane groups need equal step counts; sort by length so equal
        // frames are adjacent (frames are independent, so order does not
        // affect any frame's result).
        frames.sort_by_key(|f| f.llrs.len());
        let mut i = 0;
        while i < frames.len() {
            let len = frames[i].llrs.len();
            let mut j = i + 1;
            while j < frames.len() && frames[j].llrs.len() == len {
                j += 1;
            }
            let run = &mut frames[i..j];
            let mut chunks = run.chunks_exact_mut(LANES);
            for group in chunks.by_ref() {
                acs_lockstep(group, terminated, batch);
            }
            for f in chunks.into_remainder() {
                self.decode_to_slices(f.llrs, terminated, f.prev_lsbs, f.out);
            }
            i = j;
        }
    }

    /// Decodes hard bits (0/1) by mapping them to ±1 LLRs — the classical
    /// error-only decoder.
    ///
    /// # Panics
    ///
    /// Panics if any bit is not 0/1, or on the length conditions of
    /// [`ViterbiDecoder::decode`].
    pub fn decode_hard(&self, bits: &[u8], terminated: bool) -> Vec<u8> {
        let mut ws = ViterbiWorkspace::new();
        let mut llrs = Vec::new();
        let mut out = Vec::new();
        self.decode_hard_into(bits, terminated, &mut llrs, &mut ws, &mut out);
        out
    }

    /// [`ViterbiDecoder::decode_hard`] writing into caller-owned buffers:
    /// `llrs` receives the ±1 mapping and the decode funnels through
    /// [`ViterbiDecoder::decode_into`], so the hard path shares the soft
    /// kernels rather than drifting.
    ///
    /// # Panics
    ///
    /// As [`ViterbiDecoder::decode_hard`].
    pub fn decode_hard_into(
        &self,
        bits: &[u8],
        terminated: bool,
        llrs: &mut Vec<f64>,
        ws: &mut ViterbiWorkspace,
        out: &mut Vec<u8>,
    ) {
        llrs.clear();
        llrs.extend(bits.iter().map(|&b| {
            assert!(b <= 1, "hard bits must be 0 or 1, got {b}");
            if b == 0 {
                1.0
            } else {
                -1.0
            }
        }));
        self.decode_into(llrs, terminated, ws, out);
    }
}

const NEG: f64 = f64::NEG_INFINITY;

/// The per-frame ACS: one state per source-ordered butterfly, written as
/// plain scalar code that LLVM autovectorizes. Returns the final metrics.
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
            // keeps the lower-numbered predecessor on ties, matching
            // the src-ascending strict-improvement scan this butterfly
            // kernel replaced.
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

/// The lockstep ACS: the same trellis step of [`LANES`] equal-length
/// frames per op, metrics held state-major with one lane per frame (no
/// gathers at all — `metric[2j]` is already a lane row). Stages the lane
/// group's soft bits into `batch`'s SoA buffer so the per-step lane loads
/// are contiguous, then traces every frame back in one fused sweep.
///
/// Two further tricks keep the inner loop lean without changing a bit:
///
/// * branch metrics come from a 4-entry palette `[la+lb, la−lb, −(la−lb),
///   −(la+lb)]` indexed by the compile-time `TSEL` table — ±1 multiplies are exact
///   and IEEE rounding commutes with negation, so each selected value is
///   bitwise the scalar kernel's `sa·la + sb·lb`;
/// * survivor masks are stored lane-major as raw bytes in
///   `batch.mask_rows` (one store per destination state) instead of being
///   bit-scattered into per-frame `u64` rows, and the fused traceback
///   reads every lane's bit out of a step's row — one cache line — while
///   it is resident, one backward sweep for the whole group.
fn acs_lockstep(group: &mut [LaneFrame<'_>], terminated: bool, batch: &mut SymbolBatch) {
    debug_assert_eq!(group.len(), LANES);
    let steps = group[0].llrs.len() / 2;
    let soa = &mut batch.soa_llrs;
    if soa.len() < steps * 2 * LANES {
        soa.resize(steps * 2 * LANES, 0.0);
    }
    // Transpose lane-major: one linear sweep of the SoA buffer (each
    // cache line written once, all lanes while it is resident) instead of
    // a per-frame scatter that walks the whole buffer once per lane.
    let llrs: [&[f64]; LANES] = std::array::from_fn(|l| &group[l].llrs[..steps * 2]);
    for (i, dst) in soa[..steps * 2 * LANES].chunks_exact_mut(LANES).enumerate() {
        for (l, src) in llrs.iter().enumerate() {
            dst[l] = src[i];
        }
    }
    let masks = &mut batch.mask_rows;
    // Grow-only, no refill: every byte of the first `steps` rows is
    // stored by `lockstep_step` before traceback reads it.
    if masks.len() < steps * STATES {
        masks.resize(steps * STATES, 0);
    }
    let mut buf_a = [F64xL::splat(NEG); STATES];
    buf_a[0] = F64xL::splat(0.0);
    let mut buf_b = [F64xL::splat(NEG); STATES];
    // Straight-line ping-pong: a by-value swap of these buffers would
    // copy 8 KiB per step.
    let mut t = 0;
    while t + 2 <= steps {
        lockstep_step(soa, masks, t, &buf_a, &mut buf_b);
        lockstep_step(soa, masks, t + 1, &buf_b, &mut buf_a);
        t += 2;
    }
    let metric = if t < steps {
        lockstep_step(soa, masks, t, &buf_a, &mut buf_b);
        &buf_b
    } else {
        &buf_a
    };
    // Traceback, all lanes fused into one backward sweep: each step's
    // mask row is a single cache line, so reading every lane's bit while
    // it is resident costs one sweep of the rows instead of eight.
    let mut states = [0usize; LANES];
    for (l, state) in states.iter_mut().enumerate() {
        let mut col = [0.0; STATES];
        for (s, slot) in col.iter_mut().enumerate() {
            *slot = metric[s].0[l];
        }
        *state = start_state(&col, terminated);
    }
    for t in (0..steps).rev() {
        let row: &[u8; STATES] = (&masks[t * STATES..(t + 1) * STATES]).try_into().unwrap();
        for (l, (f, state)) in group.iter_mut().zip(states.iter_mut()).enumerate() {
            f.out[t] = (*state >> 5) as u8;
            let prev_lsb = ((row[*state] >> l) & 1) as usize;
            *state = ((*state & 0x1F) << 1) | prev_lsb;
        }
    }
}

/// One trellis step of [`acs_lockstep`]: reads step `t`'s lane rows from
/// `soa`, advances `metric` into `next` and stores the step's winner-mask
/// row into `masks`.
#[inline(always)]
fn lockstep_step(
    soa: &[f64],
    masks: &mut [u8],
    t: usize,
    metric: &[F64xL; STATES],
    next: &mut [F64xL; STATES],
) {
    let la = F64xL::load(&soa[2 * t * LANES..]);
    let lb = F64xL::load(&soa[(2 * t + 1) * LANES..]);
    let sum = la + lb;
    let diff = la - lb;
    let palette = [sum, diff, -diff, -sum];
    // Fixed-size row reference and `& 3` palette indices: both make every
    // bound in the hot loop provable, so no per-state branch survives.
    let row: &mut [u8; STATES] = (&mut masks[t * STATES..(t + 1) * STATES]).try_into().unwrap();
    // Fully unrolled over the 32 butterflies with literal `j`: the
    // `TSEL` lookups become compile-time constants, so each palette pick
    // folds to one of four register values instead of two dependent
    // loads per butterfly. LLVM does not unroll this far on its own.
    macro_rules! butterfly {
        ($($j:literal)+) => {$(
            let m0 = metric[2 * $j];
            let m1 = metric[2 * $j + 1];
            let t0 = palette[(TSEL[2 * $j] & 3) as usize];
            let t1 = palette[(TSEL[2 * $j + 1] & 3) as usize];
            let (lo, lo_mask) = F64xL::max_select(m0 + t0, m1 + t1);
            next[$j] = lo;
            row[$j] = lo_mask;
            let (hi, hi_mask) = F64xL::max_select(m0 - t0, m1 - t1);
            next[$j + STATES / 2] = hi;
            row[$j + STATES / 2] = hi_mask;
        )+};
    }
    const { assert!(STATES / 2 == 32, "the butterfly unroll covers exactly STATES / 2 entries") };
    butterfly!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
    butterfly!(16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31);
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
    fn hard_decode_matches_soft_on_clean_input() {
        let data = frame(100, 13);
        let coded = ConvEncoder::new().encode(&data);
        let dec = ViterbiDecoder::new();
        assert_eq!(dec.decode_hard(&coded, true), data);
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
    fn lockstep_matches_per_frame_including_remainders() {
        let dec = ViterbiDecoder::new();
        let mut batch = SymbolBatch::new();
        // Mixed lengths, batch sizes 1..=9: full lanes, remainders and
        // unequal-length groups all covered.
        for batch_size in 1..=9usize {
            let frames_data: Vec<(Vec<f64>, usize)> = (0..batch_size)
                .map(|k| {
                    let len = 40 + 20 * (k % 3);
                    let data = frame(len, k as u64 + 99);
                    let coded = ConvEncoder::new().encode(&data);
                    let llrs = noisy_llrs(&coded, k as u64 * 7 + 1);
                    let steps = llrs.len() / 2;
                    (llrs, steps)
                })
                .collect();
            let mut prevs: Vec<Vec<u64>> = frames_data.iter().map(|(_, s)| vec![0; *s]).collect();
            let mut outs: Vec<Vec<u8>> = frames_data.iter().map(|(_, s)| vec![0; *s]).collect();
            {
                let mut lane_frames: Vec<LaneFrame<'_>> = frames_data
                    .iter()
                    .zip(prevs.iter_mut().zip(outs.iter_mut()))
                    .map(|((llrs, _), (p, o))| LaneFrame { llrs, prev_lsbs: p, out: o })
                    .collect();
                dec.decode_lockstep(&mut lane_frames, true, &mut batch);
            }
            // Only the decoded bits are contracted to match — lane groups
            // keep their survivors in the SymbolBatch, not in prev_lsbs.
            for (k, (llrs, steps)) in frames_data.iter().enumerate() {
                let mut p = vec![0u64; *steps];
                let mut o = vec![0u8; *steps];
                dec.decode_to_slices(llrs, true, &mut p, &mut o);
                assert_eq!(outs[k], o, "batch={batch_size} frame={k} bits");
            }
        }
    }

    #[test]
    fn decode_hard_into_matches_owned() {
        let dec = ViterbiDecoder::new();
        let data = frame(150, 31);
        let coded = ConvEncoder::new().encode(&data);
        let mut ws = ViterbiWorkspace::new();
        let mut llrs = Vec::new();
        let mut out = Vec::new();
        dec.decode_hard_into(&coded, true, &mut llrs, &mut ws, &mut out);
        assert_eq!(out, dec.decode_hard(&coded, true));
        assert_eq!(out, data);
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

    #[test]
    #[should_panic(expected = "pairs")]
    fn lockstep_rejects_odd_frames() {
        let llrs = [1.0; 7];
        let mut p = [0u64; 3];
        let mut o = [0u8; 3];
        let mut frames = [LaneFrame { llrs: &llrs, prev_lsbs: &mut p, out: &mut o }];
        ViterbiDecoder::new().decode_lockstep(&mut frames, true, &mut SymbolBatch::new());
    }
}
