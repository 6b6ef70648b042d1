//! Kernel differential property tests: the lockstep Viterbi ACS kernel
//! must be **byte-equal** to the per-frame kernel over arbitrary LLR
//! streams (erasures included), frame lengths, termination flags and
//! batch sizes, covering the remainder and odd-batch paths of the
//! lockstep driver. Batches are compared on decoded bits (the lockstep
//! kernel keeps its survivors lane-major in the `SymbolBatch`, not in
//! `prev_lsbs`).

use cos_dsp::KernelMode;
use cos_fec::{LaneFrame, SymbolBatch, ViterbiDecoder};
use proptest::prelude::*;

/// Soft bits in a plausible LLR range; values near zero act as erasures,
/// so the streams exercise ties and the erasure-decoding path too.
fn arb_llrs(pairs: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-4.0f64..4.0, pairs * 2).prop_map(|mut v| {
        for x in v.iter_mut() {
            if x.abs() < 0.4 {
                *x = 0.0; // exact erasure
            }
        }
        v
    })
}

/// Decodes one frame with the per-frame kernel.
fn decode_frame(llrs: &[f64], terminated: bool) -> Vec<u8> {
    let steps = llrs.len() / 2;
    let mut prev = vec![0u64; steps];
    let mut out = vec![0u8; steps];
    ViterbiDecoder::new().decode_to_slices(llrs, terminated, &mut prev, &mut out);
    out
}

proptest! {
    #[test]
    fn lockstep_batches_are_byte_equal_to_scalar(
        lens in proptest::collection::vec(1usize..60, 1..9),
        pool in arb_llrs(120),
        t in 0usize..2,
    ) {
        let terminated = t == 1;
        // Frame k reads its soft bits from the shared pool at offset k, so
        // equal-length frames still carry different streams.
        let frames_llrs: Vec<Vec<f64>> = lens
            .iter()
            .enumerate()
            .map(|(k, &steps)| {
                (0..steps * 2).map(|i| pool[(i + 7 * k) % pool.len()]).collect()
            })
            .collect();

        let reference: Vec<Vec<u8>> =
            frames_llrs.iter().map(|llrs| decode_frame(llrs, terminated)).collect();

        let mut prevs: Vec<Vec<u64>> = lens.iter().map(|&s| vec![0u64; s]).collect();
        let mut outs: Vec<Vec<u8>> = lens.iter().map(|&s| vec![0u8; s]).collect();
        let mut lane_frames: Vec<LaneFrame<'_>> = frames_llrs
            .iter()
            .zip(prevs.iter_mut().zip(outs.iter_mut()))
            .map(|(llrs, (prev, out))| LaneFrame { llrs, prev_lsbs: prev, out })
            .collect();
        let mut batch = SymbolBatch::new();
        ViterbiDecoder::new().decode_lockstep_with(
            &mut lane_frames,
            terminated,
            KernelMode::Lanes,
            &mut batch,
        );
        drop(lane_frames);

        for (k, (bits, got_bits)) in reference.iter().zip(outs.iter()).enumerate() {
            prop_assert_eq!(bits, got_bits, "frame {}", k);
        }
    }

    #[test]
    fn lockstep_scalar_mode_is_byte_equal_too(
        lens in proptest::collection::vec(1usize..40, 1..6),
        pool in arb_llrs(80),
    ) {
        // The scalar lockstep path (per-frame scalar kernel) must decode
        // the same bits as the lane lockstep path as well.
        let frames_llrs: Vec<Vec<f64>> = lens
            .iter()
            .enumerate()
            .map(|(k, &steps)| {
                (0..steps * 2).map(|i| pool[(i + 11 * k) % pool.len()]).collect()
            })
            .collect();
        let run = |mode: KernelMode| -> Vec<Vec<u8>> {
            let mut prevs: Vec<Vec<u64>> = lens.iter().map(|&s| vec![0u64; s]).collect();
            let mut outs: Vec<Vec<u8>> = lens.iter().map(|&s| vec![0u8; s]).collect();
            let mut lane_frames: Vec<LaneFrame<'_>> = frames_llrs
                .iter()
                .zip(prevs.iter_mut().zip(outs.iter_mut()))
                .map(|(llrs, (prev, out))| LaneFrame { llrs, prev_lsbs: prev, out })
                .collect();
            let mut batch = SymbolBatch::new();
            ViterbiDecoder::new().decode_lockstep_with(&mut lane_frames, true, mode, &mut batch);
            drop(lane_frames);
            outs
        };
        prop_assert_eq!(run(KernelMode::Scalar), run(KernelMode::Lanes));
    }
}
