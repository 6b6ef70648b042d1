//! Kernel differential property tests: the `i16` Viterbi
//! (`ViterbiDecoder::decode_i16_with`, on both bodies where the build has
//! them — the `avx512bw` one under `KernelMode::Lanes` and the portable
//! one under `KernelMode::Scalar`) must equal the `f64` reference decoder
//! (`decode_to_slices`) on the same integer soft bits within `±SOFT_MAX`.
//!
//! Compared: the decoded bits, terminated and unterminated (the kernel's
//! modular argmax against the reference's last-max-on-ties), and every
//! survivor word from step K − 1 = 6 on — before it the reference holds
//! −∞ in the states the encoder cannot reach yet, the kernel a finite
//! floor, and their tie-breaks there may differ.
//!
//! Inputs: lengths from 1 to 2¹³ steps; random soft bits with a share
//! saturated at `±SOFT_MAX` and erasure runs; all-zero frames; and
//! adversarial full-magnitude streams (alternating `±SOFT_MAX` pairs and
//! random full-magnitude signs), which drive the metric spread to its
//! bound.

use cos_dsp::rng::cases;
use cos_dsp::KernelMode;
use cos_fec::viterbi::SOFT_MAX;
use cos_fec::{LaneFrame, SymbolBatch, ViterbiDecoder};

/// The survivor words before this step may differ from the reference's.
const WARM_UP: usize = 6;

/// A soft-bit stream of `steps` trellis steps in the given `shape`.
fn stream(steps: usize, shape: u8, seed: u64) -> Vec<i16> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let full = |r: u64| if r & 1 == 0 { SOFT_MAX } else { -SOFT_MAX };
    let mut erase = 0usize;
    (0..2 * steps)
        .map(|i| match shape {
            // Random soft bits, one in eight saturated, with erasure runs.
            0 => {
                let r = next();
                if erase == 0 && r % 29 == 0 {
                    erase = 1 + (r >> 8) as usize % 40;
                }
                if erase > 0 {
                    erase -= 1;
                    0
                } else if (r >> 16) % 8 == 0 {
                    full(r >> 20)
                } else {
                    ((r >> 24) % (2 * SOFT_MAX as u64 + 1)) as i16 - SOFT_MAX
                }
            }
            // Nothing known at all: every path ties.
            1 => 0,
            // Alternating full-magnitude pairs: (+, +), (−, −), …
            2 => full((i / 2) as u64),
            // Full magnitude, random signs.
            _ => full(next()),
        })
        .collect()
}

/// The reference decoder's survivor words and bits on the same values.
fn reference(llrs: &[i16], terminated: bool) -> (Vec<u64>, Vec<u8>) {
    let wide: Vec<f64> = llrs.iter().map(|&l| f64::from(l)).collect();
    let steps = llrs.len() / 2;
    let (mut prev, mut out) = (vec![0u64; steps], vec![0u8; steps]);
    ViterbiDecoder::new().decode_to_slices(&wide, terminated, &mut prev, &mut out);
    (prev, out)
}

/// The `i16` kernel's survivor words and bits on one body.
fn kernel(llrs: &[i16], terminated: bool, mode: KernelMode) -> (Vec<u64>, Vec<u8>) {
    let steps = llrs.len() / 2;
    let (mut prev, mut out) = (vec![0u64; steps], vec![0u8; steps]);
    ViterbiDecoder::new().decode_i16_with(llrs, terminated, mode, &mut prev, &mut out);
    (prev, out)
}

fn check(llrs: &[i16], terminated: bool) {
    let (want_prev, want_out) = reference(llrs, terminated);
    for mode in [KernelMode::Lanes, KernelMode::Scalar] {
        let (prev, out) = kernel(llrs, terminated, mode);
        assert_eq!(out, want_out, "{mode:?}, terminated {terminated}, {} steps", out.len());
        let from = WARM_UP.min(prev.len());
        assert_eq!(prev[from..], want_prev[from..], "{mode:?}, {} steps", prev.len());
    }
}

#[test]
fn i16_kernel_equals_the_f64_reference() {
    for mut rng in cases(96) {
        // Short, medium and long frames equally often.
        let steps = match rng.below(3) {
            0 => 1 + rng.below(63),
            1 => 64 + rng.below(960),
            _ => 1024 + rng.below(7169),
        };
        let shape = rng.below(4) as u8;
        let seed = rng.next_u64();
        let t = rng.below(2);
        check(&stream(steps, shape, seed), t == 1);
    }
}

#[test]
fn lockstep_shim_decodes_each_frame_like_the_kernel() {
    for mut rng in cases(96) {
        let lens: Vec<usize> = (0..1 + rng.below(8)).map(|_| 1 + rng.below(299)).collect();
        let seed = rng.next_u64();
        let frames: Vec<Vec<i16>> =
            lens.iter().enumerate().map(|(k, &s)| stream(s, 0, seed ^ k as u64)).collect();
        let mut prevs: Vec<Vec<u64>> = lens.iter().map(|&s| vec![0; s]).collect();
        let mut outs: Vec<Vec<u8>> = lens.iter().map(|&s| vec![0; s]).collect();
        let mut lane_frames: Vec<LaneFrame<'_>> = frames
            .iter()
            .zip(prevs.iter_mut().zip(outs.iter_mut()))
            .map(|(llrs, (prev, out))| LaneFrame { llrs, prev_lsbs: prev, out })
            .collect();
        ViterbiDecoder::new().decode_lockstep(&mut lane_frames, true, &mut SymbolBatch::new());
        drop(lane_frames);
        for (k, llrs) in frames.iter().enumerate() {
            let (prev, out) = kernel(llrs, true, KernelMode::Lanes);
            assert_eq!(&outs[k], &out, "frame {}", k);
            assert_eq!(&prevs[k], &prev, "frame {}", k);
        }
    }
}

#[test]
fn every_shape_at_the_edge_lengths() {
    for steps in [1, 2, 5, 6, 7, 63, 64, 65, 127, 128, 129] {
        for shape in 0..4 {
            for terminated in [true, false] {
                check(&stream(steps, shape, 0x5EED ^ steps as u64), terminated);
            }
        }
    }
}
