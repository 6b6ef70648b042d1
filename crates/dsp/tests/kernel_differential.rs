//! Kernel differential property tests: the in-register 64-point lane FFT
//! must be **bit-identical** to the scalar radix-2 recursion, forward and
//! inverse, over arbitrary finite symbols — and the lane mode must leave
//! every other plan length on the scalar path.

use cos_dsp::fft::Fft;
use cos_dsp::{Complex, KernelMode};
use proptest::prelude::*;

fn arb_signal(len: usize) -> impl Strategy<Value = Vec<Complex>> {
    proptest::collection::vec(
        (-1e3f64..1e3, -1e3f64..1e3).prop_map(|(re, im)| Complex::new(re, im)),
        len,
    )
}

fn assert_bits_eq(a: &[Complex], b: &[Complex]) {
    for (k, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "re of bin {k}");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "im of bin {k}");
    }
}

/// One finite `f64` from a raw word, by class: `±0.0`, a subnormal, a
/// normal value in `[1e-3, 1e3)`-ish binades, or a normal value anywhere
/// from the smallest normal up to ~1e300 (no overflow is possible: 64
/// such values sum to < 1e303).
fn finite(word: u64) -> f64 {
    let sign = word >> 63 << 63;
    let mantissa = word & ((1 << 52) - 1);
    // An exponent draw decorrelated from the class bits.
    let e = word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    let exponent = match (word >> 52) & 0x7 {
        0 => return f64::from_bits(sign),
        1 => return f64::from_bits(sign | mantissa.max(1)),
        2..=4 => 1023 - 10 + e % 21,
        _ => 1 + e % (1023 + 996),
    };
    f64::from_bits(sign | exponent << 52 | mantissa)
}

/// A 64-bin symbol from raw words. `shape` picks one of: every value
/// finite-random; all zeros (signed zeros mixed); or random with a
/// random subset of bins silenced to `±0.0`, the CoS silence.
fn symbol(words: &[u64], shape: u64) -> Vec<Complex> {
    let mut sym: Vec<Complex> =
        words.chunks_exact(2).map(|w| Complex::new(finite(w[0]), finite(w[1]))).collect();
    match shape % 4 {
        0 | 1 => {}
        2 => {
            for (k, x) in sym.iter_mut().enumerate() {
                let z = if (shape >> (k % 60)) & 1 == 1 { -0.0 } else { 0.0 };
                *x = Complex::new(z, if k % 3 == 0 { -z } else { z });
            }
        }
        _ => {
            for (k, x) in sym.iter_mut().enumerate() {
                if (shape >> (k % 61 + 2)) & 1 == 1 {
                    *x = Complex::new(0.0, -0.0);
                }
            }
        }
    }
    sym
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn lane_kernel_is_bit_identical_to_scalar_radix2(
        words in proptest::collection::vec(any::<u64>(), 128),
        shape in any::<u64>(),
    ) {
        let plan = Fft::new(64);
        let input = symbol(&words, shape);
        let (mut scalar, mut lanes) = (input.clone(), input.clone());
        plan.forward_with(&mut scalar, KernelMode::Scalar);
        plan.forward_with(&mut lanes, KernelMode::Lanes);
        assert_bits_eq(&scalar, &lanes);

        let (mut scalar, mut lanes) = (input.clone(), input);
        plan.inverse_with(&mut scalar, KernelMode::Scalar);
        plan.inverse_with(&mut lanes, KernelMode::Lanes);
        assert_bits_eq(&scalar, &lanes);
    }
}

proptest! {
    #[test]
    fn lane_fft_is_bit_identical_to_scalar(
        signal in arb_signal(128),
        len_idx in 0usize..4,
        inverse in 0usize..2,
    ) {
        let n = [8, 16, 64, 128][len_idx];
        let plan = Fft::new(n);
        let mut scalar = signal[..n].to_vec();
        let mut lanes = signal[..n].to_vec();
        if inverse == 1 {
            plan.inverse_with(&mut scalar, KernelMode::Scalar);
            plan.inverse_with(&mut lanes, KernelMode::Lanes);
        } else {
            plan.forward_with(&mut scalar, KernelMode::Scalar);
            plan.forward_with(&mut lanes, KernelMode::Lanes);
        }
        assert_bits_eq(&scalar, &lanes);
    }
}

#[test]
fn generator_covers_every_value_class() {
    // The property above is only as strong as its inputs: check the
    // generator reaches signed zeros, subnormals and both magnitude ends.
    let mut seen = [false; 5];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..4096 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let x = finite(state);
        assert!(x.is_finite());
        seen[0] |= x == 0.0 && x.is_sign_positive();
        seen[1] |= x == 0.0 && x.is_sign_negative();
        seen[2] |= x.is_subnormal();
        seen[3] |= x.abs() > 1e250;
        seen[4] |= (1e-3..1e3).contains(&x.abs());
    }
    assert_eq!(seen, [true; 5]);
}
