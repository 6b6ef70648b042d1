//! Property-based tests for the DSP primitives.

use cos_dsp::fft::{dft_reference, Fft};
use cos_dsp::{db_to_linear, linear_to_db, Complex, GaussianSource, Prbs127};
use proptest::prelude::*;

fn arb_complex() -> impl Strategy<Value = Complex> {
    (-1e3f64..1e3, -1e3f64..1e3).prop_map(|(re, im)| Complex::new(re, im))
}

fn arb_signal(len: usize) -> impl Strategy<Value = Vec<Complex>> {
    proptest::collection::vec(arb_complex(), len)
}

proptest! {
    #[test]
    fn fft_ifft_is_identity(signal in arb_signal(64)) {
        let plan = Fft::new(64);
        let mut buf = signal.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (got, want) in buf.iter().zip(&signal) {
            prop_assert!((*got - *want).norm() < 1e-9);
        }
    }

    #[test]
    fn fft_matches_reference_dft(signal in arb_signal(32)) {
        let mut got = signal.clone();
        Fft::new(32).forward(&mut got);
        let want = dft_reference(&signal);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((*g - *w).norm() < 1e-6 * (1.0 + w.norm()));
        }
    }

    #[test]
    fn fft_preserves_energy(signal in arb_signal(16)) {
        let time: f64 = signal.iter().map(|x| x.norm_sqr()).sum();
        let mut buf = signal;
        Fft::new(16).forward(&mut buf);
        let freq: f64 = buf.iter().map(|x| x.norm_sqr()).sum();
        prop_assert!((freq - 16.0 * time).abs() <= 1e-6 * (1.0 + freq));
    }

    #[test]
    fn complex_field_axioms(a in arb_complex(), b in arb_complex(), c in arb_complex()) {
        let assoc = (a * b) * c - a * (b * c);
        prop_assert!(assoc.norm() < 1e-6 * (1.0 + a.norm() * b.norm() * c.norm()));
        let distrib = a * (b + c) - (a * b + a * c);
        prop_assert!(distrib.norm() < 1e-6 * (1.0 + a.norm() * (b.norm() + c.norm())));
        prop_assert!((a.conj() * a).im.abs() < 1e-9 * (1.0 + a.norm_sqr()));
    }

    #[test]
    fn db_conversion_roundtrip(x in 1e-12f64..1e12) {
        let db = linear_to_db(x);
        prop_assert!((db_to_linear(db) - x).abs() / x < 1e-10);
    }

    #[test]
    fn prbs_period_divides_cycle(seed in 1u8..0x80) {
        // Running any non-zero seed for 127 steps returns to the seed state.
        let mut lfsr = Prbs127::new(seed);
        for _ in 0..127 {
            lfsr.next_bit();
        }
        prop_assert_eq!(lfsr.state(), seed);
    }

    #[test]
    fn prbs_shifted_seeds_give_shifted_sequences(offset in 1usize..127) {
        // The all-ones sequence is a single orbit: advancing the register by
        // `offset` then reading 127 bits equals rotating the base sequence.
        let mut base = Prbs127::new(0x7F);
        let seq = base.bits(127);
        let mut shifted = Prbs127::new(0x7F);
        shifted.bits(offset);
        let got = shifted.bits(127);
        let want: Vec<u8> = (0..127).map(|i| seq[(i + offset) % 127]).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn batch_normals_equal_repeated_scalar_draws(
        seed in 0u64..1_000_000,
        spare in 0u8..2,
        splits in proptest::collection::vec(0usize..70, 0..8),
    ) {
        // `spare` single draws first leave a pending Box–Muller spare (or
        // not); then a run of batch fills of random lengths, each checked
        // by `to_bits` against the one-at-a-time stream.
        let mut batch = GaussianSource::new(seed);
        let mut scalar = batch.clone();
        for _ in 0..spare {
            prop_assert_eq!(batch.standard_normal().to_bits(), scalar.standard_normal().to_bits());
        }
        for len in splits {
            let mut row = vec![0.0; len];
            batch.fill_standard_normal(&mut row);
            for x in row {
                prop_assert_eq!(x.to_bits(), scalar.standard_normal().to_bits());
            }
        }
        // The spare state left behind matches too.
        prop_assert_eq!(batch.standard_normal().to_bits(), scalar.standard_normal().to_bits());
        prop_assert_eq!(batch.uniform().to_bits(), scalar.uniform().to_bits());
    }
}


/// The proptest shim keeps an inline copy of the generator for its case
/// RNG (it cannot depend on this crate); the two must draw the same words
/// so every property keeps exploring the cases it always has.
#[test]
fn case_rng_is_the_workspace_generator() {
    use cos_dsp::rng::Xoshiro256;
    use proptest::test_runner::TestRng;
    for case in [0u32, 1, 2, 63, 255, u32::MAX] {
        let mut shim = TestRng::deterministic(case);
        let mut ours = Xoshiro256::new(0xC05_5EED ^ ((case as u64) << 1));
        for _ in 0..16 {
            assert_eq!(shim.next_u64(), ours.next_u64(), "case {case}");
        }
        assert_eq!(shim.unit_f64().to_bits(), ours.unit_f64().to_bits(), "case {case}");
        assert_eq!(shim.below(48), ours.below(48), "case {case}");
    }
}
