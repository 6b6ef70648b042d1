//! Property-based tests for the DSP primitives.

use cos_dsp::fft::{dft_reference, Fft};
use cos_dsp::rng::{cases, Xoshiro256};
use cos_dsp::{db_to_linear, linear_to_db, Complex, GaussianSource, Prbs127};

/// A complex number with both parts uniform in `[-1e3, 1e3)`.
fn complex(rng: &mut Xoshiro256) -> Complex {
    let re = -1e3 + rng.unit_f64() * 2e3;
    let im = -1e3 + rng.unit_f64() * 2e3;
    Complex::new(re, im)
}

/// `len` such numbers. The length is drawn first, a fixed one included,
/// as every vector's is.
fn signal(rng: &mut Xoshiro256, len: usize) -> Vec<Complex> {
    let len = len + rng.below(1);
    (0..len).map(|_| complex(rng)).collect()
}

#[test]
fn fft_ifft_is_identity() {
    for mut rng in cases(64) {
        let signal = signal(&mut rng, 64);
        let plan = Fft::new(64);
        let mut buf = signal.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (got, want) in buf.iter().zip(&signal) {
            assert!((*got - *want).norm() < 1e-9);
        }
    }
}

#[test]
fn fft_matches_reference_dft() {
    for mut rng in cases(64) {
        let signal = signal(&mut rng, 32);
        let mut got = signal.clone();
        Fft::new(32).forward(&mut got);
        let want = dft_reference(&signal);
        for (g, w) in got.iter().zip(&want) {
            assert!((*g - *w).norm() < 1e-6 * (1.0 + w.norm()));
        }
    }
}

#[test]
fn fft_preserves_energy() {
    for mut rng in cases(64) {
        let signal = signal(&mut rng, 16);
        let time: f64 = signal.iter().map(|x| x.norm_sqr()).sum();
        let mut buf = signal;
        Fft::new(16).forward(&mut buf);
        let freq: f64 = buf.iter().map(|x| x.norm_sqr()).sum();
        assert!((freq - 16.0 * time).abs() <= 1e-6 * (1.0 + freq));
    }
}

#[test]
fn complex_field_axioms() {
    for mut rng in cases(64) {
        let a = complex(&mut rng);
        let b = complex(&mut rng);
        let c = complex(&mut rng);
        let assoc = (a * b) * c - a * (b * c);
        assert!(assoc.norm() < 1e-6 * (1.0 + a.norm() * b.norm() * c.norm()));
        let distrib = a * (b + c) - (a * b + a * c);
        assert!(distrib.norm() < 1e-6 * (1.0 + a.norm() * (b.norm() + c.norm())));
        assert!((a.conj() * a).im.abs() < 1e-9 * (1.0 + a.norm_sqr()));
    }
}

#[test]
fn db_conversion_roundtrip() {
    for mut rng in cases(64) {
        let x = 1e-12 + rng.unit_f64() * (1e12 - 1e-12);
        let db = linear_to_db(x);
        assert!((db_to_linear(db) - x).abs() / x < 1e-10);
    }
}

#[test]
fn prbs_period_divides_cycle() {
    for mut rng in cases(64) {
        let seed = 1 + rng.below(0x7F) as u8;
        // Running any non-zero seed for 127 steps returns to the seed state.
        let mut lfsr = Prbs127::new(seed);
        for _ in 0..127 {
            lfsr.next_bit();
        }
        assert_eq!(lfsr.state(), seed);
    }
}

#[test]
fn prbs_shifted_seeds_give_shifted_sequences() {
    for mut rng in cases(64) {
        let offset = 1 + rng.below(126);
        // The all-ones sequence is a single orbit: advancing the register by
        // `offset` then reading 127 bits equals rotating the base sequence.
        let mut base = Prbs127::new(0x7F);
        let seq = base.bits(127);
        let mut shifted = Prbs127::new(0x7F);
        shifted.bits(offset);
        let got = shifted.bits(127);
        let want: Vec<u8> = (0..127).map(|i| seq[(i + offset) % 127]).collect();
        assert_eq!(got, want);
    }
}

#[test]
fn batch_normals_equal_repeated_scalar_draws() {
    for mut rng in cases(64) {
        let seed = rng.below(1_000_000) as u64;
        let spare = rng.below(2) as u8;
        let splits: Vec<usize> = (0..rng.below(8)).map(|_| rng.below(70)).collect();
        // `spare` single draws first leave a pending Box–Muller spare (or
        // not); then a run of batch fills of random lengths, each checked
        // by `to_bits` against the one-at-a-time stream.
        let mut batch = GaussianSource::new(seed);
        let mut scalar = batch.clone();
        for _ in 0..spare {
            assert_eq!(batch.standard_normal().to_bits(), scalar.standard_normal().to_bits());
        }
        for len in splits {
            let mut row = vec![0.0; len];
            batch.fill_standard_normal(&mut row);
            for x in row {
                assert_eq!(x.to_bits(), scalar.standard_normal().to_bits());
            }
        }
        // The spare state left behind matches too.
        assert_eq!(batch.standard_normal().to_bits(), scalar.standard_normal().to_bits());
        assert_eq!(batch.uniform().to_bits(), scalar.uniform().to_bits());
    }
}
