//! Channel-plane kernel differential property tests: the lane kernels
//! for the per-sample AWGN apply, the multipath tap convolution and the
//! `Overlap` power-mix must be **bit-identical** to their scalar
//! references over arbitrary SNRs, tap sets, overlap offsets/powers and
//! frame lengths.
//!
//! This mirrors the fec/dsp differentials from PR 9: every kernel is
//! compared by `f64::to_bits`, never by approximate equality, because
//! the engine's cross-thread digests and the frozen golden vectors both
//! assume the channel is a pure function of (seed, draw count).

use cos_channel::{Awgn, ChannelConfig, ImpairmentCtx, IndoorChannel, Overlap, OverlapComposer};
use cos_dsp::rng::{cases, Xoshiro256};
use cos_dsp::{Complex, KernelMode};

/// Up to `max_len` complex numbers with both parts uniform in
/// `[-1e2, 1e2)`: the length is drawn first, then the values.
fn signal(rng: &mut Xoshiro256, max_len: usize) -> Vec<Complex> {
    (0..rng.below(max_len + 1))
        .map(|_| {
            let re = -1e2 + rng.unit_f64() * 2e2;
            let im = -1e2 + rng.unit_f64() * 2e2;
            Complex::new(re, im)
        })
        .collect()
}

fn assert_bits_eq(a: &[Complex], b: &[Complex]) {
    assert_eq!(a.len(), b.len(), "length mismatch");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.re.to_bits(), y.re.to_bits());
        assert_eq!(x.im.to_bits(), y.im.to_bits());
    }
}

/// AWGN: the pre-draw + lane-apply path reproduces the scalar
/// `complex_normal` loop exactly, at any SNR and frame length.
#[test]
fn awgn_lane_kernel_is_bit_identical_to_scalar() {
    for mut rng in cases(64) {
        let signal = signal(&mut rng, 300);
        let snr_db = -10.0 + rng.unit_f64() * 60.0;
        let seed = rng.below(1_000_000) as u64;
        let noise_var = cos_channel::link::NOMINAL_TX_POWER
            / cos_dsp::db_to_linear(snr_db);
        let mut scalar = signal.clone();
        let mut lanes = signal;
        Awgn::new(noise_var, seed).add_noise_in_place_with(&mut scalar, KernelMode::Scalar);
        Awgn::new(noise_var, seed).add_noise_in_place_with(&mut lanes, KernelMode::Lanes);
        assert_bits_eq(&scalar, &lanes);
    }
}

/// AWGN draw-order: splitting one stream across calls of different
/// lengths and kernels never forks the RNG state.
#[test]
fn awgn_kernel_mix_preserves_rng_stream() {
    for mut rng in cases(64) {
        let signal = signal(&mut rng, 200);
        let split = rng.below(201);
        let seed = rng.below(1_000_000) as u64;
        let split = split.min(signal.len());
        let mut scalar = signal.clone();
        let mut mixed = signal;
        let mut a = Awgn::new(0.01, seed);
        let mut b = Awgn::new(0.01, seed);
        a.add_noise_in_place_with(&mut scalar, KernelMode::Scalar);
        let (head, tail) = mixed.split_at_mut(split);
        b.add_noise_in_place_with(head, KernelMode::Lanes);
        b.add_noise_in_place_with(tail, KernelMode::Scalar);
        assert_bits_eq(&scalar, &mixed);
    }
}

/// Multipath convolution: arbitrary tap counts, decay profiles and
/// K-factors, appended after arbitrary prefixes.
#[test]
fn conv_lane_kernel_is_bit_identical_to_scalar() {
    for mut rng in cases(64) {
        let signal = signal(&mut rng, 300);
        let n_taps = 1 + rng.below(16);
        let tap_decay = 0.05 + rng.unit_f64() * (1.0 - 0.05);
        let k_factor = rng.unit_f64() * 1000.0;
        let seed = rng.below(1_000_000) as u64;
        let prefix = rng.below(8);
        let cfg = ChannelConfig { n_taps, tap_decay, k_factor, ..ChannelConfig::default() };
        let ch = IndoorChannel::new(cfg, seed);
        let mut scalar = vec![Complex::ONE; prefix];
        let mut lanes = scalar.clone();
        ch.apply_append(&signal, &mut scalar);
        ch.apply_append_with(&signal, &mut lanes, KernelMode::Lanes);
        assert_bits_eq(&scalar, &lanes);
    }
}

/// Overlap power-mix: arbitrary interferer sets (offsets, powers,
/// seeds) against arbitrary victim lengths and noise floors.
#[test]
fn overlap_lane_kernel_is_bit_identical_to_scalar() {
    for mut rng in cases(64) {
        let signal = signal(&mut rng, 400);
        let specs: Vec<(f64, u32, u64)> = (0..rng.below(4))
            .map(|_| {
                let power_db = -20.0 + rng.unit_f64() * 60.0;
                (power_db, rng.below(1001) as u32, rng.below(1_000_000) as u64)
            })
            .collect();
        let noise_var = 1e-6 + rng.unit_f64() * (1e-1 - 1e-6);
        let mut composer = OverlapComposer::new();
        for (power_db, start_milli, seed) in specs {
            // Integer-mapped so start_frac covers the closed [0, 1] range.
            composer.push(Overlap::new(power_db, start_milli as f64 / 1000.0, seed));
        }
        let ctx = ImpairmentCtx { packet_index: 0, time_s: 0.0, noise_var };
        let mut scalar = signal.clone();
        let mut lanes = signal;
        composer.impair_waveform_with(&mut scalar, &ctx, KernelMode::Scalar);
        composer.impair_waveform_with(&mut lanes, &ctx, KernelMode::Lanes);
        assert_bits_eq(&scalar, &lanes);
    }
}
