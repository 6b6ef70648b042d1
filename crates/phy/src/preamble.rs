//! The 802.11a PLCP preamble (Clause 17.3.3): ten repetitions of the short
//! training symbol followed by a double guard interval and two long
//! training symbols.
//!
//! The simulator assumes ideal timing synchronisation (a documented
//! substitution for Sora's packet detector), so the short training field is
//! generated for waveform realism and power measurement while the **long
//! training field** does the real work: per-subcarrier channel estimation
//! and noise-variance estimation.

use crate::ofdm::FreqSymbol;
use crate::subcarriers::{bin_of, FFT_SIZE};
use cos_dsp::fft::plan;
use cos_dsp::Complex;
use std::sync::OnceLock;

/// Samples in the short training field (10 × 16).
pub const STF_LEN: usize = 160;
/// Samples in the long training field (32 GI + 2 × 64).
pub const LTF_LEN: usize = 160;
/// Total preamble length in samples (16 µs at 20 MHz).
pub const PREAMBLE_LEN: usize = STF_LEN + LTF_LEN;

/// The long-training-symbol subcarrier sequence `L_{-26..26}` (Clause
/// 17.3.3), DC = 0.
pub const LTF_SEQ: [i8; 53] = [
    1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, // -26..-1
    0, // DC
    1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, 1, 1, // 1..26
];

/// The value of the long-training sequence on subcarrier `idx`
/// (`-26..=26`); 0 outside the used band.
pub fn ltf_value(idx: i32) -> f64 {
    if !(-26..=26).contains(&idx) {
        return 0.0;
    }
    LTF_SEQ[(idx + 26) as usize] as f64
}

/// The frequency-domain long training symbol.
pub fn ltf_freq_symbol() -> FreqSymbol {
    let mut bins = [Complex::ZERO; FFT_SIZE];
    for idx in -26..=26 {
        if idx == 0 {
            continue;
        }
        bins[bin_of(idx)] = Complex::new(ltf_value(idx), 0.0);
    }
    FreqSymbol(bins)
}

/// The frequency-domain short training symbol (12 active subcarriers,
/// scaled by √(13/6) for unit average power over used bins).
pub fn stf_freq_symbol() -> FreqSymbol {
    let scale = (13.0 / 6.0f64).sqrt();
    let plus = Complex::new(1.0, 1.0).scale(scale); // √(13/6)·(1+j)
    let minus = -plus;
    let mut bins = [Complex::ZERO; FFT_SIZE];
    let actives: [(i32, Complex); 12] = [
        (-24, plus),
        (-20, minus),
        (-16, plus),
        (-12, minus),
        (-8, minus),
        (-4, plus),
        (4, minus),
        (8, minus),
        (12, plus),
        (16, plus),
        (20, plus),
        (24, plus),
    ];
    for (idx, v) in actives {
        bins[bin_of(idx)] = v;
    }
    FreqSymbol(bins)
}

/// Generates the full 320-sample preamble waveform.
pub fn generate() -> Vec<Complex> {
    let mut samples = Vec::with_capacity(PREAMBLE_LEN);
    generate_into(&mut samples);
    samples
}

/// [`generate`] writing into a caller-owned buffer, which is fully
/// overwritten.
pub fn generate_into(samples: &mut Vec<Complex>) {
    samples.clear();
    samples.extend_from_slice(waveform());
}

/// The preamble waveform, computed once per process by the same two
/// inverse FFTs and copied into every frame.
pub(crate) fn waveform() -> &'static [Complex; PREAMBLE_LEN] {
    static WAVEFORM: OnceLock<[Complex; PREAMBLE_LEN]> = OnceLock::new();
    WAVEFORM.get_or_init(|| {
        let fft = plan(FFT_SIZE);
        let mut samples = [Complex::ZERO; PREAMBLE_LEN];
        let (stf, ltf) = samples.split_at_mut(STF_LEN);

        // Short training field: IFFT of the STF symbol is periodic with
        // period 16; transmit 160 samples of it.
        let mut stf_time = stf_freq_symbol().0;
        fft.inverse(&mut stf_time);
        for (i, sample) in stf.iter_mut().enumerate() {
            *sample = stf_time[i % FFT_SIZE];
        }

        // Long training field: 32-sample guard (the tail of the LTF body)
        // then two identical 64-sample bodies.
        let mut ltf_time = ltf_freq_symbol().0;
        fft.inverse(&mut ltf_time);
        let (guard, bodies) = ltf.split_at_mut(32);
        guard.copy_from_slice(&ltf_time[FFT_SIZE - 32..]);
        for body in bodies.chunks_exact_mut(FFT_SIZE) {
            body.copy_from_slice(&ltf_time);
        }
        samples
    })
}

/// The sample ranges of the two LTF bodies within the preamble.
pub fn ltf_body_ranges() -> [std::ops::Range<usize>; 2] {
    let first = STF_LEN + 32;
    [first..first + FFT_SIZE, first + FFT_SIZE..first + 2 * FFT_SIZE]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ofdm::OfdmEngine;

    #[test]
    fn preamble_is_320_samples() {
        assert_eq!(generate().len(), 320);
    }

    #[test]
    fn ltf_sequence_is_pm_one_on_used_bins() {
        for idx in -26..=26i32 {
            let v = ltf_value(idx);
            if idx == 0 {
                assert_eq!(v, 0.0);
            } else {
                assert!(v == 1.0 || v == -1.0, "idx {idx}: {v}");
            }
        }
        assert_eq!(ltf_value(30), 0.0);
        assert_eq!(ltf_value(-31), 0.0);
    }

    #[test]
    fn ltf_bodies_are_identical() {
        let p = generate();
        let [r1, r2] = ltf_body_ranges();
        assert_eq!(&p[r1], &p[r2]);
    }

    #[test]
    fn stf_is_periodic_with_16_samples() {
        let p = generate();
        for i in 0..(STF_LEN - 16) {
            assert!((p[i] - p[i + 16]).norm() < 1e-12);
        }
    }

    #[test]
    fn ltf_body_demodulates_to_the_sequence() {
        let p = generate();
        let [r1, _] = ltf_body_ranges();
        let engine = OfdmEngine::new();
        let sym = engine.demodulate_body(&p[r1]);
        for idx in -26..=26i32 {
            if idx == 0 {
                continue;
            }
            let got = sym.0[bin_of(idx)];
            assert!((got.re - ltf_value(idx)).abs() < 1e-9, "idx {idx}");
            assert!(got.im.abs() < 1e-9);
        }
    }

    #[test]
    fn stf_active_subcarriers_every_fourth() {
        let sym = stf_freq_symbol();
        let active: Vec<i32> = (-26..=26)
            .filter(|&idx| idx != 0 && sym.0[bin_of(idx)].norm() > 0.0)
            .collect();
        assert_eq!(active.len(), 12);
        for idx in &active {
            assert_eq!(idx % 4, 0, "STF subcarrier {idx} not a multiple of 4");
        }
    }

    #[test]
    fn stf_power_is_normalised() {
        // Σ|S_k|² over the 12 active bins = 12 · (13/6 · 2) = 52, matching
        // the 52 used bins of data symbols.
        let sym = stf_freq_symbol();
        let power: f64 = sym.0.iter().map(|x| x.norm_sqr()).sum();
        assert!((power - 52.0).abs() < 1e-9, "STF power {power}");
    }
}
