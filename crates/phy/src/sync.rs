//! Packet detection, timing synchronisation and carrier-frequency-offset
//! (CFO) estimation — the receiver front end that the Sora driver provides
//! in hardware-adjacent software.
//!
//! With this module the simulator no longer needs the "ideal timing"
//! substitution: a receiver can be handed a long sample stream containing
//! a frame at an unknown offset with an unknown CFO and recover both.
//!
//! * **Packet detection** — the short training field repeats every 16
//!   samples, so the normalised delay-16 autocorrelation
//!   `|Σ r[n]·r*[n+16]| / Σ|r[n]|²` forms a plateau near 1 over the STF.
//! * **Coarse CFO** — the phase of that same autocorrelation:
//!   `f̂ = arg(C)/(2π·16·T_s)`; unambiguous up to ±625 kHz.
//! * **Fine timing** — cross-correlation against the known 64-sample LTF
//!   body pins the symbol boundary to the sample.
//! * **Fine CFO** — the phase between the two identical LTF bodies
//!   (delay 64) refines the estimate to ±156 kHz ambiguity, which the
//!   coarse stage has already resolved.

use crate::preamble::{self, PREAMBLE_LEN, STF_LEN};
use crate::subcarriers::FFT_SIZE;
use cos_dsp::fft::plan;
use cos_dsp::Complex;
use std::sync::OnceLock;

/// The 20 MHz sample period in seconds.
pub const SAMPLE_PERIOD: f64 = 1.0 / 20e6;

/// Fine-timing search half-width around the coarse STF estimate, in
/// samples.
const SEARCH: usize = 24;

/// Result of a successful acquisition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Acquisition {
    /// Index of the first preamble sample in the stream.
    pub frame_start: usize,
    /// Estimated carrier frequency offset in Hz.
    pub cfo_hz: f64,
    /// The peak normalised STF autocorrelation (detection confidence).
    pub confidence: f64,
}

/// Synchroniser configuration.
#[derive(Debug, Clone, Copy)]
pub struct Synchronizer {
    /// Autocorrelation threshold for declaring a packet (0..1).
    pub detect_threshold: f64,
}

impl Default for Synchronizer {
    fn default() -> Self {
        Synchronizer { detect_threshold: 0.8 }
    }
}

impl Synchronizer {
    /// Creates a synchroniser with the given detection threshold.
    pub fn new(detect_threshold: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&detect_threshold),
            "threshold must be in [0, 1), got {detect_threshold}"
        );
        Synchronizer { detect_threshold }
    }

    /// Scans a stream for a frame; returns the acquisition or `None` if no
    /// preamble is found.
    ///
    /// The returned `frame_start` is exact to the sample for SNRs where
    /// the LTF cross-correlation peak dominates (≳ 0 dB).
    pub fn acquire(&self, samples: &[Complex]) -> Option<Acquisition> {
        if samples.len() < PREAMBLE_LEN + FFT_SIZE {
            return None;
        }

        // --- Stage 1: STF plateau detection (delay-16 autocorrelation).
        let coarse = self.detect_plateau(samples)?;

        // --- Stage 2: coarse CFO from the same correlation.
        let c16 = autocorrelation(samples, coarse, STF_LEN.min(samples.len() - coarse - 16), 16);
        let coarse_cfo = c16.arg() / (2.0 * std::f64::consts::PI * 16.0 * SAMPLE_PERIOD);

        // --- Stage 3: fine timing via LTF cross-correlation.
        // Search a window around the coarse estimate for the first LTF
        // body (which starts at frame_start + 192).
        let reference = ltf_reference();
        let lo = coarse.saturating_sub(SEARCH);
        let hi = (coarse + SEARCH).min(samples.len().saturating_sub(PREAMBLE_LEN));
        // Correlate with CFO pre-compensation so a large offset does not
        // destroy the peak. The rotation depends only on the absolute
        // sample index, and the candidates share all but one of theirs:
        // each of the ≤ 2·SEARCH + FFT_SIZE angles is evaluated once.
        let first = lo + STF_LEN + 32;
        let mut rot = [Complex::ZERO; 2 * SEARCH + FFT_SIZE];
        let used = ((hi + 1).saturating_sub(lo) + FFT_SIZE - 1).min(rot.len());
        for (k, w) in rot[..used].iter_mut().enumerate() {
            *w = Complex::from_angle(
                -2.0 * std::f64::consts::PI * coarse_cfo * (first + k) as f64 * SAMPLE_PERIOD,
            );
        }
        let mut best = (0.0f64, coarse);
        for cand in lo..=hi {
            let ltf1 = cand + STF_LEN + 32;
            if ltf1 + FFT_SIZE > samples.len() {
                break;
            }
            let rot = &rot[cand - lo..cand - lo + FFT_SIZE];
            let mut acc = Complex::ZERO;
            for ((&x, &w), r) in samples[ltf1..].iter().zip(rot).zip(reference) {
                acc += x * w * r.conj();
            }
            let metric = acc.norm();
            if metric > best.0 {
                best = (metric, cand);
            }
        }
        let frame_start = best.1;

        // --- Stage 4: fine CFO from the two LTF bodies (delay 64).
        let ltf1 = frame_start + STF_LEN + 32;
        let fine_window = FFT_SIZE.min(samples.len().saturating_sub(ltf1 + FFT_SIZE));
        let c64 = autocorrelation(samples, ltf1, fine_window, FFT_SIZE);
        let fine_cfo = c64.arg() / (2.0 * std::f64::consts::PI * FFT_SIZE as f64 * SAMPLE_PERIOD);
        // Resolve the ±156 kHz ambiguity of the fine estimate with the
        // coarse one.
        let ambiguity = 1.0 / (FFT_SIZE as f64 * SAMPLE_PERIOD);
        let k = ((coarse_cfo - fine_cfo) / ambiguity).round();
        let cfo_hz = fine_cfo + k * ambiguity;

        // Confidence: plateau correlation at the detected start.
        let conf = normalized_autocorrelation(samples, frame_start, STF_LEN - 16, 16);

        Some(Acquisition { frame_start, cfo_hz, confidence: conf })
    }

    /// Finds the start of the STF plateau; returns the sample index where
    /// the normalised correlation first exceeds the threshold and stays
    /// there.
    fn detect_plateau(&self, samples: &[Complex]) -> Option<usize> {
        let window = 64; // quarter of the STF
        let limit = samples.len().checked_sub(window + 16)?;
        let mut run = 0usize;
        const NEED: usize = 48;
        for n in 0..limit {
            let c = normalized_autocorrelation(samples, n, window, 16);
            if c > self.detect_threshold {
                run += 1;
                if run >= NEED {
                    // The plateau began `run` samples ago.
                    return Some(n + 1 - run);
                }
            } else {
                run = 0;
            }
        }
        None
    }
}

/// Removes a carrier frequency offset from a sample stream (in place),
/// rotating sample `n` by `e^{-j2π·f·n·T_s}`.
pub fn correct_cfo(samples: &mut [Complex], cfo_hz: f64) {
    let step = -2.0 * std::f64::consts::PI * cfo_hz * SAMPLE_PERIOD;
    let rot_step = Complex::from_angle(step);
    let mut rot = Complex::ONE;
    for s in samples.iter_mut() {
        *s *= rot;
        rot *= rot_step;
        // Renormalise occasionally to stop drift.
        if rot.norm_sqr() > 1.0000001 || rot.norm_sqr() < 0.9999999 {
            rot = rot.scale(1.0 / rot.norm());
        }
    }
}

/// Applies a carrier frequency offset (the channel impairment).
pub fn apply_cfo(samples: &mut [Complex], cfo_hz: f64) {
    correct_cfo(samples, -cfo_hz);
}

/// The delayed autocorrelation `Σ_{i<len} r[n+i]·r*[n+i+delay]`, conjugated
/// so a positive CFO yields a positive phase ramp.
fn autocorrelation(samples: &[Complex], start: usize, len: usize, delay: usize) -> Complex {
    let mut acc = Complex::ZERO;
    for i in 0..len {
        if start + i + delay >= samples.len() {
            break;
        }
        acc += samples[start + i].conj() * samples[start + i + delay];
    }
    acc
}

/// The normalised autocorrelation magnitude in `[0, 1]`, normalised by
/// the *larger* of the two window energies so a window that only
/// partially overlaps the signal cannot spike the ratio.
fn normalized_autocorrelation(samples: &[Complex], start: usize, len: usize, delay: usize) -> f64 {
    let c = autocorrelation(samples, start, len, delay);
    let mut e1 = 0.0;
    let mut e2 = 0.0;
    for i in 0..len {
        if start + i + delay >= samples.len() {
            break;
        }
        e1 += samples[start + i].norm_sqr();
        e2 += samples[start + i + delay].norm_sqr();
    }
    let denom = e1.max(e2);
    if denom <= 0.0 {
        0.0
    } else {
        c.norm() / denom
    }
}

/// The time-domain LTF body (64 samples), computed once per process.
fn ltf_reference() -> &'static [Complex; FFT_SIZE] {
    static BODY: OnceLock<[Complex; FFT_SIZE]> = OnceLock::new();
    BODY.get_or_init(|| {
        let mut body = preamble::ltf_freq_symbol().0;
        plan(FFT_SIZE).inverse(&mut body);
        body
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::DataRate;
    use crate::tx::Transmitter;
    use cos_dsp::GaussianSource;

    fn frame_samples() -> Vec<Complex> {
        Transmitter::new()
            .build_frame(&[0xA5; 300], DataRate::Mbps12, 0x5D)
            .to_time_samples()
    }

    fn with_offset_and_noise(offset: usize, snr_db: f64, seed: u64) -> Vec<Complex> {
        let frame = frame_samples();
        let sig_power = 52.0 / (64.0 * 64.0);
        let noise_var = sig_power / cos_dsp::db_to_linear(snr_db);
        let mut g = GaussianSource::new(seed);
        // Idle noise, then the frame, then idle noise again; AWGN over
        // the whole stream.
        let mut stream = vec![Complex::ZERO; offset];
        stream.extend_from_slice(&frame);
        stream.extend(std::iter::repeat_n(Complex::ZERO, 200));
        for s in &mut stream {
            *s += g.complex_normal(noise_var);
        }
        stream
    }

    #[test]
    fn clean_frame_is_found_exactly() {
        let mut stream = vec![Complex::ZERO; 500];
        stream.extend(frame_samples());
        let acq = Synchronizer::default().acquire(&stream).expect("found");
        assert_eq!(acq.frame_start, 500);
        assert!(acq.cfo_hz.abs() < 1.0, "phantom CFO {}", acq.cfo_hz);
        assert!(acq.confidence > 0.9);
    }

    #[test]
    fn noisy_frame_timing_is_sample_accurate() {
        for (offset, snr) in [(123usize, 15.0), (777, 10.0), (64, 20.0)] {
            let stream = with_offset_and_noise(offset, snr, 9);
            let acq = Synchronizer::default().acquire(&stream).expect("found");
            let err = acq.frame_start.abs_diff(offset);
            assert!(err <= 1, "offset {offset} @ {snr} dB: found {}", acq.frame_start);
        }
    }

    #[test]
    fn cfo_is_estimated_accurately() {
        for cfo in [-80e3f64, -12e3, 5e3, 47e3, 120e3] {
            let mut stream = vec![Complex::ZERO; 300];
            stream.extend(frame_samples());
            apply_cfo(&mut stream, cfo);
            let acq = Synchronizer::default().acquire(&stream).expect("found");
            let err = (acq.cfo_hz - cfo).abs();
            assert!(err < 500.0, "cfo {cfo}: estimated {} (err {err})", acq.cfo_hz);
        }
    }

    #[test]
    fn cfo_correction_inverts_application() {
        let mut samples = frame_samples();
        let original = samples.clone();
        apply_cfo(&mut samples, 33e3);
        correct_cfo(&mut samples, 33e3);
        let err: f64 = samples
            .iter()
            .zip(&original)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-6, "residual {err}");
    }

    #[test]
    fn pure_noise_is_not_detected() {
        let mut g = GaussianSource::new(3);
        let noise: Vec<Complex> = (0..4000).map(|_| g.complex_normal(1.0)).collect();
        assert_eq!(Synchronizer::default().acquire(&noise), None);
    }

    #[test]
    fn constant_tone_is_not_mistaken_for_a_frame() {
        // A CW tone has perfect delay-16 correlation but no LTF; the
        // plateau detector will fire, but timing lock then lands
        // somewhere — confidence checks and downstream SIGNAL decoding
        // reject it. Here we only require no panic and, if "detected",
        // a finite CFO.
        let tone: Vec<Complex> = (0..3000)
            .map(|n| Complex::from_angle(2.0 * std::f64::consts::PI * 0.01 * n as f64))
            .collect();
        if let Some(acq) = Synchronizer::default().acquire(&tone) {
            assert!(acq.cfo_hz.is_finite());
        }
    }

    #[test]
    fn short_stream_returns_none() {
        assert_eq!(Synchronizer::default().acquire(&[Complex::ONE; 50]), None);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn invalid_threshold_panics() {
        Synchronizer::new(1.5);
    }
}
