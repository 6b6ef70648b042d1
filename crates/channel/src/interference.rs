//! Pulse interference — the strong co-channel bursts of the paper's
//! Fig. 10(d).
//!
//! The paper injects random pulse signals to show that strong interference
//! landing on a silence symbol raises its subcarrier energy above the
//! detection threshold, producing false negatives. The interferer here is
//! wideband (it hits all subcarriers of the symbols it covers) and bursty:
//! each OFDM-symbol-length window is independently covered with a given
//! probability. It is an [`Impairment`]: attach it to a link through a
//! [`FaultEngine`](crate::impairment::FaultEngine).

use crate::impairment::{Impairment, ImpairmentCtx};
use cos_dsp::{Complex, GaussianSource};

/// A random wideband pulse interferer.
#[derive(Debug, Clone)]
pub struct PulseInterferer {
    /// Interference power per sample while a pulse is active, relative to
    /// the same linear scale as the signal.
    power: f64,
    /// Probability that any given 80-sample window carries a pulse.
    duty: f64,
    /// Pulse length in samples.
    pulse_len: usize,
    rng: GaussianSource,
}

impl PulseInterferer {
    /// Creates an interferer.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is outside `[0, 1]`, `power` is negative, or
    /// `pulse_len` is zero.
    pub fn new(power: f64, duty: f64, pulse_len: usize, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&duty), "duty cycle must be in [0, 1], got {duty}");
        assert!(power >= 0.0 && power.is_finite(), "invalid interference power {power}");
        assert!(pulse_len > 0, "pulse length must be positive");
        PulseInterferer { power, duty, pulse_len, rng: GaussianSource::new(seed) }
    }

    /// The configured pulse power.
    pub fn power(&self) -> f64 {
        self.power
    }

    /// Adds pulses to a sample stream in place. Windows of `pulse_len`
    /// samples are independently struck with probability `duty`.
    pub fn apply_in_place(&mut self, samples: &mut [Complex]) {
        let mut start = 0;
        while start < samples.len() {
            let end = (start + self.pulse_len).min(samples.len());
            if self.rng.uniform() < self.duty {
                for x in &mut samples[start..end] {
                    *x += self.rng.complex_normal(self.power);
                }
            }
            start = end;
        }
    }

    /// Returns `samples + pulses`.
    pub fn apply(&mut self, samples: &[Complex]) -> Vec<Complex> {
        let mut out = samples.to_vec();
        self.apply_in_place(&mut out);
        out
    }
}

impl Impairment for PulseInterferer {
    fn name(&self) -> &'static str {
        "pulse_interference"
    }

    fn impair_waveform(&mut self, samples: &mut Vec<Complex>, _ctx: &ImpairmentCtx) {
        self.apply_in_place(samples);
    }

    fn boxed_clone(&self) -> Box<dyn Impairment> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_duty_is_transparent() {
        let mut i = PulseInterferer::new(10.0, 0.0, 80, 1);
        let tx = vec![Complex::ONE; 400];
        assert_eq!(i.apply(&tx), tx);
    }

    #[test]
    fn full_duty_strikes_everything() {
        let mut i = PulseInterferer::new(4.0, 1.0, 80, 2);
        let tx = vec![Complex::ZERO; 80 * 100];
        let rx = i.apply(&tx);
        let power: f64 = rx.iter().map(|x| x.norm_sqr()).sum::<f64>() / rx.len() as f64;
        assert!((power - 4.0).abs() / 4.0 < 0.1, "power {power}");
    }

    #[test]
    fn duty_cycle_hits_expected_fraction() {
        let mut i = PulseInterferer::new(100.0, 0.3, 80, 3);
        let tx = vec![Complex::ZERO; 80 * 1000];
        let rx = i.apply(&tx);
        let struck = rx
            .chunks(80)
            .filter(|w| w.iter().map(|x| x.norm_sqr()).sum::<f64>() > 1.0)
            .count();
        let frac = struck as f64 / 1000.0;
        assert!((frac - 0.3).abs() < 0.05, "struck fraction {frac}");
    }

    #[test]
    fn pulses_are_window_aligned() {
        let mut i = PulseInterferer::new(50.0, 0.5, 80, 4);
        let tx = vec![Complex::ZERO; 80 * 50];
        let rx = i.apply(&tx);
        for w in rx.chunks(80) {
            let energies: Vec<f64> = w.iter().map(|x| x.norm_sqr()).collect();
            let total: f64 = energies.iter().sum();
            if total > 1.0 {
                // A struck window is struck throughout, not partially.
                let nonzero = energies.iter().filter(|&&e| e > 0.0).count();
                assert_eq!(nonzero, 80);
            }
        }
    }

    #[test]
    #[should_panic(expected = "duty cycle")]
    fn invalid_duty_panics() {
        PulseInterferer::new(1.0, 1.5, 80, 0);
    }
}
