//! OFDM symbol modulation and demodulation (IFFT/CP and CP-strip/FFT).
//!
//! The transmitter implements Eq. (3) of the paper — a 64-point IFFT over
//! the frequency-domain symbol vector — and the receiver Eq. (4), the
//! matching FFT. Inserting a **silence symbol** is nothing more than
//! feeding 0 instead of a modulated point into the IFFT for that
//! subcarrier, which is exactly how [`crate::tx::TxFrame::silence`] works.

use crate::subcarriers::{DATA_BINS, FFT_SIZE, CP_LEN, PILOT_BINS, PILOT_VALUES, SYMBOL_LEN};
use cos_dsp::fft::{plan, Fft};
use cos_dsp::Complex;

/// A frequency-domain OFDM symbol: 64 FFT bins.
#[derive(Debug, Clone, PartialEq)]
pub struct FreqSymbol(pub [Complex; FFT_SIZE]);

impl Default for FreqSymbol {
    fn default() -> Self {
        FreqSymbol([Complex::ZERO; FFT_SIZE])
    }
}

impl FreqSymbol {
    /// An all-null symbol.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Assembles a DATA/SIGNAL symbol from 48 constellation points in
    /// logical data order plus the pilot polarity `p_n` (+1/−1).
    ///
    /// # Panics
    ///
    /// Panics if `points.len() != 48` or `polarity` is not ±1.
    pub fn assemble(points: &[Complex], polarity: i8) -> Self {
        let mut symbol = FreqSymbol::empty();
        symbol.assemble_into(points, polarity);
        symbol
    }

    /// [`FreqSymbol::assemble`] in place: every bin is overwritten, so a
    /// frame's symbols are assembled where they live instead of built
    /// and copied.
    ///
    /// # Panics
    ///
    /// As [`FreqSymbol::assemble`].
    pub(crate) fn assemble_into(&mut self, points: &[Complex], polarity: i8) {
        assert_eq!(points.len(), 48, "need 48 data points, got {}", points.len());
        assert!(polarity == 1 || polarity == -1, "pilot polarity must be ±1");
        let bins = &mut self.0;
        *bins = [Complex::ZERO; FFT_SIZE];
        for (&p, &bin) in points.iter().zip(DATA_BINS.iter()) {
            bins[bin] = p;
        }
        for (&bin, base) in PILOT_BINS.iter().zip(PILOT_VALUES.iter()) {
            bins[bin] = Complex::new(base * polarity as f64, 0.0);
        }
    }

    /// The 48 data-subcarrier values in logical order.
    pub fn data_points(&self) -> [Complex; 48] {
        let mut out = [Complex::ZERO; 48];
        for (slot, &bin) in out.iter_mut().zip(DATA_BINS.iter()) {
            *slot = self.0[bin];
        }
        out
    }

    /// The 4 pilot values in [`crate::subcarriers::PILOT_INDICES`] order.
    pub fn pilot_points(&self) -> [Complex; 4] {
        PILOT_BINS.map(|bin| self.0[bin])
    }
}

/// A reusable OFDM modulator/demodulator over the cached 64-point FFT
/// plan.
///
/// Every symbol goes through [`Fft::forward`]/[`Fft::inverse`] in place:
/// [`OfdmEngine::modulate_into`] writes the IFFT body straight into a
/// caller-owned 80-sample slot and [`OfdmEngine::demodulate_into`] the
/// FFT bins straight into a caller-owned [`FreqSymbol`], so the TX render
/// and the RX front end move no symbol-sized arrays by value. In
/// [`cos_dsp::KernelMode::Lanes`] the transform is the in-register lane
/// kernel, bit-identical to the scalar recursion.
#[derive(Debug, Clone)]
pub struct OfdmEngine {
    fft: &'static Fft,
}

impl Default for OfdmEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl OfdmEngine {
    /// Creates an engine with a 64-point plan.
    pub fn new() -> Self {
        OfdmEngine { fft: plan(FFT_SIZE) }
    }

    /// Modulates a frequency-domain symbol to 80 time samples
    /// (16-sample cyclic prefix + 64-sample IFFT body).
    pub fn modulate(&self, sym: &FreqSymbol) -> [Complex; SYMBOL_LEN] {
        let mut out = [Complex::ZERO; SYMBOL_LEN];
        self.modulate_into(sym, &mut out);
        out
    }

    /// [`OfdmEngine::modulate`] into a caller-owned slot, fully
    /// overwritten: the IFFT runs in place on the body, then the cyclic
    /// prefix copies its tail.
    pub fn modulate_into(&self, sym: &FreqSymbol, out: &mut [Complex; SYMBOL_LEN]) {
        let body = &mut out[CP_LEN..];
        body.copy_from_slice(&sym.0);
        self.fft.inverse(body);
        out.copy_within(FFT_SIZE.., 0);
    }

    /// Demodulates 80 received samples back to frequency-domain bins,
    /// discarding the cyclic prefix.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len() != 80`.
    pub fn demodulate(&self, samples: &[Complex]) -> FreqSymbol {
        let mut sym = FreqSymbol::empty();
        self.demodulate_into(samples, &mut sym);
        sym
    }

    /// [`OfdmEngine::demodulate`] into a caller-owned symbol, fully
    /// overwritten: the body is copied in and transformed in place.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len() != 80`.
    pub fn demodulate_into(&self, samples: &[Complex], sym: &mut FreqSymbol) {
        assert_eq!(samples.len(), SYMBOL_LEN, "an OFDM symbol is {SYMBOL_LEN} samples");
        sym.0.copy_from_slice(&samples[CP_LEN..]);
        self.fft.forward(&mut sym.0);
    }

    /// Demodulates a bare 64-sample body (no cyclic prefix) — used for the
    /// two long-training symbols whose guard interval is shared.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len() != 64`.
    pub fn demodulate_body(&self, samples: &[Complex]) -> FreqSymbol {
        assert_eq!(samples.len(), FFT_SIZE, "an OFDM body is {FFT_SIZE} samples");
        let mut body = [Complex::ZERO; FFT_SIZE];
        body.copy_from_slice(samples);
        self.fft.forward(&mut body);
        FreqSymbol(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constellation::Modulation;

    fn test_points() -> Vec<Complex> {
        (0..48)
            .map(|i| Modulation::Qpsk.map(&[(i % 2) as u8, ((i / 2) % 2) as u8]))
            .collect()
    }

    #[test]
    fn modulate_demodulate_roundtrip() {
        let engine = OfdmEngine::new();
        let sym = FreqSymbol::assemble(&test_points(), 1);
        let time = engine.modulate(&sym);
        let back = engine.demodulate(&time);
        for (a, b) in sym.0.iter().zip(back.0.iter()) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }

    #[test]
    fn cyclic_prefix_is_a_copy_of_the_tail() {
        let engine = OfdmEngine::new();
        let sym = FreqSymbol::assemble(&test_points(), -1);
        let time = engine.modulate(&sym);
        for i in 0..CP_LEN {
            assert_eq!(time[i], time[FFT_SIZE + i]);
        }
    }

    #[test]
    fn assemble_places_points_and_pilots() {
        let points = test_points();
        let sym = FreqSymbol::assemble(&points, 1);
        assert_eq!(sym.data_points().to_vec(), points);
        let pilots = sym.pilot_points();
        assert_eq!(pilots[0], Complex::new(1.0, 0.0));
        assert_eq!(pilots[3], Complex::new(-1.0, 0.0)); // the +21 pilot is negated
        // DC and guard bins are null.
        assert_eq!(sym.0[0], Complex::ZERO);
        assert_eq!(sym.0[27], Complex::ZERO);
    }

    #[test]
    fn negative_polarity_flips_pilots() {
        let sym = FreqSymbol::assemble(&test_points(), -1);
        let pilots = sym.pilot_points();
        assert_eq!(pilots[0], Complex::new(-1.0, 0.0));
        assert_eq!(pilots[3], Complex::new(1.0, 0.0));
    }

    #[test]
    fn zeroing_a_bin_creates_a_silence_symbol() {
        // Silence insertion = feeding 0 into the IFFT (paper Eq. 3).
        let engine = OfdmEngine::new();
        let mut sym = FreqSymbol::assemble(&test_points(), 1);
        let bin = crate::subcarriers::DATA_BINS[10];
        sym.0[bin] = Complex::ZERO;
        let rx = engine.demodulate(&engine.modulate(&sym));
        assert!(rx.0[bin].norm() < 1e-12, "silenced bin must carry no energy");
        // Other bins are untouched.
        let other = crate::subcarriers::DATA_BINS[11];
        assert!(rx.0[other].norm() > 0.5);
    }

    #[test]
    fn time_domain_power_matches_used_bins() {
        let engine = OfdmEngine::new();
        let sym = FreqSymbol::assemble(&test_points(), 1);
        let time = engine.modulate(&sym);
        let body_power: f64 = time[CP_LEN..].iter().map(|x| x.norm_sqr()).sum();
        // Parseval with 1/N IFFT: sum |x|² = sum |X|² / N = 52/64.
        let freq_power: f64 = sym.0.iter().map(|x| x.norm_sqr()).sum();
        assert!((body_power - freq_power / FFT_SIZE as f64).abs() < 1e-9);
        assert!((freq_power - 52.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "48 data points")]
    fn wrong_point_count_panics() {
        FreqSymbol::assemble(&[Complex::ZERO; 47], 1);
    }

    #[test]
    fn into_variants_overwrite_dirty_buffers() {
        let engine = OfdmEngine::new();
        let sym = FreqSymbol::assemble(&test_points(), -1);
        let mut slot = [Complex::new(f64::NAN, 7.0); SYMBOL_LEN];
        engine.modulate_into(&sym, &mut slot);
        assert_eq!(slot, engine.modulate(&sym));
        let mut bins = FreqSymbol([Complex::new(3.0, f64::NAN); FFT_SIZE]);
        engine.demodulate_into(&slot, &mut bins);
        assert_eq!(bins, engine.demodulate(&slot));
    }

    #[test]
    #[should_panic(expected = "80 samples")]
    fn wrong_sample_count_panics() {
        OfdmEngine::new().demodulate(&[Complex::ZERO; 79]);
    }
}
