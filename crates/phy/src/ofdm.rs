//! OFDM symbol modulation and demodulation (IFFT/CP and CP-strip/FFT).
//!
//! The transmitter implements Eq. (3) of the paper — a 64-point IFFT over
//! the frequency-domain symbol vector — and the receiver Eq. (4), the
//! matching FFT. Inserting a **silence symbol** is nothing more than
//! feeding 0 instead of a modulated point into the IFFT for that
//! subcarrier, which is exactly how [`crate::tx::TxFrame::silence`] works.

use crate::subcarriers::{DATA_BINS, FFT_SIZE, CP_LEN, PILOT_BINS, PILOT_VALUES, SYMBOL_LEN};
use cos_dsp::fft::{plan, Fft};
use cos_dsp::lanes::LANES;
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
        assert_eq!(points.len(), 48, "need 48 data points, got {}", points.len());
        assert!(polarity == 1 || polarity == -1, "pilot polarity must be ±1");
        let mut bins = [Complex::ZERO; FFT_SIZE];
        for (&p, &bin) in points.iter().zip(DATA_BINS.iter()) {
            bins[bin] = p;
        }
        for (&bin, base) in PILOT_BINS.iter().zip(PILOT_VALUES.iter()) {
            bins[bin] = Complex::new(base * polarity as f64, 0.0);
        }
        FreqSymbol(bins)
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

/// A reusable OFDM modulator/demodulator (wraps a 64-point FFT plan).
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
        let mut body = sym.0;
        self.fft.inverse(&mut body);
        let mut out = [Complex::ZERO; SYMBOL_LEN];
        out[..CP_LEN].copy_from_slice(&body[FFT_SIZE - CP_LEN..]);
        out[CP_LEN..].copy_from_slice(&body);
        out
    }

    /// Demodulates 80 received samples back to frequency-domain bins,
    /// discarding the cyclic prefix.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len() != 80`.
    pub fn demodulate(&self, samples: &[Complex]) -> FreqSymbol {
        assert_eq!(samples.len(), SYMBOL_LEN, "an OFDM symbol is {SYMBOL_LEN} samples");
        let mut body = [Complex::ZERO; FFT_SIZE];
        body.copy_from_slice(&samples[CP_LEN..]);
        self.fft.forward(&mut body);
        FreqSymbol(body)
    }

    /// Demodulates [`LANES`] 80-sample OFDM symbols in lockstep through
    /// the SoA batch FFT, writing into `out[..LANES]` — bit-identical to
    /// [`LANES`] separate [`OfdmEngine::demodulate`] calls, several times
    /// cheaper because the butterflies run one lane op per twiddle.
    ///
    /// # Panics
    ///
    /// Panics if any input is not 80 samples or `out` holds fewer than
    /// [`LANES`] symbols.
    pub fn demodulate_batch_into(&self, symbols: [&[Complex]; LANES], out: &mut [FreqSymbol]) {
        assert!(out.len() >= LANES, "need {LANES} output symbols, got {}", out.len());
        let mut re = [0.0; FFT_SIZE * LANES];
        let mut im = [0.0; FFT_SIZE * LANES];
        for (lane, samples) in symbols.iter().enumerate() {
            assert_eq!(samples.len(), SYMBOL_LEN, "an OFDM symbol is {SYMBOL_LEN} samples");
            for (i, s) in samples[CP_LEN..].iter().enumerate() {
                re[i * LANES + lane] = s.re;
                im[i * LANES + lane] = s.im;
            }
        }
        self.fft.forward_soa(&mut re, &mut im);
        for (lane, sym) in out.iter_mut().take(LANES).enumerate() {
            for (i, bin) in sym.0.iter_mut().enumerate() {
                *bin = Complex::new(re[i * LANES + lane], im[i * LANES + lane]);
            }
        }
    }

    /// [`OfdmEngine::demodulate_batch_into`] returning the symbols.
    ///
    /// # Panics
    ///
    /// Panics if any input is not 80 samples.
    pub fn demodulate_batch(&self, symbols: [&[Complex]; LANES]) -> [FreqSymbol; LANES] {
        let mut out: [FreqSymbol; LANES] = std::array::from_fn(|_| FreqSymbol::empty());
        self.demodulate_batch_into(symbols, &mut out);
        out
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
    #[should_panic(expected = "80 samples")]
    fn wrong_sample_count_panics() {
        OfdmEngine::new().demodulate(&[Complex::ZERO; 79]);
    }

    #[test]
    fn batch_demodulate_is_bit_identical_to_scalar() {
        let engine = OfdmEngine::new();
        // Four distinct symbols, including one with a silenced bin.
        let times: Vec<[Complex; SYMBOL_LEN]> = (0..LANES)
            .map(|k| {
                let mut sym = FreqSymbol::assemble(&test_points(), if k % 2 == 0 { 1 } else { -1 });
                sym.0[DATA_BINS[k * 3]] = Complex::ZERO;
                engine.modulate(&sym)
            })
            .collect();
        let refs: [&[Complex]; LANES] = std::array::from_fn(|k| times[k].as_slice());
        let batch = engine.demodulate_batch(refs);
        for (k, t) in times.iter().enumerate() {
            let scalar = engine.demodulate(t);
            for (a, b) in scalar.0.iter().zip(batch[k].0.iter()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }
}
