//! The 802.11a transmit chain, with the pre-IFFT hook CoS needs.
//!
//! [`Transmitter::build_frame`] produces a [`TxFrame`] whose DATA symbols
//! are kept in the **frequency domain**. The CoS power controller inserts
//! silence symbols by calling [`TxFrame::silence`] — which zeroes the
//! corresponding IFFT input, exactly the mechanism of paper Eq. (3) — and
//! only then renders the waveform with [`TxFrame::to_time_samples`].

use crate::frame::{encode_data_field, payload_to_psdu_into, DataField, TxBits};
use crate::ofdm::{FreqSymbol, OfdmEngine};
use crate::pipeline::TxWorkspace;
use crate::preamble;
use crate::rates::DataRate;
use crate::signal::encode_signal_points;
use crate::subcarriers::{DATA_BINS, NUM_DATA, SYMBOL_LEN};
use cos_dsp::{Complex, KernelMode, Prbs127};

/// A fully assembled frame, frequency-domain, ready for silence insertion
/// and waveform rendering.
#[derive(Debug, Clone)]
pub struct TxFrame {
    /// The data rate of the DATA field.
    pub rate: DataRate,
    /// PSDU length in bytes (payload + 4-byte FCS), as put in SIGNAL.
    pub psdu_len: usize,
    /// Scrambler seed used for the DATA field.
    pub scrambler_seed: u8,
    /// The SIGNAL symbol (48 BPSK points, pilot polarity `p_0`).
    pub signal_symbol: FreqSymbol,
    /// The DATA symbols, frequency domain, pilot polarities `p_1..`.
    pub data_symbols: Vec<FreqSymbol>,
    /// The ideal mapped constellation points per DATA symbol (logical
    /// subcarrier order), *before* any silence insertion.
    pub mapped_points: Vec<[Complex; NUM_DATA]>,
    /// Which (symbol, logical subcarrier) positions have been silenced.
    pub silence_mask: Vec<[bool; NUM_DATA]>,
    /// The interleaved coded bits behind `mapped_points`, for
    /// instrumentation (decoder-input BER).
    pub data_field: DataField,
}

impl TxFrame {
    /// An empty placeholder for workspace initialisation; every field is
    /// fully overwritten by [`Transmitter::build_frame_into`].
    pub fn empty() -> Self {
        TxFrame {
            rate: DataRate::Mbps6,
            psdu_len: 0,
            scrambler_seed: 1,
            signal_symbol: FreqSymbol::empty(),
            data_symbols: Vec::new(),
            mapped_points: Vec::new(),
            silence_mask: Vec::new(),
            data_field: DataField::empty(DataRate::Mbps6),
        }
    }

    /// Number of DATA OFDM symbols.
    pub fn n_data_symbols(&self) -> usize {
        self.data_symbols.len()
    }

    /// Zeroes the transmit power of one data symbol — inserts a silence
    /// symbol at `(symbol, logical_sc)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn silence(&mut self, symbol: usize, logical_sc: usize) {
        assert!(symbol < self.data_symbols.len(), "symbol {symbol} out of range");
        assert!(logical_sc < NUM_DATA, "subcarrier {logical_sc} out of range");
        let bin = DATA_BINS[logical_sc];
        self.data_symbols[symbol].0[bin] = Complex::ZERO;
        self.silence_mask[symbol][logical_sc] = true;
    }

    /// Whether a position has been silenced.
    pub fn is_silenced(&self, symbol: usize, logical_sc: usize) -> bool {
        self.silence_mask[symbol][logical_sc]
    }

    /// Total silence symbols inserted.
    pub fn silence_count(&self) -> usize {
        self.silence_mask
            .iter()
            .map(|row| row.iter().filter(|&&s| s).count())
            .sum()
    }

    /// Renders the complete frame waveform: preamble, SIGNAL, DATA.
    pub fn to_time_samples(&self) -> Vec<Complex> {
        let mut samples = Vec::new();
        self.to_time_samples_into(&mut samples);
        samples
    }

    /// [`TxFrame::to_time_samples`] writing into a caller-owned buffer,
    /// which is fully overwritten. The buffer is only resized (every slot
    /// is written below): the preamble is copied from its process-wide
    /// table and every symbol is modulated in place into its own
    /// 80-sample slot.
    pub fn to_time_samples_into(&self, samples: &mut Vec<Complex>) {
        let engine = OfdmEngine::new();
        let symbols = std::iter::once(&self.signal_symbol).chain(&self.data_symbols);
        let len = preamble::PREAMBLE_LEN + (1 + self.n_data_symbols()) * SYMBOL_LEN;
        samples.resize(len, Complex::ZERO);
        let (head, body) = samples.split_at_mut(preamble::PREAMBLE_LEN);
        head.copy_from_slice(preamble::waveform());
        let (slots, _) = body.as_chunks_mut::<SYMBOL_LEN>();
        for (sym, slot) in symbols.zip(slots) {
            engine.modulate_into(sym, slot);
        }
    }

    /// Frame airtime in seconds.
    pub fn airtime(&self) -> f64 {
        (preamble::PREAMBLE_LEN + (1 + self.n_data_symbols()) * SYMBOL_LEN) as f64 / 20e6
    }
}

/// The 802.11a transmitter.
#[derive(Debug, Clone, Default)]
pub struct Transmitter {
    _private: (),
}

impl Transmitter {
    /// Creates a transmitter.
    pub fn new() -> Self {
        Transmitter::default()
    }

    /// Builds a frame for `payload` (the FCS is appended internally) at
    /// `rate`, scrambling with `scrambler_seed`.
    ///
    /// # Panics
    ///
    /// Panics if the resulting PSDU exceeds the 4095-byte LENGTH field or
    /// the scrambler seed is invalid.
    pub fn build_frame(&self, payload: &[u8], rate: DataRate, scrambler_seed: u8) -> TxFrame {
        let mut psdu = Vec::new();
        payload_to_psdu_into(payload, &mut psdu);
        self.build_frame_from_psdu(&psdu, rate, scrambler_seed)
    }

    /// Builds a frame from an already-framed PSDU (payload + FCS).
    pub fn build_frame_from_psdu(&self, psdu: &[u8], rate: DataRate, scrambler_seed: u8) -> TxFrame {
        let mut frame = TxFrame::empty();
        build_frame_from_psdu_core(psdu, rate, scrambler_seed, &mut frame, &mut TxBits::new());
        frame
    }

    /// [`Transmitter::build_frame`] writing into a caller-owned
    /// [`TxWorkspace`]: `ws.frame` (and the PSDU/bit scratch behind it) is
    /// fully overwritten; `ws.samples` is untouched until
    /// [`TxWorkspace::render`].
    ///
    /// # Panics
    ///
    /// Panics if the resulting PSDU exceeds the 4095-byte LENGTH field or
    /// the scrambler seed is invalid.
    pub fn build_frame_into(
        &self,
        payload: &[u8],
        rate: DataRate,
        scrambler_seed: u8,
        ws: &mut TxWorkspace,
    ) {
        let TxWorkspace { frame, psdu, bits, .. } = ws;
        payload_to_psdu_into(payload, psdu);
        build_frame_from_psdu_core(psdu, rate, scrambler_seed, frame, bits);
    }

    /// [`Transmitter::build_frame_from_psdu`] writing into a caller-owned
    /// [`TxWorkspace`].
    pub fn build_frame_from_psdu_into(
        &self,
        psdu: &[u8],
        rate: DataRate,
        scrambler_seed: u8,
        ws: &mut TxWorkspace,
    ) {
        let TxWorkspace { frame, bits, .. } = ws;
        build_frame_from_psdu_core(psdu, rate, scrambler_seed, frame, bits);
    }
}

/// The single frame-assembly implementation both the owned and workspace
/// APIs call: fills `frame` from `psdu`, reusing `bits` scratch.
fn build_frame_from_psdu_core(
    psdu: &[u8],
    rate: DataRate,
    scrambler_seed: u8,
    frame: &mut TxFrame,
    bits: &mut TxBits,
) {
    let TxFrame { data_field, data_symbols, mapped_points, silence_mask, .. } = frame;
    encode_data_field(psdu, rate, scrambler_seed, KernelMode::Lanes, bits, data_field, Some(mapped_points));
    let polarity = Prbs127::pilot_polarity();

    // SIGNAL symbol with pilot polarity p_0, DATA symbol n with p_{n+1}.
    let signal_points = encode_signal_points(rate, psdu.len());
    frame.signal_symbol = FreqSymbol::assemble(&signal_points, polarity[0]);
    data_symbols.resize_with(mapped_points.len(), FreqSymbol::empty);
    for (n, (symbol, points)) in data_symbols.iter_mut().zip(mapped_points.iter()).enumerate() {
        symbol.assemble_into(points, polarity[(n + 1) % Prbs127::PERIOD]);
    }
    silence_mask.clear();
    silence_mask.resize(mapped_points.len(), [false; NUM_DATA]);

    frame.rate = rate;
    frame.psdu_len = psdu.len();
    frame.scrambler_seed = scrambler_seed;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subcarriers::CP_LEN;

    #[test]
    fn frame_structure_sizes() {
        let tx = Transmitter::new();
        let frame = tx.build_frame(&[0u8; 1020], DataRate::Mbps24, 0x5D);
        assert_eq!(frame.psdu_len, 1024);
        assert_eq!(frame.n_data_symbols(), 86);
        let samples = frame.to_time_samples();
        assert_eq!(samples.len(), 320 + 80 * (1 + 86));
    }

    #[test]
    fn silence_zeroes_exactly_one_bin() {
        let tx = Transmitter::new();
        let mut frame = tx.build_frame(b"payload", DataRate::Mbps12, 0x5D);
        let before = frame.data_symbols[0].clone();
        frame.silence(0, 10);
        let after = &frame.data_symbols[0];
        let bin = DATA_BINS[10];
        assert_eq!(after.0[bin], Complex::ZERO);
        assert_ne!(before.0[bin], Complex::ZERO);
        for (i, (a, b)) in before.0.iter().zip(after.0.iter()).enumerate() {
            if i != bin {
                assert_eq!(a, b, "bin {i} must be untouched");
            }
        }
        assert!(frame.is_silenced(0, 10));
        assert!(!frame.is_silenced(0, 11));
        assert_eq!(frame.silence_count(), 1);
    }

    #[test]
    fn silence_reduces_waveform_energy() {
        let tx = Transmitter::new();
        let mut frame = tx.build_frame(&[7u8; 200], DataRate::Mbps24, 0x33);
        let full: f64 = frame.to_time_samples().iter().map(|x| x.norm_sqr()).sum();
        for sc in 0..8 {
            frame.silence(1, sc * 6);
        }
        let reduced: f64 = frame.to_time_samples().iter().map(|x| x.norm_sqr()).sum();
        assert!(reduced < full);
    }

    #[test]
    fn mapped_points_match_rendered_symbols() {
        let tx = Transmitter::new();
        let frame = tx.build_frame(&[1, 2, 3, 4, 5], DataRate::Mbps36, 0x19);
        for (sym, points) in frame.data_symbols.iter().zip(&frame.mapped_points) {
            assert_eq!(&sym.data_points()[..], &points[..]);
        }
    }

    #[test]
    fn pilot_polarity_rotates_per_symbol() {
        let tx = Transmitter::new();
        let frame = tx.build_frame(&[0u8; 300], DataRate::Mbps6, 0x5D);
        let p = Prbs127::pilot_polarity();
        // SIGNAL uses p_0 = 1, data symbol n uses p_{n+1}.
        assert_eq!(frame.signal_symbol.pilot_points()[0].re, p[0] as f64);
        for (n, sym) in frame.data_symbols.iter().enumerate().take(10) {
            assert_eq!(sym.pilot_points()[0].re, p[n + 1] as f64, "symbol {n}");
        }
    }

    #[test]
    fn airtime_matches_rate_table() {
        let tx = Transmitter::new();
        let frame = tx.build_frame(&[0u8; 1020], DataRate::Mbps24, 0x5D);
        let expect_us = DataRate::Mbps24.frame_airtime_us(1024);
        assert!((frame.airtime() * 1e6 - expect_us).abs() < 1e-9);
    }

    #[test]
    fn waveform_has_no_discontinuity_guard() {
        // Every OFDM symbol's CP must equal its body tail in the rendered
        // waveform (spot check the first data symbol).
        let tx = Transmitter::new();
        let frame = tx.build_frame(b"x", DataRate::Mbps6, 0x5D);
        let samples = frame.to_time_samples();
        let start = 320 + 80; // first DATA symbol
        for i in 0..CP_LEN {
            assert_eq!(samples[start + i], samples[start + 64 + i]);
        }
    }
}
