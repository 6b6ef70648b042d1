//! The 802.11a receive chain, split into a **front end** (FFT, channel
//! estimation, equalisation, noise estimation) and a **decoder** (soft
//! demapping with optional erasures, de-interleaving, Viterbi, CRC).
//!
//! The split is what CoS needs: the energy detector inspects the front
//! end's raw FFT magnitudes to locate silence symbols, *then* the decoder
//! is invoked with the resulting erasure mask so those symbols' bits carry
//! zero LLR (paper Eq. 7).

use crate::error::PhyError;
use crate::frame::{
    extract_payload_into, finish_data_field_into, prepare_data_field_into, run_staged_viterbi,
    PreparedDataField,
};
use crate::ofdm::{FreqSymbol, OfdmEngine};
use crate::preamble::{self, ltf_value, PREAMBLE_LEN};
use crate::rates::DataRate;
use crate::signal::decode_signal_symbol;
use crate::sync::Acquisition;
use crate::subcarriers::{bin_of, DATA_BINS, NUM_DATA, PILOT_BINS, PILOT_VALUES, SYMBOL_LEN};
use cos_dsp::{linear_to_db, Complex, Prbs127};
use cos_fec::FecWorkspace;

/// Floor applied to noise-variance estimates so ideal (noise-free)
/// channels produce finite LLR weights.
const NOISE_FLOOR_EPS: f64 = 1e-15;

/// Receiver configuration.
///
/// Borrows the erasure mask rather than owning it, so the energy
/// detector's mask is never cloned per frame on its way into the decoder.
#[derive(Debug, Clone, Copy, Default)]
pub struct RxConfig<'a> {
    /// Erasure mask from the energy detector: `erasures[symbol][logical_sc]`
    /// marks a silence symbol whose bits get zero LLR.
    pub erasures: Option<&'a [[bool; NUM_DATA]]>,
}

impl<'a> RxConfig<'a> {
    /// No erasures — a plain 802.11a receiver.
    pub fn ideal() -> Self {
        RxConfig::default()
    }

    /// A receiver fed an erasure mask (one row per DATA symbol).
    pub fn with_erasures(erasures: &'a [[bool; NUM_DATA]]) -> Self {
        RxConfig { erasures: Some(erasures) }
    }
}

/// Front-end output: everything measured before bit decisions.
///
/// Two per-symbol planes: `raw_symbols` (all 64 derotated FFT bins) and
/// `equalized` (the 48 data values divided by the channel estimate).
/// [`Receiver::front_end_into`] only resizes them, so a workspace reused
/// across frames stops allocating once it has seen its longest frame.
#[derive(Debug, Clone)]
pub struct FrontEnd {
    /// Per-bin channel estimate from the long training field (zero on
    /// unused bins).
    pub h_est: [Complex; 64],
    /// Frequency-domain noise variance estimated from the difference of
    /// the two LTF repetitions.
    pub noise_var_ltf: f64,
    /// Frequency-domain noise variance from pilot-aided estimation over
    /// the DATA symbols (paper Eq. 5–6).
    pub noise_var_pilot: f64,
    /// The decoded SIGNAL field rate.
    pub rate: DataRate,
    /// The decoded SIGNAL field length (PSDU bytes).
    pub psdu_len: usize,
    /// The FFT output of every DATA symbol (all 64 bins), derotated by
    /// the symbol's pilot phase estimate — the energy detector's input,
    /// and the received values `y` the silence validator and the duplex
    /// feedback residuals read at `raw_symbols[n].0[DATA_BINS[sc]]`.
    pub raw_symbols: Vec<FreqSymbol>,
    /// Equalised data-subcarrier values (`Y/H`) per symbol, logical order.
    pub equalized: Vec<[Complex; NUM_DATA]>,
}

impl FrontEnd {
    /// An empty placeholder for workspace initialisation; every field is
    /// fully overwritten by [`Receiver::front_end_into`].
    pub fn empty() -> Self {
        FrontEnd {
            h_est: [Complex::ZERO; 64],
            noise_var_ltf: 0.0,
            noise_var_pilot: 0.0,
            rate: DataRate::Mbps6,
            psdu_len: 0,
            raw_symbols: Vec::new(),
            equalized: Vec::new(),
        }
    }

    /// Per-data-subcarrier SNR (linear) from the LTF estimate.
    pub fn per_subcarrier_snr(&self) -> [f64; NUM_DATA] {
        let sigma2 = self.noise_var_ltf.max(NOISE_FLOOR_EPS);
        let mut out = [0.0; NUM_DATA];
        for (slot, &bin) in out.iter_mut().zip(DATA_BINS.iter()) {
            *slot = self.h_est[bin].norm_sqr() / sigma2;
        }
        out
    }

    /// The NIC-style **measured SNR** in dB: the dB-domain mean of
    /// per-subcarrier SNRs. Frequency-selective fading drags this below
    /// the true wideband SNR — the effect behind the paper's Fig. 2 gap.
    pub fn measured_snr_db(&self) -> f64 {
        let snrs = self.per_subcarrier_snr();
        let sum_db: f64 = snrs.iter().map(|&s| linear_to_db(s.max(1e-12))).sum();
        (sum_db / snrs.len() as f64).min(60.0)
    }

    /// The wideband SNR in dB: linear mean of per-subcarrier SNRs (what a
    /// channel sounder would report for this estimate).
    pub fn wideband_snr_db(&self) -> f64 {
        let snrs = self.per_subcarrier_snr();
        let mean: f64 = snrs.iter().sum::<f64>() / snrs.len() as f64;
        linear_to_db(mean.max(1e-12)).min(60.0)
    }

    /// The LLR reliability weight `|H_k|²/σ²` per logical subcarrier,
    /// using the pilot-aided noise estimate.
    pub fn llr_weights(&self) -> [f64; NUM_DATA] {
        let sigma2 = self.noise_var_pilot.max(NOISE_FLOOR_EPS);
        let mut out = [0.0; NUM_DATA];
        for (slot, &bin) in out.iter_mut().zip(DATA_BINS.iter()) {
            *slot = self.h_est[bin].norm_sqr() / sigma2;
        }
        out
    }
}

/// A fully decoded frame.
#[derive(Debug, Clone)]
pub struct RxFrame {
    /// The front-end measurements the decode ran on.
    pub front_end: FrontEnd,
    /// The CRC-verified payload, if the frame decoded correctly.
    pub payload: Option<Vec<u8>>,
    /// Descrambled DATA-field bits (valid even when the CRC fails).
    pub data_bits: Vec<u8>,
    /// The recovered scrambler seed.
    pub scrambler_seed: Option<u8>,
    /// Hard decisions on every transmitted coded bit, in transmit
    /// (interleaved) order — compare against
    /// [`crate::frame::DataField::interleaved`] for the decoder-input BER
    /// of the paper's Fig. 3.
    pub hard_coded_bits: Vec<u8>,
    /// Why the DATA-field decode failed, when it did — lets the session
    /// layer classify receive failures without re-running the decoder.
    pub decode_error: Option<PhyError>,
}

impl RxFrame {
    /// Convenience: did the frame pass its CRC?
    pub fn crc_ok(&self) -> bool {
        self.payload.is_some()
    }
}

/// Decoder scratch: buffers the decode stage consumes but whose contents
/// nobody reads after the frame. Frame-sized (one soft bit per coded
/// bit, plus the mother-code plane), so it belongs to whoever runs the
/// frame — a session's per-frame path or an engine worker lane — and
/// never to a session the engine drives (`docs/ARCHITECTURE.md`).
#[derive(Debug, Clone, Default)]
pub struct RxScratch {
    /// Soft bits in transmit (interleaved) order.
    pub llrs: Vec<f64>,
    /// FEC-chain scratch: the Viterbi input in mother-code order (staged
    /// in one pass from `llrs`), the traceback and the decoded bits.
    pub fec: FecWorkspace,
    /// Re-packed PSDU bytes for CRC verification.
    pub psdu: Vec<u8>,
}

/// The decoder's output in workspace form — the same fields as
/// [`RxFrame`] minus the cloned [`FrontEnd`], with the payload flattened
/// to a reusable `Vec` plus a CRC flag.
#[derive(Debug, Clone, Default)]
pub struct RxDecodeOut {
    /// Did the frame pass its CRC? [`RxDecodeOut::payload`] is only
    /// meaningful when `true`.
    pub crc_ok: bool,
    /// The CRC-verified payload (empty when `crc_ok` is `false`).
    pub payload: Vec<u8>,
    /// Descrambled DATA-field bits (valid even when the CRC fails).
    pub data_bits: Vec<u8>,
    /// The recovered scrambler seed.
    pub scrambler_seed: Option<u8>,
    /// Hard decisions on every transmitted coded bit, transmit order.
    pub hard_coded_bits: Vec<u8>,
    /// Why the DATA-field decode failed, when it did.
    pub decode_error: Option<PhyError>,
}

impl RxDecodeOut {
    /// Materialises an owned [`RxFrame`] (cloning the front end), for
    /// callers that want the owned-API result shape.
    pub fn to_rx_frame(&self, fe: &FrontEnd) -> RxFrame {
        RxFrame {
            front_end: fe.clone(),
            payload: self.crc_ok.then(|| self.payload.clone()),
            data_bits: self.data_bits.clone(),
            scrambler_seed: self.scrambler_seed,
            hard_coded_bits: self.hard_coded_bits.clone(),
            decode_error: self.decode_error,
        }
    }
}

/// The 802.11a receiver.
///
/// Timing synchronisation is ideal (the sample stream starts at the first
/// preamble sample) — a documented substitution for Sora's packet
/// detector; CoS itself operates entirely post-FFT.
#[derive(Debug, Clone)]
pub struct Receiver {
    engine: OfdmEngine,
}

impl Default for Receiver {
    fn default() -> Self {
        Self::new()
    }
}

impl Receiver {
    /// Creates a receiver.
    pub fn new() -> Self {
        Receiver { engine: OfdmEngine::new() }
    }

    /// Runs the front end: channel estimation, SIGNAL decode, per-symbol
    /// FFT + equalisation, noise estimation.
    ///
    /// # Errors
    ///
    /// Any [`PhyError`] from framing or SIGNAL decoding.
    pub fn front_end(&self, samples: &[Complex]) -> Result<FrontEnd, PhyError> {
        let mut fe = FrontEnd::empty();
        self.front_end_inner_into(samples, None, &mut fe)?;
        Ok(fe)
    }

    /// [`Receiver::front_end`] writing into a caller-owned [`FrontEnd`],
    /// which is fully overwritten on success.
    ///
    /// # Errors
    ///
    /// Any [`PhyError`] from framing or SIGNAL decoding; `fe` holds
    /// unspecified partial results on error.
    pub fn front_end_into(&self, samples: &[Complex], fe: &mut FrontEnd) -> Result<(), PhyError> {
        self.front_end_inner_into(samples, None, fe)
    }

    /// [`Receiver::front_end_known`] writing into a caller-owned
    /// [`FrontEnd`].
    ///
    /// # Errors
    ///
    /// Framing errors ([`PhyError::FrameTooShort`] /
    /// [`PhyError::LengthMismatch`]).
    pub fn front_end_known_into(
        &self,
        samples: &[Complex],
        rate: DataRate,
        psdu_len: usize,
        fe: &mut FrontEnd,
    ) -> Result<(), PhyError> {
        self.front_end_inner_into(samples, Some((rate, psdu_len)), fe)
    }

    /// Runs the front end with an out-of-band known `(rate, psdu_len)`,
    /// bypassing the SIGNAL field decode — used by measurement harnesses
    /// that must characterise channels too poor to carry SIGNAL.
    ///
    /// # Errors
    ///
    /// Framing errors ([`PhyError::FrameTooShort`] /
    /// [`PhyError::LengthMismatch`]).
    pub fn front_end_known(
        &self,
        samples: &[Complex],
        rate: DataRate,
        psdu_len: usize,
    ) -> Result<FrontEnd, PhyError> {
        let mut fe = FrontEnd::empty();
        self.front_end_inner_into(samples, Some((rate, psdu_len)), &mut fe)?;
        Ok(fe)
    }

    fn front_end_inner_into(
        &self,
        samples: &[Complex],
        known: Option<(DataRate, usize)>,
        fe: &mut FrontEnd,
    ) -> Result<(), PhyError> {
        let min_len = PREAMBLE_LEN + SYMBOL_LEN;
        if samples.len() < min_len {
            return Err(PhyError::FrameTooShort { got: samples.len(), need: min_len });
        }

        // --- Channel estimation from the two LTF bodies. ---
        let [r1, r2] = preamble::ltf_body_ranges();
        let y1 = self.engine.demodulate_body(&samples[r1]);
        let y2 = self.engine.demodulate_body(&samples[r2]);
        let mut h_est = [Complex::ZERO; 64];
        let mut noise_acc = 0.0;
        let mut used = 0usize;
        for idx in -26..=26i32 {
            if idx == 0 {
                continue;
            }
            let bin = bin_of(idx);
            let l = ltf_value(idx);
            h_est[bin] = (y1.0[bin] + y2.0[bin]).scale(0.5) / l;
            noise_acc += (y1.0[bin] - y2.0[bin]).norm_sqr() / 2.0;
            used += 1;
        }
        let noise_var_ltf = noise_acc / used as f64;

        // Equalisation multiplies by a per-frame inverse: `y / h` is
        // defined as `y * h.inv()`, so this is the division, bit for bit.
        let h_inv: [Complex; NUM_DATA] =
            std::array::from_fn(|sc| nonzero(h_est[DATA_BINS[sc]]).inv());

        // --- SIGNAL symbol. ---
        let sig_start = PREAMBLE_LEN;
        let (rate, psdu_len) = match known {
            Some(pair) => pair,
            None => {
                let sig = self.engine.demodulate(&samples[sig_start..sig_start + SYMBOL_LEN]);
                let sig_eq: [Complex; NUM_DATA] =
                    std::array::from_fn(|sc| sig.0[DATA_BINS[sc]] * h_inv[sc]);
                decode_signal_symbol(&sig_eq, 1.0)?
            }
        };

        // --- DATA symbols. ---
        let n_symbols = rate.data_symbol_count(psdu_len);
        let have = (samples.len() - sig_start - SYMBOL_LEN) / SYMBOL_LEN;
        if have < n_symbols {
            return Err(PhyError::LengthMismatch { need: n_symbols, got: have });
        }
        let polarity = Prbs127::pilot_polarity();
        // Every symbol and row is overwritten below, so the planes are
        // only resized.
        let FrontEnd { raw_symbols, equalized, .. } = fe;
        raw_symbols.resize(n_symbols, FreqSymbol::empty());
        equalized.resize(n_symbols, [Complex::ZERO; NUM_DATA]);

        // Per symbol: FFT in place into its `raw_symbols` slot, pilot
        // phase tracking, equalisation and noise estimation.
        let times = samples[sig_start + SYMBOL_LEN..].chunks_exact(SYMBOL_LEN);
        let mut pilot_noise_acc = 0.0;
        for (n, ((sym, eq_row), time)) in
            raw_symbols.iter_mut().zip(equalized.iter_mut()).zip(times).enumerate()
        {
            self.engine.demodulate_into(time, sym);

            // Pilot phase tracking: residual CFO and phase noise rotate
            // every subcarrier of a symbol by a common phase; estimate it
            // from the four known pilots and derotate.
            let p = polarity[(n + 1) % Prbs127::PERIOD] as f64;
            let mut phase_acc = Complex::ZERO;
            for (&bin, base) in PILOT_BINS.iter().zip(PILOT_VALUES.iter()) {
                let expected = h_est[bin].scale(base * p);
                phase_acc += sym.0[bin] * expected.conj();
            }
            let derotate = if phase_acc.norm_sqr() > 0.0 {
                Complex::from_angle(-phase_acc.arg())
            } else {
                Complex::ONE
            };

            for bin_value in sym.0.iter_mut() {
                *bin_value *= derotate;
            }

            for ((eq, &bin), &inv) in eq_row.iter_mut().zip(DATA_BINS.iter()).zip(&h_inv) {
                *eq = sym.0[bin] * inv;
            }

            // Pilot-aided noise estimation (paper Eq. 5–6), after phase
            // tracking: n_i = y_i − H_i · x_i with known pilot x_i.
            for (&bin, base) in PILOT_BINS.iter().zip(PILOT_VALUES.iter()) {
                let x = Complex::new(base * p, 0.0);
                let n_i = sym.0[bin] - h_est[bin] * x;
                pilot_noise_acc += n_i.norm_sqr();
            }
        }
        let noise_var_pilot = if n_symbols == 0 {
            noise_var_ltf
        } else {
            pilot_noise_acc / (n_symbols * PILOT_BINS.len()) as f64
        };

        fe.h_est = h_est;
        fe.noise_var_ltf = noise_var_ltf;
        fe.noise_var_pilot = noise_var_pilot;
        fe.rate = rate;
        fe.psdu_len = psdu_len;
        Ok(())
    }

    /// Decodes a front end into bits, applying an optional erasure mask
    /// (one row per DATA symbol; `true` = silence symbol ⇒ zero LLRs).
    ///
    /// # Panics
    ///
    /// Panics if the erasure mask's length differs from the symbol count.
    pub fn decode(&self, fe: &FrontEnd, erasures: Option<&[[bool; NUM_DATA]]>) -> RxFrame {
        let mut scratch = RxScratch::default();
        let mut out = RxDecodeOut::default();
        self.decode_into(fe, erasures, &mut scratch, &mut out);
        out.to_rx_frame(fe)
    }

    /// [`Receiver::decode`] writing into caller-owned scratch and output
    /// buffers, both fully overwritten — a dirty workspace from a previous
    /// frame produces bit-identical results to a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if the erasure mask's length differs from the symbol count.
    pub fn decode_into(
        &self,
        fe: &FrontEnd,
        erasures: Option<&[[bool; NUM_DATA]]>,
        scratch: &mut RxScratch,
        out: &mut RxDecodeOut,
    ) {
        let prep = self.decode_prepare_into(fe, erasures, scratch, out);
        if let Ok(prep) = prep {
            run_staged_viterbi(prep, &mut scratch.fec);
        }
        self.decode_finish_into(fe, prep, scratch, out);
    }

    /// The demapping stage of [`Receiver::decode_into`]: soft-demaps every
    /// equalised subcarrier (zero LLRs on erased and non-finite ones) into
    /// `scratch.llrs` and the hard decisions into `out.hard_coded_bits`,
    /// one [`crate::constellation::Modulation::demap_row_into`] call per
    /// DATA symbol.
    ///
    /// # Panics
    ///
    /// Panics if the erasure mask's length differs from the symbol count.
    pub fn demap_into(
        &self,
        fe: &FrontEnd,
        erasures: Option<&[[bool; NUM_DATA]]>,
        scratch: &mut RxScratch,
        out: &mut RxDecodeOut,
    ) {
        if let Some(mask) = erasures {
            assert_eq!(
                mask.len(),
                fe.equalized.len(),
                "erasure mask rows must match DATA symbol count"
            );
        }
        let modulation = fe.rate.modulation();
        let ncbps = fe.rate.ncbps();
        let weights = fe.llr_weights();
        let len = fe.equalized.len() * ncbps;
        scratch.llrs.resize(len, 0.0);
        out.hard_coded_bits.resize(len, 0);
        let rows = fe
            .equalized
            .iter()
            .zip(scratch.llrs.chunks_exact_mut(ncbps))
            .zip(out.hard_coded_bits.chunks_exact_mut(ncbps));
        for (n, ((row, llrs), hard)) in rows.enumerate() {
            let erased = erasures.map(|mask| &mask[n][..]);
            modulation.demap_row_into(row, &weights, erased, llrs, hard);
        }
    }

    /// The front half of [`Receiver::decode_into`]: demap plus FEC staging
    /// (deinterleave / depuncture / truncate), stopping right before the
    /// Viterbi run so a batch driver can decode several frames' trellises
    /// in lockstep.
    ///
    /// Pass the returned result — `Ok` or `Err` — to
    /// [`Receiver::decode_finish_into`] after running the Viterbi (via
    /// [`run_staged_viterbi`] or
    /// [`cos_fec::ViterbiDecoder::decode_lockstep`]).
    ///
    /// # Errors
    ///
    /// [`PhyError::DataFieldTooShort`] when the frame is too truncated to
    /// stage; finish with the `Err` to record it in the output.
    ///
    /// # Panics
    ///
    /// Panics if the erasure mask's length differs from the symbol count.
    pub fn decode_prepare_into(
        &self,
        fe: &FrontEnd,
        erasures: Option<&[[bool; NUM_DATA]]>,
        scratch: &mut RxScratch,
        out: &mut RxDecodeOut,
    ) -> Result<PreparedDataField, PhyError> {
        self.demap_into(fe, erasures, scratch, out);
        prepare_data_field_into(&scratch.llrs, fe.rate, fe.psdu_len, &mut scratch.fec)
    }

    /// The back half of [`Receiver::decode_into`]: descrambles the decoded
    /// bits, verifies the CRC and fills the output fields. `prep` is the
    /// result of [`Receiver::decode_prepare_into`]; on `Ok` the Viterbi
    /// must already have run into `scratch.fec.decoded`.
    pub fn decode_finish_into(
        &self,
        fe: &FrontEnd,
        prep: Result<PreparedDataField, PhyError>,
        scratch: &mut RxScratch,
        out: &mut RxDecodeOut,
    ) {
        let result = prep.and_then(|_| finish_data_field_into(&scratch.fec, &mut out.data_bits));
        match result {
            Ok(seed) => {
                out.scrambler_seed = Some(seed);
                out.decode_error = None;
            }
            Err(e) => {
                out.data_bits.clear();
                out.scrambler_seed = None;
                out.decode_error = Some(e);
            }
        }
        out.crc_ok = !out.data_bits.is_empty()
            && extract_payload_into(&out.data_bits, fe.psdu_len, &mut scratch.psdu, &mut out.payload);
        if !out.crc_ok {
            out.payload.clear();
        }
    }

    /// Convenience: front end + decode in one call.
    ///
    /// # Errors
    ///
    /// Any [`PhyError`] from the front end.
    pub fn receive(&self, samples: &[Complex], config: &RxConfig<'_>) -> Result<RxFrame, PhyError> {
        let fe = self.front_end(samples)?;
        Ok(self.decode(&fe, config.erasures))
    }

    /// Receives from a raw stream with unknown frame offset and carrier
    /// frequency offset: acquires the preamble, corrects the CFO and
    /// decodes. Thin wrapper over
    /// [`receive_stream_into`](Self::receive_stream_into) with fresh
    /// scratch.
    ///
    /// # Errors
    ///
    /// [`PhyError::NoPreamble`] if acquisition fails, else any front-end
    /// error.
    pub fn receive_stream(
        &self,
        stream: &[Complex],
        config: &RxConfig<'_>,
    ) -> Result<(Acquisition, RxFrame), PhyError> {
        let mut ws = crate::pipeline::RxWorkspace::new();
        let acq = self.receive_stream_into(stream, config, &mut ws)?;
        Ok((acq, ws.to_rx_frame()))
    }
}

/// Guards equalisation against a zero channel estimate on a dead bin.
fn nonzero(h: Complex) -> Complex {
    if h.norm_sqr() < 1e-30 {
        Complex::new(1e-15, 0.0)
    } else {
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transmitter;

    fn loopback(payload: &[u8], rate: DataRate) -> RxFrame {
        let frame = Transmitter::new().build_frame(payload, rate, 0x5D);
        let samples = frame.to_time_samples();
        Receiver::new().receive(&samples, &RxConfig::ideal()).expect("clean decode")
    }

    #[test]
    fn loopback_all_rates() {
        for rate in DataRate::ALL {
            let payload: Vec<u8> = (0..100).map(|i| (i * 13) as u8).collect();
            let rx = loopback(&payload, rate);
            assert_eq!(rx.payload.as_deref(), Some(payload.as_slice()), "{rate}");
            assert_eq!(rx.front_end.rate, rate);
            assert_eq!(rx.scrambler_seed, Some(0x5D));
        }
    }

    #[test]
    fn ideal_channel_estimate_is_unity() {
        let rx = loopback(b"channel", DataRate::Mbps12);
        for &bin in DATA_BINS.iter() {
            let h = rx.front_end.h_est[bin];
            assert!((h - Complex::ONE).norm() < 1e-9, "bin {bin}: {h}");
        }
        assert!(rx.front_end.noise_var_ltf < 1e-18);
    }

    #[test]
    fn hard_coded_bits_match_transmitted() {
        let frame = Transmitter::new().build_frame(b"bit exactness", DataRate::Mbps36, 0x21);
        let samples = frame.to_time_samples();
        let rx = Receiver::new().receive(&samples, &RxConfig::ideal()).expect("decode");
        assert_eq!(rx.hard_coded_bits, frame.data_field.interleaved);
    }

    #[test]
    fn too_short_stream_is_rejected() {
        let err = Receiver::new().receive(&[Complex::ZERO; 100], &RxConfig::ideal());
        assert!(matches!(err, Err(PhyError::FrameTooShort { .. })));
    }

    #[test]
    fn truncated_data_field_is_rejected() {
        let frame = Transmitter::new().build_frame(&[0u8; 500], DataRate::Mbps6, 0x5D);
        let samples = frame.to_time_samples();
        let cut = samples.len() - 3 * SYMBOL_LEN;
        let err = Receiver::new().receive(&samples[..cut], &RxConfig::ideal());
        assert!(matches!(err, Err(PhyError::LengthMismatch { .. })));
    }

    #[test]
    fn erasure_mask_recovers_silenced_frame() {
        // Silence a handful of symbols; without the mask the decoder sees
        // garbage hard zeros, with it the code bridges the gaps.
        let mut frame = Transmitter::new().build_frame(&[0x5Au8; 300], DataRate::Mbps24, 0x5D);
        let n_sym = frame.n_data_symbols();
        let mut mask = vec![[false; NUM_DATA]; n_sym];
        for (n, row) in mask.iter_mut().enumerate() {
            let sc = (n * 7) % NUM_DATA;
            frame.silence(n, sc);
            row[sc] = true;
        }
        let samples = frame.to_time_samples();
        let rx = Receiver::new()
            .receive(&samples, &RxConfig::with_erasures(&mask))
            .expect("front end ok");
        assert!(rx.crc_ok(), "EVD must bridge one silence per symbol");
    }

    #[test]
    fn silences_without_mask_can_still_decode_if_sparse() {
        // One silence per 4 symbols: even error-only decoding survives,
        // because the wrong hard bits are few.
        let mut frame = Transmitter::new().build_frame(&[0xC3u8; 300], DataRate::Mbps12, 0x5D);
        for n in (0..frame.n_data_symbols()).step_by(4) {
            frame.silence(n, 5);
        }
        let samples = frame.to_time_samples();
        let rx = Receiver::new().receive(&samples, &RxConfig::ideal()).expect("front end ok");
        assert!(rx.crc_ok());
    }

    #[test]
    fn measured_snr_is_high_on_clean_channel() {
        let rx = loopback(b"snr", DataRate::Mbps12);
        assert!(rx.front_end.measured_snr_db() > 50.0);
    }

    #[test]
    #[should_panic(expected = "erasure mask rows")]
    fn wrong_mask_length_panics() {
        let frame = Transmitter::new().build_frame(b"mask", DataRate::Mbps6, 0x5D);
        let samples = frame.to_time_samples();
        let receiver = Receiver::new();
        let fe = receiver.front_end(&samples).expect("front end");
        receiver.decode(&fe, Some(&[[false; NUM_DATA]; 1]));
    }
}
