//! The feedback path of CoS (paper §III-A/III-D): the receiver's channel
//! report rides the **ACK frame**, itself conveyed by CoS silences —
//! "we adopt CoS to transmit feedback information, which is built on top
//! of the transmission of ACK frame".
//!
//! An ACK carries two pieces of feedback:
//!
//! * the **selection vector `V`** — which of the 48 data subcarriers the
//!   receiver chose as control subcarriers — encoded in *one OFDM symbol*
//!   where a silence on subcarrier `k` means "`k` is selected" (§III-D),
//! * the receiver's **measured SNR**, quantised to 8 bits (0.25 dB steps)
//!   and bitmap-coded on a fixed, a-priori-known subcarrier block of the
//!   following symbols — this drives both data-rate adaptation and the
//!   control-message rate table (§III-F).
//!
//! Both fields are repeated over a few symbols and decoded by
//! **soft-combined coherent detection**: the silence/normal residuals are
//! summed across repetitions before the decision, which (unlike majority
//! voting) also helps on statically faded subcarriers where repetition
//! errors are correlated.
//!
//! The ACK is a normal 802.11a frame (sent at a robust low rate), so all
//! the erasure machinery recovers its data bits exactly as for data
//! frames.

use crate::energy_detector::EnergyDetector;
use crate::feedback::FeedbackVector;
use crate::interval::IntervalCodec;
use crate::power_controller::PowerController;
use crate::subcarrier_select::DEFAULT_DETECT_FLOOR_DB;
use cos_phy::error::PhyError;
use cos_phy::evm::reconstruct_points;
use cos_phy::rates::DataRate;
use cos_phy::rx::Receiver;
use cos_phy::subcarriers::NUM_DATA;
use cos_phy::tx::{Transmitter, TxFrame};
use cos_dsp::Complex;

/// Configuration of the ACK feedback encoding, known a priori to both
/// sides.
#[derive(Debug, Clone)]
pub struct DuplexConfig {
    /// Rate ACKs are sent at (robust and fixed, like real 802.11 ACKs).
    pub ack_rate: DataRate,
    /// The first DATA symbol index carrying the selection vector `V`.
    pub feedback_symbol: usize,
    /// How many consecutive symbols repeat `V` (soft-combined at the
    /// receiver). The paper uses a single symbol; repetition hardens the
    /// vector against faded subcarriers, where a per-position error of
    /// ~1 % would otherwise corrupt half of all 48-bit vectors.
    pub v_repeats: usize,
    /// How many consecutive symbols repeat the SNR bitmap.
    pub snr_repeats: usize,
    /// Subcarrier carrying SNR bit `i` is `snr_subcarriers[i]`
    /// (bitmap-coded: silence ⇒ bit 1).
    pub snr_subcarriers: Vec<usize>,
    /// Bits of SNR quantisation (0.25 dB steps from 0 dB).
    pub snr_bits: usize,
}

impl Default for DuplexConfig {
    fn default() -> Self {
        DuplexConfig {
            ack_rate: DataRate::Mbps6,
            feedback_symbol: 0,
            v_repeats: 3,
            snr_repeats: 3,
            snr_subcarriers: (20..28).collect(),
            snr_bits: 8,
        }
    }
}

/// The feedback payload of one ACK.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackReport {
    /// The receiver's control-subcarrier selection.
    pub selection: FeedbackVector,
    /// The receiver's measured SNR in dB (quantised on the air).
    pub measured_snr_db: f64,
}

impl FeedbackReport {
    /// Quantises the SNR to the wire format: `snr_bits` bits in 0.25 dB
    /// steps, clamped to the representable range.
    pub fn quantized_snr(&self, snr_bits: usize) -> u32 {
        let max = (1u32 << snr_bits) - 1;
        ((self.measured_snr_db / 0.25).round().max(0.0) as u32).min(max)
    }
}

/// Builds an ACK frame carrying `report`. `ack_payload` is the MAC-level
/// ACK body (receiver address etc. — opaque here).
///
/// # Panics
///
/// Panics if the config's symbol/subcarrier layout does not fit the ACK
/// frame (cannot happen with the default 10+ byte ACK at 6 Mbps).
pub fn encode_ack(
    ack_payload: &[u8],
    report: &FeedbackReport,
    cfg: &DuplexConfig,
    scrambler_seed: u8,
) -> TxFrame {
    let mut frame = Transmitter::new().build_frame(ack_payload, cfg.ack_rate, scrambler_seed);
    assert!(
        cfg.feedback_symbol + cfg.v_repeats <= frame.n_data_symbols(),
        "feedback symbols {}..{} outside the {}-symbol ACK",
        cfg.feedback_symbol,
        cfg.feedback_symbol + cfg.v_repeats,
        frame.n_data_symbols()
    );

    // The selection vector V: silences on the feedback symbol(s).
    for rep in 0..cfg.v_repeats {
        for sc in report.selection.indices() {
            frame.silence(cfg.feedback_symbol + rep, sc);
        }
    }

    // The SNR report: bitmap-coded (silence ⇒ bit 1) on the configured
    // subcarriers of the following symbols.
    assert_eq!(
        cfg.snr_subcarriers.len(),
        cfg.snr_bits,
        "one SNR subcarrier per SNR bit"
    );
    let snr_start = cfg.feedback_symbol + cfg.v_repeats;
    assert!(
        snr_start + cfg.snr_repeats <= frame.n_data_symbols(),
        "SNR report does not fit the ACK"
    );
    let q = report.quantized_snr(cfg.snr_bits);
    for rep in 0..cfg.snr_repeats {
        for (i, &sc) in cfg.snr_subcarriers.iter().enumerate() {
            if (q >> (cfg.snr_bits - 1 - i)) & 1 == 1 {
                // Frequency diversity: each bit is signalled on its
                // subcarrier and on a mirror 24 bins away, so one faded
                // region cannot flip it.
                frame.silence(snr_start + rep, sc);
                frame.silence(snr_start + rep, (sc + NUM_DATA / 2) % NUM_DATA);
            }
        }
    }
    frame
}

/// Decodes an ACK sample stream: recovers the frame (with erasures) and,
/// if its CRC passes, the validated feedback report.
///
/// # Errors
///
/// Any [`PhyError`] from the PHY front end.
pub fn decode_ack(
    samples: &[Complex],
    cfg: &DuplexConfig,
) -> Result<(bool, Option<FeedbackReport>), PhyError> {
    let receiver = Receiver::new();
    let fe = receiver.front_end(samples)?;

    // Energy-detect across every subcarrier (V may silence any of them)
    // to build the erasure mask for decoding.
    let all: Vec<usize> = (0..NUM_DATA).collect();
    let detector = EnergyDetector::default();
    let detection = detector.detect(&fe, &all);
    let rx = receiver.decode(&fe, Some(&detection.erasures));

    let (Some(payload), Some(seed)) = (&rx.payload, rx.scrambler_seed) else {
        return Ok((false, None));
    };

    // CRC passed: soft-combined coherent decision per field bit — sum
    // the silence/normal residuals across repetitions, then decide.
    let reference = reconstruct_points(payload, fe.rate, seed);
    let bins = cos_phy::subcarriers::DATA_BINS;
    let combined = |sc: usize, first_sym: usize, reps: usize| -> bool {
        let mut silence_residual = 0.0;
        let mut normal_residual = 0.0;
        for rep in 0..reps {
            let sym = first_sym + rep;
            let y = fe.raw_symbols[sym].0[bins[sc]];
            let hx = fe.h_est[bins[sc]] * reference[sym][sc];
            silence_residual += y.norm_sqr();
            normal_residual += (y - hx).norm_sqr();
        }
        silence_residual < normal_residual
    };

    // Channel reciprocity filter: a subcarrier the far end *selected* is
    // detectable by construction (the selection enforces a detectability
    // floor), so it is also strong on this reverse channel. Any "selected"
    // decision on a subcarrier this side measures as dead is a false
    // positive from a fade where no signalling is possible — drop it.
    let snrs = fe.per_subcarrier_snr();
    let selection_indices: Vec<usize> = (0..NUM_DATA)
        .filter(|&sc| combined(sc, cfg.feedback_symbol, cfg.v_repeats))
        .filter(|&sc| {
            cos_dsp::linear_to_db(snrs[sc].max(1e-12)) >= DEFAULT_DETECT_FLOOR_DB - 3.0
        })
        .collect();

    let snr_start = cfg.feedback_symbol + cfg.v_repeats;
    let mut q = 0u32;
    for (i, &sc) in cfg.snr_subcarriers.iter().enumerate() {
        // Soft-combine across repetitions *and* the frequency-diversity
        // mirror subcarrier.
        let mirror = (sc + NUM_DATA / 2) % NUM_DATA;
        let mut silence_residual = 0.0;
        let mut normal_residual = 0.0;
        for rep in 0..cfg.snr_repeats {
            let sym = snr_start + rep;
            for &k in &[sc, mirror] {
                let y = fe.raw_symbols[sym].0[bins[k]];
                let hx = fe.h_est[bins[k]] * reference[sym][k];
                silence_residual += y.norm_sqr();
                normal_residual += (y - hx).norm_sqr();
            }
        }
        if silence_residual < normal_residual {
            q |= 1 << (cfg.snr_bits - 1 - i);
        }
    }
    let measured_snr_db = q as f64 * 0.25;

    Ok((
        true,
        Some(FeedbackReport {
            selection: FeedbackVector::from_indices(&selection_indices),
            measured_snr_db,
        }),
    ))
}

/// Convenience used by sessions: the PowerController/IntervalCodec pair
/// both sides agree on for ACK feedback.
pub fn feedback_controller() -> PowerController {
    PowerController::new(IntervalCodec::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cos_channel::{ChannelConfig, Link};

    fn report(selection: &[usize], snr: f64) -> FeedbackReport {
        FeedbackReport {
            selection: FeedbackVector::from_indices(selection),
            measured_snr_db: snr,
        }
    }

    /// A protocol-consistent selection: the weakest subcarriers of this
    /// very channel that still clear the detectability floor — exactly
    /// what the far end would have selected (channel reciprocity: the
    /// ACK's channel is the data channel).
    fn consistent_selection(link: &mut Link, n: usize) -> Vec<usize> {
        use cos_phy::rates::DataRate;
        use cos_phy::tx::Transmitter;
        let probe = Transmitter::new().build_frame(&[0u8; 60], DataRate::Mbps6, 0x11);
        let rx = link.transmit(&probe.to_time_samples());
        let fe = Receiver::new()
            .front_end_known(&rx, DataRate::Mbps6, probe.psdu_len)
            .expect("probe");
        let snrs = fe.per_subcarrier_snr();
        let mut ok: Vec<usize> = (0..NUM_DATA)
            .filter(|&sc| cos_dsp::linear_to_db(snrs[sc].max(1e-12)) >= DEFAULT_DETECT_FLOOR_DB)
            .collect();
        ok.sort_by(|&a, &b| snrs[a].total_cmp(&snrs[b])); // weakest detectable first
        let mut sel: Vec<usize> = ok.into_iter().take(n).collect();
        sel.sort_unstable();
        sel
    }

    fn roundtrip_on(
        link: &mut Link,
        rep: &FeedbackReport,
    ) -> (bool, Option<FeedbackReport>) {
        let cfg = DuplexConfig::default();
        let frame = encode_ack(&[0xACu8; 10], rep, &cfg, 0x5D);
        let samples = link.transmit(&frame.to_time_samples());
        // A front-end failure (e.g. SIGNAL parity at hopeless SNR) is an
        // ACK loss.
        decode_ack(&samples, &cfg).unwrap_or((false, None))
    }

    fn roundtrip(snr_db: f64, seed: u64, rep: &FeedbackReport) -> (bool, Option<FeedbackReport>) {
        let mut link = Link::new(ChannelConfig::default(), snr_db, seed);
        roundtrip_on(&mut link, rep)
    }

    #[test]
    fn clean_ack_roundtrip() {
        let mut link = Link::new(ChannelConfig::default(), 20.0, 42);
        let rep = report(&consistent_selection(&mut link, 6), 17.25);
        let (data_ok, got) = roundtrip_on(&mut link, &rep);
        assert!(data_ok);
        let got = got.expect("feedback recovered");
        assert_eq!(got.selection, rep.selection);
        assert!((got.measured_snr_db - 17.25).abs() < 1e-9);
    }

    #[test]
    fn snr_is_quantized_to_quarter_db() {
        let mut link = Link::new(ChannelConfig::default(), 22.0, 7);
        let rep = report(&consistent_selection(&mut link, 1), 18.13);
        let (_, got) = roundtrip_on(&mut link, &rep);
        let got = got.expect("feedback recovered");
        assert!((got.measured_snr_db - 18.25).abs() < 1e-9, "got {}", got.measured_snr_db);
    }

    #[test]
    fn feedback_reliable_across_channels() {
        let mut ok = 0;
        for seed in 0..20 {
            let mut link = Link::new(ChannelConfig::default(), 18.0, seed);
            let rep = report(&consistent_selection(&mut link, 7), 12.5);
            let (data_ok, got) = roundtrip_on(&mut link, &rep);
            ok += (data_ok && got.as_ref() == Some(&rep)) as u32;
        }
        assert!(ok >= 18, "feedback delivered {ok}/20 at 18 dB");
    }

    #[test]
    fn empty_selection_is_representable() {
        let rep = report(&[], 9.0);
        let (data_ok, got) = roundtrip(20.0, 3, &rep);
        assert!(data_ok);
        assert_eq!(got.expect("recovered").selection.count(), 0);
    }

    #[test]
    fn snr_clamps_at_range_edges() {
        let mut link = Link::new(ChannelConfig::default(), 22.0, 11);
        let rep = report(&consistent_selection(&mut link, 1), 100.0); // beyond range
        assert_eq!(rep.quantized_snr(8), 255);
        let (_, got) = roundtrip_on(&mut link, &rep);
        assert!((got.expect("recovered").measured_snr_db - 63.75).abs() < 1e-9);
    }

    #[test]
    fn hopeless_channel_loses_the_ack() {
        let rep = report(&[2, 12], 5.0);
        let (data_ok, got) = roundtrip(-10.0, 5, &rep);
        assert!(!data_ok);
        assert_eq!(got, None);
    }

    #[test]
    #[should_panic(expected = "feedback symbol")]
    fn oversized_feedback_symbol_panics() {
        let cfg = DuplexConfig { feedback_symbol: 99, ..Default::default() };
        encode_ack(&[0u8; 10], &report(&[1], 10.0), &cfg, 0x5D);
    }
}
