//! Integration test of the complete duplex protocol round: data frame
//! with CoS control forward, ACK with CoS-encoded feedback (selection
//! vector V + quantised SNR) backward, sender applies the feedback.

use cos::channel::{ChannelConfig, Link};
use cos::core::duplex::{decode_ack, encode_ack, DuplexConfig, FeedbackReport};
use cos::core::energy_detector::EnergyDetector;
use cos::core::feedback::FeedbackVector;
use cos::core::interval::IntervalCodec;
use cos::core::power_controller::PowerController;
use cos::core::subcarrier_select::{
    select_control_subcarriers, SelectionPolicy,
};
use cos::dsp::linear_to_db;
use cos::phy::evm::{per_subcarrier_evm, reconstruct_points};
use cos::phy::rates::DataRate;
use cos::phy::rx::Receiver;
use cos::phy::subcarriers::NUM_DATA;
use cos::phy::tx::Transmitter;

/// One full protocol round over a reciprocal channel (the ACK reuses the
/// same channel realisation, as TDD reciprocity implies).
#[test]
fn full_duplex_round_applies_feedback() {
    let snr_db = 19.0;
    let seed = 99u64;
    let rate = DataRate::Mbps12;
    let codec = IntervalCodec::default();
    let controller = PowerController::new(codec);
    let detector = EnergyDetector::default();
    let receiver = Receiver::new();

    // --- Round 0: sender transmits with a bootstrap selection.
    let mut forward = Link::new(ChannelConfig::default(), snr_db, seed);
    let bootstrap: Vec<usize> = (9..15).collect();
    let control = vec![1, 0, 1, 1];
    let payload = vec![0x42u8; 800];
    let mut frame = Transmitter::new().build_frame(&payload, rate, 0x5D);
    controller.embed(&mut frame, &bootstrap, &control).expect("fits");
    let rx_samples = forward.transmit(&frame.to_time_samples());

    // --- Receiver decodes data and computes its channel report.
    let fe = receiver.front_end(&rx_samples).expect("front end");
    let detection = detector.detect(&fe, &bootstrap);
    let rx = receiver.decode(&fe, Some(&detection.erasures));
    assert!(rx.crc_ok, "round 0 data must decode");
    let rx_payload = rx.payload;
    let seed_rec = rx.scrambler_seed.expect("seed");

    let reference = reconstruct_points(&rx_payload, rate, seed_rec);
    let evm = per_subcarrier_evm(&fe.equalized, &reference, rate.modulation(), Some(&detection.erasures));
    let snrs = fe.per_subcarrier_snr();
    let mut snr_db_vec = [0.0f64; NUM_DATA];
    for (slot, &s) in snr_db_vec.iter_mut().zip(snrs.iter()) {
        *slot = linear_to_db(s.max(1e-12));
    }
    let selection = select_control_subcarriers(
        &evm,
        &snr_db_vec,
        SelectionPolicy::weak_by_evm(rate.modulation(), 6),
    );
    let report = FeedbackReport {
        selection: FeedbackVector::from_indices(&selection),
        measured_snr_db: fe.measured_snr_db(),
    };

    // --- Receiver sends the ACK back over the reciprocal channel.
    let cfg = DuplexConfig::default();
    let ack = encode_ack(&[0xAC; 10], &report, &cfg, 0x33);
    let ack_samples = forward.transmit(&ack.to_time_samples());

    // --- Sender decodes the ACK and applies the feedback.
    let (ack_ok, got) = decode_ack(&ack_samples, &cfg).expect("ack front end");
    assert!(ack_ok, "ACK must decode");
    let got = got.expect("feedback recovered");
    assert_eq!(
        got.selection.indices(),
        selection,
        "sender must learn the receiver's exact selection"
    );
    assert!(
        (got.measured_snr_db - fe.measured_snr_db()).abs() <= 0.25,
        "SNR report within one quantisation step: {} vs {}",
        got.measured_snr_db,
        fe.measured_snr_db()
    );

    // --- Round 1: sender uses the fed-back selection; receiver (who
    // knows its own selection) recovers the control message.
    let control2 = vec![0, 1, 1, 1, 1, 0, 0, 1];
    let mut frame2 = Transmitter::new().build_frame(&payload, rate, 0x19);
    controller.embed(&mut frame2, &got.selection.indices(), &control2).expect("fits");
    let rx2_samples = forward.transmit(&frame2.to_time_samples());
    let fe2 = receiver.front_end(&rx2_samples).expect("front end 2");
    let detection2 = detector.detect(&fe2, &selection);
    assert_eq!(
        detection2.control_bits(&codec).as_deref(),
        Some(control2.as_slice()),
        "round 1 control message must arrive on the negotiated subcarriers"
    );
    let rx2 = receiver.decode(&fe2, Some(&detection2.erasures));
    assert!(rx2.crc_ok, "round 1 data must decode");
}

/// Feedback loss falls back gracefully: a destroyed ACK yields no report
/// and the sender keeps its previous selection.
#[test]
fn lost_ack_keeps_previous_state() {
    let cfg = DuplexConfig::default();
    let report = FeedbackReport {
        selection: FeedbackVector::from_indices(&[1, 2, 3]),
        measured_snr_db: 15.0,
    };
    let ack = encode_ack(&[0xAC; 10], &report, &cfg, 0x33);
    let mut dead_link = Link::new(ChannelConfig::default(), -12.0, 3);
    let samples = dead_link.transmit(&ack.to_time_samples());
    // A front-end failure (`Err`) is also a loss — only an `Ok` carrying a
    // credible report would violate the property.
    if let Ok((ok, got)) = decode_ack(&samples, &cfg) {
        assert!(!ok || got.is_none() || got.expect("report").selection.count() != 3);
    }
}
