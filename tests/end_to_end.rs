//! Cross-crate integration tests: full 802.11a frames over fading
//! channels, with and without CoS silence insertion.

use cos::channel::{ChannelConfig, Link};
use cos::core::energy_detector::EnergyDetector;
use cos::core::interval::IntervalCodec;
use cos::core::power_controller::PowerController;
use cos::phy::rates::DataRate;
use cos::phy::rx::Receiver;
use cos::phy::tx::Transmitter;

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 31 % 251) as u8).collect()
}

#[test]
fn plain_packets_decode_across_rates_and_channels() {
    for (i, rate) in DataRate::ALL.iter().enumerate() {
        // Operate each rate a few dB above its minimum required SNR.
        let snr = rate.min_snr_db() + 6.0;
        let mut ok = 0;
        let trials = 10;
        for seed in 0..trials {
            let mut link = Link::new(ChannelConfig::default(), snr, seed * 11 + i as u64);
            let frame = Transmitter::new().build_frame(&payload(500), *rate, 0x5D);
            let samples = link.transmit(&frame.to_time_samples());
            if let Ok(rx) = Receiver::new().receive(&samples, None) {
                ok += rx.out.crc_ok as u32;
            }
        }
        assert!(ok >= trials as u32 - 1, "{rate}: only {ok}/{trials} packets decoded at {snr} dB");
    }
}

#[test]
fn ber_decreases_monotonically_with_snr() {
    let rate = DataRate::Mbps24;
    let mut failures_by_snr = Vec::new();
    for snr in [8.0, 12.0, 16.0, 20.0] {
        let mut failures = 0;
        for seed in 0..15 {
            let mut link = Link::new(ChannelConfig::default(), snr, 100 + seed);
            let frame = Transmitter::new().build_frame(&payload(800), rate, 0x21);
            let samples = link.transmit(&frame.to_time_samples());
            let decoded = Receiver::new()
                .receive(&samples, None)
                .map(|rx| rx.out.crc_ok)
                .unwrap_or(false);
            failures += !decoded as u32;
        }
        failures_by_snr.push(failures);
    }
    // Failures must be non-increasing (allowing one inversion of 1 from
    // finite sampling).
    for w in failures_by_snr.windows(2) {
        assert!(w[1] <= w[0] + 1, "failures grew with SNR: {failures_by_snr:?}");
    }
    assert_eq!(*failures_by_snr.last().expect("4 points"), 0, "20 dB must be clean");
}

#[test]
fn silences_detected_and_bridged_end_to_end() {
    let mut link = Link::new(ChannelConfig::default(), 20.0, 77);
    let codec = IntervalCodec::default();
    let controller = PowerController::new(codec);
    let detector = EnergyDetector::default();
    let selected = vec![10usize, 18, 26, 34, 42];
    let control_bits = vec![1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1];

    let mut frame = Transmitter::new().build_frame(&payload(700), DataRate::Mbps12, 0x5D);
    controller.embed(&mut frame, &selected, &control_bits).expect("fits");
    let samples = link.transmit(&frame.to_time_samples());

    let receiver = Receiver::new();
    let fe = receiver.front_end(&samples).expect("front end");
    let detection = detector.detect(&fe, &selected);
    let rx = receiver.decode(&fe, Some(&detection.erasures));

    assert!(rx.crc_ok, "data must survive the silences");
    assert_eq!(
        detection.control_bits(&codec).as_deref(),
        Some(control_bits.as_slice()),
        "control message must be recovered"
    );
}

#[test]
fn corrupted_preamble_degrades_gracefully() {
    let mut link = Link::new(ChannelConfig::default(), 18.0, 5);
    let frame = Transmitter::new().build_frame(&payload(100), DataRate::Mbps12, 0x5D);
    let mut samples = link.transmit(&frame.to_time_samples());
    // Zero out the long training field: channel estimation collapses.
    for s in samples.iter_mut().take(320).skip(160) {
        *s = cos::dsp::Complex::ZERO;
    }
    let result = Receiver::new().receive(&samples, None);
    // Either an explicit PHY error or a CRC failure — never a wrong
    // payload silently accepted.
    if let Ok(rx) = result {
        assert!(!rx.out.crc_ok);
    }
}

#[test]
fn truncated_stream_reports_framing_error() {
    let frame = Transmitter::new().build_frame(&payload(400), DataRate::Mbps6, 0x5D);
    let samples = frame.to_time_samples();
    let result = Receiver::new().receive(&samples[..600], None);
    assert!(result.is_err());
}

#[test]
fn heavier_modulations_need_more_snr() {
    // At 12 dB, QPSK 1/2 delivers but 64QAM 3/4 cannot.
    let mut qpsk_ok = 0;
    let mut qam64_ok = 0;
    for seed in 0..10 {
        let mut link_a = Link::new(ChannelConfig::default(), 12.0, 300 + seed);
        let mut link_b = Link::new(ChannelConfig::default(), 12.0, 300 + seed);
        let fa = Transmitter::new().build_frame(&payload(600), DataRate::Mbps12, 0x5D);
        let fb = Transmitter::new().build_frame(&payload(600), DataRate::Mbps54, 0x5D);
        let ra = Receiver::new().receive(&link_a.transmit(&fa.to_time_samples()), None);
        let rb = Receiver::new().receive(&link_b.transmit(&fb.to_time_samples()), None);
        qpsk_ok += ra.map(|r| r.out.crc_ok as u32).unwrap_or(0);
        qam64_ok += rb.map(|r| r.out.crc_ok as u32).unwrap_or(0);
    }
    assert!(qpsk_ok >= 9, "QPSK at 12 dB: {qpsk_ok}/10");
    assert!(qam64_ok <= 2, "64QAM at 12 dB should fail: {qam64_ok}/10");
}
