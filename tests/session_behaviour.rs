//! Integration tests of the full CoS session: feedback loop, rate
//! adaptation, control-message delivery and interference behaviour.

use cos::channel::link::NOMINAL_TX_POWER;
use cos::channel::{
    ChannelConfig, FaultEngine, FeedbackCorruption, FeedbackLoss, FeedbackStaleness, Link,
    PulseInterferer,
};
use cos::core::session::{CosSession, Fnv, SessionConfig};
use cos::phy::rates::DataRate;
use cos::phy::rx::Receiver;
use cos::phy::tx::Transmitter;

fn message(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 3 + 1) % 4 == 0) as u8).collect()
}

#[test]
fn sustained_session_delivers_control_messages() {
    // Mid-band QPSK operation: the regime the paper's detection-accuracy
    // experiments run in. (At the *bottom edge* of the 16/64QAM bands the
    // detectable-subcarrier budget shrinks and control accuracy degrades —
    // a reproduction finding recorded in EXPERIMENTS.md.)
    // Seed retuned for the workspace's deterministic RNG stream (see
    // README "Offline builds"): the channel draws differ from upstream
    // `rand`.
    let mut session = CosSession::new(
        SessionConfig { snr_db: 18.0, rate: Some(DataRate::Mbps12), ..Default::default() },
        4711,
    );
    let msg = message(24);
    session.send_packet_summary(&[0x42; 800], &msg); // warm-up establishes feedback
    let mut delivered = 0;
    let total = 30;
    for _ in 0..total {
        let r = session.send_packet_summary(&[0x42; 800], &msg);
        delivered += r.control_ok as u32;
    }
    assert!(delivered * 100 >= total * 95, "control delivery {delivered}/{total}");
}

#[test]
fn session_control_capacity_scales_with_message_size() {
    let mut session =
        CosSession::new(SessionConfig { snr_db: 18.0, rate: Some(DataRate::Mbps12), ..Default::default() }, 7);
    session.send_packet_summary(&[1; 1000], &[]);
    for bits in [8usize, 32, 64] {
        let r = session.send_packet_summary(&[1; 1000], &message(bits));
        assert_eq!(r.silences_sent, 1 + bits / 4);
        assert!(r.data_ok, "data must survive {bits} control bits");
    }
}

#[test]
fn rate_adapts_down_when_channel_degrades() {
    // Two sessions over the same seed, different SNR: the poorer link
    // must settle on a slower rate.
    let mut fast = CosSession::new(SessionConfig { snr_db: 26.0, ..Default::default() }, 55);
    let mut slow = CosSession::new(SessionConfig { snr_db: 10.0, ..Default::default() }, 55);
    for _ in 0..4 {
        fast.send_packet_summary(&[0; 500], &message(8));
        slow.send_packet_summary(&[0; 500], &message(8));
    }
    assert!(fast.current_rate().mbps() > slow.current_rate().mbps());
}

#[test]
fn strong_interference_breaks_detection_but_not_quiet_links() {
    // Seed retuned for the workspace's deterministic RNG stream (see
    // README "Offline builds").
    let quiet_session =
        run_with_interference(None, 16.0, 7);
    let loud_session = run_with_interference(
        Some(PulseInterferer::new(NOMINAL_TX_POWER * 31.6, 0.4, 80, 1234)),
        16.0,
        7,
    );
    assert!(quiet_session >= 14, "quiet link delivered only {quiet_session}/15");
    assert!(
        loud_session < quiet_session,
        "interference should reduce delivery: {loud_session} vs {quiet_session}"
    );
}

/// Runs 15 packets through a raw TX/RX + detection pipeline with an
/// optional interferer; returns how many delivered their control message.
fn run_with_interference(interferer: Option<PulseInterferer>, snr_db: f64, seed: u64) -> u32 {
    use cos::core::energy_detector::EnergyDetector;
    use cos::core::interval::IntervalCodec;
    use cos::core::power_controller::PowerController;

    let mut link = Link::new(ChannelConfig::default(), snr_db, seed);
    // Probe first (before attaching interference) so the selection is the
    // weakest-detectable set the CoS feedback loop would pick.
    let selected = {
        let probe = Transmitter::new().build_frame(&[0u8; 200], DataRate::Mbps12, 0x11);
        let rx = link.transmit(&probe.to_time_samples());
        let fe = Receiver::new().front_end(&rx).expect("probe front end");
        let snrs = fe.per_subcarrier_snr();
        let mut by_snr: Vec<usize> = (0..48).collect();
        by_snr.sort_by(|&a, &b| snrs[b].total_cmp(&snrs[a]));
        let mut sel: Vec<usize> = by_snr.into_iter().take(6).collect();
        sel.sort_unstable();
        sel
    };
    if let Some(i) = interferer {
        link = link.with_faults(FaultEngine::new().with(i));
    }
    let codec = IntervalCodec::default();
    let controller = PowerController::new(codec);
    let detector = EnergyDetector::default();
    let msg = message(16);

    let mut delivered = 0;
    for p in 0..15 {
        let mut frame =
            Transmitter::new().build_frame(&[0x7E; 700], DataRate::Mbps12, (p % 126 + 1) as u8);
        controller.embed(&mut frame, &selected, &msg).expect("fits");
        let samples = link.transmit(&frame.to_time_samples());
        if let Ok(fe) = Receiver::new().front_end(&samples) {
            let detection = detector.detect(&fe, &selected);
            if detection.control_bits(&codec).as_deref() == Some(msg.as_slice()) {
                delivered += 1;
            }
        }
        link.channel_mut().advance(1e-3);
    }
    delivered
}

#[test]
fn feedback_failure_falls_back_to_lowest_control_rate() {
    // A session at hopeless SNR: data packets fail, so the adapter must
    // fall back; the budget equals the fallback rate's allocation.
    let mut session =
        CosSession::new(SessionConfig { snr_db: -5.0, rate: Some(DataRate::Mbps12), ..Default::default() }, 3);
    let r = session.send_packet_summary(&[0; 600], &[]);
    assert!(!r.data_ok);
    let budget_after_failure = session.silence_budget(1024);
    let fresh = CosSession::new(SessionConfig { snr_db: 26.0, rate: Some(DataRate::Mbps12), ..Default::default() }, 3);
    // A fresh session has no feedback either, so both sit at the fallback.
    assert_eq!(budget_after_failure, fresh.silence_budget(1024));
}

/// A resilient session without a pinned rate starts at 12 Mbps. On a
/// link too weak for that rate no frame passes its CRC, so no report
/// ever comes back; the one miss rule (ERROR entry drops an unpinned
/// rate to the slowest) is what lets such a link carry data at all.
#[test]
fn unpinned_resilient_sessions_slow_down_on_a_weak_link() {
    for snr_db in [2.0, 3.0] {
        let config = SessionConfig { snr_db, arq_max_retries: 3, ..Default::default() };
        let mut s = CosSession::new(config, 31);
        let mut passes = 0;
        for frame in 0..24 {
            if frame % 4 == 0 {
                s.queue_control(message(8 + 4 * (frame % 3)));
            }
            let r = s.send_packet_resilient_summary(&[frame as u8 ^ 0x5A; 300]);
            passes += r.packet.data_ok as u32;
        }
        assert!(passes > 0, "{snr_db} dB: no resilient frame passed its CRC in 24");
        assert_eq!(s.current_rate(), DataRate::Mbps6, "{snr_db} dB");
    }
}

/// What a session sends: one send entry point throughout, or resilient
/// and adaptive frames in turn on the one control plane.
#[derive(Clone, Copy)]
enum Kind {
    Plain,
    Resilient,
    Adaptive,
    Mixed,
}

/// Digest of every observable outcome of plain, resilient, adaptive and
/// mixed resilient/adaptive sessions under each feedback fault (none, loss, staleness, corruption,
/// loss plus corruption) at a weak and a strong SNR: per frame the
/// summary plus the rate, §III-F budget and detector bias left in force,
/// per session the metrics, ARQ statistics and the count of resilient
/// summaries that report a PHY error.
fn send_kind_fault_digest() -> u64 {
    let faults: [fn() -> Option<FaultEngine>; 5] = [
        || None,
        || Some(FaultEngine::new().with(FeedbackLoss::new(0.4, 21))),
        || Some(FaultEngine::new().with(FeedbackStaleness::new(3))),
        || Some(FaultEngine::new().with(FeedbackCorruption::new(0.6, 8, 22))),
        || {
            Some(
                FaultEngine::new()
                    .with(FeedbackLoss::new(0.3, 23))
                    .with(FeedbackCorruption::new(0.6, 8, 24)),
            )
        },
    ];
    let mut h = Fnv::new();
    for snr_db in [2.0, 19.0] {
        for fault in faults {
            for kind in [Kind::Plain, Kind::Resilient, Kind::Adaptive, Kind::Mixed] {
                let config = SessionConfig { snr_db, arq_max_retries: 3, ..Default::default() };
                let mut s = CosSession::new(config, 31);
                if let Some(engine) = fault() {
                    s.set_faults(engine);
                }
                let mut phy_errors = 0u64;
                for frame in 0..24 {
                    let payload = [frame as u8 ^ 0x5A; 300];
                    if frame % 4 == 0 {
                        s.queue_control(message(8 + 4 * (frame % 3)));
                    }
                    let kind = match kind {
                        Kind::Mixed if frame % 2 == 0 => Kind::Resilient,
                        Kind::Mixed => Kind::Adaptive,
                        kind => kind,
                    };
                    match kind {
                        Kind::Plain => h.packet(&s.send_packet_summary(&payload, &message(12))),
                        Kind::Resilient | Kind::Mixed => {
                            let r = s.send_packet_resilient_summary(&payload);
                            h.packet(&r.packet);
                            h.bytes(r.mode.label().as_bytes());
                            h.bytes(r.mode_after.label().as_bytes());
                            h.bool(r.control_attempted);
                            h.bool(r.control_acked);
                            h.bool(r.feedback_delivered);
                            h.bytes(r.phy_error.unwrap_or("-").as_bytes());
                            phy_errors += r.phy_error.is_some() as u64;
                        }
                        Kind::Adaptive => h.adaptive(&s.send_packet_adaptive_summary(&payload)),
                    }
                    h.byte(s.current_rate() as u8);
                    h.usize(s.silence_budget(1024));
                    h.f64(s.detector_bias_db());
                }
                let m = s.metrics();
                for v in [
                    m.frames_tx,
                    m.frames_rx_ok,
                    m.control_embedded,
                    m.control_ok,
                    m.feedback_delivered,
                    m.arq_retries,
                    m.adaptation_events,
                    m.silence_budget as u64,
                ] {
                    h.u64(v);
                }
                let a = s.arq_stats();
                for v in [a.enqueued, a.delivered, a.failed, a.attempts, a.total_delivery_latency] {
                    h.u64(v);
                }
                h.u64(phy_errors);
            }
        }
    }
    h.value()
}

#[test]
fn every_send_kind_under_every_feedback_fault() {
    // What each kind applies, salvages or misses under each feedback
    // fate is pinned here, not only the resilient kind that
    // robustness_soak covers. Recorded before the three sender tails
    // became one; moved once when the two budget machines became one
    // (an unpinned resilient rate now falls back on ERROR entry, and
    // adaptive frames gained ERROR).
    let digest = send_kind_fault_digest();
    assert_eq!(digest, 0x7a63_4f40_29bc_2443, "digest {digest:#018x}");
}
