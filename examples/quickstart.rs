//! Quickstart: send one 802.11a data packet with a free control message
//! embedded as silence symbols, across a fading indoor channel.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use cos::core::session::{CosSession, SessionConfig};

fn main() {
    // A CoS session bundles the 802.11a PHY, the indoor channel model and
    // the whole CoS feedback loop (EVM measurement, subcarrier selection,
    // energy detection, erasure decoding, control-rate adaptation).
    let config = SessionConfig { snr_db: 20.0, ..Default::default() };
    let mut session = CosSession::new(config, 42);

    let payload = b"ordinary data traffic - unaware it carries more".to_vec();
    // 24 control bits ride for free in the same frame (k = 4 bits per
    // inter-silence interval, as in the paper).
    let control_message = vec![1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1];

    // First packet bootstraps the receiver's channel feedback.
    session.send_packet_summary(&payload, &control_message);

    let report = session.send_packet_summary(&payload, &control_message);
    println!("data rate          : {}", report.rate);
    println!("measured SNR       : {:.1} dB", report.measured_snr_db);
    println!("data CRC           : {}", if report.data_ok { "PASS" } else { "FAIL" });
    println!("silence symbols    : {}", report.silences_sent);
    println!("control subcarriers: {:?}", session.selected_subcarriers());
    println!(
        "control message    : {} ({} bits)",
        if report.control_ok { "delivered exactly" } else { "corrupted" },
        control_message.len()
    );
    println!(
        "detection          : {} false positives, {} false negatives",
        report.detection.false_positives, report.detection.false_negatives
    );
    println!(
        "silence budget     : {} silences/packet available at this SNR",
        session.silence_budget(1024)
    );

    assert!(report.data_ok && report.control_ok, "quickstart link should be clean");
    println!("\nCoS delivered the control message without spending one microsecond of extra airtime.");
}
