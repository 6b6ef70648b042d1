//! Property-based tests for the CoS core.

use cos_core::duplex::{decode_ack, encode_ack, DuplexConfig, FeedbackReport};
use cos_core::feedback::FeedbackVector;
use cos_core::interval::IntervalCodec;
use cos_core::power_controller::PowerController;
use cos_dsp::rng::{cases, Xoshiro256};
use cos_dsp::Complex;
use cos_phy::rates::DataRate;
use cos_phy::tx::Transmitter;

/// `len` random bits. The length is drawn first, a fixed one included,
/// as every vector's is.
fn bits(rng: &mut Xoshiro256, len: usize) -> Vec<u8> {
    (0..len + rng.below(1)).map(|_| rng.below(2) as u8).collect()
}

#[test]
fn interval_roundtrip_any_message() {
    for (k, mut rng) in cases(48).enumerate() {
        // One 4-bit interval per group: every count from 0 to 23 groups,
        // twice each, with random bits.
        let groups = k % 24;
        let msg: Vec<u8> = (0..4 * groups).map(|_| rng.below(2) as u8).collect();
        let codec = IntervalCodec::default();
        let positions = codec.encode(&msg);
        let decoded = codec.decode(&positions);
        assert_eq!(decoded, Some(msg));
    }
}

#[test]
fn encoded_positions_are_strictly_increasing() {
    for mut rng in cases(48) {
        let bits = bits(&mut rng, 40);
        let codec = IntervalCodec::default();
        let positions = codec.encode(&bits);
        for w in positions.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(positions.len(), codec.silences_for(bits.len()));
    }
}

#[test]
fn any_detection_shift_is_caught_or_harmlessly_decoded() {
    for mut rng in cases(48) {
        let bits = bits(&mut rng, 24);
        let shift_at = rng.below(7);
        let delta = 1 + rng.below(2);
        // Shifting one silence position either still decodes to a
        // *different* message (never silently the same bits at wrong
        // positions... it may coincide) or is rejected. Key invariant:
        // decode never panics and length stays consistent.
        let codec = IntervalCodec::default();
        let mut positions = codec.encode(&bits);
        let idx = shift_at % positions.len();
        positions[idx] += delta;
        positions.sort_unstable();
        positions.dedup();
        if let Some(decoded) = codec.decode(&positions) {
            assert_eq!(decoded.len() % 4, 0);
        }
    }
}

#[test]
fn embed_capacity_contract() {
    for mut rng in cases(48) {
        let groups = 1 + rng.below(11);
        let sel_seed = rng.next_u64();
        // guaranteed_capacity_bits is honoured by embed for any message
        // of that size.
        let controller = PowerController::default();
        let frame = Transmitter::new().build_frame(&[0u8; 400], DataRate::Mbps24, 0x5D);
        let mut selected: Vec<usize> = (0..48).filter(|i| (sel_seed >> (i % 48)) & 1 == 1).collect();
        if selected.len() < 2 {
            selected = vec![3, 17, 31];
        }
        let cap = controller.guaranteed_capacity_bits(frame.n_data_symbols(), selected.len());
        let bits_len = (groups * 4).min(cap / 4 * 4);
        let bits = vec![1u8; bits_len]; // worst case spacing
        let mut frame = frame;
        controller.embed(&mut frame, &selected, &bits).expect("guaranteed fit");
        assert_eq!(frame.silence_count(), 1 + bits_len / 4);
    }
}

/// `decode_ack` reads outside input: raw garbage, and real ACKs sign
/// flipped every `stride` samples and cut off at any permille, must give
/// a typed error or a verdict, never a panic, and a report only with a
/// passing CRC. Sparse flips and whole frames are common enough that
/// about a quarter of the ACKs reach the report decode.
#[test]
fn ack_decoder_never_panics() {
    let cfg = DuplexConfig::default();
    let check = |samples: &[Complex]| match decode_ack(samples, &cfg) {
        Ok((crc_ok, report)) => assert!(crc_ok || report.is_none(), "a report without a CRC pass"),
        Err(e) => {
            let _ = e.kind();
        }
    };
    for mut rng in cases(256) {
        // The byte-to-sample mapping of the PHY's garbage-stream property.
        let bytes: Vec<u8> = (0..rng.below(800)).map(|_| rng.next_u64() as u8).collect();
        let garbage: Vec<Complex> = bytes
            .chunks(2)
            .map(|c| {
                let re = (c[0] as f64 - 127.5) / 127.5;
                let im = (*c.get(1).unwrap_or(&0) as f64 - 127.5) / 127.5;
                Complex::new(re, im)
            })
            .collect();
        check(&garbage);

        let body: Vec<u8> = (0..10 + rng.below(31)).map(|_| rng.next_u64() as u8).collect();
        let selection: Vec<usize> = (0..48).filter(|_| rng.next_u64() & 1 == 1).collect();
        let report = FeedbackReport {
            selection: FeedbackVector::from_indices(&selection),
            measured_snr_db: rng.unit_f64() * 70.0,
        };
        let stride = 1 + rng.below(1999);
        // Half the frames arrive whole.
        let keep_permille = rng.below(2001).min(1000);
        let mut samples = encode_ack(&body, &report, &cfg, 0x33).to_time_samples();
        for x in samples.iter_mut().step_by(stride) {
            *x = -*x;
        }
        samples.truncate(samples.len() * keep_permille / 1000);
        check(&samples);
    }
}
