//! Cross-crate property tests: the end-to-end pipeline under arbitrary
//! payloads, messages and operating points.
//!
//! The two loopback properties first replay one input each, recorded as
//! a shrunk failure by an earlier property-test runner, then their drawn
//! cases.

use cos::channel::{ChannelConfig, Link};
use cos::core::energy_detector::EnergyDetector;
use cos::core::interval::IntervalCodec;
use cos::core::power_controller::PowerController;
use cos::dsp::rng::{cases, Xoshiro256};
use cos::phy::rates::DataRate;
use cos::phy::rx::Receiver;
use cos::phy::tx::Transmitter;

/// The recorded input of `noiseless_loopback_is_lossless`: this payload
/// at 9 Mbps, scrambler seed 2.
#[rustfmt::skip]
const RECORDED_NOISELESS: [u8; 239] = [
    49, 188, 67, 221, 254, 242, 242, 149, 141, 192, 124, 195, 152, 133, 151, 57,
    132, 13, 233, 246, 140, 42, 41, 144, 242, 37, 226, 147, 77, 11, 212, 214,
    26, 17, 58, 16, 90, 107, 18, 85, 15, 162, 217, 139, 66, 91, 107, 96,
    237, 102, 222, 58, 103, 48, 125, 151, 19, 200, 230, 241, 76, 3, 46, 57,
    61, 175, 48, 135, 20, 77, 141, 208, 7, 192, 116, 161, 143, 104, 5, 188,
    239, 166, 104, 248, 24, 10, 45, 155, 193, 19, 109, 53, 189, 45, 47, 70,
    95, 109, 30, 33, 40, 32, 55, 172, 68, 57, 129, 166, 144, 195, 199, 176,
    251, 9, 80, 56, 226, 213, 156, 82, 59, 7, 120, 170, 163, 104, 101, 250,
    38, 249, 14, 100, 15, 60, 11, 229, 18, 67, 21, 75, 85, 125, 56, 113,
    187, 169, 24, 253, 83, 23, 121, 118, 207, 229, 45, 220, 95, 209, 66, 43,
    89, 172, 134, 123, 177, 48, 16, 60, 173, 84, 197, 233, 133, 17, 245, 124,
    85, 4, 173, 110, 122, 34, 16, 151, 8, 238, 64, 119, 128, 183, 63, 45,
    71, 24, 138, 224, 63, 159, 201, 9, 176, 135, 148, 187, 157, 101, 89, 193,
    174, 185, 53, 204, 239, 242, 79, 254, 149, 1, 171, 225, 104, 227, 1, 114,
    237, 84, 191, 4, 112, 110, 176, 172, 68, 35, 58, 122, 94, 31, 79,
];

/// The recorded input of `high_snr_fading_loopback_is_lossless`: this
/// payload, channel seed 245.
#[rustfmt::skip]
const RECORDED_FADING: [u8; 310] = [
    214, 17, 37, 136, 178, 191, 100, 160, 201, 22, 129, 8, 239, 212, 205, 146,
    61, 54, 91, 114, 227, 240, 128, 124, 31, 192, 83, 32, 119, 230, 145, 131,
    22, 68, 226, 75, 80, 224, 81, 182, 187, 83, 38, 181, 23, 162, 126, 59,
    168, 86, 241, 94, 122, 233, 195, 94, 226, 86, 221, 49, 96, 34, 218, 112,
    66, 231, 21, 76, 134, 142, 63, 222, 239, 197, 82, 84, 114, 213, 191, 22,
    84, 125, 154, 22, 26, 216, 76, 122, 60, 160, 11, 144, 23, 189, 48, 246,
    80, 244, 64, 12, 128, 196, 4, 38, 82, 77, 113, 135, 77, 111, 90, 93,
    126, 229, 216, 112, 228, 192, 78, 215, 206, 222, 131, 24, 106, 96, 213, 157,
    126, 194, 168, 160, 9, 82, 245, 222, 219, 5, 223, 19, 203, 211, 8, 241,
    231, 252, 63, 210, 39, 240, 6, 128, 1, 18, 100, 70, 94, 237, 185, 253,
    0, 100, 206, 186, 247, 114, 68, 62, 180, 73, 63, 221, 156, 183, 190, 216,
    246, 239, 247, 36, 235, 16, 16, 224, 251, 23, 36, 38, 250, 68, 148, 73,
    175, 242, 98, 254, 189, 47, 162, 178, 233, 57, 55, 244, 176, 182, 249, 74,
    158, 218, 231, 67, 141, 200, 4, 218, 176, 221, 227, 73, 164, 43, 8, 80,
    33, 241, 5, 151, 221, 5, 215, 58, 171, 133, 160, 114, 17, 214, 37, 126,
    182, 117, 91, 134, 73, 144, 34, 148, 55, 252, 121, 123, 159, 98, 172, 184,
    106, 78, 78, 63, 60, 120, 10, 231, 101, 130, 164, 119, 240, 11, 196, 89,
    88, 80, 39, 228, 221, 20, 198, 206, 116, 203, 62, 175, 74, 109, 21, 83,
    213, 211, 46, 146, 36, 73, 85, 223, 249, 39, 129, 227, 190, 104, 202, 43,
    229, 9, 16, 167, 49, 61,
];

/// `lens.start..lens.end` random bytes: the length is drawn first.
fn bytes(rng: &mut Xoshiro256, lens: std::ops::Range<usize>) -> Vec<u8> {
    (0..lens.start + rng.below(lens.len())).map(|_| rng.next_u64() as u8).collect()
}

/// A frame received with no channel decodes to its payload and seed.
fn noiseless_loopback(payload: &[u8], rate: DataRate, seed: u8) {
    let frame = Transmitter::new().build_frame(payload, rate, seed);
    let samples = frame.to_time_samples();
    let rx = Receiver::new().receive(&samples, None).expect("decodes");
    assert!(rx.out.crc_ok);
    assert_eq!(rx.out.payload, payload);
    assert_eq!(rx.out.scrambler_seed, Some(seed));
}

/// A 12 Mbps frame through the default fading channel at 28 dB decodes to
/// its payload.
fn high_snr_fading_loopback(payload: &[u8], channel_seed: u64) {
    let mut link = Link::new(ChannelConfig::default(), 28.0, channel_seed);
    let frame = Transmitter::new().build_frame(payload, DataRate::Mbps12, 0x5D);
    let samples = link.transmit(&frame.to_time_samples());
    let rx = Receiver::new().receive(&samples, None).expect("decodes");
    assert!(rx.out.crc_ok);
    assert_eq!(rx.out.payload, payload);
}

#[test]
fn noiseless_loopback_is_lossless() {
    noiseless_loopback(&RECORDED_NOISELESS, DataRate::Mbps9, 2);
    for mut rng in cases(24) {
        let payload = bytes(&mut rng, 1..600);
        let rate = DataRate::ALL[rng.below(DataRate::ALL.len())];
        let seed = 1 + rng.below(0x7F) as u8;
        noiseless_loopback(&payload, rate, seed);
    }
}

#[test]
fn high_snr_fading_loopback_is_lossless() {
    high_snr_fading_loopback(&RECORDED_FADING, 245);
    for mut rng in cases(24) {
        let payload = bytes(&mut rng, 1..400);
        let channel_seed = rng.below(1000) as u64;
        high_snr_fading_loopback(&payload, channel_seed);
    }
}

#[test]
fn control_roundtrip_on_clean_channel() {
    for mut rng in cases(24) {
        let groups = 1 + rng.below(19);
        let msg_seed = rng.next_u64();
        // Arbitrary control messages embedded and recovered without noise.
        let codec = IntervalCodec::default();
        let mut x = msg_seed;
        let bits: Vec<u8> = (0..groups * 4).map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((x >> 63) & 1) as u8
        }).collect();
        let controller = PowerController::new(codec);
        let selected = vec![3usize, 12, 20, 29, 37, 45];
        let mut frame = Transmitter::new().build_frame(&[0xAA; 700], DataRate::Mbps24, 0x5D);
        controller.embed(&mut frame, &selected, &bits).expect("fits");
        let samples = frame.to_time_samples();
        let receiver = Receiver::new();
        let fe = receiver.front_end(&samples).expect("front end");
        let detection = EnergyDetector::default().detect(&fe, &selected);
        assert_eq!(detection.control_bits(&codec), Some(bits.clone()));
        // And the data still decodes through the erasures.
        let rx = receiver.decode(&fe, Some(&detection.erasures));
        assert!(rx.crc_ok);
    }
}

#[test]
fn silence_count_never_lies() {
    for mut rng in cases(24) {
        let groups = rng.below(10);
        let codec = IntervalCodec::default();
        let bits = vec![0u8; groups * 4];
        let controller = PowerController::new(codec);
        let selected: Vec<usize> = (0..8).map(|i| i * 6).collect();
        let mut frame = Transmitter::new().build_frame(&[1; 500], DataRate::Mbps12, 0x5D);
        controller.embed(&mut frame, &selected, &bits).expect("fits");
        assert_eq!(frame.silence_count(), codec.silences_for(bits.len()));
    }
}
