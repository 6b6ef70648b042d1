//! Property-based tests for the 802.11a PHY, including the malformed-input
//! properties the resilience layer depends on: any byte stream into the
//! receive chain or the SIGNAL parser must produce a typed error or a
//! correct frame — never a panic and never a false CRC pass.

use cos_phy::constellation::Modulation;
use cos_fec::FecWorkspace;
use cos_phy::frame::{
    build_data_field, extract_payload, finish_data_field_into, payload_to_psdu,
    prepare_data_field_into, run_staged_viterbi,
};
use cos_phy::ofdm::{FreqSymbol, OfdmEngine};
use cos_phy::rates::DataRate;
use cos_phy::rx::Receiver;
use cos_phy::signal::parse_signal_slice;
use cos_phy::tx::Transmitter;
use cos_phy::PhyError;
use cos_dsp::rng::{cases, Xoshiro256};
use cos_dsp::Complex;

/// `lens.start..lens.end` random bytes: the length is drawn first.
fn bytes(rng: &mut Xoshiro256, lens: std::ops::Range<usize>) -> Vec<u8> {
    (0..lens.start + rng.below(lens.len())).map(|_| rng.next_u64() as u8).collect()
}

fn modulation(rng: &mut Xoshiro256) -> Modulation {
    Modulation::ALL[rng.below(Modulation::ALL.len())]
}

fn rate(rng: &mut Xoshiro256) -> DataRate {
    DataRate::ALL[rng.below(DataRate::ALL.len())]
}

/// Decodes soft bits to descrambled DATA-field bits and the scrambler
/// seed through the staged calls `Receiver::decode_into` makes.
fn decode(llrs: &[i16], rate: DataRate, psdu_len: usize) -> Result<(Vec<u8>, u8), PhyError> {
    let mut fec = FecWorkspace::new();
    let prep = prepare_data_field_into(llrs, rate, psdu_len, &mut fec)?;
    run_staged_viterbi(prep, &mut fec);
    let mut bits = Vec::new();
    let seed = finish_data_field_into(&fec, &mut bits)?;
    Ok((bits, seed))
}

#[test]
fn map_demap_is_identity() {
    for mut rng in cases(32) {
        let m = modulation(&mut rng);
        let idx = rng.below(64);
        let n = m.bits_per_symbol();
        let idx = idx % m.points_count();
        let bits: Vec<u8> = (0..n).map(|i| ((idx >> (n - 1 - i)) & 1) as u8).collect();
        assert_eq!(m.hard_demap(m.map(&bits)), bits);
    }
}

#[test]
fn soft_demap_sign_matches_hard_decision() {
    for mut rng in cases(32) {
        let m = modulation(&mut rng);
        let re = -1.5 + rng.unit_f64() * 3.0;
        let im = -1.5 + rng.unit_f64() * 3.0;
        // For any received point, the per-bit LLR sign must agree with the
        // nearest-point hard decision (max-log consistency).
        let y = Complex::new(re, im);
        let hard = m.hard_demap(y);
        let mut llrs = Vec::new();
        m.soft_demap(y, 1.0, &mut llrs);
        for (i, (&b, &l)) in hard.iter().zip(&llrs).enumerate() {
            if l != 0 {
                assert_eq!(b, (l < 0) as u8, "bit {} of {:?} at {}", i, m, y);
            }
        }
    }
}

#[test]
fn ofdm_roundtrip_arbitrary_points() {
    for mut rng in cases(32) {
        let seed = rng.next_u64();
        let polarity = [1i8, -1][rng.below(2)];
        let mut x = seed | 1;
        let points: Vec<Complex> = (0..48).map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            Complex::new(((x >> 32) as i32 as f64) / (1u64 << 31) as f64,
                         ((x & 0xFFFF_FFFF) as i32 as f64) / (1u64 << 31) as f64)
        }).collect();
        let engine = OfdmEngine::new();
        let sym = FreqSymbol::assemble(&points, polarity);
        let rx = engine.demodulate(&engine.modulate(&sym));
        for (a, b) in sym.0.iter().zip(rx.0.iter()) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }
}

#[test]
fn data_field_roundtrip_any_payload() {
    for mut rng in cases(32) {
        let payload = bytes(&mut rng, 1..300);
        let rate = rate(&mut rng);
        let seed = 1 + rng.below(0x7F) as u8;
        let psdu = payload_to_psdu(&payload);
        let df = build_data_field(&psdu, rate, seed);
        let llrs: Vec<i16> =
            df.interleaved.iter().map(|&b| if b == 0 { 100 } else { -100 }).collect();
        let (bits, got_seed) = decode(&llrs, rate, psdu.len()).expect("decodes");
        assert_eq!(got_seed, seed);
        assert_eq!(extract_payload(&bits, psdu.len()), Some(payload));
    }
}

#[test]
fn frame_survives_scattered_erasures() {
    for mut rng in cases(32) {
        let payload = bytes(&mut rng, 50..200);
        let stride = 25 + rng.below(35);
        let rate = DataRate::Mbps24;
        let psdu = payload_to_psdu(&payload);
        let df = build_data_field(&psdu, rate, 0x5D);
        let mut llrs: Vec<i16> =
            df.interleaved.iter().map(|&b| if b == 0 { 100 } else { -100 }).collect();
        for i in (0..llrs.len()).step_by(stride) {
            llrs[i] = 0;
        }
        let (bits, _) = decode(&llrs, rate, psdu.len()).expect("decodes");
        assert_eq!(extract_payload(&bits, psdu.len()), Some(payload));
    }
}

#[test]
fn airtime_monotonically_decreases_with_rate() {
    for mut rng in cases(32) {
        let bytes = 1 + rng.below(1999);
        let times: Vec<f64> = DataRate::ALL.iter().map(|r| r.frame_airtime_us(bytes)).collect();
        for w in times.windows(2) {
            assert!(w[1] <= w[0], "faster rate must not take longer: {:?}", times);
        }
    }
}

#[test]
fn signal_parser_never_panics_on_arbitrary_bits() {
    for mut rng in cases(32) {
        let bits: Vec<u8> = (0..rng.below(40)).map(|_| rng.below(2) as u8).collect();
        // Any bit vector: a typed error, or a sane (rate, length) pair.
        match parse_signal_slice(&bits) {
            Ok((rate, len)) => {
                assert!(DataRate::ALL.contains(&rate));
                assert!(len <= 0xFFF);
            }
            Err(e) => {
                let _ = e.kind(); // every error carries a stable label
            }
        }
    }
}

#[test]
fn rx_chain_survives_arbitrary_sample_streams() {
    for mut rng in cases(32) {
        let bytes = bytes(&mut rng, 0..800);
        // Raw garbage in: the full receive chain must return a typed error
        // or a frame that failed its CRC — never panic, never a false pass.
        let samples: Vec<Complex> = bytes
            .chunks(2)
            .map(|c| {
                let re = (c[0] as f64 - 127.5) / 127.5;
                let im = (*c.get(1).unwrap_or(&0) as f64 - 127.5) / 127.5;
                Complex::new(re, im)
            })
            .collect();
        match Receiver::new().receive(&samples, None) {
            Ok(rx) => assert!(!rx.out.crc_ok, "garbage must not pass CRC"),
            Err(e) => {
                let _ = e.kind();
            }
        }
    }
}

#[test]
fn rx_chain_survives_truncated_frames() {
    for mut rng in cases(32) {
        let payload = bytes(&mut rng, 10..120);
        let keep_permille = rng.below(1000);
        // A legitimate frame cut off mid-air at any point: typed error or
        // an honest CRC verdict.
        let frame = Transmitter::new().build_frame(&payload, DataRate::Mbps24, 0x5D);
        let mut samples = frame.to_time_samples();
        let keep = samples.len() * keep_permille / 1000;
        samples.truncate(keep);
        match Receiver::new().receive(&samples, None) {
            Ok(rx) => {
                if rx.out.crc_ok {
                    // Only possible when enough samples survived to carry
                    // the whole frame.
                    assert_eq!(rx.out.payload, payload);
                }
            }
            Err(e) => {
                let _ = e.kind();
            }
        }
    }
}

#[test]
fn rx_chain_survives_bit_flipped_frames() {
    for mut rng in cases(32) {
        let payload = bytes(&mut rng, 10..120);
        let stride = 1 + rng.below(199);
        let phase = rng.below(50);
        // Sample-level corruption (sign flips every `stride` samples): the
        // chain must not panic, and a CRC pass implies the exact payload.
        let frame = Transmitter::new().build_frame(&payload, DataRate::Mbps12, 0x31);
        let mut samples = frame.to_time_samples();
        let mut i = phase;
        while i < samples.len() {
            samples[i] = -samples[i];
            i += stride;
        }
        match Receiver::new().receive(&samples, None) {
            Ok(rx) => {
                if rx.out.crc_ok {
                    assert_eq!(rx.out.payload, payload);
                }
            }
            Err(e) => {
                let _ = e.kind();
            }
        }
    }
}

#[test]
fn truncated_llrs_never_panic_the_data_field_decoder() {
    for mut rng in cases(32) {
        let payload = bytes(&mut rng, 1..100);
        let keep_permille = rng.below(1000);
        let rate = rate(&mut rng);
        let psdu = payload_to_psdu(&payload);
        let df = build_data_field(&psdu, rate, 0x5D);
        let llrs: Vec<i16> =
            df.interleaved.iter().map(|&b| if b == 0 { 100 } else { -100 }).collect();
        let keep = llrs.len() * keep_permille / 1000;
        // Any truncation: Ok with honest bits, or a typed error — no panic.
        if let Err(e) = decode(&llrs[..keep], rate, psdu.len()) {
            let _ = e.kind();
        }
    }
}
