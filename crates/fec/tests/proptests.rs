//! Property-based tests for the FEC stack.

use cos_dsp::rng::{cases, Xoshiro256};
use cos_fec::bits::{bits_to_bytes, bytes_to_bits};
use cos_fec::{CodeRate, ConvEncoder, Crc32, Interleaver, Scrambler, ViterbiDecoder};

/// 1 to `max_len − 1` random bits: the length is drawn first.
fn bits(rng: &mut Xoshiro256, max_len: usize) -> Vec<u8> {
    (0..1 + rng.below(max_len - 1)).map(|_| rng.below(2) as u8).collect()
}

/// `lens.start..lens.end` random bytes: the length is drawn first.
fn bytes(rng: &mut Xoshiro256, lens: std::ops::Range<usize>) -> Vec<u8> {
    (0..lens.start + rng.below(lens.len())).map(|_| rng.next_u64() as u8).collect()
}

fn ideal_llrs(coded: &[u8]) -> Vec<f64> {
    coded.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect()
}

#[test]
fn bytes_bits_roundtrip() {
    for mut rng in cases(64) {
        let bytes = bytes(&mut rng, 0..64);
        assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
    }
}

#[test]
fn scrambler_is_involution() {
    for mut rng in cases(64) {
        let data = bits(&mut rng, 512);
        let seed = 1 + rng.below(0x7F) as u8;
        let once = Scrambler::new(seed).scramble(&data);
        let twice = Scrambler::new(seed).scramble(&once);
        assert_eq!(twice, data);
    }
}

#[test]
fn viterbi_inverts_encoder() {
    for mut rng in cases(64) {
        let mut data = bits(&mut rng, 300);
        data.extend_from_slice(&[0; 6]);
        let coded = ConvEncoder::new().encode(&data);
        let decoded = ViterbiDecoder::new().decode(&ideal_llrs(&coded), true);
        assert_eq!(decoded, data);
    }
}

#[test]
fn viterbi_corrects_isolated_flips() {
    for mut rng in cases(64) {
        let mut data = bits(&mut rng, 200);
        let gap = 30 + rng.below(30);
        data.extend_from_slice(&[0; 6]);
        let coded = ConvEncoder::new().encode(&data);
        let mut llrs = ideal_llrs(&coded);
        for i in (0..llrs.len()).step_by(gap) {
            llrs[i] = -llrs[i];
        }
        assert_eq!(ViterbiDecoder::new().decode(&llrs, true), data);
    }
}

#[test]
fn punctured_roundtrip_all_rates() {
    for mut rng in cases(64) {
        let mut data = bits(&mut rng, 150);
        let rate_idx = rng.below(3);
        let rate = [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters][rate_idx];
        data.extend_from_slice(&[0; 6]);
        // Pad so the mother-code output aligns with the puncture period.
        let period = rate.keep_mask().len();
        while !(data.len() * 2).is_multiple_of(period) {
            data.push(0);
        }
        let coded = ConvEncoder::new().encode(&data);
        let tx = rate.puncture(&coded);
        let soft = rate.depuncture(&ideal_llrs(&tx));
        assert_eq!(ViterbiDecoder::new().decode(&soft, true), data);
    }
}

#[test]
fn interleaver_roundtrip() {
    for mut rng in cases(64) {
        let config_idx = rng.below(4);
        let block_count = 1 + rng.below(3);
        let seed = rng.next_u64();
        let (ncbps, nbpsc) = [(48, 1), (96, 2), (192, 4), (288, 6)][config_idx];
        let il = Interleaver::new(ncbps, nbpsc);
        let mut x = seed;
        let bits: Vec<u8> = (0..ncbps * block_count).map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((x >> 63) & 1) as u8
        }).collect();
        assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
    }
}

#[test]
fn crc_roundtrip_and_corruption() {
    for mut rng in cases(64) {
        let payload = bytes(&mut rng, 1..128);
        let flip = (rng.next_u64() as usize, rng.next_u64() as u8);
        let crc = Crc32::new();
        let framed = crc.append(&payload);
        assert_eq!(crc.verify(&framed), Some(payload.as_slice()));
        let byte = flip.0 % framed.len();
        let bit = flip.1 % 8;
        let mut corrupted = framed.clone();
        corrupted[byte] ^= 1 << bit;
        assert!(crc.verify(&corrupted).is_none());
    }
}

#[test]
fn erasures_never_beat_knowledge() {
    for mut rng in cases(64) {
        let mut data = bits(&mut rng, 120);
        let stride = 9 + rng.below(16);
        // Erasing bits at a stride the code can bridge must still decode.
        data.extend_from_slice(&[0; 6]);
        let coded = ConvEncoder::new().encode(&data);
        let mut llrs = ideal_llrs(&coded);
        for i in (0..llrs.len()).step_by(stride) {
            llrs[i] = 0.0;
        }
        assert_eq!(ViterbiDecoder::new().decode(&llrs, true), data);
    }
}
