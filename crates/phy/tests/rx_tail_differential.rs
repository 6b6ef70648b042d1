//! Differential tests for the word-speed receive tail: the descramble in
//! `finish_data_field_into` (eight bits per step against the keystream
//! table), `bits_to_bytes_into` (eight bits per word) and the table
//! inverse of `Scrambler::recover_seed` must reproduce the per-bit
//! chain they replaced — `Scrambler::scramble_in_place`, a bit-by-bit
//! fold and the brute force over all 127 seeds — exactly.
//!
//! Coverage: all 127 seeds; decoded lengths around every word, byte and
//! keystream-period (127-byte) boundary; PSDU lengths that are not
//! multiples of 8, 64 or 127 bytes; all 128 seed-recovery prefixes (and
//! values above 1); and the packing panic on a value above 1, with its
//! message.

use cos_dsp::Prbs127;
use cos_fec::bits::bits_to_bytes_into;
use cos_fec::{FecWorkspace, Scrambler};
use cos_phy::error::PhyError;
use cos_phy::frame::finish_data_field_into;

/// Deterministic 0/1 bits.
fn bits_of(n: usize, salt: u64) -> Vec<u8> {
    let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 29) as u8 & 1
        })
        .collect()
}

/// The retired seed recovery: brute force over every seed.
fn brute_force_seed(prefix: &[u8]) -> Option<u8> {
    (1u8..0x80).find(|&seed| {
        let mut lfsr = Prbs127::new(seed);
        prefix[..7].iter().all(|&b| b == lfsr.next_bit())
    })
}

/// A decoded DATA field of `n` bits as the Viterbi leaves it: SERVICE
/// zeros and data, scrambled with `seed`.
fn decoded(n: usize, seed: u8, salt: u64) -> Vec<u8> {
    let mut bits = bits_of(n, salt);
    bits[..7.min(n)].fill(0);
    Scrambler::new(seed).scramble_in_place(&mut bits);
    bits
}

/// Runs `finish_data_field_into` on `decoded` and checks it against the
/// per-bit descrambler.
fn check_finish(decoded: Vec<u8>, seed: u8) {
    let mut want = decoded.clone();
    Scrambler::new(seed).scramble_in_place(&mut want);
    let n = decoded.len();
    let fec = FecWorkspace { decoded, ..FecWorkspace::new() };
    // A dirty output buffer, longer than the result.
    let mut bits = vec![9u8; n + 77];
    assert_eq!(finish_data_field_into(&fec, &mut bits), Ok(seed), "seed {seed:#04x}, {n} bits");
    assert_eq!(bits, want, "seed {seed:#04x}, {n} bits");
}

#[test]
fn descramble_matches_the_per_bit_scrambler_for_every_seed() {
    for seed in 1..=127u8 {
        // Past one keystream table (1016 bits) and not a whole byte.
        let n = 2 * 8 * 127 + usize::from(seed);
        check_finish(decoded(n, seed, u64::from(seed)), seed);
    }
}

#[test]
fn descramble_matches_around_word_and_period_boundaries() {
    let boundaries = [7, 8, 9, 63, 64, 65, 1015, 1016, 1017, 2031, 2032, 2033, 8 * 1024 + 22];
    for (k, &n) in boundaries.iter().enumerate() {
        for delta in 0..8 {
            let seed = ((k * 8 + delta) % 127 + 1) as u8;
            check_finish(decoded(n + delta, seed, (n + delta) as u64), seed);
        }
    }
}

#[test]
fn finish_rejects_an_all_zero_prefix() {
    let fec = FecWorkspace { decoded: vec![0; 64], ..FecWorkspace::new() };
    let mut bits = vec![1u8; 5];
    assert_eq!(finish_data_field_into(&fec, &mut bits), Err(PhyError::ScramblerSeed));
    assert!(bits.is_empty());
}

#[test]
fn seed_recovery_matches_the_brute_force_on_every_prefix() {
    for p in 0..128u8 {
        let prefix: Vec<u8> = (0..7).map(|i| (p >> i) & 1).collect();
        assert_eq!(Scrambler::recover_seed(&prefix), brute_force_seed(&prefix), "prefix {p:#04x}");
        // A longer slice reads only its first 7 bits.
        let mut longer = prefix.clone();
        longer.extend([1, 0, 1]);
        assert_eq!(Scrambler::recover_seed(&longer), brute_force_seed(&prefix), "prefix {p:#04x}");
        // A value above 1 matches no seed.
        for i in 0..7 {
            let mut bad = prefix.clone();
            bad[i] += 2;
            assert_eq!(Scrambler::recover_seed(&bad), None, "prefix {p:#04x}, bit {i}");
            assert_eq!(brute_force_seed(&bad), None);
        }
    }
}

#[test]
fn packing_matches_the_per_bit_fold() {
    // Byte counts that are not multiples of 8, 64 or 127, and some that are.
    let mut bytes = vec![0xAA; 3];
    for len in [0, 1, 7, 8, 9, 63, 64, 65, 126, 127, 128, 254, 1000, 1024, 1027] {
        let bits = bits_of(8 * len, len as u64);
        let want: Vec<u8> = bits
            .chunks_exact(8)
            .map(|c| c.iter().enumerate().fold(0u8, |byte, (i, &b)| byte | b << i))
            .collect();
        bits_to_bytes_into(&bits, &mut bytes);
        assert_eq!(bytes, want, "{len} bytes");
    }
}

#[test]
#[should_panic(expected = "bit values must be 0 or 1, got 7")]
fn packing_panics_on_a_value_above_one_deep_in_the_stream() {
    let mut bits = bits_of(8 * 100, 3);
    bits[8 * 61 + 5] = 7;
    bits[8 * 80] = 3; // later values do not change the message
    bits_to_bytes_into(&bits, &mut Vec::new());
}
