//! The IEEE 802.11a data scrambler (Clause 17.3.5.4).
//!
//! The DATA field is XOR-ed with the output of the `x^7 + x^4 + 1` LFSR
//! ([`cos_dsp::Prbs127`]). Scrambling is an involution: applying the same
//! seeded scrambler twice restores the input, which is how the receiver
//! descrambles. The transmitter chooses a pseudo-random non-zero seed per
//! frame; the receiver recovers it from the seven zero SERVICE bits that are
//! transmitted first.

use cos_dsp::Prbs127;

/// A seeded 802.11a scrambler/descrambler.
///
/// # Examples
///
/// ```
/// use cos_fec::Scrambler;
///
/// let data = vec![1, 0, 1, 1, 0, 1, 0, 0];
/// let scrambled = Scrambler::new(0x5D).scramble(&data);
/// let restored = Scrambler::new(0x5D).scramble(&scrambled);
/// assert_eq!(restored, data);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Scrambler {
    lfsr: Prbs127,
}

impl Scrambler {
    /// Creates a scrambler with the given 7-bit non-zero seed.
    ///
    /// # Panics
    ///
    /// Panics if `seed` is zero or wider than 7 bits.
    pub fn new(seed: u8) -> Self {
        Scrambler { lfsr: Prbs127::new(seed) }
    }

    /// Scrambles (or descrambles) a bit sequence, consuming LFSR state.
    pub fn scramble(mut self, bits: &[u8]) -> Vec<u8> {
        bits.iter().map(|&b| b ^ self.lfsr.next_bit()).collect()
    }

    /// Scrambles in place, advancing the internal LFSR so the scrambler can
    /// be reused across consecutive spans of the same frame.
    pub fn scramble_in_place(&mut self, bits: &mut [u8]) {
        for b in bits.iter_mut() {
            *b ^= self.lfsr.next_bit();
        }
    }

    /// Recovers the transmitter's seed from the first 7 received scrambled
    /// bits, assuming the plaintext bits were zero (the SERVICE field's
    /// scrambler-init bits). Returns `None` if the implied seed is zero
    /// (an all-zero prefix cannot come from a valid seed) or a value is
    /// not 0/1.
    ///
    /// The LFSR output over the first 7 steps, XOR-ed with zero plaintext,
    /// *is* the keystream, and the first 7 outputs of the maximal-length
    /// register determine its state: a 128-entry table, built at compile
    /// time from every seed's prefix, inverts the map.
    pub fn recover_seed(first7_scrambled: &[u8]) -> Option<u8> {
        assert!(first7_scrambled.len() >= 7, "need at least 7 bits to recover the seed");
        // Entry `p` is the seed whose first 7 outputs, LSB-first, are `p`;
        // `0` where no seed has that prefix.
        static SEED_OF_PREFIX: [u8; 128] = {
            let mut table = [0u8; 128];
            let mut seed = 1;
            while seed < 0x80 {
                let mut lfsr = Prbs127::new(seed);
                let mut prefix = 0;
                let mut i = 0;
                while i < 7 {
                    prefix |= (lfsr.next_bit() as usize) << i;
                    i += 1;
                }
                assert!(table[prefix] == 0, "distinct seeds give distinct prefixes");
                table[prefix] = seed;
                seed += 1;
            }
            table
        };
        let prefix = first7_scrambled[..7]
            .iter()
            .enumerate()
            .try_fold(0, |prefix, (i, &b)| (b <= 1).then_some(prefix | usize::from(b) << i))?;
        match SEED_OF_PREFIX[prefix] {
            0 => None,
            seed => Some(seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn involution_for_every_seed() {
        let data: Vec<u8> = (0..200).map(|i| ((i * 7) % 3 == 0) as u8).collect();
        for seed in [1u8, 0x5D, 0x7F, 0x2A] {
            let once = Scrambler::new(seed).scramble(&data);
            let twice = Scrambler::new(seed).scramble(&once);
            assert_eq!(twice, data);
        }
    }

    #[test]
    fn scrambling_changes_data() {
        let data = vec![0u8; 64];
        let scrambled = Scrambler::new(0x7F).scramble(&data);
        assert_ne!(scrambled, data);
        // Scrambling zeros exposes the keystream = PRBS sequence.
        let mut lfsr = Prbs127::new(0x7F);
        let keystream: Vec<u8> = (0..64).map(|_| lfsr.next_bit()).collect();
        assert_eq!(scrambled, keystream);
    }

    #[test]
    fn in_place_matches_owned() {
        let data: Vec<u8> = (0..50).map(|i| (i % 2) as u8).collect();
        let owned = Scrambler::new(0x33).scramble(&data);
        let mut s = Scrambler::new(0x33);
        let mut buf = data.clone();
        s.scramble_in_place(&mut buf[..25]);
        s.scramble_in_place(&mut buf[25..]);
        assert_eq!(buf, owned);
    }

    #[test]
    fn seed_recovery_from_service_prefix() {
        for seed in [0x11u8, 0x5D, 0x7F] {
            // Transmit 7 zero bits through the scrambler.
            let prefix = Scrambler::new(seed).scramble(&[0u8; 7]);
            assert_eq!(Scrambler::recover_seed(&prefix), Some(seed));
        }
    }

    #[test]
    fn seed_recovery_rejects_all_zero_prefix() {
        // An all-zero keystream prefix of length 7 never occurs for a valid
        // seed (the register would have to be zero).
        assert_eq!(Scrambler::recover_seed(&[0u8; 7]), None);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_seed_rejected() {
        Scrambler::new(0);
    }
}
