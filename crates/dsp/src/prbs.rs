//! The IEEE 802.11a `x^7 + x^4 + 1` pseudo-random binary sequence.
//!
//! The same 7-bit LFSR serves two roles in the standard (and therefore in
//! this simulator):
//!
//! * seeded with an arbitrary non-zero state it is the **data scrambler**
//!   sequence (Clause 17.3.5.4),
//! * seeded with all ones it produces the 127-bit sequence whose `0 → +1`,
//!   `1 → −1` mapping is the **pilot polarity** sequence `p_n`
//!   (Clause 17.3.5.9).

/// The 7-bit LFSR `S(x) = x^7 + x^4 + 1` of IEEE 802.11a.
///
/// # Examples
///
/// ```
/// use cos_dsp::Prbs127;
///
/// // All-ones seed: the first bits of the standard's 127-bit sequence.
/// let mut lfsr = Prbs127::new(0x7F);
/// let first: Vec<u8> = (0..8).map(|_| lfsr.next_bit()).collect();
/// assert_eq!(first, [0, 0, 0, 0, 1, 1, 1, 0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prbs127 {
    state: u8,
}

impl Prbs127 {
    /// The sequence period: `2^7 − 1`.
    pub const PERIOD: usize = 127;

    /// Creates an LFSR from a 7-bit seed.
    ///
    /// # Panics
    ///
    /// Panics if `seed` is zero (the LFSR would lock up) or wider than
    /// 7 bits.
    pub const fn new(seed: u8) -> Self {
        assert!(seed != 0, "scrambler seed must be non-zero");
        assert!(seed < 0x80, "scrambler seed must fit in 7 bits");
        Prbs127 { state: seed }
    }

    /// The current 7-bit register state.
    pub const fn state(&self) -> u8 {
        self.state
    }

    /// Advances the register and returns the next output bit (0 or 1).
    #[inline]
    pub const fn next_bit(&mut self) -> u8 {
        let out = ((self.state >> 6) ^ (self.state >> 3)) & 1;
        self.state = ((self.state << 1) | out) & 0x7F;
        out
    }

    /// Produces the next `n` bits as a vector.
    pub fn bits(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_bit()).collect()
    }

    /// The full 127-bit pilot-polarity sequence `p_n` (`0 → +1`, `1 → −1`)
    /// generated from the all-ones seed, as mandated by Clause 17.3.5.9.
    /// One table, evaluated at compile time.
    pub fn pilot_polarity() -> &'static [i8; Self::PERIOD] {
        static POLARITY: [i8; Prbs127::PERIOD] = {
            let mut lfsr = Prbs127::new(0x7F);
            let mut p = [0i8; Prbs127::PERIOD];
            let mut n = 0;
            while n < Prbs127::PERIOD {
                p[n] = if lfsr.next_bit() == 0 { 1 } else { -1 };
                n += 1;
            }
            p
        };
        &POLARITY
    }
}

impl Iterator for Prbs127 {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        Some(self.next_bit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 127-bit sequence printed in IEEE 802.11-2012, Clause 17.3.5.4,
    /// for the all-ones initial state.
    const STANDARD_SEQUENCE: &str = "0000111011110010110010010000001000100110001011101011011000001100110101001110011110110100001010101111101001010001101110001111111";

    #[test]
    fn matches_standard_sequence() {
        let mut lfsr = Prbs127::new(0x7F);
        let got: String = (0..127).map(|_| char::from(b'0' + lfsr.next_bit())).collect();
        assert_eq!(got, STANDARD_SEQUENCE);
    }

    #[test]
    fn period_is_127() {
        let mut lfsr = Prbs127::new(0x7F);
        let first: Vec<u8> = lfsr.bits(127);
        let second: Vec<u8> = lfsr.bits(127);
        assert_eq!(first, second);
        assert_eq!(first.len(), 127);
    }

    #[test]
    fn sequence_is_balanced() {
        // A maximal-length LFSR sequence has 64 ones and 63 zeros per period.
        let mut lfsr = Prbs127::new(0x7F);
        let ones: u32 = lfsr.bits(127).iter().map(|&b| b as u32).sum();
        assert_eq!(ones, 64);
    }

    #[test]
    fn all_nonzero_seeds_have_full_period() {
        for seed in 1u8..0x80 {
            let mut lfsr = Prbs127::new(seed);
            let mut steps = 0usize;
            loop {
                lfsr.next_bit();
                steps += 1;
                if lfsr.state() == seed {
                    break;
                }
                assert!(steps <= 127, "seed {seed} exceeded the maximal period");
            }
            assert_eq!(steps, 127, "seed {seed} has short period {steps}");
        }
    }

    #[test]
    fn pilot_polarity_prefix_matches_standard() {
        // Clause 17.3.5.9: p starts 1,1,1,1, -1,-1,-1,1, -1,-1,-1,-1, 1,1,-1,1.
        let p = Prbs127::pilot_polarity();
        assert_eq!(&p[..16], &[1, 1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1, 1, 1, -1, 1]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_seed_panics() {
        Prbs127::new(0);
    }

    #[test]
    #[should_panic(expected = "7 bits")]
    fn wide_seed_panics() {
        Prbs127::new(0x80);
    }

    #[test]
    fn iterator_interface_matches_next_bit() {
        let a = Prbs127::new(0x5A);
        let mut b = Prbs127::new(0x5A);
        let from_iter: Vec<u8> = a.take(20).collect();
        let from_calls: Vec<u8> = (0..20).map(|_| b.next_bit()).collect();
        assert_eq!(from_iter, from_calls);
    }
}
