//! The rate-1/2, constraint-length-7 convolutional encoder of IEEE 802.11a
//! (Clause 17.3.5.5), generator polynomials `g0 = 133₈`, `g1 = 171₈`.
//!
//! Output bits are emitted in (A, B) pairs: `coded[2t] = A_t`,
//! `coded[2t+1] = B_t`. Higher rates are obtained by [`crate::puncture`].

/// Generator polynomial A, `133₈ = 1011011₂` (current input in the MSB).
pub const GEN_A: u8 = 0o133;
/// Generator polynomial B, `171₈ = 1111001₂`.
pub const GEN_B: u8 = 0o171;
/// Constraint length `K = 7` (6 memory bits).
pub const CONSTRAINT: usize = 7;
/// Number of trellis states, `2^(K-1)`.
pub const STATES: usize = 1 << (CONSTRAINT - 1);

#[inline]
const fn parity(x: u8) -> u8 {
    (x.count_ones() & 1) as u8
}

/// Computes the (A, B) output pair for a 7-bit window
/// `input << 6 | state`, where `state` holds the previous six inputs
/// (most recent in bit 5).
#[inline]
pub const fn branch_output(state: u8, input: u8) -> (u8, u8) {
    let window = (input << 6) | state;
    (parity(window & GEN_A), parity(window & GEN_B))
}

/// Advances the 6-bit encoder state by one input bit.
#[inline]
pub const fn next_state(state: u8, input: u8) -> u8 {
    ((input << 5) | (state >> 1)) & 0x3F
}

/// The 802.11a convolutional encoder.
///
/// The encoder always starts from the all-zero state; frames that append six
/// zero *tail bits* (as the 802.11 DATA field does) also end in the zero
/// state, which the Viterbi decoder exploits.
///
/// # Examples
///
/// ```
/// use cos_fec::ConvEncoder;
///
/// let coded = ConvEncoder::new().encode(&[1, 0, 1, 1]);
/// assert_eq!(coded.len(), 8); // rate 1/2
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvEncoder;

impl ConvEncoder {
    /// Creates an encoder (stateless; provided for API symmetry with the
    /// decoder).
    pub fn new() -> Self {
        ConvEncoder
    }

    /// Encodes `data` at rate 1/2, returning `2 × data.len()` coded bits.
    ///
    /// # Panics
    ///
    /// Panics if any input value is not 0 or 1.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(data, &mut out);
        out
    }

    /// [`ConvEncoder::encode`] writing into a caller-owned buffer, which
    /// is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if any input value is not 0 or 1.
    pub fn encode_into(&self, data: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.resize(data.len() * 2, 0);
        self.encode_to_slice(data, out);
    }

    /// [`ConvEncoder::encode`] writing into a caller-owned slice — the
    /// allocation-free core for fixed-size fields like SIGNAL.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != 2 × data.len()` or any input bit is not
    /// 0 or 1.
    pub fn encode_to_slice(&self, data: &[u8], out: &mut [u8]) {
        assert_eq!(out.len(), data.len() * 2, "rate-1/2 output is twice the input length");
        let mut state = 0u8;
        for (i, &bit) in data.iter().enumerate() {
            assert!(bit <= 1, "input bits must be 0 or 1, got {bit}");
            let (a, b) = branch_output(state, bit);
            out[2 * i] = a;
            out[2 * i + 1] = b;
            state = next_state(state, bit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impulse_response_matches_generators() {
        // A single 1 followed by zeros traces out the generator taps:
        // A outputs = 1011011 (133₈ MSB-first), B outputs = 1111001 (171₈).
        let coded = ConvEncoder::new().encode(&[1, 0, 0, 0, 0, 0, 0]);
        let a: Vec<u8> = coded.iter().step_by(2).copied().collect();
        let b: Vec<u8> = coded.iter().skip(1).step_by(2).copied().collect();
        assert_eq!(a, vec![1, 0, 1, 1, 0, 1, 1]);
        assert_eq!(b, vec![1, 1, 1, 1, 0, 0, 1]);
    }

    #[test]
    fn all_zero_input_gives_all_zero_output() {
        assert!(ConvEncoder::new().encode(&[0; 32]).iter().all(|&b| b == 0));
    }

    #[test]
    fn encoder_is_linear_over_gf2() {
        let enc = ConvEncoder::new();
        let x: Vec<u8> = (0..40).map(|i| ((i * 3) % 5 == 0) as u8).collect();
        let y: Vec<u8> = (0..40).map(|i| ((i * 7) % 3 == 0) as u8).collect();
        let xy: Vec<u8> = x.iter().zip(&y).map(|(a, b)| a ^ b).collect();
        let cx = enc.encode(&x);
        let cy = enc.encode(&y);
        let cxy = enc.encode(&xy);
        let sum: Vec<u8> = cx.iter().zip(&cy).map(|(a, b)| a ^ b).collect();
        assert_eq!(cxy, sum);
    }

    #[test]
    fn tail_bits_return_to_zero_state() {
        let mut data: Vec<u8> = (0..64).map(|i| ((i * 11) % 4 == 1) as u8).collect();
        data.extend_from_slice(&[0; 6]);
        let state = data.iter().fold(0u8, |s, &b| next_state(s, b));
        assert_eq!(state, 0);
    }

    #[test]
    fn state_transition_shifts_register() {
        assert_eq!(next_state(0b000000, 1), 0b100000);
        assert_eq!(next_state(0b100000, 0), 0b010000);
        assert_eq!(next_state(0b111111, 1), 0b111111);
        assert_eq!(next_state(0b111111, 0), 0b011111);
    }

    #[test]
    fn branch_outputs_cover_both_polynomials() {
        // With all-ones window the outputs are the parities of the
        // generators themselves: 133₈ has 5 taps (odd), 171₈ has 5 taps.
        let (a, b) = branch_output(0x3F, 1);
        assert_eq!((a, b), (1, 1));
        let (a, b) = branch_output(0, 0);
        assert_eq!((a, b), (0, 0));
    }

    #[test]
    #[should_panic(expected = "0 or 1")]
    fn invalid_bit_panics() {
        ConvEncoder::new().encode(&[0, 3]);
    }

    #[test]
    fn free_distance_lower_bound() {
        // The 133/171 code has free distance 10: any nonzero terminated
        // input must produce at least 10 coded ones. Check short inputs
        // exhaustively (7 data bits + 6 tail zeros).
        let enc = ConvEncoder::new();
        for pattern in 1u16..128 {
            let mut data: Vec<u8> = (0..7).map(|i| ((pattern >> i) & 1) as u8).collect();
            data.extend_from_slice(&[0; 6]);
            let weight: usize = enc.encode(&data).iter().map(|&b| b as usize).sum();
            assert!(weight >= 10, "pattern {pattern:#09b} has weight {weight}");
        }
    }
}
