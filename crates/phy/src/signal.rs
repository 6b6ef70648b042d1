//! The SIGNAL field (Clause 17.3.4): one BPSK rate-1/2 OFDM symbol carrying
//! RATE (4 bits), a reserved bit, LENGTH (12 bits), even parity and six
//! tail bits. It is convolutionally encoded and interleaved but **not**
//! scrambled.

use crate::constellation::Modulation;
use crate::error::PhyError;
use crate::rates::DataRate;
use cos_dsp::Complex;
use cos_fec::bits::read_field;
use cos_fec::{ConvEncoder, Interleaver, ViterbiDecoder};
use std::sync::OnceLock;

/// Number of information bits in the SIGNAL field.
pub const SIGNAL_BITS: usize = 24;

/// Number of coded bits in the SIGNAL field (rate 1/2, one BPSK symbol).
pub const SIGNAL_CODED_BITS: usize = 2 * SIGNAL_BITS;

/// The SIGNAL field's interleaver (48 coded bits, BPSK), built once per
/// process — the field is decoded on every frame, so its hot path must
/// not allocate.
fn signal_interleaver() -> &'static Interleaver {
    static TABLE: OnceLock<Interleaver> = OnceLock::new();
    TABLE.get_or_init(|| Interleaver::new(SIGNAL_CODED_BITS, 1))
}

/// Builds the 24 SIGNAL bits for a frame.
///
/// # Panics
///
/// Panics if `length_bytes` exceeds the 12-bit LENGTH field (4095).
pub fn signal_bits(rate: DataRate, length_bytes: usize) -> [u8; SIGNAL_BITS] {
    assert!(length_bytes <= 0xFFF, "LENGTH field is 12 bits, got {length_bytes}");
    let mut bits = [0u8; SIGNAL_BITS];
    bits[..4].copy_from_slice(&rate.signal_bits());
    // bits[4] is the reserved bit; LENGTH is LSB first (Clause 17.3.4.3).
    for i in 0..12 {
        bits[5 + i] = ((length_bytes >> i) & 1) as u8;
    }
    bits[17] = bits[..17].iter().fold(0u8, |p, &b| p ^ b); // even parity
    // bits[18..24] are the six tail zeros.
    bits
}

/// Parses 24 decoded SIGNAL bits.
///
/// # Errors
///
/// [`PhyError::SignalParity`] on a parity failure,
/// [`PhyError::ReservedRate`] if the RATE pattern is reserved.
pub fn parse_signal_bits(bits: &[u8; SIGNAL_BITS]) -> Result<(DataRate, usize), PhyError> {
    let parity = bits[..18].iter().fold(0u8, |p, &b| p ^ b);
    if parity != 0 {
        return Err(PhyError::SignalParity);
    }
    let rate = DataRate::from_signal_bits([bits[0], bits[1], bits[2], bits[3]])
        .ok_or(PhyError::ReservedRate)?;
    let length = read_field(bits, 5, 12) as usize;
    Ok((rate, length))
}

/// Parses a SIGNAL bit stream of arbitrary length — the panic-free entry
/// point for untrusted input (fuzzers, corrupted captures).
///
/// # Errors
///
/// [`PhyError::FrameTooShort`] when fewer than [`SIGNAL_BITS`] bits are
/// given; otherwise the parity/rate errors of [`parse_signal_bits`].
pub fn parse_signal_slice(bits: &[u8]) -> Result<(DataRate, usize), PhyError> {
    if bits.len() < SIGNAL_BITS {
        return Err(PhyError::FrameTooShort { got: bits.len(), need: SIGNAL_BITS });
    }
    let arr: [u8; SIGNAL_BITS] = bits[..SIGNAL_BITS].try_into().expect("length checked");
    parse_signal_bits(&arr)
}

/// Encodes the SIGNAL bits to 48 BPSK constellation points (rate 1/2,
/// interleaved) ready for [`crate::ofdm::FreqSymbol::assemble`] —
/// allocation-free, everything on the stack.
pub fn encode_signal_points(rate: DataRate, length_bytes: usize) -> [Complex; SIGNAL_CODED_BITS] {
    let bits = signal_bits(rate, length_bytes);
    let mut coded = [0u8; SIGNAL_CODED_BITS];
    ConvEncoder::new().encode_to_slice(&bits, &mut coded);
    let mut interleaved = [0u8; SIGNAL_CODED_BITS];
    signal_interleaver().interleave_to_slice(&coded, &mut interleaved);
    let mut points = [Complex::ZERO; SIGNAL_CODED_BITS];
    for (slot, &b) in points.iter_mut().zip(&interleaved) {
        *slot = Modulation::Bpsk.map(&[b]);
    }
    points
}

/// Decodes 48 equalised SIGNAL points back to `(rate, length)`.
///
/// `weight` is the LLR reliability (uniform across the symbol is fine
/// for the SIGNAL field); the soft bits are scaled from it like a DATA
/// row's ([`Modulation::soft_weights`]).
///
/// # Errors
///
/// Propagates the parity/rate errors of [`parse_signal_bits`].
pub fn decode_signal_symbol(points: &[Complex; 48], weight: f64) -> Result<(DataRate, usize), PhyError> {
    let mut llrs = [0i16; SIGNAL_CODED_BITS];
    let weights = Modulation::Bpsk.soft_weights([weight; SIGNAL_CODED_BITS]);
    Modulation::Bpsk.demap_row_into(points, &weights, None, &mut llrs);
    let mut deinterleaved = [0i16; SIGNAL_CODED_BITS];
    signal_interleaver().deinterleave_soft_to_slice(&llrs, &mut deinterleaved);
    let mut traceback = [0u64; SIGNAL_BITS];
    let mut bits = [0u8; SIGNAL_BITS];
    ViterbiDecoder::new().decode_i16(&deinterleaved, true, &mut traceback, &mut bits);
    parse_signal_bits(&bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_layout() {
        let bits = signal_bits(DataRate::Mbps24, 1024);
        assert_eq!(&bits[..4], &DataRate::Mbps24.signal_bits());
        assert_eq!(bits[4], 0);
        assert_eq!(read_field(&bits, 5, 12), 1024);
        assert_eq!(&bits[18..], &[bits[17] ^ bits[17], 0, 0, 0, 0, 0][..]); // tail zeros
    }

    #[test]
    fn parity_is_even() {
        for rate in DataRate::ALL {
            for len in [0usize, 1, 77, 1024, 4095] {
                let bits = signal_bits(rate, len);
                let ones: u32 = bits[..18].iter().map(|&b| b as u32).sum();
                assert_eq!(ones % 2, 0, "{rate} len {len}");
            }
        }
    }

    #[test]
    fn roundtrip_through_constellation() {
        for rate in DataRate::ALL {
            let points = encode_signal_points(rate, 1500);
            let (r, l) = decode_signal_symbol(&points, 1.0).expect("clean decode");
            assert_eq!(r, rate);
            assert_eq!(l, 1500);
        }
    }

    #[test]
    fn corrupted_parity_is_detected() {
        let mut bits = signal_bits(DataRate::Mbps12, 100);
        bits[6] ^= 1;
        assert_eq!(parse_signal_bits(&bits), Err(PhyError::SignalParity));
    }

    #[test]
    fn reserved_rate_is_detected() {
        let mut bits = signal_bits(DataRate::Mbps12, 100);
        // Overwrite RATE with a reserved pattern (0000) and fix parity.
        let old_parity: u8 = bits[..18].iter().fold(0, |p, &b| p ^ b);
        bits[0] = 0;
        bits[1] = 0;
        bits[2] = 0;
        bits[3] = 0;
        let new_parity: u8 = bits[..18].iter().fold(0, |p, &b| p ^ b);
        bits[17] ^= old_parity ^ new_parity;
        assert_eq!(parse_signal_bits(&bits), Err(PhyError::ReservedRate));
    }

    #[test]
    fn survives_moderate_noise() {
        let mut arr = encode_signal_points(DataRate::Mbps54, 2047);
        // Attenuate and perturb a few points; rate-1/2 BPSK is robust.
        for (i, p) in arr.iter_mut().enumerate() {
            let jitter = if i % 7 == 0 { -0.6 } else { 0.2 };
            *p += Complex::new(jitter, -jitter / 2.0);
        }
        let (r, l) = decode_signal_symbol(&arr, 1.0).expect("decode under noise");
        assert_eq!(r, DataRate::Mbps54);
        assert_eq!(l, 2047);
    }

    #[test]
    #[should_panic(expected = "12 bits")]
    fn oversized_length_panics() {
        signal_bits(DataRate::Mbps6, 5000);
    }

    #[test]
    fn slice_parser_rejects_short_input_without_panicking() {
        assert!(matches!(
            parse_signal_slice(&[1, 0, 1]),
            Err(PhyError::FrameTooShort { got: 3, need: SIGNAL_BITS })
        ));
        let bits = signal_bits(DataRate::Mbps24, 321);
        assert_eq!(parse_signal_slice(&bits), Ok((DataRate::Mbps24, 321)));
    }
}
