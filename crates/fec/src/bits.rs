//! LSB-first bit packing.
//!
//! IEEE 802.11 serialises each octet least-significant bit first; every
//! bit vector in this workspace follows that convention. Bits are stored one
//! per `u8` with values 0/1 — wasteful but transparent, and the simulator is
//! bound by FFT/Viterbi cost, not bit storage.

/// Expands bytes into bits, LSB of each byte first.
///
/// ```
/// use cos_fec::bits::bytes_to_bits;
/// assert_eq!(bytes_to_bits(&[0b0000_0101]), vec![1, 0, 1, 0, 0, 0, 0, 0]);
/// ```
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    append_bits_from_bytes(bytes, &mut bits);
    bits
}

/// Appends the bits of `bytes` (LSB of each byte first) to `bits` without
/// clearing it — the building block for assembling a DATA field in place.
pub fn append_bits_from_bytes(bytes: &[u8], bits: &mut Vec<u8>) {
    bits.reserve(bytes.len() * 8);
    for &byte in bytes {
        for i in 0..8 {
            bits.push((byte >> i) & 1);
        }
    }
}

/// Packs bits (LSB-first per byte) back into bytes.
///
/// # Panics
///
/// Panics if `bits.len()` is not a multiple of 8 or any value is not 0/1.
///
/// ```
/// use cos_fec::bits::{bits_to_bytes, bytes_to_bits};
/// let bytes = vec![0xA5, 0x3C];
/// assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
/// ```
pub fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bits_to_bytes_into(bits, &mut bytes);
    bytes
}

/// [`bits_to_bytes`] writing into a caller-owned buffer, which is fully
/// overwritten. Eight bits per step: each octet's bits are read as one
/// little-endian word, checked with one mask and gathered by one
/// multiply.
///
/// # Panics
///
/// Panics if `bits.len()` is not a multiple of 8 or any value is not 0/1.
pub fn bits_to_bytes_into(bits: &[u8], bytes: &mut Vec<u8>) {
    assert!(bits.len().is_multiple_of(8), "bit count {} is not a whole number of octets", bits.len());
    bytes.clear();
    bytes.resize(bits.len() / 8, 0);
    for (byte, chunk) in bytes.iter_mut().zip(bits.chunks_exact(8)) {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-bit chunk"));
        if word & 0xFEFE_FEFE_FEFE_FEFE != 0 {
            invalid_bit(chunk);
        }
        // Bit `i` sits at bit `8i`; the multiplier's bit `56 − 7i` moves
        // it to bit `56 + i`, and no two partial products overlap.
        *byte = (word.wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8;
    }
}

#[cold]
fn invalid_bit(chunk: &[u8]) -> ! {
    let b = chunk.iter().find(|&&b| b > 1).expect("a value above 1");
    panic!("bit values must be 0 or 1, got {b}");
}

/// Reads a `width`-bit LSB-first field starting at `offset`.
///
/// # Panics
///
/// Panics if the field extends past the end of `bits`.
pub fn read_field(bits: &[u8], offset: usize, width: usize) -> u32 {
    assert!(width <= 32, "field width {width} exceeds u32");
    assert!(offset + width <= bits.len(), "field [{offset}, {}) out of range", offset + width);
    (0..width).fold(0u32, |v, i| v | ((bits[offset + i] as u32) << i))
}

/// Counts positions where two equal-length bit slices differ.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn hamming_distance(a: &[u8], b: &[u8]) -> usize {
    assert_eq!(a.len(), b.len(), "hamming distance of unequal-length slices");
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsb_first_expansion() {
        assert_eq!(bytes_to_bits(&[0x01]), vec![1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(bytes_to_bits(&[0x80]), vec![0, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn roundtrip_all_byte_values() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
    }

    #[test]
    #[should_panic(expected = "octets")]
    fn ragged_length_panics() {
        bits_to_bytes(&[1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "0 or 1")]
    fn invalid_bit_value_panics() {
        bits_to_bytes(&[2, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn field_is_lsb_first() {
        assert_eq!(read_field(&[0, 1, 1], 0, 3), 0b110);
        let bits = [0, 0, 1, 1, 1, 1, 0, 1, 0, 1, 0, 1, 1, 1];
        assert_eq!(read_field(&bits, 0, 12), 0xABC);
        assert_eq!(read_field(&bits, 12, 2), 0x3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_past_end_panics() {
        read_field(&[0, 1], 1, 2);
    }

    #[test]
    fn hamming() {
        assert_eq!(hamming_distance(&[0, 1, 1, 0], &[0, 1, 1, 0]), 0);
        assert_eq!(hamming_distance(&[0, 1, 1, 0], &[1, 1, 0, 0]), 2);
    }
}
