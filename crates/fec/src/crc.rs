//! CRC-32 — the IEEE 802.11 frame check sequence (FCS).
//!
//! Standard reflected CRC-32 (polynomial `0x04C11DB7`, init `0xFFFFFFFF`,
//! final XOR `0xFFFFFFFF`), identical to the CRC of Ethernet and zlib. The
//! CoS receiver computes per-subcarrier EVM only for frames that pass this
//! check (paper §III-D), because only then are the transmitted
//! constellation points known.

/// A table-driven CRC-32 engine, slicing-by-8: eight bytes per step
/// through eight 256-entry tables, the tail bytewise through the first.
///
/// # Examples
///
/// ```
/// use cos_fec::Crc32;
///
/// let crc = Crc32::new();
/// assert_eq!(crc.checksum(b"123456789"), 0xCBF4_3926);
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    /// `tables[0]` is the bytewise table; `tables[k][i]` is the CRC
    /// register after byte `i` is followed by `k` zero bytes.
    tables: [[u32; 256]; 8],
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Reflected polynomial of `0x04C11DB7`.
    pub const POLY_REFLECTED: u32 = 0xEDB8_8320;

    /// Builds the eight 256-entry lookup tables.
    pub fn new() -> Self {
        let mut tables = [[0u32; 256]; 8];
        for (i, entry) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ Self::POLY_REFLECTED
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            }
        }
        Crc32 { tables }
    }

    /// Computes the CRC-32 of `data`.
    pub fn checksum(&self, data: &[u8]) -> u32 {
        let t = &self.tables;
        let at = |k: usize, x: u32| t[k][(x & 0xFF) as usize];
        let mut crc = 0xFFFF_FFFFu32;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = at(7, lo) ^ at(6, lo >> 8) ^ at(5, lo >> 16) ^ at(4, lo >> 24)
                ^ at(3, hi) ^ at(2, hi >> 8) ^ at(1, hi >> 16) ^ at(0, hi >> 24);
        }
        for &byte in words.remainder() {
            crc = (crc >> 8) ^ at(0, crc ^ u32::from(byte));
        }
        !crc
    }

    /// Appends the 4-byte FCS (little-endian, as transmitted) to a payload.
    pub fn append(&self, payload: &[u8]) -> Vec<u8> {
        let mut framed = Vec::new();
        self.append_into(payload, &mut framed);
        framed
    }

    /// [`Crc32::append`] writing into a caller-owned buffer, which is
    /// fully overwritten with `payload ‖ FCS`.
    pub fn append_into(&self, payload: &[u8], framed: &mut Vec<u8>) {
        framed.clear();
        framed.extend_from_slice(payload);
        framed.extend_from_slice(&self.checksum(payload).to_le_bytes());
    }

    /// Checks a frame whose last 4 bytes are the FCS; returns the payload on
    /// success.
    pub fn verify<'a>(&self, framed: &'a [u8]) -> Option<&'a [u8]> {
        if framed.len() < 4 {
            return None;
        }
        let (payload, fcs) = framed.split_at(framed.len() - 4);
        let expect = self.checksum(payload).to_le_bytes();
        (fcs == expect).then_some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value() {
        assert_eq!(Crc32::new().checksum(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn slicing_matches_the_bytewise_table() {
        let crc = Crc32::new();
        let bytewise = |data: &[u8]| {
            !data.iter().fold(0xFFFF_FFFFu32, |c, &b| {
                (c >> 8) ^ crc.tables[0][((c ^ u32::from(b)) & 0xFF) as usize]
            })
        };
        // xorshift64: random lengths in 0..2048 and random contents.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let data: Vec<u8> = (0..2048).map(|_| next() as u8).collect();
        let lens: Vec<usize> =
            (0..40).chain((0..200).map(|_| (next() % 2048) as usize)).collect();
        for len in lens {
            let start = (next() % 8) as usize;
            let end = (start + len).min(data.len());
            let slice = &data[start..end];
            assert_eq!(crc.checksum(slice), bytewise(slice), "len {len}");
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(Crc32::new().checksum(b""), 0);
    }

    #[test]
    fn append_verify_roundtrip() {
        let crc = Crc32::new();
        let payload = b"the quick brown fox".to_vec();
        let framed = crc.append(&payload);
        assert_eq!(framed.len(), payload.len() + 4);
        assert_eq!(crc.verify(&framed), Some(payload.as_slice()));
    }

    #[test]
    fn detects_single_bit_errors_anywhere() {
        let crc = Crc32::new();
        let payload: Vec<u8> = (0..64).collect();
        let framed = crc.append(&payload);
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut corrupted = framed.clone();
                corrupted[byte] ^= 1 << bit;
                assert!(crc.verify(&corrupted).is_none(), "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn detects_swapped_bytes() {
        let crc = Crc32::new();
        let framed = crc.append(b"abcdef");
        let mut swapped = framed.clone();
        swapped.swap(1, 3);
        assert!(crc.verify(&swapped).is_none());
    }

    #[test]
    fn too_short_frame_fails() {
        assert!(Crc32::new().verify(&[1, 2, 3]).is_none());
    }
}
