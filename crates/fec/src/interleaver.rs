//! The per-OFDM-symbol block interleaver of IEEE 802.11a (Clause 17.3.5.7).
//!
//! Coded bits are interleaved in blocks of one OFDM symbol (`Ncbps` bits) by
//! two permutations: the first spreads adjacent coded bits onto
//! non-adjacent subcarriers, the second alternates them between more- and
//! less-significant constellation bits. For CoS the interleaver matters
//! doubly: the zero-LLR bits of an erased (silence) symbol are *spread
//! across the codeword* by de-interleaving, which is what lets the Viterbi
//! decoder bridge them (paper §III-E).

/// A block interleaver for a fixed `(Ncbps, Nbpsc)` pair.
///
/// # Examples
///
/// ```
/// use cos_fec::Interleaver;
///
/// // 16QAM: 192 coded bits per symbol, 4 bits per subcarrier.
/// let il = Interleaver::new(192, 4);
/// let bits: Vec<u8> = (0..192).map(|i| (i % 2) as u8).collect();
/// let tx = il.interleave(&bits);
/// let rx = il.deinterleave(&tx);
/// assert_eq!(rx, bits);
/// ```
#[derive(Debug, Clone)]
pub struct Interleaver {
    ncbps: usize,
    /// `perm[k]` = position after interleaving of coded bit `k`.
    perm: Vec<usize>,
    /// Inverse permutation.
    inv: Vec<usize>,
}

impl Interleaver {
    /// Builds the interleaver for `ncbps` coded bits per OFDM symbol and
    /// `nbpsc` coded bits per subcarrier.
    ///
    /// # Panics
    ///
    /// Panics if `ncbps` is not a multiple of 16 (the standard's row count)
    /// or `nbpsc` is not one of 1, 2, 4, 6.
    pub fn new(ncbps: usize, nbpsc: usize) -> Self {
        assert!(ncbps.is_multiple_of(16), "Ncbps {ncbps} must be a multiple of 16");
        assert!(matches!(nbpsc, 1 | 2 | 4 | 6), "Nbpsc must be 1, 2, 4 or 6, got {nbpsc}");
        let s = (nbpsc / 2).max(1);
        let mut perm = vec![0usize; ncbps];
        for (k, slot) in perm.iter_mut().enumerate() {
            // First permutation (Eq. 17-17).
            let i = (ncbps / 16) * (k % 16) + k / 16;
            // Second permutation (Eq. 17-18).
            *slot = s * (i / s) + (i + ncbps - (16 * i) / ncbps) % s;
        }
        let mut inv = vec![0usize; ncbps];
        for (k, &j) in perm.iter().enumerate() {
            inv[j] = k;
        }
        Interleaver { ncbps, perm, inv }
    }

    /// Coded bits per OFDM symbol this interleaver was built for.
    pub fn ncbps(&self) -> usize {
        self.ncbps
    }

    /// The permutation itself: entry `k` is the position within a symbol
    /// block that coded bit `k` moves to.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Interleaves a whole frame symbol-block by symbol-block.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of `Ncbps`.
    pub fn interleave(&self, bits: &[u8]) -> Vec<u8> {
        self.apply(bits, &self.perm)
    }

    /// [`Interleaver::interleave`] writing into a caller-owned buffer,
    /// which is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of `Ncbps`.
    pub fn interleave_into(&self, bits: &[u8], out: &mut Vec<u8>) {
        self.apply_into(bits, &self.perm, out);
    }

    /// De-interleaves hard bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of `Ncbps`.
    pub fn deinterleave(&self, bits: &[u8]) -> Vec<u8> {
        self.apply(bits, &self.inv)
    }

    /// De-interleaves soft values (LLRs) into a caller-owned buffer, which
    /// is fully overwritten; zero-LLR erasures travel with their
    /// positions.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is not a multiple of `Ncbps`.
    pub fn deinterleave_soft_into<T: Copy + Default>(&self, llrs: &[T], out: &mut Vec<T>) {
        out.clear();
        out.resize(llrs.len(), T::default());
        self.deinterleave_soft_to_slice(llrs, out);
    }

    /// [`Interleaver::deinterleave_soft_into`] writing into a caller-owned
    /// slice — the allocation-free core for fixed-size fields like
    /// SIGNAL.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is not a multiple of `Ncbps` or `out` has
    /// a different length.
    pub fn deinterleave_soft_to_slice<T: Copy>(&self, llrs: &[T], out: &mut [T]) {
        assert!(
            llrs.len().is_multiple_of(self.ncbps),
            "length {} is not a multiple of Ncbps {}",
            llrs.len(),
            self.ncbps
        );
        assert_eq!(out.len(), llrs.len(), "output slice must match the input length");
        for (block_idx, block) in llrs.chunks_exact(self.ncbps).enumerate() {
            let base = block_idx * self.ncbps;
            for (j, &v) in block.iter().enumerate() {
                out[base + self.inv[j]] = v;
            }
        }
    }

    /// [`Interleaver::interleave`] writing into a caller-owned slice —
    /// the allocation-free core for fixed-size fields like SIGNAL.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of `Ncbps` or `out` has
    /// a different length.
    pub fn interleave_to_slice(&self, bits: &[u8], out: &mut [u8]) {
        self.apply_to_slice(bits, &self.perm, out);
    }

    fn apply(&self, bits: &[u8], table: &[usize]) -> Vec<u8> {
        let mut out = Vec::new();
        self.apply_into(bits, table, &mut out);
        out
    }

    fn apply_into(&self, bits: &[u8], table: &[usize], out: &mut Vec<u8>) {
        out.clear();
        out.resize(bits.len(), 0);
        self.apply_to_slice(bits, table, out);
    }

    fn apply_to_slice(&self, bits: &[u8], table: &[usize], out: &mut [u8]) {
        assert!(
            bits.len().is_multiple_of(self.ncbps),
            "length {} is not a multiple of Ncbps {}",
            bits.len(),
            self.ncbps
        );
        assert_eq!(out.len(), bits.len(), "output slice must match the input length");
        for (block_idx, block) in bits.chunks_exact(self.ncbps).enumerate() {
            let base = block_idx * self.ncbps;
            for (k, &b) in block.iter().enumerate() {
                out[base + table[k]] = b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_configs() -> Vec<(usize, usize)> {
        // (Ncbps, Nbpsc) for BPSK, QPSK, 16QAM, 64QAM over 48 data subcarriers.
        vec![(48, 1), (96, 2), (192, 4), (288, 6)]
    }

    #[test]
    fn permutation_is_bijective() {
        for (ncbps, nbpsc) in all_configs() {
            let il = Interleaver::new(ncbps, nbpsc);
            let mut seen = vec![false; ncbps];
            for &j in &il.perm {
                assert!(!seen[j], "position {j} hit twice (Ncbps={ncbps})");
                seen[j] = true;
            }
        }
    }

    #[test]
    fn deinterleave_inverts_interleave() {
        for (ncbps, nbpsc) in all_configs() {
            let il = Interleaver::new(ncbps, nbpsc);
            let bits: Vec<u8> = (0..ncbps * 3).map(|i| ((i * 31) % 7 < 3) as u8).collect();
            assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
        }
    }

    #[test]
    fn soft_deinterleave_matches_hard() {
        let il = Interleaver::new(96, 2);
        let bits: Vec<u8> = (0..96).map(|i| (i % 3 == 0) as u8).collect();
        let tx = il.interleave(&bits);
        let soft: Vec<f64> = tx.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
        let mut rx_soft = Vec::new();
        il.deinterleave_soft_into(&soft, &mut rx_soft);
        let rx_hard: Vec<u8> = rx_soft.iter().map(|&l| (l < 0.0) as u8).collect();
        assert_eq!(rx_hard, bits);
    }

    #[test]
    fn adjacent_coded_bits_are_spread_apart() {
        // The first permutation guarantees adjacent coded bits map to
        // subcarriers Ncbps/16 apart (before the second permutation, which
        // only moves bits within a subcarrier's bit group).
        let il = Interleaver::new(192, 4);
        for k in 0..191 {
            let d = (il.perm[k] as isize - il.perm[k + 1] as isize).unsigned_abs();
            assert!(d >= 192 / 16 - 2, "bits {k},{} land {d} apart", k + 1);
        }
    }

    #[test]
    fn bpsk_interleaver_is_pure_row_column() {
        // With s = 1 the second permutation is the identity.
        let il = Interleaver::new(48, 1);
        for k in 0..48 {
            assert_eq!(il.perm[k], 3 * (k % 16) + k / 16);
        }
    }

    #[test]
    fn multi_symbol_blocks_are_independent() {
        let il = Interleaver::new(48, 1);
        let a: Vec<u8> = (0..48).map(|i| (i % 2) as u8).collect();
        let b: Vec<u8> = (0..48).map(|i| (i % 5 == 0) as u8).collect();
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        let tx = il.interleave(&joined);
        assert_eq!(&tx[..48], il.interleave(&a).as_slice());
        assert_eq!(&tx[48..], il.interleave(&b).as_slice());
    }

    #[test]
    #[should_panic(expected = "multiple of Ncbps")]
    fn ragged_input_panics() {
        Interleaver::new(48, 1).interleave(&[0; 47]);
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn bad_ncbps_panics() {
        Interleaver::new(50, 1);
    }
}
