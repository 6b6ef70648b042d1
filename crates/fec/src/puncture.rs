//! Puncturing patterns of IEEE 802.11a (Clause 17.3.5.6).
//!
//! Rates 2/3 and 3/4 are derived from the rate-1/2 mother code by deleting
//! ("puncturing") coded bits in a fixed periodic pattern. The receiver
//! re-inserts **zero LLRs** at the deleted positions (de-puncturing) — the
//! same null-metric mechanism erasure Viterbi decoding uses for silence
//! symbols, which is why the two compose cleanly in CoS.

/// Convolutional code rate after optional puncturing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeRate {
    /// Rate 1/2 — the unpunctured mother code.
    Half,
    /// Rate 2/3 — one bit punctured out of every four.
    TwoThirds,
    /// Rate 3/4 — two bits punctured out of every six.
    ThreeQuarters,
}

impl CodeRate {
    /// The keep-mask over one puncturing period of mother-code output bits,
    /// ordered `A1 B1 A2 B2 …` exactly as the encoder emits them.
    pub fn keep_mask(self) -> &'static [bool] {
        match self {
            CodeRate::Half => &[true, true],
            // Period A1 B1 A2 B2 → transmit A1 B1 A2 (drop B2).
            CodeRate::TwoThirds => &[true, true, true, false],
            // Period A1 B1 A2 B2 A3 B3 → transmit A1 B1 A2 B3 (drop B2, A3).
            CodeRate::ThreeQuarters => &[true, true, true, false, false, true],
        }
    }

    /// Numerator of the rate fraction.
    pub fn numerator(self) -> usize {
        match self {
            CodeRate::Half => 1,
            CodeRate::TwoThirds => 2,
            CodeRate::ThreeQuarters => 3,
        }
    }

    /// Denominator of the rate fraction.
    pub fn denominator(self) -> usize {
        match self {
            CodeRate::Half => 2,
            CodeRate::TwoThirds => 3,
            CodeRate::ThreeQuarters => 4,
        }
    }

    /// Punctures mother-code output down to the transmitted bit stream.
    ///
    /// # Panics
    ///
    /// Panics if `coded.len()` is not a multiple of the puncturing period
    /// (802.11a symbol padding guarantees it always is).
    pub fn puncture(self, coded: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.puncture_into(coded, &mut out);
        out
    }

    /// [`CodeRate::puncture`] writing into a caller-owned buffer, which is
    /// fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `coded.len()` is not a multiple of the puncturing period.
    pub fn puncture_into(self, coded: &[u8], out: &mut Vec<u8>) {
        let mask = self.keep_mask();
        assert!(
            coded.len().is_multiple_of(mask.len()),
            "coded length {} is not a multiple of the puncturing period {}",
            coded.len(),
            mask.len()
        );
        out.clear();
        out.extend(
            coded
                .iter()
                .zip(mask.iter().cycle())
                .filter_map(|(&bit, &keep)| keep.then_some(bit)),
        );
    }

    /// De-punctures received soft bits back to mother-code length by
    /// inserting zero soft bits (`T::default()`: erasures) at punctured
    /// positions.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is not a multiple of the per-period survivor
    /// count.
    pub fn depuncture<T: Copy + Default>(self, llrs: &[T]) -> Vec<T> {
        let mut out = Vec::new();
        self.depuncture_into(llrs, &mut out);
        out
    }

    /// [`CodeRate::depuncture`] writing into a caller-owned buffer, which
    /// is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is not a multiple of the per-period survivor
    /// count.
    pub fn depuncture_into<T: Copy + Default>(self, llrs: &[T], out: &mut Vec<T>) {
        let mask = self.keep_mask();
        let survivors = mask.iter().filter(|&&k| k).count();
        assert!(
            llrs.len().is_multiple_of(survivors),
            "received length {} is not a multiple of {survivors} survivors per period",
            llrs.len()
        );
        let periods = llrs.len() / survivors;
        out.clear();
        out.reserve(periods * mask.len());
        let mut it = llrs.iter();
        for _ in 0..periods {
            for &keep in mask {
                if keep {
                    out.push(*it.next().expect("length checked above"));
                } else {
                    out.push(T::default());
                }
            }
        }
    }
}

impl std::fmt::Display for CodeRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.numerator(), self.denominator())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_rate_is_identity() {
        let coded = vec![1, 0, 1, 1, 0, 0];
        assert_eq!(CodeRate::Half.puncture(&coded), coded);
        let llrs = vec![1.0, -1.0, 0.5, -0.5];
        assert_eq!(CodeRate::Half.depuncture(&llrs), llrs);
    }

    #[test]
    fn two_thirds_drops_every_fourth() {
        // A1 B1 A2 B2 A3 B3 A4 B4 → A1 B1 A2 | A3 B3 A4
        let coded = vec![1, 2, 3, 4, 5, 6, 7, 8]
            .into_iter()
            .map(|x| (x % 2) as u8)
            .collect::<Vec<_>>();
        let punctured = CodeRate::TwoThirds.puncture(&coded);
        assert_eq!(punctured.len(), 6);
        assert_eq!(punctured, vec![coded[0], coded[1], coded[2], coded[4], coded[5], coded[6]]);
    }

    #[test]
    fn three_quarters_pattern() {
        // A1 B1 A2 B2 A3 B3 → A1 B1 A2 B3
        let coded: Vec<u8> = vec![1, 1, 0, 1, 1, 0];
        assert_eq!(CodeRate::ThreeQuarters.puncture(&coded), vec![1, 1, 0, 0]);
    }

    #[test]
    fn depuncture_inserts_zero_llrs_at_dropped_positions() {
        let llrs = vec![3.0, -2.0, 1.5, 0.5];
        let restored = CodeRate::ThreeQuarters.depuncture(&llrs);
        assert_eq!(restored, vec![3.0, -2.0, 1.5, 0.0, 0.0, 0.5]);
    }

    #[test]
    fn puncture_then_depuncture_preserves_survivors() {
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let period = rate.keep_mask().len();
            let coded: Vec<u8> = (0..period * 10).map(|i| (i % 2) as u8).collect();
            let tx = rate.puncture(&coded);
            let soft: Vec<f64> = tx.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
            let restored = rate.depuncture(&soft);
            assert_eq!(restored.len(), coded.len());
            // Every surviving position carries its original sign; punctured
            // positions are exactly the zeros.
            let mask = rate.keep_mask();
            for (i, &llr) in restored.iter().enumerate() {
                if mask[i % period] {
                    let want = if coded[i] == 0 { 1.0 } else { -1.0 };
                    assert_eq!(llr, want);
                } else {
                    assert_eq!(llr, 0.0);
                }
            }
        }
    }

    #[test]
    fn rate_fractions() {
        assert_eq!(CodeRate::Half.to_string(), "1/2");
        assert_eq!(CodeRate::TwoThirds.to_string(), "2/3");
        assert_eq!(CodeRate::ThreeQuarters.to_string(), "3/4");
    }

    #[test]
    #[should_panic(expected = "period")]
    fn misaligned_puncture_panics() {
        CodeRate::ThreeQuarters.puncture(&[0, 1, 0]);
    }
}
