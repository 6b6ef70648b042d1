//! Subcarrier-selection feedback (paper §III-D).
//!
//! The receiver tells the transmitter which data subcarriers it selected
//! as control subcarriers with a 48-bit vector `V`, conveyed in **one OFDM
//! symbol** riding on the ACK: a silence symbol on subcarrier `k` means
//! "subcarrier `k` is selected". [`crate::duplex`] puts the vector's
//! indices on the ACK as silences and reads them back.

use cos_phy::subcarriers::NUM_DATA;

/// The feedback bit-vector `V`: which logical data subcarriers are
/// selected as control subcarriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackVector {
    selected: [bool; NUM_DATA],
}

impl FeedbackVector {
    /// Builds the vector from sorted logical indices.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn from_indices(indices: &[usize]) -> Self {
        let mut selected = [false; NUM_DATA];
        for &sc in indices {
            assert!(sc < NUM_DATA, "subcarrier {sc} out of range");
            selected[sc] = true;
        }
        FeedbackVector { selected }
    }

    /// The selected logical indices, ascending.
    pub fn indices(&self) -> Vec<usize> {
        (0..NUM_DATA).filter(|&sc| self.selected[sc]).collect()
    }

    /// Number of selected subcarriers.
    pub fn count(&self) -> usize {
        self.selected.iter().filter(|&&s| s).count()
    }
}

impl Default for FeedbackVector {
    /// No subcarriers selected.
    fn default() -> Self {
        FeedbackVector { selected: [false; NUM_DATA] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_indices() {
        let v = FeedbackVector::from_indices(&[0, 7, 33, 47]);
        assert_eq!(v.indices(), vec![0, 7, 33, 47]);
        assert_eq!(v.count(), 4);
    }

    #[test]
    fn empty_vector() {
        let v = FeedbackVector::default();
        assert_eq!(v.count(), 0);
        assert!(v.indices().is_empty());
    }

    #[test]
    fn duplicate_indices_collapse() {
        let v = FeedbackVector::from_indices(&[5, 5, 5]);
        assert_eq!(v.count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        FeedbackVector::from_indices(&[48]);
    }
}
