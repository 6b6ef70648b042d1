//! The 64-subcarrier layout of the 20 MHz 802.11a channel
//! (Clause 17.3.5.10): 48 data subcarriers, 4 pilots at ±7/±21, a null DC
//! and 11 guard bins.
//!
//! Two index spaces are used throughout the workspace:
//!
//! * **subcarrier index** `-26..=26` (excluding 0) — the standard's
//!   frequency numbering,
//! * **logical data index** `0..48` — data subcarriers in ascending
//!   frequency order, the numbering the CoS paper uses when it says
//!   "subcarrier 1..48".

/// Total FFT size.
pub const FFT_SIZE: usize = 64;
/// Number of data subcarriers.
pub const NUM_DATA: usize = 48;
/// Number of pilot subcarriers.
pub const NUM_PILOTS: usize = 4;
/// Number of used (data + pilot) subcarriers.
pub const NUM_USED: usize = NUM_DATA + NUM_PILOTS;
/// Cyclic-prefix length in samples (800 ns at 20 MHz).
pub const CP_LEN: usize = 16;
/// Samples per OFDM symbol including the cyclic prefix.
pub const SYMBOL_LEN: usize = FFT_SIZE + CP_LEN;

/// Pilot subcarrier indices.
pub const PILOT_INDICES: [i32; 4] = [-21, -7, 7, 21];
/// Base pilot values (before the per-symbol polarity `p_n`); the +21 pilot
/// is negated (Clause 17.3.5.9).
pub const PILOT_VALUES: [f64; 4] = [1.0, 1.0, 1.0, -1.0];

/// Converts a subcarrier index (`-32..=31`) to its FFT bin (`0..64`).
///
/// # Panics
///
/// Panics if `idx` is outside `-32..=31`.
pub fn bin_of(idx: i32) -> usize {
    assert!((-32..=31).contains(&idx), "subcarrier index {idx} out of range");
    idx.rem_euclid(FFT_SIZE as i32) as usize
}

/// A subcarrier index's FFT bin, without [`bin_of`]'s range check (the
/// const tables below only pass in-range indices).
const fn bin(idx: i32) -> usize {
    idx.rem_euclid(FFT_SIZE as i32) as usize
}

/// The 48 data-subcarrier indices in ascending frequency order.
pub const DATA_INDICES: [i32; NUM_DATA] = {
    let mut out = [0i32; NUM_DATA];
    let (mut n, mut idx) = (0, -26);
    while idx <= 26 {
        let pilot = idx == PILOT_INDICES[0]
            || idx == PILOT_INDICES[1]
            || idx == PILOT_INDICES[2]
            || idx == PILOT_INDICES[3];
        if idx != 0 && !pilot {
            out[n] = idx;
            n += 1;
        }
        idx += 1;
    }
    assert!(n == NUM_DATA);
    out
};

/// The FFT bins of the 48 data subcarriers, in logical order `0..48`.
pub const DATA_BINS: [usize; NUM_DATA] = {
    let mut out = [0usize; NUM_DATA];
    let mut n = 0;
    while n < NUM_DATA {
        out[n] = bin(DATA_INDICES[n]);
        n += 1;
    }
    out
};

/// The FFT bins of the pilot subcarriers, in [`PILOT_INDICES`] order.
pub const PILOT_BINS: [usize; NUM_PILOTS] = [
    bin(PILOT_INDICES[0]),
    bin(PILOT_INDICES[1]),
    bin(PILOT_INDICES[2]),
    bin(PILOT_INDICES[3]),
];

/// The FFT bins of all 52 used subcarriers in ascending frequency order
/// (-26..26, skipping DC) — the x-axis of the paper's Fig. 10(a).
pub const USED_BINS: [usize; NUM_USED] = {
    let mut out = [0usize; NUM_USED];
    let (mut n, mut idx) = (0, -26);
    while idx <= 26 {
        if idx != 0 {
            out[n] = bin(idx);
            n += 1;
        }
        idx += 1;
    }
    assert!(n == NUM_USED);
    out
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_add_up() {
        assert_eq!(DATA_INDICES.len(), 48);
        assert_eq!(USED_BINS.len(), 52);
        // 64 bins = 48 data + 4 pilots + 12 null (DC + 11 guards).
        assert_eq!(FFT_SIZE - NUM_USED, 12);
    }

    #[test]
    fn bin_mapping_wraps_negative_indices() {
        assert_eq!(bin_of(1), 1);
        assert_eq!(bin_of(26), 26);
        assert_eq!(bin_of(-1), 63);
        assert_eq!(bin_of(-26), 38);
    }

    #[test]
    fn pilots_are_not_data() {
        let data = DATA_INDICES;
        for p in PILOT_INDICES {
            assert!(!data.contains(&p));
        }
        assert!(!data.contains(&0), "DC must be null");
    }

    #[test]
    fn data_indices_are_sorted_and_unique() {
        let d = DATA_INDICES;
        for w in d.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(d[0], -26);
        assert_eq!(d[47], 26);
    }

    #[test]
    fn data_and_pilot_bins_are_disjoint() {
        let data = DATA_BINS;
        for pb in PILOT_BINS {
            assert!(!data.contains(&pb));
        }
    }

    #[test]
    fn used_bins_cover_data_and_pilots() {
        let used = USED_BINS;
        for b in DATA_BINS {
            assert!(used.contains(&b));
        }
        for b in PILOT_BINS {
            assert!(used.contains(&b));
        }
    }

    #[test]
    fn symbol_timing_constants() {
        assert_eq!(SYMBOL_LEN, 80);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_subcarrier_panics() {
        bin_of(40);
    }
}
