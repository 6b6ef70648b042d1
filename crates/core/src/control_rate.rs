//! Adaptive rate selection of control messages (paper §III-F).
//!
//! The rate of free control messages is the rate of silence-symbol
//! insertion `R`; its maximum `Rm` depends on how much channel-code
//! redundancy the current SNR leaves unused. As in the paper, a lookup
//! table maps the receiver's measured SNR to `Rm` — the table itself is
//! produced by the Fig. 9 calibration experiment (`fig09_capacity`) — and
//! a sender that misses feedback falls back to the lowest rate.

use cos_phy::rates::DataRate;

/// The SNR → maximum-silence-rate lookup table: `(measured-SNR lower
/// bound in dB, sustainable Rm in silence symbols per second)` at the
/// 99.3 % packet-reception-rate target, ascending by SNR.
///
/// A conservative table shaped like the paper's Fig. 9: `Rm` rises just
/// above each rate's minimum SNR and its envelope decreases with SNR
/// (33 k–148 k silence symbols/second). Regenerate with `fig09_capacity`
/// for the simulator-calibrated table.
pub const RATE_TABLE: &[(f64, f64)] = &[
    (5.0, 40_000.0),   // entering the 12 Mbps band
    (7.1, 148_000.0),  // QPSK,1/2 saturation (paper's maximum)
    (9.5, 60_000.0),   // QPSK,3/4 band start
    (11.0, 120_000.0), // QPSK,3/4 saturation
    (12.0, 55_000.0),  // 16QAM,1/2 band start
    (14.0, 110_000.0), // 16QAM,1/2 saturation
    (16.0, 45_000.0),  // 16QAM,3/4 band start
    (18.0, 75_000.0),  // 16QAM,3/4 saturation
    (19.0, 40_000.0),  // 64QAM,2/3 band start
    (21.0, 60_000.0),  // 64QAM,2/3 saturation
    (22.0, 33_000.0),  // 64QAM,3/4 band start (paper's minimum)
    (24.0, 45_000.0),  // 64QAM,3/4 saturation
];

/// The conservative safety factor applied by [`rm_for`] and
/// [`fallback_rm`] (transmit at 80 % of the measured maximum, as a
/// deployed system would).
pub const SAFETY: f64 = 0.8;

/// The sustainable silence rate for a measured SNR: the [`RATE_TABLE`]
/// entry with the largest lower bound not exceeding `snr_db`, scaled by
/// [`SAFETY`]. Below the first entry, the first entry's rate is used.
pub fn rm_for(snr_db: f64) -> f64 {
    let mut rm = RATE_TABLE[0].1;
    for &(bound, value) in RATE_TABLE {
        if snr_db >= bound {
            rm = value;
        } else {
            break;
        }
    }
    rm * SAFETY
}

/// The fallback rate used when no feedback is available: the table's
/// minimum `Rm`, scaled by [`SAFETY`].
pub fn fallback_rm() -> f64 {
    RATE_TABLE.iter().map(|&(_, rm)| rm).fold(f64::INFINITY, f64::min) * SAFETY
}

/// Converts a silence rate (symbols/second) into a per-packet silence
/// budget for a given data rate and PSDU size.
pub fn silences_per_packet(rm: f64, rate: DataRate, psdu_bytes: usize) -> usize {
    (rm * rate.frame_airtime_us(psdu_bytes) * 1e-6).floor() as usize
}

/// The silence budget of the next `psdu_bytes` packet at `rate`, given
/// the measured SNR of the last feedback report that reached the sender
/// (`None` after a transmission without feedback: the lowest rate, as
/// §III-F specifies).
pub fn silence_budget(fed_back_snr: Option<f64>, rate: DataRate, psdu_bytes: usize) -> usize {
    let rm = fed_back_snr.map_or_else(fallback_rm, rm_for);
    silences_per_packet(rm, rate, psdu_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_uses_highest_cleared_bound() {
        assert_eq!(rm_for(4.0), 40_000.0 * SAFETY);
        assert_eq!(rm_for(5.0), 40_000.0 * SAFETY);
        assert_eq!(rm_for(12.0), 55_000.0 * SAFETY);
        assert_eq!(rm_for(25.0), 45_000.0 * SAFETY);
    }

    #[test]
    fn table_is_ascending_by_snr() {
        assert!(RATE_TABLE.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn default_table_matches_paper_landmarks() {
        // The paper's max Rm (148k) in the 7.1–9.5 dB window...
        assert_eq!(rm_for(8.0), 148_000.0 * SAFETY);
        // ...and its min (33k) just above 22.4 dB.
        assert_eq!(rm_for(22.4), 33_000.0 * SAFETY);
    }

    #[test]
    fn silences_per_packet_uses_airtime() {
        // 1024-B PSDU at 24 Mbps = 364 µs airtime; 100k silences/s → 36.
        let n = silences_per_packet(100_000.0, DataRate::Mbps24, 1024);
        assert_eq!(n, 36);
    }

    #[test]
    fn budget_falls_back_without_feedback() {
        let with_feedback = silence_budget(Some(8.0), DataRate::Mbps12, 1024);
        let fallback = silence_budget(None, DataRate::Mbps12, 1024);
        assert!(fallback < with_feedback);
        assert_eq!(fallback, silences_per_packet(fallback_rm(), DataRate::Mbps12, 1024));
    }
}
