//! Fig. 6 — the distribution of symbol errors within a data packet at
//! position A: (a) error frequency by symbol position (periodic with the
//! 48-subcarrier count), (b) per-subcarrier symbol error rate.

use crate::harness::{paper_channel, paper_payload};
use crate::table::{fmt, Table};
use cos_channel::Link;
use cos_phy::evm::{per_subcarrier_ser, symbol_error_map};
use cos_phy::rates::DataRate;
use cos_phy::rx::Receiver;
use cos_phy::subcarriers::NUM_DATA;
use cos_phy::tx::Transmitter;

/// Nominal link SNR (dB) — low enough that symbol errors are common.
const SNR_DB: f64 = 14.0;
/// The position-A seed.
const SEED: u64 = 101;
/// Rate under test (the paper's error maps are modulation-agnostic;
/// 16QAM at mid-band SNR gives the clearest pattern).
const RATE: DataRate = DataRate::Mbps24;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Packets accumulated.
    pub packets: usize,
    /// Symbol positions reported in the frequency table.
    pub positions_reported: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config { packets: 300, positions_reported: 1000 }
    }
}

impl Config {
    /// A fast version for integration tests.
    pub fn quick() -> Self {
        Config { packets: 20, positions_reported: 200 }
    }
}

/// Accumulated error statistics.
#[derive(Debug, Clone)]
pub struct ErrorStats {
    /// Error frequency per symbol position (slot-major).
    pub freq_by_position: Vec<f64>,
    /// Per-subcarrier symbol error rate.
    pub ser_by_subcarrier: [f64; NUM_DATA],
}

/// Collects the raw error statistics.
///
/// This experiment is a single time-correlated trace: every packet sees
/// the channel state (and the link's noise RNG stream) left by the one
/// before, so unlike the sweep figures it cannot be split across the
/// parallel runner without changing its output.
pub fn collect(cfg: &Config) -> ErrorStats {
    let mut link = Link::new(paper_channel(), SNR_DB, SEED);
    let payload = paper_payload();
    let tx = Transmitter::new();
    let rx = Receiver::new();
    let n_positions = RATE.data_symbol_count(payload.len() + 4) * NUM_DATA;
    let mut error_counts = vec![0usize; n_positions];
    let mut all_errors: Vec<bool> = Vec::new();
    let mut packets_seen = 0usize;
    for p in 0..cfg.packets {
        let frame = tx.build_frame(&payload, RATE, (p % 126 + 1) as u8);
        let samples = link.transmit(&frame.to_time_samples());
        if let Ok(fe) = rx.front_end_known(&samples, RATE, frame.psdu_len) {
            let map = symbol_error_map(&fe.equalized, &frame.mapped_points, RATE.modulation());
            for (i, &e) in map.iter().enumerate() {
                error_counts[i] += e as usize;
            }
            all_errors.extend(&map);
            packets_seen += 1;
        }
        link.channel_mut().advance(1e-3);
    }
    let freq_by_position: Vec<f64> = error_counts
        .iter()
        .map(|&c| c as f64 / packets_seen.max(1) as f64)
        .collect();
    ErrorStats { freq_by_position, ser_by_subcarrier: per_subcarrier_ser(&all_errors) }
}

/// Runs the experiment; returns the two panels.
pub fn run(cfg: &Config) -> Vec<Table> {
    let stats = collect(cfg);

    let mut a = Table::new(
        "fig06a_error_frequency",
        "frequency of symbol errors by position within a packet (position A)",
        &["symbol_position", "error_frequency"],
    );
    for (i, &f) in stats.freq_by_position.iter().take(cfg.positions_reported).enumerate() {
        a.push_row(vec![(i + 1).to_string(), format!("{f:.4}")]);
    }

    let mut b = Table::new(
        "fig06b_subcarrier_ser",
        "symbol error rate per data subcarrier (position A)",
        &["subcarrier", "ser"],
    );
    for (sc, &s) in stats.ser_by_subcarrier.iter().enumerate() {
        b.push_row(vec![(sc + 1).to_string(), fmt(s, 4)]);
    }
    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The autocorrelation of the error-frequency sequence at a given lag —
    /// used to verify the 48-position periodicity the paper reports.
    fn periodicity_score(freq: &[f64], lag: usize) -> f64 {
        if freq.len() <= lag {
            return 0.0;
        }
        let m = freq.iter().sum::<f64>() / freq.len() as f64;
        let num: f64 = freq
            .windows(lag + 1)
            .map(|w| (w[0] - m) * (w[lag] - m))
            .sum();
        let den: f64 = freq.iter().map(|f| (f - m) * (f - m)).sum();
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    #[test]
    fn errors_cluster_on_weak_subcarriers() {
        let stats = collect(&Config::quick());
        let max = stats.ser_by_subcarrier.iter().cloned().fold(0.0, f64::max);
        let min = stats.ser_by_subcarrier.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > 0.0, "expected some symbol errors at 14 dB");
        assert!(max > 4.0 * (min + 1e-3), "SER must be uneven: {min}..{max}");
    }

    #[test]
    fn error_pattern_repeats_with_period_48() {
        let stats = collect(&Config::quick());
        let score48 = periodicity_score(&stats.freq_by_position, NUM_DATA);
        let score31 = periodicity_score(&stats.freq_by_position, 31);
        assert!(
            score48 > score31,
            "lag-48 correlation {score48} must beat off-period lag {score31}"
        );
        assert!(score48 > 0.3, "period-48 structure too weak: {score48}");
    }
}
