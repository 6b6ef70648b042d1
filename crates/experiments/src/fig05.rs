//! Fig. 5 — per-subcarrier EVM (%) measured at three receiver positions,
//! exhibiting frequency-selective fading that differs per link.

use crate::harness::{paper_channel, paper_payload, run_trials};
use crate::table::{fmt, Table};
use cos_channel::Link;
use cos_phy::evm::per_subcarrier_evm;
use cos_phy::rates::DataRate;
use cos_phy::rx::Receiver;
use cos_phy::subcarriers::NUM_DATA;
use cos_phy::tx::Transmitter;

/// Nominal link SNR (dB).
const SNR_DB: f64 = 22.0;
/// Seeds acting as the paper's positions A, B, C.
const POSITION_SEEDS: [u64; 3] = [101, 202, 303];

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Packets averaged per position.
    pub packets: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config { packets: 30 }
    }
}

impl Config {
    /// A fast version for integration tests.
    pub fn quick() -> Self {
        Config { packets: 4 }
    }
}

/// Measures the averaged per-subcarrier EVM of one position.
pub fn position_evm(snr_db: f64, seed: u64, packets: usize) -> [f64; NUM_DATA] {
    let mut link = Link::new(paper_channel(), snr_db, seed);
    position_evm_on(&mut link, packets)
}

/// Measures the averaged per-subcarrier EVM on an existing link without
/// advancing channel time (a point snapshot).
pub fn position_evm_on(link: &mut Link, packets: usize) -> [f64; NUM_DATA] {
    let payload = paper_payload();
    let tx = Transmitter::new();
    let rx = Receiver::new();
    let mut acc = [0.0f64; NUM_DATA];
    let mut n = 0usize;
    for p in 0..packets {
        let frame = tx.build_frame(&payload, DataRate::Mbps12, (p % 126 + 1) as u8);
        let samples = link.transmit(&frame.to_time_samples());
        // The harness knows the frame's rate/length; bypassing the SIGNAL
        // decode avoids shape mismatches from rare SIGNAL misdecodes.
        if let Ok(fe) = rx.front_end_known(&samples, DataRate::Mbps12, frame.psdu_len) {
            let evm =
                per_subcarrier_evm(&fe.equalized, &frame.mapped_points, DataRate::Mbps12.modulation(), None);
            for (a, e) in acc.iter_mut().zip(evm.iter()) {
                *a += e;
            }
            n += 1;
        }
    }
    for a in &mut acc {
        *a /= n.max(1) as f64;
    }
    acc
}

/// Runs the three-position measurement.
pub fn run(cfg: &Config) -> Table {
    // The three positions are independent links — one parallel trial each.
    let evms: Vec<[f64; NUM_DATA]> =
        run_trials(POSITION_SEEDS.len(), |i| position_evm(SNR_DB, POSITION_SEEDS[i], cfg.packets));
    let mut table = Table::new(
        "fig05_evm_positions",
        "per-subcarrier EVM (%) at positions A/B/C",
        &["subcarrier", "evm_a_pct", "evm_b_pct", "evm_c_pct"],
    );
    #[allow(clippy::needless_range_loop)] // sc indexes three parallel arrays
    for sc in 0..NUM_DATA {
        table.push_row(vec![
            (sc + 1).to_string(),
            fmt(evms[0][sc] * 100.0, 2),
            fmt(evms[1][sc] * 100.0, 2),
            fmt(evms[2][sc] * 100.0, 2),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evm_is_uneven_across_subcarriers() {
        let table = run(&Config::quick());
        assert_eq!(table.rows.len(), NUM_DATA);
        for col in 1..=3 {
            let values: Vec<f64> =
                table.rows.iter().map(|r| r[col].parse().expect("evm")).collect();
            let max = values.iter().cloned().fold(0.0, f64::max);
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(max / min.max(1e-9) > 1.3, "column {col} too flat: {min}..{max}");
        }
    }

    #[test]
    fn positions_differ() {
        let table = run(&Config::quick());
        let a: Vec<f64> = table.rows.iter().map(|r| r[1].parse().expect("a")).collect();
        let b: Vec<f64> = table.rows.iter().map(|r| r[2].parse().expect("b")).collect();
        let diff: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1.0, "positions A and B look identical");
    }
}
