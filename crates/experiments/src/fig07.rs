//! Fig. 7 — temporal selectivity of the indoor mobile channel:
//! (a) per-subcarrier EVM snapshots under time gaps τ ∈ {0, 10, 20, 30,
//! 40} ms, (b) the CDF of the normalised EVM change `∇EVM(τ)`.

use crate::fig05::position_evm_on;
use crate::harness::{paper_channel, run_trials};
use crate::table::{fmt, Table};
use cos_channel::Link;
use cos_dsp::stats::Ecdf;
use cos_phy::evm::evm_change;
use cos_phy::subcarriers::NUM_DATA;

/// Nominal link SNR (dB).
const SNR_DB: f64 = 18.0;
/// Channel seed (the mobile trace).
const SEED: u64 = 404;
/// Time gaps τ in milliseconds.
const TAUS_MS: [f64; 4] = [10.0, 20.0, 30.0, 40.0];

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Trials for the ∇EVM CDF.
    pub trials: usize,
    /// Packets averaged per EVM snapshot.
    pub packets_per_snapshot: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config { trials: 150, packets_per_snapshot: 8 }
    }
}

impl Config {
    /// A fast version for integration tests.
    pub fn quick() -> Self {
        Config { trials: 20, packets_per_snapshot: 3 }
    }
}

/// Runs the experiment; returns panel (a) — EVM snapshots — and panel
/// (b) — the ∇EVM CDF per τ.
pub fn run(cfg: &Config) -> Vec<Table> {
    // Panel (a): one trace, snapshots at cumulative gaps.
    let mut link = Link::new(paper_channel(), SNR_DB, SEED);
    let mut snapshots = vec![position_evm_on(&mut link, cfg.packets_per_snapshot)];
    let mut elapsed = 0.0;
    for tau in TAUS_MS {
        let delta = tau - elapsed;
        link.channel_mut().advance(delta.max(0.0) * 1e-3);
        elapsed = tau;
        snapshots.push(position_evm_on(&mut link, cfg.packets_per_snapshot));
    }

    let mut a = Table::new(
        "fig07a_evm_over_time",
        "per-subcarrier EVM (%) snapshots at time gaps tau",
        &["subcarrier", "tau0", "tau10ms", "tau20ms", "tau30ms", "tau40ms"],
    );
    for sc in 0..NUM_DATA {
        let mut row = vec![(sc + 1).to_string()];
        for snap in &snapshots {
            row.push(fmt(snap[sc] * 100.0, 2));
        }
        a.push_row(row);
    }

    // Panel (b): ∇EVM samples per τ across fresh time origins.
    let mut b = Table::new(
        "fig07b_evm_change_cdf",
        "CDF of the normalised EVM change (Eq. 2) per time gap tau",
        &["grad_evm", "cdf_tau10ms", "cdf_tau20ms", "cdf_tau30ms", "cdf_tau40ms"],
    );
    // Every trial is an independent seeded time origin — run them on the
    // parallel runner, then regroup the per-τ samples in trial order.
    let per_trial: Vec<Vec<f64>> = run_trials(cfg.trials, |trial| {
        let mut link = Link::new(paper_channel(), SNR_DB, SEED + 1 + trial as u64);
        let d0 = position_evm_on(&mut link, cfg.packets_per_snapshot);
        let mut elapsed = 0.0;
        TAUS_MS
            .iter()
            .map(|&tau| {
                link.channel_mut().advance((tau - elapsed).max(0.0) * 1e-3);
                elapsed = tau;
                let dt = position_evm_on(&mut link, cfg.packets_per_snapshot);
                evm_change(&d0, &dt)
            })
            .collect()
    });
    let mut per_tau_samples: Vec<Vec<f64>> = vec![Vec::new(); TAUS_MS.len()];
    for trial in &per_trial {
        for (ti, &g) in trial.iter().enumerate() {
            per_tau_samples[ti].push(g);
        }
    }
    let cdfs: Vec<Ecdf> = per_tau_samples.iter().map(|s| Ecdf::new(s.clone())).collect();
    let grid_hi = per_tau_samples
        .iter()
        .flatten()
        .cloned()
        .fold(0.0f64, f64::max)
        .max(1e-6);
    let points = 40;
    for i in 0..=points {
        let x = grid_hi * i as f64 / points as f64;
        let mut row = vec![format!("{x:.4}")];
        for cdf in &cdfs {
            row.push(fmt(cdf.eval(x), 3));
        }
        b.push_row(row);
    }

    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evm_is_stable_over_tens_of_milliseconds() {
        // ∇EVM between τ = 0 and τ = 40 ms stays small — the paper's
        // premise that subcarrier prediction holds across packets.
        let mut link = Link::new(paper_channel(), SNR_DB, SEED);
        let d0 = position_evm_on(&mut link, 4);
        link.channel_mut().advance(0.040);
        let d40 = position_evm_on(&mut link, 4);
        let g = evm_change(&d0, &d40);
        assert!(g < 0.5, "∇EVM(40 ms) = {g} too large for prediction");
    }

    #[test]
    fn evm_change_grows_with_tau() {
        let cfg = Config::quick();
        let tables = run(&cfg);
        let b = &tables[1];
        // The CDF at a small ∇EVM value must be highest for the smallest
        // τ (short gaps change less).
        let mid_row = &b.rows[b.rows.len() / 3];
        let cdf10: f64 = mid_row[1].parse().expect("cdf10");
        let cdf40: f64 = mid_row[4].parse().expect("cdf40");
        assert!(
            cdf10 >= cdf40 - 0.15,
            "CDF(τ=10) {cdf10} should dominate CDF(τ=40) {cdf40}"
        );
    }
}
