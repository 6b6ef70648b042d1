//! Ablations of the two design choices the paper argues for:
//!
//! * **Erasure Viterbi decoding** (§III-E): decoding silences as erasures
//!   (zero LLR) versus the error-only decoder that takes the noise-driven
//!   hard decisions at silent positions at face value.
//! * **Silence placement** (§II-D): weak-subcarrier placement versus
//!   uniformly random placement, with genie detection so the comparison
//!   isolates the coding cost of the erased symbols.

use crate::harness::{
    max_silence_rate, paper_channel, probe_channel, run_trials, Placement, TrialConfig,
};
use crate::table::{fmt, Table};
use cos_channel::Link;

/// Ablation configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Nominal link SNRs swept.
    pub snr_grid: Vec<f64>,
    /// Seeds per point.
    pub seeds_per_point: u64,
    /// Packets per PRR evaluation.
    pub packets: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            snr_grid: vec![10.0, 14.0, 18.0, 22.0],
            seeds_per_point: 3,
            packets: 120,
        }
    }
}

impl Config {
    /// A fast version for integration tests.
    pub fn quick() -> Self {
        Config { snr_grid: vec![16.0], seeds_per_point: 1, packets: 15 }
    }
}

/// EVD vs error-only decoding: maximum sustainable silence rate each way.
pub fn run_evd(cfg: &Config) -> Table {
    let mut table = Table::new(
        "ablation_evd",
        "max silences/packet at PRR >= 99.3%: erasure decoding vs error-only decoding",
        &["snr_db", "rate", "rm_evd_per_packet", "rm_error_only_per_packet", "advantage"],
    );
    // Each (SNR, seed) cell runs its two capacity searches as one
    // independent parallel trial; rows are pushed in cell order.
    let cells: Vec<(f64, u64)> = cfg
        .snr_grid
        .iter()
        .flat_map(|&snr| (0..cfg.seeds_per_point).map(move |seed| (snr, seed)))
        .collect();
    let rows = run_trials(cells.len(), |t| {
        let (snr, seed) = cells[t];
        let rng_seed = 40_000 + seed * 97;
        let mut link = Link::new(paper_channel(), snr, rng_seed);
        let probe = probe_channel(&mut link);
        let rate = probe.selected_rate;

        let evd_base = TrialConfig { use_erasures: true, ..TrialConfig::paper(rate, 0) };
        let evd = max_silence_rate(&mut link, &evd_base, cfg.packets, rng_seed + 1);

        let mut link2 = Link::new(paper_channel(), snr, rng_seed);
        let err_base = TrialConfig { use_erasures: false, ..TrialConfig::paper(rate, 0) };
        let err = max_silence_rate(&mut link2, &err_base, cfg.packets, rng_seed + 1);

        let advantage = if err.silences_per_packet == 0 {
            "inf".to_string()
        } else {
            fmt(evd.silences_per_packet as f64 / err.silences_per_packet as f64, 2)
        };
        vec![
            fmt(probe.measured_snr_db, 1),
            format!("{}Mbps", rate.mbps()),
            evd.silences_per_packet.to_string(),
            err.silences_per_packet.to_string(),
            advantage,
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

/// Weak vs random placement with genie detection: the coding cost of
/// silence placement in isolation.
pub fn run_placement(cfg: &Config) -> Table {
    let mut table = Table::new(
        "ablation_placement",
        "max silences/packet at PRR >= 99.3% (genie detection): truly-weakest vs random placement",
        &["snr_db", "rate", "rm_weak_per_packet", "rm_random_per_packet"],
    );
    // Same structure as `run_evd`: independent (SNR, seed) cells on the
    // parallel runner, rows in cell order.
    let cells: Vec<(f64, u64)> = cfg
        .snr_grid
        .iter()
        .flat_map(|&snr| (0..cfg.seeds_per_point).map(move |seed| (snr, seed)))
        .collect();
    let rows = run_trials(cells.len(), |t| {
        let (snr, seed) = cells[t];
        let rng_seed = 50_000 + seed * 131;
        let mut link = Link::new(paper_channel(), snr, rng_seed);
        let probe = probe_channel(&mut link);
        let rate = probe.selected_rate;

        let weak_base = TrialConfig {
            placement: Placement::WeakNoFloor,
            genie_detection: true,
            ..TrialConfig::paper(rate, 0)
        };
        let weak = max_silence_rate(&mut link, &weak_base, cfg.packets, rng_seed + 1);

        let mut link2 = Link::new(paper_channel(), snr, rng_seed);
        let random_base = TrialConfig {
            placement: Placement::Random,
            genie_detection: true,
            ..TrialConfig::paper(rate, 0)
        };
        let random = max_silence_rate(&mut link2, &random_base, cfg.packets, rng_seed + 1);

        vec![
            fmt(probe.measured_snr_db, 1),
            format!("{}Mbps", rate.mbps()),
            weak.silences_per_packet.to_string(),
            random.silences_per_packet.to_string(),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

/// CoS vs the interference-margin (flash) baseline: control delivery,
/// data survival and energy cost at a fixed control-message size.
pub fn run_baseline_comparison(cfg: &Config) -> Table {
    use cos_core::baseline::{FlashConfig, FlashSignaling};
    use cos_core::interval::IntervalCodec;
    use cos_channel::link::NOMINAL_TX_POWER;
    use cos_phy::rx::Receiver;
    use cos_phy::tx::Transmitter;
    use cos_dsp::rng::Xoshiro256;
    use cos_dsp::GaussianSource;

    let mut table = Table::new(
        "ablation_baseline",
        "CoS vs flash (hJam/Flashback-style) side channel: 16 control bits per 1024-B packet",
        &[
            "snr_db",
            "cos_control_ok",
            "cos_data_ok",
            "flash_control_ok",
            "flash_data_ok",
            "flash_energy_vs_frame",
        ],
    );
    let packets = cfg.packets.max(20);
    // Each SNR point evolves its own link serially (the two arms share a
    // fading trajectory), but the points themselves are independent trials.
    let rows = run_trials(cfg.snr_grid.len(), |pi| {
        let snr = cfg.snr_grid[pi];
        let mut cos_ctrl = 0u32;
        let mut cos_data = 0u32;
        let mut flash_ctrl = 0u32;
        let mut flash_data = 0u32;
        let mut energy_ratio_acc = 0.0f64;
        let mut rng = Xoshiro256::new(60_000 + snr as u64);

        let mut link = Link::new(paper_channel(), snr, 61_000 + snr as u64);
        let probe = probe_channel(&mut link);
        let rate = cos_phy::rates::DataRate::Mbps12;
        let base = TrialConfig { rate, ..TrialConfig::paper(rate, 5) };
        let codec = IntervalCodec::default();
        let n_sym = rate.data_symbol_count(base.payload.len() + 4);
        let selected = crate::harness::choose_subcarriers(&probe, &base, n_sym, &codec, 3);

        for p in 0..packets {
            // --- CoS arm.
            let out = crate::harness::run_packet(&mut link, &base, &selected, &mut rng);
            cos_ctrl += out.control_ok as u32;
            cos_data += out.data_ok as u32;

            // --- Flash arm: same bit count (16 bits -> 5 flashes incl. marker).
            let flash = FlashSignaling::new(FlashConfig::default());
            let bits = crate::harness::random_bits(16, &mut rng);
            let frame = Transmitter::new().build_frame(&base.payload, rate, (p % 126 + 1) as u8);
            let positions = flash.encode(&bits);
            let mut rx_samples = link.transmit(&frame.to_time_samples());
            let frame_energy: f64 = rx_samples.iter().map(|x| x.norm_sqr()).sum();
            let mut grng = GaussianSource::new(7_000 + p as u64);
            let spent = flash.inject(&mut rx_samples, &positions, NOMINAL_TX_POWER, &mut grng);
            energy_ratio_acc += spent / frame_energy.max(1e-12);
            let receiver = Receiver::new();
            if let Ok(fe) = receiver.front_end_known(&rx_samples, rate, frame.psdu_len) {
                let flagged = flash.detect(&fe);
                flash_ctrl += (flash.decode(&flagged).as_deref() == Some(&bits[..])) as u32;
                let mask = flash.erasure_mask(&flagged, fe.raw_symbols.len());
                flash_data += receiver.decode(&fe, Some(&mask)).crc_ok as u32;
            }
            link.channel_mut().advance(1e-3);
        }
        vec![
            fmt(snr, 1),
            fmt(cos_ctrl as f64 / packets as f64, 3),
            fmt(cos_data as f64 / packets as f64, 3),
            fmt(flash_ctrl as f64 / packets as f64, 3),
            fmt(flash_data as f64 / packets as f64, 3),
            fmt(energy_ratio_acc / packets as f64, 2),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evd_sustains_at_least_as_many_silences() {
        let table = run_evd(&Config::quick());
        for row in &table.rows {
            let evd: usize = row[2].parse().expect("evd");
            let err: usize = row[3].parse().expect("err");
            assert!(evd >= err, "EVD {evd} must not lose to error-only {err}");
            assert!(evd > 0, "EVD capacity must be positive at 16 dB");
        }
    }

    #[test]
    fn baseline_comparison_shows_the_tradeoffs() {
        let table = run_baseline_comparison(&Config::quick());
        for row in &table.rows {
            let cos_data: f64 = row[2].parse().expect("cos data");
            let flash_data: f64 = row[4].parse().expect("flash data");
            let energy: f64 = row[5].parse().expect("energy");
            assert!(cos_data > flash_data, "CoS must preserve data better: {row:?}");
            assert!(energy > 1.0, "flashes must cost more energy than the whole frame");
        }
    }

    #[test]
    fn placement_produces_positive_capacities() {
        let table = run_placement(&Config::quick());
        for row in &table.rows {
            let weak: usize = row[2].parse().expect("weak");
            let random: usize = row[3].parse().expect("random");
            assert!(weak > 0 && random > 0, "both placements must carry silences");
        }
    }
}
