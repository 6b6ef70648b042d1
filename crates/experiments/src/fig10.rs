//! Fig. 10 — detection accuracy of silence symbols:
//! (a) an FFT-magnitude snapshot with control subcarriers 10–17 and
//! silences on 10, 11 and 17 (interval 5 ⇒ "0101"),
//! (b) false positive/negative probability vs the detection threshold in
//! dBm at ≈ 9.2 dB,
//! (c) false probabilities vs SNR with the adaptive threshold,
//! (d) the impact of strong pulse interference on the false-negative
//! probability.

use crate::harness::{paper_channel, paper_payload, random_bits, run_trials};
use crate::table::{fmt, Table};
use cos_channel::link::NOMINAL_TX_POWER;
use cos_channel::{FaultEngine, Link, PulseInterferer};
use cos_core::energy_detector::{DetectionAccuracy, EnergyDetector};
use cos_core::interval::IntervalCodec;
use cos_core::power_controller::PowerController;
use cos_dsp::rng::Xoshiro256;
use cos_phy::rates::DataRate;
use cos_phy::rx::Receiver;
use cos_phy::subcarriers::{USED_BINS, SYMBOL_LEN};
use cos_phy::tx::Transmitter;

/// The paper's Fig. 10(a) control subcarriers: logical 9..17 (its
/// 1-based 10..17).
pub const CONTROL_BLOCK: [usize; 8] = [9, 10, 11, 12, 13, 14, 15, 16];

/// Nominal SNR for panels (a)/(b).
const SNAPSHOT_SNR_DB: f64 = 9.2;

/// Experiment configuration shared by the four panels.
#[derive(Debug, Clone)]
pub struct Config {
    /// Packets per measurement point.
    pub packets: usize,
    /// Threshold sweep in dBm for panel (b).
    pub threshold_grid_dbm: Vec<f64>,
    /// SNR grid for panels (c)/(d).
    pub snr_grid: Vec<f64>,
    /// Seeds per SNR point.
    pub seeds_per_point: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            packets: 120,
            threshold_grid_dbm: (0..=24).map(|i| -110.0 + 2.5 * i as f64).collect(),
            snr_grid: vec![3.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0],
            seeds_per_point: 4,
        }
    }
}

impl Config {
    /// A fast version for integration tests.
    pub fn quick() -> Self {
        Config {
            packets: 10,
            threshold_grid_dbm: vec![-105.0, -90.0, -70.0],
            snr_grid: vec![4.0, 12.0, 20.0],
            seeds_per_point: 2,
        }
    }
}

/// Detection-threshold mode for a measurement batch.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Fixed global threshold in linear frequency-domain power.
    Global(f64),
    /// Per-subcarrier adaptive thresholds.
    Adaptive,
}

/// Runs `packets` frames with random control messages on the contiguous
/// block and tallies detection accuracy.
fn detection_batch(link: &mut Link, packets: usize, mode: Mode, seed: u64) -> DetectionAccuracy {
    let mut rng = Xoshiro256::new(seed);
    let codec = IntervalCodec::default();
    let controller = PowerController::new(codec);
    let detector = EnergyDetector::default();
    let tx = Transmitter::new();
    let rx = Receiver::new();
    let payload = paper_payload();
    let selected: Vec<usize> = CONTROL_BLOCK.to_vec();

    let mut total = DetectionAccuracy::default();
    for p in 0..packets {
        let mut frame = tx.build_frame(&payload, DataRate::Mbps12, (p % 126 + 1) as u8);
        let bits = random_bits(40, &mut rng);
        let truth = match controller.embed(&mut frame, &selected, &bits) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let samples = link.transmit(&frame.to_time_samples());
        let Ok(fe) = rx.front_end(&samples) else { continue };
        let detection = match mode {
            Mode::Global(thr) => detector.detect_with_threshold(&fe, &selected, thr),
            Mode::Adaptive => detector.detect(&fe, &selected),
        };
        let positions_total = fe.raw_symbols.len() * selected.len();
        total.merge(&DetectionAccuracy::evaluate(&detection.positions, &truth, positions_total));
        link.channel_mut().advance(1e-3);
    }
    total
}

/// Panel (a): relative FFT magnitudes of the 52 used subcarriers for one
/// OFDM symbol carrying silences on logical 9, 10 and 16.
pub fn run_snapshot() -> Table {
    let mut frame =
        Transmitter::new().build_frame(&paper_payload(), DataRate::Mbps12, 0x5D);
    // Silences at 1-based data subcarriers 10, 11 and 17 of the block —
    // the interval between 11 and 17 is 5, encoding "0101".
    frame.silence(0, 9);
    frame.silence(0, 10);
    frame.silence(0, 16);
    let mut link = Link::new(paper_channel(), SNAPSHOT_SNR_DB, 2024);
    let samples = link.transmit(&frame.to_time_samples());
    let fe = Receiver::new().front_end(&samples).expect("front end");
    let sym = &fe.raw_symbols[0];
    let mags: Vec<f64> = USED_BINS.iter().map(|&b| sym.0[b].norm()).collect();
    let peak = mags.iter().cloned().fold(0.0f64, f64::max).max(1e-12);

    let mut table = Table::new(
        "fig10a_fft_snapshot",
        "relative FFT magnitudes of 52 used subcarriers; silences on data subcarriers 10/11/17",
        &["used_subcarrier", "relative_magnitude"],
    );
    for (i, &m) in mags.iter().enumerate() {
        table.push_row(vec![(i + 1).to_string(), fmt(m / peak, 3)]);
    }
    table
}

/// Panel (b): FP/FN vs global detection threshold (dBm) at ≈ 9.2 dB.
pub fn run_threshold_sweep(cfg: &Config) -> Table {
    let mut table = Table::new(
        "fig10b_threshold",
        "false probabilities vs global detection threshold (dBm) at 9.2 dB",
        &["threshold_dbm", "false_positive", "false_negative"],
    );
    // One independent batch per (threshold, seed) cell, merged per
    // threshold in index order.
    let cells: Vec<(f64, u64)> = cfg
        .threshold_grid_dbm
        .iter()
        .flat_map(|&thr| (0..cfg.seeds_per_point).map(move |seed| (thr, seed)))
        .collect();
    let batches = run_trials(cells.len(), |t| {
        let (thr_dbm, seed) = cells[t];
        let mut link = Link::new(paper_channel(), SNAPSHOT_SNR_DB, 31 + seed);
        let thr = link.calibration().to_linear(thr_dbm);
        detection_batch(&mut link, cfg.packets / cfg.seeds_per_point as usize, Mode::Global(thr), seed)
    });
    for (ti, &thr_dbm) in cfg.threshold_grid_dbm.iter().enumerate() {
        let mut total = DetectionAccuracy::default();
        for acc in batches
            .iter()
            .skip(ti * cfg.seeds_per_point as usize)
            .take(cfg.seeds_per_point as usize)
        {
            total.merge(acc);
        }
        table.push_row(vec![
            fmt(thr_dbm, 1),
            fmt(total.false_positive_rate(), 4),
            fmt(total.false_negative_rate(), 4),
        ]);
    }
    table
}

/// Panel (c): FP/FN vs SNR with the adaptive threshold.
pub fn run_snr_sweep(cfg: &Config) -> Table {
    let mut table = Table::new(
        "fig10c_detection_snr",
        "false probabilities vs measured SNR with adaptive threshold",
        &["snr_db", "false_positive", "false_negative"],
    );
    // One independent batch per (SNR, seed) cell, merged per SNR point in
    // index order.
    let cells: Vec<(f64, u64)> = cfg
        .snr_grid
        .iter()
        .flat_map(|&snr| (0..cfg.seeds_per_point).map(move |seed| (snr, seed)))
        .collect();
    let batches = run_trials(cells.len(), |t| {
        let (snr, seed) = cells[t];
        let mut link = Link::new(paper_channel(), snr, 7000 + seed * 13);
        detection_batch(&mut link, cfg.packets / cfg.seeds_per_point as usize, Mode::Adaptive, 100 + seed)
    });
    for (si, &snr) in cfg.snr_grid.iter().enumerate() {
        let mut total = DetectionAccuracy::default();
        for acc in batches
            .iter()
            .skip(si * cfg.seeds_per_point as usize)
            .take(cfg.seeds_per_point as usize)
        {
            total.merge(acc);
        }
        table.push_row(vec![
            fmt(snr, 1),
            fmt(total.false_positive_rate(), 4),
            fmt(total.false_negative_rate(), 4),
        ]);
    }
    table
}

/// Panel (d): false-negative probability vs SNR with and without strong
/// pulse interference.
pub fn run_interference(cfg: &Config) -> Table {
    let mut table = Table::new(
        "fig10d_interference",
        "false-negative probability vs SNR, with and without strong pulse interference",
        &["snr_db", "fn_no_interference", "fn_strong_interference"],
    );
    // Each (SNR, seed) cell measures its quiet and interfered batch as one
    // independent trial; results merge per SNR point in index order.
    let cells: Vec<(f64, u64)> = cfg
        .snr_grid
        .iter()
        .flat_map(|&snr| (0..cfg.seeds_per_point).map(move |seed| (snr, seed)))
        .collect();
    let batches = run_trials(cells.len(), |t| {
        let (snr, seed) = cells[t];
        let packets = cfg.packets / cfg.seeds_per_point as usize;
        let mut q = Link::new(paper_channel(), snr, 9000 + seed * 17);
        let quiet = detection_batch(&mut q, packets, Mode::Adaptive, 200 + seed);
        // Strong interference: 15 dB above the signal, striking ~30 %
        // of OFDM-symbol windows.
        let interferer = PulseInterferer::new(NOMINAL_TX_POWER * 31.6, 0.3, SYMBOL_LEN, 555 + seed);
        let mut l = Link::new(paper_channel(), snr, 9000 + seed * 17)
            .with_faults(FaultEngine::new().with(interferer));
        let loud = detection_batch(&mut l, packets, Mode::Adaptive, 300 + seed);
        (quiet, loud)
    });
    for (si, &snr) in cfg.snr_grid.iter().enumerate() {
        let mut quiet = DetectionAccuracy::default();
        let mut loud = DetectionAccuracy::default();
        for (q, l) in batches
            .iter()
            .skip(si * cfg.seeds_per_point as usize)
            .take(cfg.seeds_per_point as usize)
        {
            quiet.merge(q);
            loud.merge(l);
        }
        table.push_row(vec![
            fmt(snr, 1),
            fmt(quiet.false_negative_rate(), 4),
            fmt(loud.false_negative_rate(), 4),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_shows_silent_subcarriers() {
        let table = run_snapshot();
        assert_eq!(table.rows.len(), 52);
        // Used-subcarrier positions of logical data 9, 10, 16: data
        // indices -26..26 with pilots interleaved. Logical data sc 9 is
        // subcarrier index -16 → within used ordering (1-based): index
        // -16 is the 11th used subcarrier; -15 the 12th; -9 the 18th.
        let mag = |row: usize| -> f64 { table.rows[row - 1][1].parse().expect("mag") };
        for silent in [11usize, 12, 18] {
            assert!(mag(silent) < 0.35, "used subcarrier {silent} should be silent: {}", mag(silent));
        }
        // Active subcarriers have substantial magnitude.
        let active: f64 = (1..=52)
            .filter(|r| ![11usize, 12, 18].contains(r))
            .map(mag)
            .sum::<f64>()
            / 49.0;
        assert!(active > 0.3, "mean active magnitude {active}");
    }

    #[test]
    fn threshold_tradeoff_has_both_failure_modes() {
        let cfg = Config::quick();
        let table = run_threshold_sweep(&cfg);
        let first = &table.rows[0]; // very low threshold
        let last = &table.rows[table.rows.len() - 1]; // very high threshold
        let fn_low: f64 = first[2].parse().expect("fn");
        let fp_high: f64 = last[1].parse().expect("fp");
        assert!(fn_low > 0.5, "low threshold must miss silences: {fn_low}");
        assert!(fp_high > 0.5, "high threshold must flood false positives: {fp_high}");
    }

    #[test]
    fn adaptive_detection_improves_with_snr() {
        let cfg = Config::quick();
        let table = run_snr_sweep(&cfg);
        let fp_low: f64 = table.rows[0][1].parse().expect("fp");
        let fp_high: f64 = table.rows[table.rows.len() - 1][1].parse().expect("fp");
        assert!(fp_high <= fp_low + 1e-9, "FP must not grow with SNR");
    }

    #[test]
    fn interference_raises_false_negatives() {
        let cfg = Config::quick();
        let table = run_interference(&cfg);
        let mut worse = 0;
        for row in &table.rows {
            let quiet: f64 = row[1].parse().expect("quiet");
            let loud: f64 = row[2].parse().expect("loud");
            worse += (loud >= quiet) as u32;
        }
        assert!(worse as usize >= table.rows.len() - 1, "interference must raise FN");
    }
}
