//! Fig. 3 — decoder-input BER versus measured SNR at 24 Mbps, split into
//! the actual BER and the *redundant* BER (the extra error rate the
//! decoder could still tolerate relative to operating at the minimum
//! required SNR of 12 dB).

use crate::harness::{paper_channel, paper_payload, probe_channel, run_trials};
use crate::table::{fmt, Table};
use cos_channel::Link;
use cos_fec::bits::hamming_distance;
use cos_phy::rates::DataRate;
use cos_phy::rx::Receiver;
use cos_phy::tx::Transmitter;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Nominal link SNRs to sweep — chosen to land measured SNRs in the
    /// 24 Mbps band (12–17.3 dB).
    pub snr_grid: Vec<f64>,
    /// Channel realisations per point.
    pub seeds_per_point: u64,
    /// Packets per realisation.
    pub packets: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            snr_grid: (24..=36).map(|i| i as f64 * 0.5).collect(), // 12..18 dB
            seeds_per_point: 10,
            packets: 20,
        }
    }
}

impl Config {
    /// A fast version for integration tests.
    pub fn quick() -> Self {
        Config { snr_grid: vec![12.5, 16.0], seeds_per_point: 3, packets: 3 }
    }
}

/// Measures the decoder-input BER of one link over several packets.
fn link_ber(link: &mut Link, packets: usize) -> (f64, f64) {
    let payload = paper_payload();
    let tx = Transmitter::new();
    let rx = Receiver::new();
    let mut hard = Vec::new();
    let mut errors = 0usize;
    let mut bits = 0usize;
    let mut measured_acc = 0.0;
    for p in 0..packets {
        let seed = (p % 126 + 1) as u8;
        let frame = tx.build_frame(&payload, DataRate::Mbps24, seed);
        let samples = link.transmit(&frame.to_time_samples());
        if let Ok(fe) = rx.front_end_known(&samples, DataRate::Mbps24, frame.psdu_len) {
            rx.hard_decisions_into(&fe, None, &mut hard);
            errors += hamming_distance(&hard, &frame.data_field.interleaved);
            bits += hard.len();
            measured_acc += fe.measured_snr_db();
        }
        link.channel_mut().advance(1e-3);
    }
    if bits == 0 {
        return (f64::NAN, f64::NAN);
    }
    (errors as f64 / bits as f64, measured_acc / packets as f64)
}

/// Runs the sweep; rows are 0.5 dB measured-SNR bins.
pub fn run(cfg: &Config) -> Table {
    // (measured, ber) per kept realisation; cells run on the parallel
    // runner and are filtered in index order afterwards.
    let cells: Vec<(usize, f64, u64)> = cfg
        .snr_grid
        .iter()
        .enumerate()
        .flat_map(|(i, &snr)| (0..cfg.seeds_per_point).map(move |seed| (i, snr, seed)))
        .collect();
    let mut samples: Vec<(f64, f64)> = run_trials(cells.len(), |t| {
        let (i, snr, seed) = cells[t];
        let mut link = Link::new(paper_channel(), snr, seed * 6151 + i as u64 + 1);
        let probe = probe_channel(&mut link);
        // Keep only realisations whose measured SNR falls in the
        // 24 Mbps operating band, like the paper's experiment.
        if probe.measured_snr_db < 11.5 || probe.measured_snr_db > 18.0 {
            return None;
        }
        let (ber, measured) = link_ber(&mut link, cfg.packets);
        ber.is_finite().then_some((measured, ber))
    })
    .into_iter()
    .flatten()
    .collect();
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));

    // Reference BER at the minimum required SNR (the lowest bin).
    let mut table = Table::new(
        "fig03_decoder_ber",
        "decoder-input BER vs measured SNR at 24 Mbps; redundant = BER(12 dB) − BER",
        &["measured_snr_db", "actual_ber", "redundant_ber", "samples"],
    );
    if samples.is_empty() {
        return table;
    }
    let mut bins: Vec<(f64, f64, usize)> = Vec::new(); // (measured mean, ber mean, n)
    let lo = samples.first().expect("non-empty").0;
    let hi = samples.last().expect("non-empty").0;
    let mut bin = (lo * 2.0).floor() / 2.0;
    while bin <= hi {
        let in_bin: Vec<&(f64, f64)> =
            samples.iter().filter(|s| s.0 >= bin && s.0 < bin + 0.5).collect();
        if !in_bin.is_empty() {
            let m = in_bin.iter().map(|s| s.0).sum::<f64>() / in_bin.len() as f64;
            let b = in_bin.iter().map(|s| s.1).sum::<f64>() / in_bin.len() as f64;
            bins.push((m, b, in_bin.len()));
        }
        bin += 0.5;
    }
    let reference_ber = bins.first().expect("at least one bin").1;
    for (m, b, n) in bins {
        table.push_row(vec![
            fmt(m, 1),
            format!("{b:.5}"),
            format!("{:.5}", (reference_ber - b).max(0.0)),
            n.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ber_falls_and_redundancy_grows_with_snr() {
        let table = run(&Config::quick());
        assert!(table.rows.len() >= 2, "need at least two bins");
        let first_ber: f64 = table.rows.first().expect("rows")[1].parse().expect("ber");
        let last_ber: f64 = table.rows.last().expect("rows")[1].parse().expect("ber");
        assert!(last_ber <= first_ber, "BER must not grow with SNR");
        let last_red: f64 = table.rows.last().expect("rows")[2].parse().expect("red");
        assert!(last_red >= 0.0);
    }
}
