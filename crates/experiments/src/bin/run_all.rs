//! Runs the figure experiments at full fidelity (each module's
//! `Config::default()`) and writes their CSVs under `results/`.
//!
//! Usage: `run_all [--threads N] [NAME…]`. With no names it runs every
//! entry of [`REGISTRY`] in order; with names, only those, in the order
//! given. An unknown name exits with status 2 before anything runs and
//! lists the valid names. Output is byte-identical at any `--threads` /
//! `COS_THREADS` value (`docs/DETERMINISM.md`). A CSV that cannot be
//! written exits with status 1.

use std::io;

use cos_experiments::harness::{select, Entry};
use cos_experiments::table::{self, Table};
use cos_experiments::{ablation, adaptation, fig02, fig03, fig05, fig06, fig07, fig09, fig10, mesh};

/// An entry's body: it runs one experiment and returns its tables.
type Experiment = fn() -> Vec<Table>;

/// Every figure experiment, in the order a bare `run_all` runs them.
const REGISTRY: &[Entry<Experiment>] = &[
    Entry {
        name: "fig02_snr_gap",
        what: "Fig. 2: SNR gap of the staircase rate choice",
        run: || vec![fig02::run(&fig02::Config::default())],
    },
    Entry {
        name: "fig03_decoder_ber",
        what: "Fig. 3: decoder-input and redundant BER at 24 Mbps",
        run: || vec![fig03::run(&fig03::Config::default())],
    },
    Entry {
        name: "fig05_evm_positions",
        what: "Fig. 5: per-subcarrier EVM at three positions",
        run: || vec![fig05::run(&fig05::Config::default())],
    },
    Entry {
        name: "fig06_error_pattern",
        what: "Fig. 6: symbol-error pattern within a packet",
        run: || fig06::run(&fig06::Config::default()),
    },
    Entry {
        name: "fig07_temporal",
        what: "Fig. 7: temporal selectivity of the EVM",
        run: || fig07::run(&fig07::Config::default()),
    },
    Entry {
        name: "fig09_capacity",
        what: "Fig. 9: capacity of free control messages",
        run: || vec![fig09::run(&fig09::Config::default())],
    },
    Entry {
        name: "fig10a_fft_snapshot",
        what: "Fig. 10(a): FFT magnitudes with three silences",
        run: || vec![fig10::run_snapshot()],
    },
    Entry {
        name: "fig10b_threshold",
        what: "Fig. 10(b): false probabilities vs detection threshold",
        run: || vec![fig10::run_threshold_sweep(&fig10::Config::default())],
    },
    Entry {
        name: "fig10c_detection_snr",
        what: "Fig. 10(c): false probabilities vs SNR, adaptive threshold",
        run: || vec![fig10::run_snr_sweep(&fig10::Config::default())],
    },
    Entry {
        name: "fig10d_interference",
        what: "Fig. 10(d): false negatives under pulse interference",
        run: || vec![fig10::run_interference(&fig10::Config::default())],
    },
    Entry {
        name: "fig07_adaptation",
        what: "closed-loop rate and budget adaptation under SNR drift",
        run: || adaptation::run(&adaptation::Config::default()),
    },
    Entry {
        name: "ablation_evd",
        what: "ablation: erasure vs error-only Viterbi decoding",
        run: || vec![ablation::run_evd(&ablation::Config::default())],
    },
    Entry {
        name: "ablation_placement",
        what: "ablation: weak-subcarrier vs random silence placement",
        run: || vec![ablation::run_placement(&ablation::Config::default())],
    },
    Entry {
        name: "fig08_mesh",
        what: "mesh cell with hidden terminals: coordinated vs CSMA",
        run: || mesh::run(&mesh::Config::default()),
    },
    Entry {
        name: "ablation_baseline",
        what: "ablation: CoS vs an interference-margin side channel",
        run: || vec![ablation::run_baseline_comparison(&ablation::Config::default())],
    },
];

fn main() {
    let names = cos_experiments::harness::init_threads_from_args();
    let entries = select(REGISTRY, &names).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    for entry in entries {
        let header = format!("== {}: {} ==\n", entry.name, entry.what);
        if let Err(e) = table::print(&mut io::stdout().lock(), &header)
            .and_then(|()| table::emit(&(entry.run)()))
        {
            eprintln!("[csv] {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        for (i, e) in REGISTRY.iter().enumerate() {
            assert!(REGISTRY[..i].iter().all(|p| p.name != e.name), "{} listed twice", e.name);
        }
    }
}
