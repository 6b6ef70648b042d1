//! The experiment harness reproducing every measurement figure of the CoS
//! paper (ICDCS 2017).
//!
//! Each `figNN` module regenerates one figure of the paper's evaluation as
//! a [`table::Table`]; the `run_all` binary runs each by name, prints it
//! and writes a CSV under `results/` (`robustness_soak` does the same for
//! [`robustness`]). Every module exposes a `Config` with a `Default`
//! (full fidelity); the figure modules add a `Config::quick()` their unit
//! tests (and the `gate` binary's smoke duels) use to keep CI fast, and
//! the soak's tests build their own small one. What no caller varies is
//! a named `const` of the module.
//!
//! | Module | Paper figure | Content |
//! |---|---|---|
//! | [`fig02`] | Fig. 2 | SNR gap: measured vs actual vs minimum-required |
//! | [`fig03`] | Fig. 3 | decoder-input BER and redundant BER at 24 Mbps |
//! | [`fig05`] | Fig. 5 | per-subcarrier EVM at three positions |
//! | [`fig06`] | Fig. 6 | symbol-error frequency by position; per-subcarrier SER |
//! | [`fig07`] | Fig. 7 | temporal selectivity: EVM snapshots and ∇EVM CDF |
//! | [`fig09`] | Fig. 9 | maximum silence rate Rm vs measured SNR, six rates |
//! | [`fig10`] | Fig. 10 | FFT snapshot, threshold sweep, detection vs SNR, interference |
//! | [`ablation`] | §II-D/III-E claims | EVD vs error-only; weak vs random placement |
//! | [`robustness`] | — (PR 2) | fault-injection soak of the resilient session |
//! | [`adaptation`] | — (PR 6) | closed-loop rate staircase + budget probe under SNR drift |
//! | [`mesh`] | — (PR 8) | N-station cell with hidden terminals: CoS-coordinated vs CSMA |

pub mod ablation;
pub mod adaptation;
pub mod fig02;
pub mod fig03;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig09;
pub mod fig10;
pub mod harness;
pub mod mesh;
pub mod robustness;
pub mod table;
