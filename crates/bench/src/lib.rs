//! Shared fixtures for the Criterion benchmarks, and the report helper
//! of the gate/storm binaries.

use cos_channel::{ChannelConfig, Link};
use cos_phy::rates::DataRate;
use cos_phy::tx::{Transmitter, TxFrame};
use cos_dsp::Complex;

/// A deterministic 1020-byte payload (1024-byte PSDU).
pub fn bench_payload() -> Vec<u8> {
    (0..1020u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect()
}

/// A built 24 Mbps frame over the bench payload.
pub fn bench_frame() -> TxFrame {
    Transmitter::new().build_frame(&bench_payload(), DataRate::Mbps24, 0x5D)
}

/// The bench frame's waveform after a 20 dB indoor channel.
pub fn bench_rx_samples() -> Vec<Complex> {
    let mut link = Link::new(ChannelConfig::default(), 20.0, 42);
    link.transmit(&bench_frame().to_time_samples())
}

/// Prints a bench binary's JSON report to stdout and, only when the
/// command line carries `--record`, also writes it to `file` in the
/// current directory — the committed `BENCH_prN.json` archive. Gate runs
/// (`scripts/check.sh`) pass no `--record`, so they never touch a tracked
/// file.
///
/// # Panics
///
/// Panics if `--record` is given and the file cannot be written.
pub fn emit_report(file: &str, json: &str) {
    print!("{json}");
    if std::env::args().any(|a| a == "--record") {
        std::fs::write(file, json).unwrap_or_else(|e| panic!("write {file}: {e}"));
        eprintln!("[json] recorded {file}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_well_formed() {
        assert_eq!(bench_payload().len(), 1020);
        let frame = bench_frame();
        assert_eq!(frame.n_data_symbols(), 86);
        assert!(bench_rx_samples().len() > 86 * 80);
    }
}
