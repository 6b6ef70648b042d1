//! Error vector magnitude (EVM) instrumentation — the paper's Eq. (1) and
//! Eq. (2).
//!
//! Per-subcarrier EVM characterises frequency-selective fading at symbol
//! granularity; the CoS receiver computes it after a frame passes its CRC
//! (so the transmitted constellation points can be reconstructed) and uses
//! it to select weak subcarriers. The normalised EVM change `∇EVM`
//! quantifies temporal selectivity (Fig. 7).

use crate::constellation::Modulation;
use crate::frame::{encode_data_field, payload_to_psdu_into};
use crate::pipeline::TxWorkspace;
use crate::rates::DataRate;
use crate::subcarriers::NUM_DATA;
use cos_dsp::{kernel_mode, Complex};

/// Per-subcarrier EVM (paper Eq. 1): for each of the 48 data subcarriers,
/// `sqrt( mean_i |r_i − s_i|² / mean_m |s_m|² )`, where `r` are equalised
/// received points, `s` the transmitted points, and the denominator is the
/// constellation's average energy (1 for the normalised 802.11a
/// constellations, but computed exactly).
///
/// Positions where `exclude[symbol][sc]` is `true` (silence symbols) are
/// skipped, as the paper requires.
///
/// # Panics
///
/// Panics if `received` and `reference` have different shapes, or a mask
/// is provided with the wrong number of rows.
pub fn per_subcarrier_evm(
    received: &[[Complex; NUM_DATA]],
    reference: &[[Complex; NUM_DATA]],
    modulation: Modulation,
    exclude: Option<&[[bool; NUM_DATA]]>,
) -> [f64; NUM_DATA] {
    assert_eq!(received.len(), reference.len(), "received/reference symbol counts differ");
    if let Some(mask) = exclude {
        assert_eq!(mask.len(), received.len(), "exclude mask rows must match symbol count");
    }
    let denom = modulation.average_energy();
    let mut err = [0.0f64; NUM_DATA];
    let mut count = [0usize; NUM_DATA];
    for (n, (rx_row, tx_row)) in received.iter().zip(reference).enumerate() {
        for sc in 0..NUM_DATA {
            if exclude.is_some_and(|m| m[n][sc]) {
                continue;
            }
            err[sc] += (rx_row[sc] - tx_row[sc]).norm_sqr();
            count[sc] += 1;
        }
    }
    let mut evm = [0.0f64; NUM_DATA];
    for sc in 0..NUM_DATA {
        if count[sc] > 0 {
            evm[sc] = (err[sc] / count[sc] as f64 / denom).sqrt();
        }
    }
    evm
}

/// The normalised EVM change `∇EVM(τ)` (paper Eq. 2): with `D(t)` the
/// 48-vector of per-subcarrier error-vector magnitudes,
/// `∇EVM = ‖D(t) − D(t+τ)‖₂ / ‖D(t+τ)‖₂`.
///
/// # Panics
///
/// Panics if `later` has zero norm (no error vectors at all).
pub fn evm_change(now: &[f64; NUM_DATA], later: &[f64; NUM_DATA]) -> f64 {
    let diff: f64 = now
        .iter()
        .zip(later)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    let norm: f64 = later.iter().map(|b| b * b).sum::<f64>().sqrt();
    assert!(norm > 0.0, "∇EVM undefined for a zero reference EVM vector");
    diff / norm
}

/// Reconstructs the transmitted constellation points of a decoded frame by
/// re-running the transmit mapping on the recovered PSDU — the paper's
/// §III-D procedure, valid once the CRC has passed.
///
/// `payload` is the CRC-verified payload, `seed` the recovered scrambler
/// seed.
pub fn reconstruct_points(
    payload: &[u8],
    rate: DataRate,
    seed: u8,
) -> Vec<[Complex; NUM_DATA]> {
    let mut ws = TxWorkspace::new();
    reconstruct_points_into(payload, rate, seed, &mut ws);
    std::mem::take(&mut ws.frame.mapped_points)
}

/// [`reconstruct_points`] running the transmit bit chain inside a
/// caller-owned [`TxWorkspace`] and returning a borrow of its mapped
/// points — the per-frame reconstruction of the feedback loop without the
/// per-frame allocation.
///
/// Reconstruction stops at the points: it overwrites `ws.psdu`,
/// `ws.frame.data_field` and `ws.frame.mapped_points` only, and leaves the
/// frame's symbols, SIGNAL and silence mask as the last build left them.
/// Keep a separate workspace for reconstruction, as the sessions do.
pub fn reconstruct_points_into<'a>(
    payload: &[u8],
    rate: DataRate,
    seed: u8,
    ws: &'a mut TxWorkspace,
) -> &'a [[Complex; NUM_DATA]] {
    let TxWorkspace { frame, psdu, bits, .. } = ws;
    payload_to_psdu_into(payload, psdu);
    encode_data_field(psdu, rate, seed, kernel_mode(), bits, &mut frame.data_field, Some(&mut frame.mapped_points));
    &frame.mapped_points
}

/// Counts symbol errors: positions where the hard decision on the
/// equalised point differs from the transmitted point. Returns a flat map
/// in slot-major order (`symbol * 48 + sc`), the x-axis of Fig. 6(a).
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn symbol_error_map(
    received: &[[Complex; NUM_DATA]],
    reference: &[[Complex; NUM_DATA]],
    modulation: Modulation,
) -> Vec<bool> {
    assert_eq!(received.len(), reference.len(), "shape mismatch");
    let n = modulation.bits_per_symbol();
    let (mut llrs, mut hard) = ([0; NUM_DATA * 6], [0u8; NUM_DATA * 6]);
    let (llrs, hard) = (&mut llrs[..NUM_DATA * n], &mut hard[..NUM_DATA * n]);
    let mut map = Vec::with_capacity(received.len() * NUM_DATA);
    for (rx_row, tx_row) in received.iter().zip(reference) {
        modulation.demap_row_into(rx_row, &[0.0; NUM_DATA], None, llrs, hard);
        for (bits, &sent) in hard.chunks_exact(n).zip(tx_row) {
            map.push((modulation.map(bits) - sent).norm() > 1e-9);
        }
    }
    map
}

/// Per-subcarrier symbol error rate from a flat error map — Fig. 6(b).
pub fn per_subcarrier_ser(error_map: &[bool]) -> [f64; NUM_DATA] {
    assert!(error_map.len().is_multiple_of(NUM_DATA), "error map must be whole symbols");
    let n_sym = error_map.len() / NUM_DATA;
    let mut ser = [0.0f64; NUM_DATA];
    for (i, &e) in error_map.iter().enumerate() {
        if e {
            ser[i % NUM_DATA] += 1.0;
        }
    }
    for s in &mut ser {
        *s /= n_sym.max(1) as f64;
    }
    ser
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(value: Complex) -> Vec<[Complex; NUM_DATA]> {
        vec![[value; NUM_DATA]; 4]
    }

    #[test]
    fn zero_error_gives_zero_evm() {
        let pts = grid(Complex::new(1.0, 0.0));
        let evm = per_subcarrier_evm(&pts, &pts, Modulation::Bpsk, None);
        assert!(evm.iter().all(|&e| e == 0.0));
    }

    #[test]
    fn known_offset_gives_known_evm() {
        let tx = grid(Complex::new(1.0, 0.0));
        let rx = grid(Complex::new(1.1, 0.0));
        let evm = per_subcarrier_evm(&rx, &tx, Modulation::Bpsk, None);
        for &e in &evm {
            assert!((e - 0.1).abs() < 1e-12, "evm {e}");
        }
    }

    #[test]
    fn excluded_positions_do_not_count() {
        let tx = grid(Complex::new(1.0, 0.0));
        let mut rx = grid(Complex::new(1.0, 0.0));
        // Corrupt symbol 0 on subcarrier 3, then exclude it.
        rx[0][3] = Complex::new(5.0, 5.0);
        let mut mask = vec![[false; NUM_DATA]; 4];
        mask[0][3] = true;
        let evm = per_subcarrier_evm(&rx, &tx, Modulation::Bpsk, Some(&mask));
        assert_eq!(evm[3], 0.0);
        let evm_unmasked = per_subcarrier_evm(&rx, &tx, Modulation::Bpsk, None);
        assert!(evm_unmasked[3] > 1.0);
    }

    #[test]
    fn evm_change_is_zero_for_identical_vectors() {
        let d = [0.1f64; NUM_DATA];
        assert_eq!(evm_change(&d, &d), 0.0);
    }

    #[test]
    fn evm_change_is_scale_free() {
        let mut a = [0.0f64; NUM_DATA];
        let mut b = [0.0f64; NUM_DATA];
        for i in 0..NUM_DATA {
            a[i] = 0.05 + 0.01 * (i as f64 * 0.3).sin();
            b[i] = a[i] * 1.02;
        }
        let g1 = evm_change(&a, &b);
        let a2: [f64; NUM_DATA] = a.map(|x| x * 10.0);
        let b2: [f64; NUM_DATA] = b.map(|x| x * 10.0);
        let g2 = evm_change(&a2, &b2);
        assert!((g1 - g2).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_matches_transmitter() {
        use crate::tx::Transmitter;
        let payload = b"reconstruct me".to_vec();
        let rate = DataRate::Mbps24;
        let frame = Transmitter::new().build_frame(&payload, rate, 0x47);
        let rebuilt = reconstruct_points(&payload, rate, 0x47);
        assert_eq!(rebuilt.len(), frame.mapped_points.len());
        for (a, b) in rebuilt.iter().zip(&frame.mapped_points) {
            assert_eq!(&a[..], &b[..]);
        }
    }

    #[test]
    fn symbol_error_map_flags_only_real_errors() {
        let m = Modulation::Qpsk;
        let tx = vec![[m.map(&[0, 0]); NUM_DATA]; 2];
        let mut rx = tx.clone();
        // Small perturbation: no error. Large: error.
        rx[0][0] = tx[0][0] + Complex::new(0.1, 0.1);
        rx[1][7] = -tx[1][7];
        let map = symbol_error_map(&rx, &tx, m);
        assert!(!map[0]);
        assert!(map[NUM_DATA + 7]);
        assert_eq!(map.iter().filter(|&&e| e).count(), 1);
    }

    #[test]
    fn ser_aggregates_by_subcarrier() {
        let mut map = vec![false; NUM_DATA * 10];
        // Subcarrier 5 fails in 4 of 10 symbols.
        for n in 0..4 {
            map[n * NUM_DATA + 5] = true;
        }
        let ser = per_subcarrier_ser(&map);
        assert!((ser[5] - 0.4).abs() < 1e-12);
        assert_eq!(ser[6], 0.0);
    }

    #[test]
    #[should_panic(expected = "zero reference")]
    fn evm_change_rejects_zero_reference() {
        evm_change(&[0.1; NUM_DATA], &[0.0; NUM_DATA]);
    }
}
