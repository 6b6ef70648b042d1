//! Decision-directed silence validation.
//!
//! Energy detection alone cannot reliably distinguish a silence symbol
//! from a *low-energy constellation point* (the inner points of 16/64QAM
//! carry 7–13 dB less power than average). But once the data frame passes
//! its CRC, the CoS receiver can reconstruct the exact constellation point
//! every position would have carried (the same §III-D reconstruction that
//! feeds EVM) and re-test each control position **coherently**:
//!
//! * silence hypothesis: `Y ≈ n` ⇒ residual `|Y|²`,
//! * normal hypothesis: `Y ≈ H·x̂ + n` ⇒ residual `|Y − H·x̂|²`,
//!
//! choosing the smaller residual. Matching the known phase buys the
//! classic coherent-vs-energy detection gain and removes the exponential
//! noise tail, pushing control-message accuracy to the paper's
//! "close to 100 %" even at 64QAM. Positions the energy detector missed
//! (false negatives) are recovered by the same test, because every control
//! position is re-examined.

use cos_dsp::Complex;
use cos_phy::rx::FrontEnd;
use cos_phy::subcarriers::{DATA_BINS, NUM_DATA};

/// First subcarrier of the fallback selection block (the session's
/// bootstrap layout, Fig. 10(a)).
pub const FALLBACK_SELECTION_START: usize = 9;

/// Sanitises a subcarrier selection that may come from corrupted
/// feedback: out-of-range indices are dropped, duplicates removed, and —
/// crucially — an empty result is replaced by a valid contiguous fallback
/// block of `min_len` subcarriers, so downstream silence placement never
/// sees an empty or out-of-range set.
pub fn sanitize_selection(selection: &mut Vec<usize>, min_len: usize) {
    selection.retain(|&sc| sc < NUM_DATA);
    selection.sort_unstable();
    selection.dedup();
    if selection.is_empty() {
        let len = min_len.clamp(1, NUM_DATA);
        let start = if FALLBACK_SELECTION_START + len <= NUM_DATA { FALLBACK_SELECTION_START } else { 0 };
        *selection = (start..start + len).collect();
    }
}

/// Coherently re-tests every control position against the reconstructed
/// transmitted points: clears `positions` and writes the validated
/// silence positions into it (ascending, slot-major, the same enumeration
/// as the detector's), reusing its capacity.
///
/// `reference` is the reconstructed constellation grid (one row of 48 per
/// DATA symbol), valid only after a CRC pass.
///
/// # Panics
///
/// Panics if `selected` is empty/unsorted/out of range or `reference` has
/// fewer rows than the frame has DATA symbols.
pub fn validate_silences_into(
    fe: &FrontEnd,
    selected: &[usize],
    reference: &[[Complex; NUM_DATA]],
    positions: &mut Vec<usize>,
) {
    assert!(!selected.is_empty(), "selected subcarrier set is empty");
    for pair in selected.windows(2) {
        assert!(pair[0] < pair[1], "selected subcarriers must be sorted and unique");
    }
    assert!(*selected.last().expect("non-empty") < NUM_DATA, "subcarrier out of range");
    assert!(
        reference.len() >= fe.raw_symbols.len(),
        "reference grid smaller than the received frame"
    );

    let bins = DATA_BINS;
    let n_sel = selected.len();
    positions.clear();
    // Frame-geometry bound (every slot validated as silence): saturates the
    // buffer on the first frame so later frames can never reallocate.
    positions.reserve(fe.raw_symbols.len() * n_sel);
    for (sym_idx, sym) in fe.raw_symbols.iter().enumerate() {
        for (j, &sc) in selected.iter().enumerate() {
            let y = sym.0[bins[sc]];
            let hx = fe.h_est[bins[sc]] * reference[sym_idx][sc];
            let silence_residual = y.norm_sqr();
            let normal_residual = (y - hx).norm_sqr();
            if silence_residual < normal_residual {
                positions.push(sym_idx * n_sel + j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy_detector::DetectionAccuracy;
    use crate::power_controller::PowerController;
    use cos_channel::{ChannelConfig, Link};
    use cos_phy::rates::DataRate;
    use cos_phy::rx::Receiver;
    use cos_phy::tx::Transmitter;

    /// The 5 strongest subcarriers of this link's channel — what the CoS
    /// feedback loop would have selected (a fixed arbitrary set can land
    /// in a deep fade where *no* detector works).
    fn probed_selection(link: &mut Link) -> Vec<usize> {
        let probe = Transmitter::new().build_frame(&[0u8; 60], DataRate::Mbps12, 0x11);
        let rx = link.transmit(&probe.to_time_samples());
        let fe = Receiver::new().front_end(&rx).expect("probe front end");
        let snrs = fe.per_subcarrier_snr();
        let mut by_snr: Vec<usize> = (0..cos_phy::subcarriers::NUM_DATA).collect();
        by_snr.sort_by(|&a, &b| snrs[b].total_cmp(&snrs[a]));
        let mut sel: Vec<usize> = by_snr.into_iter().take(5).collect();
        sel.sort_unstable();
        sel
    }

    fn run(rate: DataRate, snr_db: f64, seed: u64) -> (Vec<usize>, Vec<usize>, usize, Vec<usize>, cos_phy::rx::FrontEnd) {
        let bits = [1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0];
        let mut link = Link::new(ChannelConfig::default(), snr_db, seed);
        let selected = probed_selection(&mut link);
        let mut frame = Transmitter::new().build_frame(&[0x3C; 600], rate, 0x5D);
        let truth = PowerController::default().embed(&mut frame, &selected, &bits).expect("fits");
        let samples = link.transmit(&frame.to_time_samples());
        let fe = Receiver::new().front_end(&samples).expect("front end");
        let total = fe.raw_symbols.len() * selected.len();
        let mut validated = Vec::new();
        validate_silences_into(&fe, &selected, &frame.mapped_points, &mut validated);
        (validated, truth, total, selected, fe)
    }

    #[test]
    fn coherent_validation_is_exact_at_moderate_snr() {
        // 64QAM, where pure energy detection struggles with inner points.
        let mut perfect = 0;
        for seed in 0..20 {
            let (validated, truth, _, _, _) = run(DataRate::Mbps54, 25.0, seed);
            perfect += (validated == truth) as u32;
        }
        assert!(perfect >= 18, "only {perfect}/20 frames validated perfectly");
    }

    #[test]
    fn validation_beats_energy_detection_on_qam64() {
        use crate::energy_detector::EnergyDetector;
        let mut energy_errs = 0usize;
        let mut coherent_errs = 0usize;
        for seed in 100..120 {
            let (validated, truth, total, selected, fe) = run(DataRate::Mbps54, 21.0, seed);
            let det = EnergyDetector::default().detect(&fe, &selected);
            let e = DetectionAccuracy::evaluate(&det.positions, &truth, total);
            let c = DetectionAccuracy::evaluate(&validated, &truth, total);
            energy_errs += e.false_positives + e.false_negatives;
            coherent_errs += c.false_positives + c.false_negatives;
        }
        assert!(
            coherent_errs <= energy_errs,
            "coherent {coherent_errs} errors vs energy {energy_errs}"
        );
        assert!(coherent_errs <= 5, "coherent validation should be near-exact: {coherent_errs}");
    }

    #[test]
    fn sanitize_replaces_empty_and_wild_selections() {
        let mut empty = Vec::new();
        sanitize_selection(&mut empty, 6);
        assert_eq!(empty, (9..15).collect::<Vec<_>>());

        let mut wild = vec![99, 99, 1000];
        sanitize_selection(&mut wild, 6);
        assert_eq!(wild, (9..15).collect::<Vec<_>>());

        let mut dups = vec![12, 3, 12, 3, 47];
        sanitize_selection(&mut dups, 6);
        assert_eq!(dups, vec![3, 12, 47]);

        // A min_len too large for the bootstrap offset falls back to a
        // block anchored at 0, still fully in range.
        let mut huge = Vec::new();
        sanitize_selection(&mut huge, NUM_DATA);
        assert_eq!(huge, (0..NUM_DATA).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "reference grid")]
    fn short_reference_panics() {
        let frame = Transmitter::new().build_frame(&[1; 300], DataRate::Mbps12, 0x5D);
        let mut link = Link::new(ChannelConfig::default(), 20.0, 1);
        let samples = link.transmit(&frame.to_time_samples());
        let fe = Receiver::new().front_end(&samples).expect("fe");
        validate_silences_into(&fe, &[0, 1], &frame.mapped_points[..1], &mut Vec::new());
    }
}
