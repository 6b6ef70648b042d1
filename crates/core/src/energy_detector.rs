//! Symbol-level energy detection of silence symbols (paper §III-C).
//!
//! After the receiver's FFT, a silence symbol shows only noise energy on
//! its subcarrier while a normal symbol shows signal + noise. The detector
//! thresholds per-position energy. Two threshold modes are provided:
//!
//! * **Adaptive per-subcarrier** ([`EnergyDetector::detect`]) — the
//!   paper's §III-C requires the threshold to "distinguish subcarrier with
//!   only noise from subcarrier with deep fading signal", which a single
//!   noise-floor offset cannot do on a frequency-selective channel. The
//!   adaptive threshold is the geometric midpoint between the pilot-aided
//!   noise-floor estimate (Eq. 5–6) and the subcarrier's expected
//!   signal-plus-noise energy `|Ĥ_k|² + η`, nudged up by a small bias
//!   because false positives (500 normal positions per frame) outnumber
//!   false negatives (a handful of silences),
//! * **Global** ([`EnergyDetector::detect_with_threshold`]) — a fixed
//!   linear threshold, used by the Fig. 10(b) threshold sweep where the
//!   paper plots accuracy against an absolute dBm threshold.

use crate::interval::IntervalCodec;
use cos_dsp::db_to_linear;
use cos_phy::constellation::Modulation;
use cos_phy::rx::FrontEnd;
use cos_phy::subcarriers::{DATA_BINS, NUM_DATA};

/// Outcome of scanning a frame for silence symbols.
///
/// `Default` yields an empty detection, usable as reusable scratch for
/// [`EnergyDetector::detect_into`] — every `*_into` scan fully overwrites
/// all three fields.
#[derive(Debug, Clone, Default)]
pub struct Detection {
    /// Slot-major control positions flagged silent.
    pub positions: Vec<usize>,
    /// Full-frame erasure mask for [`cos_phy::rx::Receiver::decode`].
    pub erasures: Vec<[bool; NUM_DATA]>,
    /// Mean linear (frequency-domain) threshold across the selected
    /// subcarriers.
    pub mean_threshold: f64,
}

impl Detection {
    /// Decodes the detected positions into control bits with `codec`.
    /// `None` if the positions are not a valid interval encoding.
    pub fn control_bits(&self, codec: &IntervalCodec) -> Option<Vec<u8>> {
        codec.decode(&self.positions)
    }

    /// Workspace variant of [`control_bits`](Self::control_bits): decodes
    /// into `bits`, reusing its capacity. Returns `false` (with `bits`
    /// unspecified) when the positions are not a valid interval encoding.
    pub fn control_bits_into(&self, codec: &IntervalCodec, bits: &mut Vec<u8>) -> bool {
        codec.decode_into(&self.positions, bits)
    }
}

/// A symbol-level energy detector.
#[derive(Debug, Clone, Copy)]
pub struct EnergyDetector {
    /// Bias (dB) applied above the geometric-midpoint threshold in
    /// adaptive mode, trading false negatives for false positives.
    bias_db: f64,
}

impl Default for EnergyDetector {
    /// A +1 dB bias above the geometric midpoint.
    fn default() -> Self {
        EnergyDetector { bias_db: 1.0 }
    }
}

impl EnergyDetector {
    /// Creates a detector with the given adaptive-threshold bias in dB.
    pub fn new(bias_db: f64) -> Self {
        EnergyDetector { bias_db }
    }

    /// The adaptive bias in dB.
    pub fn bias_db(&self) -> f64 {
        self.bias_db
    }

    /// The per-subcarrier adaptive thresholds for a received frame,
    /// written into `out` (fully overwritten):
    /// `bias · sqrt(η · (E_min·|Ĥ_k|² + η))` with `η` the pilot-aided
    /// noise estimate and `E_min` the lowest constellation-point energy of
    /// `modulation` — the geometric midpoint between silence energy and
    /// the *weakest possible* transmitted symbol's energy, so inner QAM
    /// points are not mistaken for silences.
    pub fn adaptive_thresholds_into(
        &self,
        fe: &FrontEnd,
        selected: &[usize],
        modulation: Modulation,
        out: &mut Vec<f64>,
    ) {
        let eta = fe.noise_var_pilot.max(1e-15);
        let bias = db_to_linear(self.bias_db);
        let e_min = modulation.min_point_energy();
        let bins = DATA_BINS;
        out.clear();
        out.reserve(selected.len());
        out.extend(selected.iter().map(|&sc| {
            let signal = e_min * fe.h_est[bins[sc]].norm_sqr();
            bias * (eta * (signal + eta)).sqrt()
        }));
    }

    /// Scans the frame's raw FFT output on the `selected` control
    /// subcarriers with the adaptive per-subcarrier thresholds for the
    /// frame's modulation.
    ///
    /// # Panics
    ///
    /// Panics if `selected` is empty, unsorted or out of range.
    pub fn detect(&self, fe: &FrontEnd, selected: &[usize]) -> Detection {
        let mut thresholds = Vec::new();
        let mut det = Detection::default();
        self.detect_into(fe, selected, &mut thresholds, &mut det);
        det
    }

    /// [`EnergyDetector::detect`] writing into caller-owned scratch:
    /// `thresholds` and `det` are fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `selected` is empty, unsorted or out of range.
    pub fn detect_into(
        &self,
        fe: &FrontEnd,
        selected: &[usize],
        thresholds: &mut Vec<f64>,
        det: &mut Detection,
    ) {
        let modulation = fe.rate.modulation();
        self.adaptive_thresholds_into(fe, selected, modulation, thresholds);
        self.detect_with_per_subcarrier_thresholds_into(fe, selected, thresholds, det);
    }

    /// Scans with one global linear threshold (the Fig. 10(b) sweep).
    ///
    /// # Panics
    ///
    /// Panics if `selected` is empty, unsorted or out of range.
    pub fn detect_with_threshold(
        &self,
        fe: &FrontEnd,
        selected: &[usize],
        threshold: f64,
    ) -> Detection {
        let thresholds = vec![threshold; selected.len()];
        self.detect_with_per_subcarrier_thresholds(fe, selected, &thresholds)
    }

    /// Scans with explicit per-selected-subcarrier thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `selected` is empty, unsorted, out of range, or the
    /// threshold count differs.
    pub fn detect_with_per_subcarrier_thresholds(
        &self,
        fe: &FrontEnd,
        selected: &[usize],
        thresholds: &[f64],
    ) -> Detection {
        let mut det = Detection::default();
        self.detect_with_per_subcarrier_thresholds_into(fe, selected, thresholds, &mut det);
        det
    }

    /// [`EnergyDetector::detect_with_per_subcarrier_thresholds`] writing
    /// into a caller-owned [`Detection`], which is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `selected` is empty, unsorted, out of range, or the
    /// threshold count differs.
    pub fn detect_with_per_subcarrier_thresholds_into(
        &self,
        fe: &FrontEnd,
        selected: &[usize],
        thresholds: &[f64],
        det: &mut Detection,
    ) {
        assert!(!selected.is_empty(), "selected subcarrier set is empty");
        assert_eq!(thresholds.len(), selected.len(), "one threshold per selected subcarrier");
        for pair in selected.windows(2) {
            assert!(pair[0] < pair[1], "selected subcarriers must be sorted and unique");
        }
        assert!(*selected.last().expect("non-empty") < NUM_DATA, "subcarrier out of range");

        let bins = DATA_BINS;
        let n_sel = selected.len();
        det.positions.clear();
        // Reserve the frame-geometry bound (every scanned slot flagged) so
        // the buffer saturates on the first frame of a given geometry and
        // an unusually silence-heavy later frame can never reallocate.
        det.positions.reserve(fe.raw_symbols.len() * n_sel);
        det.erasures.clear();
        det.erasures.resize(fe.raw_symbols.len(), [false; NUM_DATA]);
        for (sym_idx, sym) in fe.raw_symbols.iter().enumerate() {
            for (j, (&sc, &thr)) in selected.iter().zip(thresholds).enumerate() {
                let energy = sym.0[bins[sc]].norm_sqr();
                if energy < thr {
                    det.positions.push(sym_idx * n_sel + j);
                    det.erasures[sym_idx][sc] = true;
                }
            }
        }
        det.mean_threshold = thresholds.iter().sum::<f64>() / thresholds.len() as f64;
    }
}

/// Compares a detection against ground truth, yielding the paper's
/// Fig. 10 metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectionAccuracy {
    /// Silences flagged that were not transmitted.
    pub false_positives: usize,
    /// Transmitted silences that were missed.
    pub false_negatives: usize,
    /// Transmitted silences in total.
    pub actual_silences: usize,
    /// Normal symbols scanned in total.
    pub actual_normals: usize,
}

impl DetectionAccuracy {
    /// Evaluates detected `positions` against the transmitted ground
    /// truth over `total_positions` scanned control positions: one merge
    /// pass over the two ascending lists (detector output
    /// ([`Detection::positions`]), codec output
    /// ([`IntervalCodec::encode`]) and the coherent validator are all
    /// ascending), with duplicates counted once.
    pub fn evaluate(detected: &[usize], truth: &[usize], total_positions: usize) -> Self {
        let (mut i, mut j) = (0usize, 0usize);
        let (mut fp, mut fn_, mut n_truth) = (0usize, 0usize, 0usize);
        let skip_dups = |s: &[usize], mut k: usize| {
            let v = s[k];
            while k + 1 < s.len() && s[k + 1] == v {
                k += 1;
            }
            k + 1
        };
        while i < detected.len() || j < truth.len() {
            match (detected.get(i), truth.get(j)) {
                (Some(&d), Some(&t)) if d == t => {
                    n_truth += 1;
                    i = skip_dups(detected, i);
                    j = skip_dups(truth, j);
                }
                (Some(&d), Some(&t)) if d < t => {
                    fp += 1;
                    i = skip_dups(detected, i);
                }
                (Some(_), Some(_)) => {
                    fn_ += 1;
                    n_truth += 1;
                    j = skip_dups(truth, j);
                }
                (Some(_), None) => {
                    fp += 1;
                    i = skip_dups(detected, i);
                }
                (None, Some(_)) => {
                    fn_ += 1;
                    n_truth += 1;
                    j = skip_dups(truth, j);
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        DetectionAccuracy {
            false_positives: fp,
            false_negatives: fn_,
            actual_silences: n_truth,
            actual_normals: total_positions - n_truth,
        }
    }

    /// Merges another accuracy tally into this one.
    pub fn merge(&mut self, other: &DetectionAccuracy) {
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
        self.actual_silences += other.actual_silences;
        self.actual_normals += other.actual_normals;
    }

    /// False-positive probability: FP / normal symbols.
    pub fn false_positive_rate(&self) -> f64 {
        if self.actual_normals == 0 {
            0.0
        } else {
            self.false_positives as f64 / self.actual_normals as f64
        }
    }

    /// False-negative probability: FN / actual silences.
    pub fn false_negative_rate(&self) -> f64 {
        if self.actual_silences == 0 {
            0.0
        } else {
            self.false_negatives as f64 / self.actual_silences as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power_controller::PowerController;
    use cos_channel::{ChannelConfig, Link};
    use cos_phy::rates::DataRate;
    use cos_phy::rx::Receiver;
    use cos_phy::tx::Transmitter;

    /// Strong, well-separated subcarriers for the clean-detection tests.
    const SELECTED: [usize; 5] = [4, 13, 22, 31, 40];

    /// Probes the channel and returns the 5 strongest subcarriers — what
    /// a CoS receiver's feedback would converge to on this channel.
    fn probe_selection(link: &mut Link) -> Vec<usize> {
        let probe = Transmitter::new().build_frame(&[0u8; 60], DataRate::Mbps12, 0x11);
        let rx = link.transmit(&probe.to_time_samples());
        let fe = Receiver::new().front_end(&rx).expect("probe front end");
        let snrs = fe.per_subcarrier_snr();
        let mut by_snr: Vec<usize> = (0..NUM_DATA).collect();
        by_snr.sort_by(|&a, &b| snrs[b].total_cmp(&snrs[a]));
        let mut sel: Vec<usize> = by_snr.into_iter().take(5).collect();
        sel.sort_unstable();
        sel
    }

    fn run_detection_on(
        link: &mut Link,
        selected: &[usize],
    ) -> (Detection, Vec<usize>, usize) {
        let bits = [0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 1];
        let mut frame = Transmitter::new().build_frame(&[0x77; 300], DataRate::Mbps12, 0x5D);
        let pc = PowerController::default();
        let truth = pc.embed(&mut frame, selected, &bits).expect("fits");
        let rx_samples = link.transmit(&frame.to_time_samples());
        let fe = Receiver::new().front_end(&rx_samples).expect("front end");
        let total = fe.raw_symbols.len() * selected.len();
        let det = EnergyDetector::default().detect(&fe, selected);
        (det, truth, total)
    }

    fn run_detection(snr_db: f64, seed: u64) -> (Detection, Vec<usize>, usize) {
        let mut link = Link::new(ChannelConfig::default(), snr_db, seed);
        run_detection_on(&mut link, &SELECTED)
    }

    #[test]
    fn clean_high_snr_detection_is_perfect() {
        let (det, truth, total) = run_detection(25.0, 1234);
        let acc = DetectionAccuracy::evaluate(&det.positions, &truth, total);
        assert_eq!(acc.false_positives, 0, "FP at 25 dB");
        assert_eq!(acc.false_negatives, 0, "FN at 25 dB");
        assert_eq!(det.positions, truth);
    }

    #[test]
    fn detection_is_reliable_across_seeds_with_probed_selection() {
        // A fixed arbitrary subcarrier set is NOT reliable on a fading
        // channel (some seeds fade it into the noise); the system's own
        // probed selection is. This is exactly why CoS feeds the
        // selection back per channel state.
        let mut perfect = 0;
        for seed in 0..20 {
            let mut link = Link::new(ChannelConfig::default(), 22.0, seed);
            let selected = probe_selection(&mut link);
            let (det, truth, _) = run_detection_on(&mut link, &selected);
            perfect += (det.positions == truth) as u32;
        }
        assert!(perfect >= 18, "only {perfect}/20 frames detected perfectly at 22 dB");
    }

    #[test]
    fn detected_positions_decode_to_the_message() {
        let (det, _, _) = run_detection(24.0, 1234);
        let bits = det.control_bits(&IntervalCodec::default()).expect("valid encoding");
        assert_eq!(bits, vec![0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn erasure_mask_mirrors_positions() {
        let (det, _, _) = run_detection(20.0, 1234);
        let flagged: usize = det.erasures.iter().map(|r| r.iter().filter(|&&b| b).count()).sum();
        assert_eq!(flagged, det.positions.len());
        for &p in &det.positions {
            let (sym, j) = (p / SELECTED.len(), p % SELECTED.len());
            assert!(det.erasures[sym][SELECTED[j]]);
        }
    }

    #[test]
    fn adaptive_thresholds_scale_with_subcarrier_strength() {
        let frame = Transmitter::new().build_frame(&[1; 100], DataRate::Mbps12, 0x5D);
        let mut link = Link::new(ChannelConfig::default(), 18.0, 77);
        let rx = link.transmit(&frame.to_time_samples());
        let fe = Receiver::new().front_end(&rx).expect("front end");
        let selected: Vec<usize> = (0..NUM_DATA).collect();
        let mut thr = Vec::new();
        EnergyDetector::default().adaptive_thresholds_into(&fe, &selected, Modulation::Qpsk, &mut thr);
        // Thresholds must track |H|²: the strongest subcarrier gets a
        // higher threshold than the weakest.
        let snrs = fe.per_subcarrier_snr();
        let strongest = (0..NUM_DATA).max_by(|&a, &b| snrs[a].total_cmp(&snrs[b])).expect("48");
        let weakest = (0..NUM_DATA).min_by(|&a, &b| snrs[a].total_cmp(&snrs[b])).expect("48");
        assert!(thr[strongest] > thr[weakest]);
        // And every threshold stays above the noise floor.
        for &t in &thr {
            assert!(t > fe.noise_var_pilot);
        }
    }

    #[test]
    fn absurdly_high_threshold_floods_false_positives() {
        let selected = vec![0usize, 10, 20, 30];
        let frame = Transmitter::new().build_frame(&[1; 100], DataRate::Mbps12, 0x5D);
        let mut link = Link::new(ChannelConfig::default(), 15.0, 7);
        let rx = link.transmit(&frame.to_time_samples());
        let fe = Receiver::new().front_end(&rx).expect("front end");
        let det = EnergyDetector::default().detect_with_threshold(&fe, &selected, 1e9);
        // Everything is below threshold: every position flagged.
        assert_eq!(det.positions.len(), fe.raw_symbols.len() * selected.len());
    }

    #[test]
    fn zero_threshold_detects_nothing() {
        let selected = vec![4usize, 13, 22, 31, 40];
        let mut frame = Transmitter::new().build_frame(&[0x77; 300], DataRate::Mbps12, 0x5D);
        let pc = PowerController::default();
        pc.embed(&mut frame, &selected, &[0, 1, 1, 0]).expect("fits");
        let mut link = Link::new(ChannelConfig::default(), 15.0, 5);
        let rx = link.transmit(&frame.to_time_samples());
        let fe = Receiver::new().front_end(&rx).expect("front end");
        let det = EnergyDetector::default().detect_with_threshold(&fe, &selected, 0.0);
        assert!(det.positions.is_empty());
    }

    #[test]
    fn accuracy_arithmetic() {
        let acc = DetectionAccuracy::evaluate(&[0, 5, 9], &[0, 5, 7], 100);
        assert_eq!(acc.false_positives, 1); // 9
        assert_eq!(acc.false_negatives, 1); // 7
        assert_eq!(acc.actual_silences, 3);
        assert_eq!(acc.actual_normals, 97);
        assert!((acc.false_positive_rate() - 1.0 / 97.0).abs() < 1e-12);
        assert!((acc.false_negative_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_merge_accumulates() {
        let mut a = DetectionAccuracy::evaluate(&[1], &[1, 2], 10);
        let b = DetectionAccuracy::evaluate(&[3], &[], 10);
        a.merge(&b);
        assert_eq!(a.false_positives, 1);
        assert_eq!(a.false_negatives, 1);
        assert_eq!(a.actual_silences, 2);
        assert_eq!(a.actual_normals, 18);
    }

    #[test]
    fn evaluate_matches_a_brute_force_set_count() {
        let cases: &[(&[usize], &[usize], usize)] = &[
            (&[0, 5, 9], &[0, 5, 7], 100),
            (&[], &[], 10),
            (&[1, 2, 3], &[], 10),
            (&[], &[4, 8], 12),
            (&[0, 1, 2, 2, 5], &[2, 2, 5, 6], 20), // duplicates coalesce
            (&[3], &[3], 4),
        ];
        for &(det, truth, total) in cases {
            let mut want = DetectionAccuracy::default();
            for p in 0..total {
                let (d, t) = (det.contains(&p), truth.contains(&p));
                want.false_positives += (d && !t) as usize;
                want.false_negatives += (t && !d) as usize;
                want.actual_silences += t as usize;
                want.actual_normals += !t as usize;
            }
            assert_eq!(
                DetectionAccuracy::evaluate(det, truth, total),
                want,
                "det={det:?} truth={truth:?}"
            );
        }
    }

    #[test]
    fn empty_truth_has_zero_fn_rate() {
        let acc = DetectionAccuracy::evaluate(&[], &[], 10);
        assert_eq!(acc.false_negative_rate(), 0.0);
        assert_eq!(acc.false_positive_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_selection_panics() {
        let frame = Transmitter::new().build_frame(b"x", DataRate::Mbps6, 0x5D);
        let fe = Receiver::new().front_end(&frame.to_time_samples()).expect("fe");
        EnergyDetector::default().detect(&fe, &[]);
    }
}
