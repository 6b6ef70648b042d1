//! Weak-subcarrier selection (paper §III-D).
//!
//! After a frame passes its CRC, the receiver computes per-subcarrier EVM
//! and predicts which subcarriers will produce erroneous symbols in the
//! next transmission: those whose EVM exceeds half the minimum
//! constellation distance `D_m/2` of the *next* rate's modulation. Those
//! subcarriers become **control subcarriers** — silences placed there
//! mostly erase symbols fading would have corrupted anyway.
//!
//! One constraint the paper's §III-C implies is made explicit here: a
//! control subcarrier must remain **detectable** — its signal energy has
//! to stand far enough above the noise floor that the energy detector can
//! tell silence from signal. The selector therefore prefers subcarriers
//! that are *weak for the data modulation but strong enough for energy
//! detection*; a 64QAM symbol errors below ≈ 22 dB while energy detection
//! works fine at 13 dB, so this window is wide in the paper's operating
//! region.
//!
//! Alternative policies are provided for the paper's Fig. 10(a)
//! (contiguous blocks) and for the placement ablation (random selection).

use cos_dsp::rng::Xoshiro256;
use cos_phy::constellation::Modulation;
use cos_phy::subcarriers::NUM_DATA;

/// The default minimum per-subcarrier SNR (dB) for reliable energy
/// detection of silences: at 15 dB the weakest constellation point sits
/// ~32× above the noise floor, putting both the energy detector's false
/// probabilities and the coherent validator's residual errors below 1e-4
/// per position.
pub const DEFAULT_DETECT_FLOOR_DB: f64 = 15.0;

/// How control subcarriers are chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionPolicy {
    /// The paper's policy: subcarriers whose EVM exceeds `D_m/2` for the
    /// given modulation, restricted to those detectable by energy
    /// detection; if fewer than `min` qualify, the weakest detectable
    /// subcarriers are added to reach `min`.
    WeakByEvm {
        /// Modulation of the next transmission (defines `D_m`).
        modulation: Modulation,
        /// Minimum number of control subcarriers.
        min: usize,
        /// Minimum estimated subcarrier SNR (dB) to qualify; see
        /// [`DEFAULT_DETECT_FLOOR_DB`].
        detect_floor_db: f64,
    },
    /// The `n` weakest *detectable* subcarriers by EVM.
    WeakestN {
        /// Number of subcarriers to select.
        n: usize,
        /// Minimum estimated subcarrier SNR (dB) to qualify.
        detect_floor_db: f64,
    },
    /// `n` uniformly random subcarriers — the placement-ablation baseline.
    Random {
        /// Number of subcarriers to select.
        n: usize,
        /// RNG seed.
        seed: u64,
    },
    /// A contiguous block starting at `start` — the Fig. 10(a) layout.
    Contiguous {
        /// First logical subcarrier.
        start: usize,
        /// Block length.
        n: usize,
    },
}

impl SelectionPolicy {
    /// The paper's policy with the modulation-aware detectability floor:
    /// the base floor raised by how far the modulation's weakest
    /// constellation point sits below average energy (0 dB for
    /// BPSK/QPSK, ≈ 7 dB for 16QAM, ≈ 13 dB for 64QAM). A silence can
    /// only be told from a transmitted inner QAM point if the subcarrier
    /// clears this higher bar.
    pub fn weak_by_evm(modulation: Modulation, min: usize) -> Self {
        SelectionPolicy::WeakByEvm {
            modulation,
            min,
            detect_floor_db: detect_floor_db(modulation),
        }
    }
}

/// The modulation-aware detectability floor in dB:
/// `DEFAULT_DETECT_FLOOR_DB − 10·log10(E_min)`.
pub fn detect_floor_db(modulation: Modulation) -> f64 {
    DEFAULT_DETECT_FLOOR_DB - 10.0 * modulation.min_point_energy().log10()
}

/// Selects control subcarriers from per-subcarrier EVM and SNR feedback.
/// Returns sorted logical indices.
///
/// `snr_db[sc]` is the receiver's estimated SNR of subcarrier `sc` (used
/// by the detectability floor; ignored by `Random`/`Contiguous`).
///
/// # Panics
///
/// Panics if a policy's parameters exceed the 48 data subcarriers.
pub fn select_control_subcarriers(
    evm: &[f64; NUM_DATA],
    snr_db: &[f64; NUM_DATA],
    policy: SelectionPolicy,
) -> Vec<usize> {
    let mut out = Vec::new();
    select_control_subcarriers_into(evm, snr_db, policy, &mut out);
    out
}

/// Appends to `out`, until it holds `target` indices, the subcarriers
/// not yet in it for which `eligible` holds, in descending `key` order
/// (ties keep ascending index: a stable insertion sort on the stack).
fn fill_by_key(
    out: &mut Vec<usize>,
    target: usize,
    key: &[f64; NUM_DATA],
    eligible: impl Fn(usize) -> bool,
) {
    if out.len() >= target {
        return;
    }
    let mut cand = [0usize; NUM_DATA];
    let mut n_cand = 0usize;
    for sc in (0..NUM_DATA).filter(|&sc| eligible(sc) && !out.contains(&sc)) {
        cand[n_cand] = sc;
        n_cand += 1;
    }
    let cand = &mut cand[..n_cand];
    for i in 1..cand.len() {
        let mut j = i;
        while j > 0 && key[cand[j]].total_cmp(&key[cand[j - 1]]).is_gt() {
            cand.swap(j, j - 1);
            j -= 1;
        }
    }
    let take = (target - out.len()).min(n_cand);
    out.extend_from_slice(&cand[..take]);
}

/// Workspace variant of [`select_control_subcarriers`]: clears `out` and
/// writes the sorted selection into it, reusing its capacity. Candidate
/// scratch lives on the stack (at most [`NUM_DATA`] indices), so
/// steady-state calls do not allocate.
///
/// # Panics
///
/// Panics if a policy's parameters exceed the 48 data subcarriers.
pub fn select_control_subcarriers_into(
    evm: &[f64; NUM_DATA],
    snr_db: &[f64; NUM_DATA],
    policy: SelectionPolicy,
    out: &mut Vec<usize>,
) {
    out.clear();
    match policy {
        SelectionPolicy::WeakByEvm { modulation, min, detect_floor_db } => {
            assert!(min <= NUM_DATA, "cannot select {min} of {NUM_DATA} subcarriers");
            let threshold = modulation.min_distance() / 2.0;
            out.extend(
                (0..NUM_DATA).filter(|&sc| evm[sc] > threshold && snr_db[sc] >= detect_floor_db),
            );
            // Fill with the weakest detectable subcarriers; if the whole
            // channel is undetectable, fall back to the strongest
            // subcarriers (best effort).
            fill_by_key(out, min, evm, |sc| snr_db[sc] >= detect_floor_db);
            fill_by_key(out, min, snr_db, |_| true);
            out.sort_unstable();
        }
        SelectionPolicy::WeakestN { n, detect_floor_db } => {
            assert!(n <= NUM_DATA, "cannot select {n} of {NUM_DATA} subcarriers");
            fill_by_key(out, n, evm, |sc| snr_db[sc] >= detect_floor_db);
            fill_by_key(out, n, snr_db, |_| true);
            out.sort_unstable();
        }
        SelectionPolicy::Random { n, seed } => {
            assert!(n <= NUM_DATA, "cannot select {n} of {NUM_DATA} subcarriers");
            let mut all = [0usize; NUM_DATA];
            for (sc, slot) in all.iter_mut().enumerate() {
                *slot = sc;
            }
            Xoshiro256::new(seed).shuffle(&mut all);
            out.extend_from_slice(&all[..n]);
            out.sort_unstable();
        }
        SelectionPolicy::Contiguous { start, n } => {
            assert!(start + n <= NUM_DATA, "contiguous block [{start}, {}) out of range", start + n);
            out.extend(start..start + n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evm_ramp() -> [f64; NUM_DATA] {
        // EVM grows with subcarrier index: the "weak" end is the top.
        let mut evm = [0.0f64; NUM_DATA];
        for (sc, slot) in evm.iter_mut().enumerate() {
            *slot = 0.01 + 0.005 * sc as f64;
        }
        evm
    }

    fn snr_flat(db: f64) -> [f64; NUM_DATA] {
        [db; NUM_DATA]
    }

    #[test]
    fn weak_by_evm_uses_half_min_distance() {
        let evm = evm_ramp();
        let snr = snr_flat(25.0);
        let m = Modulation::Qam16; // D_m/2 = 1/√10 ≈ 0.316
        let selected = select_control_subcarriers(
            &evm,
            &snr,
            SelectionPolicy::WeakByEvm { modulation: m, min: 0, detect_floor_db: 13.0 },
        );
        let threshold = m.min_distance() / 2.0;
        for (sc, &e) in evm.iter().enumerate() {
            assert_eq!(selected.contains(&sc), e > threshold, "sc {sc}");
        }
    }

    #[test]
    fn weak_by_evm_honours_minimum() {
        let evm = [0.001f64; NUM_DATA]; // excellent channel: nothing qualifies
        let selected = select_control_subcarriers(
            &evm,
            &snr_flat(25.0),
            SelectionPolicy::weak_by_evm(Modulation::Qpsk, 6),
        );
        assert_eq!(selected.len(), 6);
    }

    #[test]
    fn detectability_floor_excludes_dead_subcarriers() {
        let mut evm = evm_ramp();
        let mut snr = snr_flat(25.0);
        // Subcarrier 47 has the worst EVM but is undetectable.
        evm[47] = 1.0;
        snr[47] = 5.0;
        let selected = select_control_subcarriers(
            &evm,
            &snr,
            SelectionPolicy::WeakestN { n: 4, detect_floor_db: 13.0 },
        );
        assert!(!selected.contains(&47), "undetectable subcarrier must be excluded");
        assert_eq!(selected.len(), 4);
    }

    #[test]
    fn hopeless_channel_falls_back_to_strongest() {
        let evm = evm_ramp();
        let mut snr = snr_flat(5.0); // nothing clears the floor
        snr[10] = 9.0;
        snr[20] = 8.0;
        let selected = select_control_subcarriers(
            &evm,
            &snr,
            SelectionPolicy::weak_by_evm(Modulation::Qam64, 2),
        );
        assert_eq!(selected, vec![10, 20], "best-effort pick of the strongest subcarriers");
    }

    #[test]
    fn weakest_n_picks_the_top_evm() {
        let evm = evm_ramp();
        let selected = select_control_subcarriers(
            &evm,
            &snr_flat(30.0),
            SelectionPolicy::WeakestN { n: 5, detect_floor_db: 13.0 },
        );
        assert_eq!(selected, vec![43, 44, 45, 46, 47]);
    }

    #[test]
    fn random_selection_is_seeded_and_valid() {
        let evm = evm_ramp();
        let snr = snr_flat(20.0);
        let a = select_control_subcarriers(&evm, &snr, SelectionPolicy::Random { n: 8, seed: 3 });
        let b = select_control_subcarriers(&evm, &snr, SelectionPolicy::Random { n: 8, seed: 3 });
        let c = select_control_subcarriers(&evm, &snr, SelectionPolicy::Random { n: 8, seed: 4 });
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 8);
        for w in a.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn contiguous_block_matches_fig10a() {
        // The paper's Fig. 10(a) uses data subcarriers 10..17 (1-based
        // logical numbering there; 9..17 0-based here is equivalent).
        let selected = select_control_subcarriers(
            &evm_ramp(),
            &snr_flat(20.0),
            SelectionPolicy::Contiguous { start: 9, n: 8 },
        );
        assert_eq!(selected, (9..17).collect::<Vec<_>>());
    }

    #[test]
    fn selection_is_always_sorted() {
        let evm = {
            let mut e = [0.0f64; NUM_DATA];
            for (sc, slot) in e.iter_mut().enumerate() {
                *slot = ((sc * 31) % 17) as f64 * 0.01;
            }
            e
        };
        let snr = snr_flat(18.0);
        for policy in [
            SelectionPolicy::WeakestN { n: 10, detect_floor_db: 13.0 },
            SelectionPolicy::Random { n: 10, seed: 1 },
            SelectionPolicy::weak_by_evm(Modulation::Qam64, 4),
        ] {
            let s = select_control_subcarriers(&evm, &snr, policy);
            for w in s.windows(2) {
                assert!(w[0] < w[1], "{policy:?}");
            }
        }
    }

    #[test]
    fn into_variant_matches_owned_on_dirty_buffers() {
        let evm = {
            let mut e = [0.0f64; NUM_DATA];
            for (sc, slot) in e.iter_mut().enumerate() {
                *slot = ((sc * 13) % 23) as f64 * 0.02;
            }
            e
        };
        let mut snr = snr_flat(18.0);
        snr[7] = 4.0;
        snr[31] = -3.0;
        let mut out = vec![99usize; 48]; // dirty scratch
        for policy in [
            SelectionPolicy::weak_by_evm(Modulation::Qam64, 6),
            SelectionPolicy::weak_by_evm(Modulation::Qpsk, 10),
            SelectionPolicy::WeakByEvm { modulation: Modulation::Qam16, min: 48, detect_floor_db: 13.0 },
            SelectionPolicy::WeakestN { n: 12, detect_floor_db: 13.0 },
            SelectionPolicy::WeakestN { n: 48, detect_floor_db: 40.0 },
            SelectionPolicy::Random { n: 9, seed: 11 },
            SelectionPolicy::Contiguous { start: 9, n: 8 },
        ] {
            select_control_subcarriers_into(&evm, &snr, policy, &mut out);
            assert_eq!(out, select_control_subcarriers(&evm, &snr, policy), "{policy:?}");
        }
    }

    /// Every policy's selection over seeded EVM/SNR vectors, hashed into
    /// one FNV-1a digest. EVM and SNR are drawn on coarse grids so ties
    /// are common (the fill order's tie rule shows); some channels sit
    /// entirely below every floor, and `min`/`n` range up to all 48, so
    /// both fills of `WeakByEvm` and `WeakestN` run.
    #[test]
    fn selection_digest_is_pinned() {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            digest ^= x;
            digest = digest.wrapping_mul(0x100_0000_01b3);
        };
        let mut out = Vec::new();
        for mut rng in cos_dsp::rng::cases(64) {
            let evm: [f64; NUM_DATA] = std::array::from_fn(|_| rng.below(6) as f64 * 0.12);
            let undetectable = rng.below(4) == 0;
            let snr_db: [f64; NUM_DATA] = std::array::from_fn(|_| {
                let db = 2.0 * rng.below(20) as f64;
                if undetectable { db.min(10.0) } else { db }
            });
            let modulation = Modulation::ALL[rng.below(Modulation::ALL.len())];
            let count = rng.below(NUM_DATA + 1);
            let floor = 10.0 + rng.below(20) as f64;
            for policy in [
                SelectionPolicy::weak_by_evm(modulation, count),
                SelectionPolicy::WeakByEvm { modulation, min: count, detect_floor_db: floor },
                SelectionPolicy::WeakestN { n: count, detect_floor_db: floor },
                SelectionPolicy::Random { n: count, seed: rng.next_u64() },
                SelectionPolicy::Contiguous { start: (NUM_DATA - count) / 2, n: count },
            ] {
                select_control_subcarriers_into(&evm, &snr_db, policy, &mut out);
                mix(out.len() as u64);
                out.iter().for_each(|&sc| mix(sc as u64));
            }
        }
        assert_eq!(digest, 0xd639_bd64_6d2e_9d62, "selection digest moved");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn contiguous_overflow_panics() {
        select_control_subcarriers(
            &[0.0; NUM_DATA],
            &snr_flat(20.0),
            SelectionPolicy::Contiguous { start: 45, n: 8 },
        );
    }
}
