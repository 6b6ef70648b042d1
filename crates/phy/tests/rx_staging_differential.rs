//! Differential test for the one-pass RX staging: `prepare_data_field_into`
//! scatters each symbol's soft bits through the per-symbol plan straight
//! into mother-code order. The two-pass chain it replaced —
//! `Interleaver::deinterleave_soft_into` then `CodeRate::depuncture_into`
//! — is the oracle, and every staged soft bit must match it exactly:
//! erasures travel with their positions, punctured slots are `0`.
//!
//! Both staging bodies are checked: the `avx512bw` word permutes
//! (`KernelMode::Lanes`, where the build has them) and the portable
//! gather (`KernelMode::Scalar`, and every mode on builds without the
//! feature).
//!
//! Coverage: all 8 rates, streams truncated mid-symbol (the ragged tail
//! is dropped), PSDU lengths that put the tail inside, at the end of and
//! beyond the staged stream (including too short to stage at all), soft
//! bits at the quantiser's extremes (±511) and erasures (0), and a
//! workspace left dirty by a longer frame at another rate.

use cos_dsp::KernelMode;
use cos_fec::FecWorkspace;
use cos_phy::error::PhyError;
use cos_phy::frame::{
    interleaver_for, prepare_data_field_into, prepare_data_field_with, PreparedDataField,
    SERVICE_BITS, TAIL_BITS,
};
use cos_phy::rates::DataRate;
use proptest::prelude::*;

/// The retired two-pass staging: deinterleave whole symbols, depuncture,
/// truncate at the tail.
fn oracle(
    llrs: &[i16],
    rate: DataRate,
    psdu_len: usize,
) -> (Vec<i16>, Result<PreparedDataField, PhyError>) {
    let whole = llrs.len() - llrs.len() % rate.ncbps();
    let mut deinterleaved = Vec::new();
    interleaver_for(rate).deinterleave_soft_into(&llrs[..whole], &mut deinterleaved);
    let mut mother = Vec::new();
    rate.code_rate().depuncture_into(&deinterleaved, &mut mother);
    let coded_to_tail = ((SERVICE_BITS + psdu_len * 8 + TAIL_BITS) * 2).min(mother.len()) & !1;
    let prep = if coded_to_tail < 14 {
        Err(PhyError::DataFieldTooShort { got: coded_to_tail / 2, need: 7 })
    } else {
        Ok(PreparedDataField { coded_to_tail })
    };
    (mother, prep)
}

/// Soft bits with a sprinkling of erasures.
fn soft_bits(n: usize, seed: u64) -> Vec<i16> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 7 {
                0 | 1 => 0,
                _ => ((x >> 11) % 1023) as i16 - 511,
            }
        })
        .collect()
}

/// Soft bits at the quantiser's extremes: `+511`, `−511` and erasures.
fn extreme_bits(n: usize, seed: u64) -> Vec<i16> {
    soft_bits(n, seed).iter().map(|&l| [511, -511, 0][(l.unsigned_abs() % 3) as usize]).collect()
}

/// A workspace dirtied by a longer frame at another rate.
fn dirty_workspace(rate: DataRate, seed: u64) -> FecWorkspace {
    let mut fec = FecWorkspace::new();
    let other = DataRate::ALL[(rate.band_index() + 3) % 8];
    let dirt: Vec<i16> = soft_bits(20 * other.ncbps(), !seed).iter().map(|l| l - 100).collect();
    prepare_data_field_into(&dirt, other, 4000, &mut fec).expect("20 symbols stage");
    fec
}

#[test]
fn both_staging_bodies_match_the_oracle_at_every_rate() {
    for rate in DataRate::ALL {
        let ncbps = rate.ncbps();
        for symbols in [0, 1, 2, 5, 13] {
            for ragged in [0, 1, ncbps / 2, ncbps - 1] {
                for (k, draw) in [soft_bits, extreme_bits].into_iter().enumerate() {
                    let seed = (rate.band_index() * 1000 + symbols * 10 + k) as u64;
                    let llrs = draw(symbols * ncbps + ragged, seed);
                    // The tail inside, near the end of and beyond the
                    // staged stream.
                    for psdu_len in [0, symbols * rate.ndbps() / 16, 4000] {
                        let (want, want_prep) = oracle(&llrs, rate, psdu_len);
                        for mode in [KernelMode::Scalar, KernelMode::Lanes] {
                            let ctx = format!("{rate}, {mode}, {} soft bits, PSDU {psdu_len}", llrs.len());
                            let mut fec = dirty_workspace(rate, seed);
                            let got = prepare_data_field_with(&llrs, rate, psdu_len, mode, &mut fec);
                            assert_eq!(got, want_prep, "{ctx}");
                            assert_eq!(fec.mother_llrs, want, "{ctx}");
                        }
                    }
                }
            }
        }
    }
}

fn arb_rate() -> impl Strategy<Value = DataRate> {
    proptest::sample::select(DataRate::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_pass_staging_matches_the_two_pass_oracle(
        rate in arb_rate(),
        symbols in 0usize..14,
        ragged in 0usize..288,
        psdu_len in 0usize..360,
        seed in any::<u64>(),
        scalar in any::<bool>(),
    ) {
        let llrs = soft_bits(symbols * rate.ncbps() + ragged % rate.ncbps(), seed);
        let (want, want_prep) = oracle(&llrs, rate, psdu_len);

        let mut fec = dirty_workspace(rate, seed);
        let mode = if scalar { KernelMode::Scalar } else { KernelMode::Lanes };
        let got_prep = prepare_data_field_with(&llrs, rate, psdu_len, mode, &mut fec);
        prop_assert_eq!(got_prep, want_prep);
        prop_assert_eq!(fec.mother_llrs.len(), want.len());
        for (i, (g, w)) in fec.mother_llrs.iter().zip(&want).enumerate() {
            prop_assert_eq!(g, w, "{} mother bit {}", rate, i);
        }
    }
}
