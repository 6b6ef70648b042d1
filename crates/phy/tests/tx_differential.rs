//! Differential tests for the packed transmit bit chain: every frame
//! build and point reconstruction must reproduce the per-bit chain it
//! replaced — `Scrambler::scramble_in_place`, `ConvEncoder::encode_into`,
//! `CodeRate::puncture_into`, `Interleaver::interleave_into` and
//! `Modulation::map`, composed one bit per `u8` — **bit for bit**:
//! interleaved bits exactly; mapped points, DATA symbols and rendered
//! samples by `f64::to_bits`.
//!
//! Both puncture-and-interleave bodies are checked: the `avx512vbmi`
//! byte permutes (`KernelMode::Lanes`, where the build has them) and the
//! portable gather (`KernelMode::Scalar`, and every mode on builds
//! without the feature).
//!
//! Coverage: all 8 rates, all 127 scrambler seeds, PSDU lengths from 0 to
//! the 4095-byte LENGTH limit, including every length residue modulo 8
//! bytes (so the tail lands at every position of a 64-bit word) and 9
//! Mbps, whose 36-bit symbols leave DATA fields that are not a whole
//! number of bytes.

use cos_dsp::{Complex, KernelMode, Prbs127};
use cos_fec::bits::bytes_to_bits;
use cos_fec::{ConvEncoder, Interleaver, Scrambler};
use cos_phy::evm::{reconstruct_points, reconstruct_points_into};
use cos_phy::frame::{
    build_data_field, build_data_field_with, DataField, TxBits, SERVICE_BITS, TAIL_BITS,
};
use cos_phy::ofdm::FreqSymbol;
use cos_phy::rates::DataRate;
use cos_phy::subcarriers::NUM_DATA;
use cos_phy::tx::{Transmitter, TxFrame};
use cos_phy::TxWorkspace;
use proptest::prelude::*;

/// The largest PSDU the 12-bit SIGNAL LENGTH field can carry.
const MAX_PSDU: usize = 0xFFF;

/// The retired per-bit chain: interleaved bits and mapped points.
fn oracle(psdu: &[u8], rate: DataRate, seed: u8) -> (Vec<u8>, Vec<[Complex; NUM_DATA]>) {
    let mut bits = vec![0u8; SERVICE_BITS];
    bits.extend(bytes_to_bits(psdu));
    let tail = bits.len();
    bits.resize(rate.data_symbol_count(psdu.len()) * rate.ndbps(), 0);
    Scrambler::new(seed).scramble_in_place(&mut bits);
    bits[tail..tail + TAIL_BITS].fill(0);
    let mut mother = Vec::new();
    ConvEncoder::new().encode_into(&bits, &mut mother);
    let mut coded = Vec::new();
    rate.code_rate().puncture_into(&mother, &mut coded);
    let mut interleaved = Vec::new();
    Interleaver::new(rate.ncbps(), rate.nbpsc()).interleave_into(&coded, &mut interleaved);
    let modulation = rate.modulation();
    let points = interleaved
        .chunks_exact(rate.ncbps())
        .map(|symbol| {
            let mut row = [Complex::ZERO; NUM_DATA];
            for (slot, group) in row.iter_mut().zip(symbol.chunks_exact(rate.nbpsc())) {
                *slot = modulation.map(group);
            }
            row
        })
        .collect();
    (interleaved, points)
}

fn bits_of(points: &[Complex]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|p| (p.re.to_bits(), p.im.to_bits()))
        .collect()
}

fn rows_bits(rows: &[[Complex; NUM_DATA]]) -> Vec<(u64, u64)> {
    rows.iter().flat_map(|row| bits_of(row)).collect()
}

/// A deterministic PSDU of `len` bytes.
fn psdu_of(len: usize, salt: u64) -> Vec<u8> {
    let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// Checks every build entry point against the oracle; `render` also
/// compares the DATA symbols and the rendered waveform.
fn check(psdu: &[u8], rate: DataRate, seed: u8, render: bool) {
    let ctx = format!("{rate}, {} B, seed {seed:#04x}", psdu.len());
    let (want_bits, want_points) = oracle(psdu, rate, seed);

    let frame = Transmitter::new().build_frame_from_psdu(psdu, rate, seed);
    assert_eq!(
        frame.data_field.interleaved, want_bits,
        "interleaved bits: {ctx}"
    );
    assert_eq!(frame.data_field.n_symbols, want_points.len(), "{ctx}");
    assert_eq!(
        rows_bits(&frame.mapped_points),
        rows_bits(&want_points),
        "points: {ctx}"
    );

    let df = build_data_field(psdu, rate, seed);
    assert_eq!(df.interleaved, want_bits, "build_data_field: {ctx}");

    let mut ws = TxWorkspace::new();
    Transmitter::new().build_frame_from_psdu_into(psdu, rate, seed, &mut ws);
    assert_eq!(
        ws.frame.data_field.interleaved, want_bits,
        "workspace build: {ctx}"
    );
    assert_eq!(
        rows_bits(&ws.frame.mapped_points),
        rows_bits(&want_points),
        "workspace: {ctx}"
    );

    // `build_frame` and reconstruction take a payload and append its FCS:
    // replay the PSDU minus 4 bytes and compare with the oracle on
    // payload ‖ FCS.
    if psdu.len() >= 4 {
        let payload = &psdu[..psdu.len() - 4];
        let framed = Transmitter::new().build_frame(payload, rate, seed);
        let (framed_bits, framed_points) =
            oracle(&cos_phy::frame::payload_to_psdu(payload), rate, seed);
        assert_eq!(
            framed.data_field.interleaved, framed_bits,
            "build_frame: {ctx}"
        );
        let got = reconstruct_points(payload, rate, seed);
        assert_eq!(
            rows_bits(&got),
            rows_bits(&framed_points),
            "reconstruct_points: {ctx}"
        );
        let got = reconstruct_points_into(payload, rate, seed, &mut ws);
        assert_eq!(
            rows_bits(got),
            rows_bits(&framed_points),
            "reconstruct_points_into: {ctx}"
        );
    }

    if render {
        let polarity = Prbs127::pilot_polarity();
        let symbols: Vec<FreqSymbol> = want_points
            .iter()
            .enumerate()
            .map(|(n, row)| FreqSymbol::assemble(row, polarity[(n + 1) % Prbs127::PERIOD]))
            .collect();
        for (n, (got, want)) in frame.data_symbols.iter().zip(&symbols).enumerate() {
            assert_eq!(bits_of(&got.0), bits_of(&want.0), "DATA symbol {n}: {ctx}");
        }
        assert_eq!(frame.data_symbols.len(), symbols.len(), "{ctx}");
        let reference = TxFrame {
            data_symbols: symbols,
            ..frame.clone()
        };
        assert_eq!(
            bits_of(&frame.to_time_samples()),
            bits_of(&reference.to_time_samples()),
            "rendered samples: {ctx}"
        );
    }
}

#[test]
fn every_rate_and_length_residue_matches_the_per_bit_chain() {
    // 0..=80 bytes covers every tail position within a 64-bit word at
    // every rate, short frames of one or two symbols, and (at 9 Mbps)
    // DATA fields of 36·n bits.
    for (r, rate) in DataRate::ALL.into_iter().enumerate() {
        for len in 0..=80 {
            let seed = ((r * 81 + len) % 127 + 1) as u8;
            check(
                &psdu_of(len, (r * 1000 + len) as u64),
                rate,
                seed,
                len % 16 == 0,
            );
        }
    }
}

#[test]
fn every_scrambler_seed_matches_the_per_bit_chain() {
    // Long enough that each seed's keystream table wraps (> 127 bytes).
    for seed in 1..=127u8 {
        let rate = DataRate::ALL[usize::from(seed) % 8];
        check(
            &psdu_of(130 + usize::from(seed), u64::from(seed)),
            rate,
            seed,
            false,
        );
    }
}

#[test]
fn length_limit_matches_the_per_bit_chain_at_every_rate() {
    for rate in DataRate::ALL {
        check(&psdu_of(MAX_PSDU, rate.mbps().into()), rate, 0x5D, true);
    }
}

#[test]
fn both_interleave_bodies_match_the_per_bit_chain_in_a_dirty_workspace() {
    // One workspace for every build, first dirtied by the longest frame:
    // each build must overwrite everything the previous one left.
    let mut df = DataField::empty(DataRate::Mbps6);
    let mut bits = TxBits::new();
    build_data_field_with(&psdu_of(MAX_PSDU, 7), DataRate::Mbps6, 0x33, KernelMode::Scalar, &mut df, &mut bits);
    for (r, rate) in DataRate::ALL.into_iter().enumerate() {
        for len in [0, 1, 7, 9, 63, 100, 127, 1020, MAX_PSDU] {
            let seed = ((r * 13 + len) % 127 + 1) as u8;
            let psdu = psdu_of(len, (r * 7919 + len) as u64);
            let (want, _) = oracle(&psdu, rate, seed);
            for mode in [KernelMode::Lanes, KernelMode::Scalar] {
                build_data_field_with(&psdu, rate, seed, mode, &mut df, &mut bits);
                assert_eq!(df.interleaved, want, "{rate}, {mode}, {len} B, seed {seed:#04x}");
                assert_eq!(df.n_symbols, rate.data_symbol_count(len), "{rate}, {mode}, {len} B");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_frames_match_the_per_bit_chain(
        r in 0usize..8,
        len in 0usize..=MAX_PSDU,
        seed in 1u8..=127,
        salt in any::<u64>(),
    ) {
        check(&psdu_of(len, salt), DataRate::ALL[r], seed, true);
    }
}
