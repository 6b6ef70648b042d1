//! DATA-field bit processing (Clause 17.3.5): SERVICE + PSDU + tail + pad,
//! scrambling, convolutional encoding, puncturing and interleaving.
//!
//! The transmit side is one packed, table-driven kernel
//! ([`build_data_field_into`] and the frame builders share it; see
//! `docs/KERNELS.md`, "TX bit chain"). The receive side stages soft bits
//! through the inverse of the same per-symbol plan into mother-code order
//! (deinterleave and depuncture in one pass), then Viterbi-decodes them
//! in [`FecWorkspace`] scratch.
//!
//! The PSDU carried here is `payload ‖ CRC-32`, so a decoded frame can be
//! integrity-checked exactly as the paper's receiver does before computing
//! EVM feedback.

use crate::constellation::Modulation;
use crate::error::PhyError;
use crate::rates::DataRate;
use crate::subcarriers::NUM_DATA;
use cos_dsp::{Complex, KernelMode, Prbs127};
use cos_fec::bits::bits_to_bytes_into;
use cos_fec::conv::{CONSTRAINT, GEN_A, GEN_B};
use cos_fec::{Crc32, FecWorkspace, Interleaver, Scrambler, ViterbiDecoder};
use std::sync::OnceLock;

/// Bits in the SERVICE field (7 scrambler-init zeros + 9 reserved zeros).
pub const SERVICE_BITS: usize = 16;
/// Tail bits appended after the PSDU.
pub const TAIL_BITS: usize = 6;
/// SERVICE prefix bits needed to recover the scrambler seed.
const SEED_BITS: usize = 7;

/// The fully processed DATA field of one frame: the interleaved coded
/// bits actually mapped to subcarriers.
#[derive(Debug, Clone)]
pub struct DataField {
    /// The rate everything below was built for.
    pub rate: DataRate,
    /// The coded bits after puncturing and per-symbol interleaving, one
    /// per `u8`, in transmit order (`n_symbols × Ncbps` of them).
    pub interleaved: Vec<u8>,
    /// Number of DATA OFDM symbols.
    pub n_symbols: usize,
}

impl DataField {
    /// An empty placeholder for workspace initialisation; every field is
    /// fully overwritten by [`build_data_field_into`].
    pub fn empty(rate: DataRate) -> Self {
        DataField { rate, interleaved: Vec::new(), n_symbols: 0 }
    }
}

/// Packed scratch of the transmit bit chain: the scrambled DATA field and
/// its rate-1/2 mother code, eight bits per byte, LSB-first (the bit order
/// of [`cos_fec::bits`]). The buffers grow to the longest frame built and
/// are then reused.
#[derive(Debug, Clone, Default)]
pub struct TxBits {
    /// SERVICE + PSDU + tail + pad, scrambled, in whole 64-bit words.
    data: Vec<u8>,
    /// The mother code `A₀ B₀ A₁ B₁ …` of `data`.
    mother: Vec<u8>,
}

impl TxBits {
    /// Creates empty scratch; the buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The process-wide interleaver for a rate's `(Ncbps, Nbpsc)` pair. The
/// four 802.11a configurations are built once and shared, so neither the
/// owned nor the workspace path pays the permutation-table allocation per
/// frame.
pub fn interleaver_for(rate: DataRate) -> &'static Interleaver {
    static TABLES: OnceLock<[Interleaver; 4]> = OnceLock::new();
    TABLES
        .get_or_init(|| {
            [
                Interleaver::new(48, 1),
                Interleaver::new(96, 2),
                Interleaver::new(192, 4),
                Interleaver::new(288, 6),
            ]
        })
        .iter()
        .find(|il| il.ncbps() == rate.ncbps())
        .expect("every 802.11a rate maps to a cached interleaver")
}

/// The process-wide CRC-32 engine (the 256-entry table is rebuilt nowhere
/// in the per-frame path).
fn crc32() -> &'static Crc32 {
    static CRC: OnceLock<Crc32> = OnceLock::new();
    CRC.get_or_init(Crc32::new)
}

/// Bytes after which the scrambler keystream repeats: the LFSR period is
/// 127 bits, so 127 bytes hold exactly 8 periods.
const KEYSTREAM_BYTES: usize = Prbs127::PERIOD;

/// The scrambler keystream of `seed` as bytes (bit `i` of byte `j` is
/// keystream bit `8j + i`), one process-wide table for all 127 seeds.
///
/// # Panics
///
/// Panics if the seed is zero or wider than 7 bits.
fn keystream(seed: u8) -> &'static [u8; KEYSTREAM_BYTES] {
    static TABLES: OnceLock<Vec<[u8; KEYSTREAM_BYTES]>> = OnceLock::new();
    // Rejects an invalid seed with the scrambler's own message.
    Prbs127::new(seed);
    let tables = TABLES.get_or_init(|| {
        (1..=Prbs127::PERIOD as u8)
            .map(|s| {
                let mut lfsr = Prbs127::new(s);
                std::array::from_fn(|_| (0..8).fold(0, |byte, i| byte | lfsr.next_bit() << i))
            })
            .collect()
    });
    &tables[usize::from(seed) - 1]
}

/// One 64-bit word of a rate-1/2 output stream: bit `t` is the parity of
/// the generator's taps over inputs `x_t … x_{t−6}`, where `prev` is the
/// previous input word (its high bits are the inputs before `x`). The
/// current input is the generator's MSB (see [`cos_fec::conv`]), so
/// generator bit `6 − k` selects `x_{t−k}`, which in an LSB-first word is
/// `x ≪ k`.
#[inline(always)]
fn conv_word(generator: u8, x: u64, prev: u64) -> u64 {
    (0..CONSTRAINT)
        .filter(|k| (generator >> (CONSTRAINT - 1 - k)) & 1 == 1)
        .fold(0, |acc, k| acc ^ if k == 0 { x } else { x << k | prev >> (64 - k) })
}

/// Spreads the 32 bits of `x` to the even bit positions of a word.
#[inline(always)]
fn spread_even(x: u32) -> u64 {
    let mut x = u64::from(x);
    x = (x | x << 16) & 0x0000_FFFF_0000_FFFF;
    x = (x | x << 8) & 0x00FF_00FF_00FF_00FF;
    x = (x | x << 4) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | x << 2) & 0x3333_3333_3333_3333;
    (x | x << 1) & 0x5555_5555_5555_5555
}

/// Largest mother-code block of one OFDM symbol (`2 × Ndbps` at 54 Mbps),
/// rounded up to a power of two so a masked index needs no bounds check.
const SYMBOL_MOTHER_CAP: usize = 512;

/// The puncture-then-interleave map of one OFDM symbol at one rate:
/// entry `j` is the symbol-local mother-code index that interleaved
/// position `j` carries. Every rate's `2 × Ndbps` is a multiple of its
/// puncturing period, so each symbol starts a fresh period and one table
/// serves every symbol of a frame. One process-wide plan per rate.
fn symbol_plan(rate: DataRate) -> &'static [u16] {
    static PLANS: OnceLock<[Vec<u16>; 8]> = OnceLock::new();
    &PLANS.get_or_init(|| {
        DataRate::ALL.map(|rate| {
            let keep = rate.code_rate().keep_mask();
            let per_symbol = 2 * rate.ndbps();
            assert!(
                per_symbol.is_multiple_of(keep.len()) && per_symbol <= SYMBOL_MOTHER_CAP,
                "{rate}: a symbol must span whole puncturing periods"
            );
            let kept: Vec<usize> = (0..per_symbol).filter(|&m| keep[m % keep.len()]).collect();
            assert_eq!(kept.len(), rate.ncbps(), "{rate}: a punctured symbol is Ncbps bits");
            let mut plan = vec![0u16; rate.ncbps()];
            for (&m, &j) in kept.iter().zip(interleaver_for(rate).permutation()) {
                plan[j] = m as u16;
            }
            plan
        })
    })[rate.band_index()]
}

/// The slot of a symbol-local soft-bit window that no interleaved
/// position reaches (`Ncbps ≤ 288`), held at `+0.0`.
const PUNCTURED: u16 = (SYMBOL_MOTHER_CAP - 1) as u16;

/// The inverse of [`symbol_plan`], for the receiver: entry `m` is the
/// interleaved position that carries symbol-local mother-code index `m`,
/// or [`PUNCTURED`] where the rate punctures `m`. One process-wide plan
/// per rate.
fn rx_symbol_plan(rate: DataRate) -> &'static [u16] {
    static PLANS: OnceLock<[Vec<u16>; 8]> = OnceLock::new();
    &PLANS.get_or_init(|| {
        DataRate::ALL.map(|rate| {
            let mut inverse = vec![PUNCTURED; 2 * rate.ndbps()];
            for (j, &m) in symbol_plan(rate).iter().enumerate() {
                inverse[usize::from(m)] = j as u16;
            }
            inverse
        })
    })[rate.band_index()]
}

/// The in-register bodies of the two bit permutes, for builds with
/// AVX-512 (`docs/KERNELS.md`, "TX bit chain" and "RX staging"). Each
/// rate's puncture-and-interleave map is compiled once into a
/// [`PermutePlan`] of two-source register permutes; the portable gathers
/// through [`symbol_plan`] and [`rx_symbol_plan`] stay the body under
/// [`KernelMode::Scalar`] and on builds without the features.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512bw"))]
mod avx512 {
    use super::{rx_symbol_plan, DataRate, PUNCTURED};
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// One masked step of a [`PermutePlan`]: the output lanes set in
    /// `mask` take lane `index[l]` of source registers `2·pair` and
    /// `2·pair + 1` (lanes `0..2L` of the pair).
    #[derive(Debug, Clone)]
    struct PermuteStep<T, const L: usize> {
        pair: usize,
        mask: u64,
        index: [T; L],
    }

    /// One symbol's permutation as `L`-lane register permutes: output
    /// register `c` (slots `L·c ..`) merges its `counts[c]` steps, taken
    /// in order from `steps`, over zeros. `len` is the symbol's output
    /// length.
    #[derive(Debug, Clone)]
    struct PermutePlan<T, const L: usize> {
        steps: Vec<PermuteStep<T, L>>,
        counts: Vec<usize>,
        len: usize,
    }

    impl<T: Copy + Default + From<u8>, const L: usize> PermutePlan<T, L> {
        /// The plan that fills output slot `o` from source slot
        /// `source[o]`, or leaves it zero where that is `None`.
        fn new(source: &[Option<usize>]) -> Self {
            let pairs = source.iter().flatten().max().map_or(0, |&s| s / (2 * L) + 1);
            let mut steps = Vec::new();
            let counts = source
                .chunks(L)
                .map(|chunk| {
                    let before = steps.len();
                    for pair in 0..pairs {
                        let mut step = PermuteStep { pair, mask: 0, index: [T::default(); L] };
                        for (l, &s) in chunk.iter().enumerate() {
                            if let Some(s) = s.filter(|s| s / (2 * L) == pair) {
                                step.mask |= 1 << l;
                                step.index[l] = T::from((s % (2 * L)) as u8);
                            }
                        }
                        if step.mask != 0 {
                            steps.push(step);
                        }
                    }
                    steps.len() - before
                })
                .collect();
            PermutePlan { steps, counts, len: source.len() }
        }
    }

    /// The mask of the first `n.min(lanes)` lanes (`n ≥ 1`).
    fn first_lanes(n: usize, lanes: usize) -> u64 {
        u64::MAX >> (64 - n.min(lanes))
    }

    /// Source registers of the RX plan: `Ncbps ≤ 288` soft bits, 32 per
    /// register, rounded up to whole pairs.
    const RX_REGISTERS: usize = 10;

    /// The RX plan of `rate`: output slot `m` of a symbol's mother block
    /// takes soft bit `rx_symbol_plan[m]`, punctured slots stay `0`. One
    /// process-wide plan per rate.
    fn rx_plan(rate: DataRate) -> &'static PermutePlan<u16, 32> {
        static PLANS: OnceLock<[PermutePlan<u16, 32>; 8]> = OnceLock::new();
        &PLANS.get_or_init(|| {
            DataRate::ALL.map(|rate| {
                let source: Vec<Option<usize>> = rx_symbol_plan(rate)
                    .iter()
                    .map(|&j| (j != PUNCTURED).then_some(usize::from(j)))
                    .collect();
                assert!(rate.ncbps() <= 32 * RX_REGISTERS, "{rate}: Ncbps fits the source registers");
                PermutePlan::new(&source)
            })
        })[rate.band_index()]
    }

    /// The `avx512bw` body of the RX staging: per symbol, the `Ncbps`
    /// soft bits load into registers (the last one masked), and each
    /// 32-slot register of the mother block is one `vpermt2w` per source
    /// pair it draws from, merged under the step's mask over zeros, then
    /// stored under the mask of the block's remaining slots — nothing is
    /// written past the block. `llrs` holds whole symbols and `mother`
    /// exactly their mother blocks.
    pub(super) fn stage(rate: DataRate, llrs: &[i16], mother: &mut [i16]) {
        let plan = rx_plan(rate);
        let ncbps = rate.ncbps();
        let registers = ncbps.div_ceil(32);
        let symbols = llrs.chunks_exact(ncbps).zip(mother.chunks_exact_mut(plan.len));
        // SAFETY: `avx512bw` (which implies `avx512f`) is enabled for the
        // whole build, as this module's `cfg` requires. Register `r` of a
        // symbol loads lanes `32r .. min(32r + 32, Ncbps)` of its
        // `Ncbps`-long slice, and register `c` of a block stores lanes
        // `32c .. min(32c + 32, len)` of its `len`-long slice, so every
        // enabled lane is in bounds and masked-off lanes are not
        // accessed; each step's index is exactly 64 bytes; `pair` indexes
        // the `RX_REGISTERS`-long source array (checked).
        unsafe {
            let zero = _mm512_setzero_si512();
            let mut src = [zero; RX_REGISTERS];
            for (symbol, block) in symbols {
                for (r, reg) in src[..registers].iter_mut().enumerate() {
                    let lanes = first_lanes(ncbps - 32 * r, 32) as u32;
                    *reg = _mm512_maskz_loadu_epi16(lanes, symbol.as_ptr().add(32 * r));
                }
                let mut steps = plan.steps.iter();
                for (c, &count) in plan.counts.iter().enumerate() {
                    let mut acc = zero;
                    for step in steps.by_ref().take(count) {
                        let index = _mm512_loadu_si512(step.index.as_ptr().cast());
                        let (a, b) = (src[2 * step.pair], src[2 * step.pair + 1]);
                        let t = _mm512_permutex2var_epi16(a, index, b);
                        acc = _mm512_mask_mov_epi16(acc, step.mask as u32, t);
                    }
                    let lanes = first_lanes(plan.len - 32 * c, 32) as u32;
                    _mm512_mask_storeu_epi16(block.as_mut_ptr().add(32 * c), lanes, acc);
                }
            }
        }
    }

    /// Source registers of the TX plan: a mother block of `2·Ndbps ≤ 432`
    /// bits, 64 per register, rounded up to whole pairs.
    #[cfg(target_feature = "avx512vbmi")]
    const TX_REGISTERS: usize = 8;

    /// The TX plan of `rate`: interleaved position `j` of a symbol takes
    /// mother bit `symbol_plan[j]`. One process-wide plan per rate.
    #[cfg(target_feature = "avx512vbmi")]
    fn tx_plan(rate: DataRate) -> &'static PermutePlan<u8, 64> {
        static PLANS: OnceLock<[PermutePlan<u8, 64>; 8]> = OnceLock::new();
        &PLANS.get_or_init(|| {
            DataRate::ALL.map(|rate| {
                let source: Vec<Option<usize>> =
                    super::symbol_plan(rate).iter().map(|&m| Some(usize::from(m))).collect();
                assert!(2 * rate.ndbps() <= 64 * TX_REGISTERS, "{rate}: a mother block fits the source registers");
                PermutePlan::new(&source)
            })
        })[rate.band_index()]
    }

    /// The `avx512vbmi` body of the TX puncture-and-interleave: per
    /// symbol, the packed mother block (at most 54 bytes) loads masked
    /// into one register, each of its 64-bit words expands to 64 bytes of
    /// 0/1 with one masked move, and each 64-slot register of the
    /// interleaved output is one `vpermt2b` per source pair it draws
    /// from, merged under the step's mask, then stored under the mask of
    /// the symbol's remaining slots. `map(n, bits)` then runs on symbol
    /// `n`'s interleaved bits.
    #[cfg(target_feature = "avx512vbmi")]
    pub(super) fn interleave(
        rate: DataRate,
        mother: &[u8],
        symbol_bytes: usize,
        interleaved: &mut [u8],
        mut map: impl FnMut(usize, &[u8]),
    ) {
        assert!(symbol_bytes <= 64, "a mother block fits one register");
        let plan = tx_plan(rate);
        let registers = symbol_bytes.div_ceil(8);
        let blocks = mother.chunks_exact(symbol_bytes).zip(interleaved.chunks_exact_mut(plan.len));
        // SAFETY: `avx512vbmi` (which implies `avx512bw` and `avx512f`) is
        // enabled for the whole build, as this function's `cfg` requires.
        // The block load enables only its `symbol_bytes ≤ 64` lanes, and
        // register `c` of a symbol stores lanes `64c .. min(64c + 64,
        // Ncbps)` of its `Ncbps`-long slice, so every enabled lane is in
        // bounds and masked-off lanes are not accessed; `words` and each
        // step's index are exactly 64 bytes; `pair` indexes the
        // `TX_REGISTERS`-long source array (checked).
        unsafe {
            let zero = _mm512_setzero_si512();
            let ones = _mm512_set1_epi8(1);
            let block_lanes = first_lanes(symbol_bytes, 64);
            let mut src = [zero; TX_REGISTERS];
            let mut words = [0u64; 8];
            for (n, (block, out)) in blocks.enumerate() {
                let packed = _mm512_maskz_loadu_epi8(block_lanes, block.as_ptr().cast());
                _mm512_storeu_si512(words.as_mut_ptr().cast(), packed);
                for (reg, &word) in src[..registers].iter_mut().zip(&words) {
                    *reg = _mm512_maskz_mov_epi8(word, ones);
                }
                let mut steps = plan.steps.iter();
                for (c, &count) in plan.counts.iter().enumerate() {
                    let mut acc = zero;
                    for step in steps.by_ref().take(count) {
                        let index = _mm512_loadu_si512(step.index.as_ptr().cast());
                        let (a, b) = (src[2 * step.pair], src[2 * step.pair + 1]);
                        let t = _mm512_permutex2var_epi8(a, index, b);
                        acc = _mm512_mask_mov_epi8(acc, step.mask, t);
                    }
                    let lanes = first_lanes(plan.len - 64 * c, 64);
                    _mm512_mask_storeu_epi8(out.as_mut_ptr().add(64 * c).cast(), lanes, acc);
                }
                map(n, out);
            }
        }
    }
}

/// The constellation of `modulation` indexed by its bit group
/// `b₀ … b_{n−1}` read MSB-first — exactly [`Modulation::map`]'s outputs, in
/// [`Modulation::points`] order (entries past `M` are unused).
fn point_table(modulation: Modulation) -> &'static [Complex; 64] {
    static TABLES: OnceLock<[[Complex; 64]; 4]> = OnceLock::new();
    let index = Modulation::ALL.iter().position(|&m| m == modulation).expect("listed");
    &TABLES.get_or_init(|| {
        Modulation::ALL.map(|m| {
            let mut table = [Complex::ZERO; 64];
            table[..m.points_count()].copy_from_slice(&m.points());
            table
        })
    })[index]
}

/// Builds the DATA field for a PSDU.
///
/// # Panics
///
/// Panics if the scrambler seed is invalid (zero or wider than 7 bits).
pub fn build_data_field(psdu: &[u8], rate: DataRate, scrambler_seed: u8) -> DataField {
    let mut df = DataField::empty(rate);
    build_data_field_into(psdu, rate, scrambler_seed, &mut df, &mut TxBits::new());
    df
}

/// [`build_data_field`] writing into a caller-owned [`DataField`] and
/// packed scratch; `df` is fully overwritten.
///
/// # Panics
///
/// Panics if the scrambler seed is invalid (zero or wider than 7 bits).
pub fn build_data_field_into(
    psdu: &[u8],
    rate: DataRate,
    scrambler_seed: u8,
    df: &mut DataField,
    bits: &mut TxBits,
) {
    build_data_field_with(psdu, rate, scrambler_seed, KernelMode::Lanes, df, bits);
}

/// [`build_data_field_into`] on the puncture-and-interleave body `mode`
/// selects: `Lanes` runs the `avx512vbmi` byte permutes where the build
/// has them, `Scalar` the portable gather. Both give the same bits.
///
/// # Panics
///
/// Panics if the scrambler seed is invalid (zero or wider than 7 bits).
pub fn build_data_field_with(
    psdu: &[u8],
    rate: DataRate,
    scrambler_seed: u8,
    mode: KernelMode,
    df: &mut DataField,
    bits: &mut TxBits,
) {
    encode_data_field(psdu, rate, scrambler_seed, mode, bits, df, None);
}

/// The transmit bit chain (Clause 17.3.5.2–17.3.5.8), packed: every frame
/// build and every §III-D point reconstruction runs through here.
///
/// SERVICE + PSDU + tail + pad are packed LSB-first into whole 64-bit
/// words, XOR-ed bytewise with the seed's keystream (tail re-zeroed),
/// encoded a word at a time, then punctured, interleaved and — when
/// `points` is given — mapped one symbol at a time through
/// [`symbol_plan`] (on the body `mode` selects) and [`point_table`].
/// `df` is fully overwritten, and `points` is overwritten with one row
/// per DATA symbol. Bit-identical to the per-bit `cos-fec` stages
/// composed with [`Modulation::map`] (`crates/phy/tests/tx_differential.rs`).
///
/// # Panics
///
/// Panics if the scrambler seed is invalid (zero or wider than 7 bits).
pub(crate) fn encode_data_field(
    psdu: &[u8],
    rate: DataRate,
    scrambler_seed: u8,
    mode: KernelMode,
    bits: &mut TxBits,
    df: &mut DataField,
    points: Option<&mut Vec<[Complex; NUM_DATA]>>,
) {
    let keystream = keystream(scrambler_seed);
    let n_symbols = rate.data_symbol_count(psdu.len());
    let words = (n_symbols * rate.ndbps()).div_ceil(64);
    df.rate = rate;
    df.n_symbols = n_symbols;

    // SERVICE (all zeros) + PSDU + tail + pad, scrambled. Bits past the
    // last symbol only reach mother-code bits past it, which no plan
    // reads.
    let TxBits { data, mother } = bits;
    data.clear();
    data.extend_from_slice(&[0; SERVICE_BITS / 8]);
    data.extend_from_slice(psdu);
    data.resize(words * 8, 0);
    for block in data.chunks_mut(KEYSTREAM_BYTES) {
        for (byte, k) in block.iter_mut().zip(keystream) {
            *byte ^= k;
        }
    }
    // The tail starts on a byte boundary; re-zero it so the encoder
    // terminates (Clause 17.3.5.3).
    data[SERVICE_BITS / 8 + psdu.len()] &= !((1 << TAIL_BITS) - 1);

    // Rate-1/2 encoding, 64 inputs per step: A and B spread to the even
    // and odd bits of two mother-code words.
    mother.clear();
    let mut prev = 0;
    for chunk in data.chunks_exact(8) {
        let x = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let a = conv_word(GEN_A, x, prev);
        let b = conv_word(GEN_B, x, prev);
        prev = x;
        for half in [0, 32] {
            let pair = spread_even((a >> half) as u32) | spread_even((b >> half) as u32) << 1;
            mother.extend_from_slice(&pair.to_le_bytes());
        }
    }

    // Every symbol overwrites its whole slice of both outputs, so they
    // are only resized, never cleared.
    df.interleaved.resize(n_symbols * rate.ncbps(), 0);
    let rows: &mut [[Complex; NUM_DATA]] = match points {
        Some(points) => {
            points.resize(n_symbols, [Complex::ZERO; NUM_DATA]);
            points
        }
        None => &mut [],
    };
    let modulation = rate.modulation();
    let gather = match modulation.bits_per_symbol() {
        1 => gather_symbols::<1>,
        2 => gather_symbols::<2>,
        4 => gather_symbols::<4>,
        _ => gather_symbols::<6>,
    };
    let symbol_bytes = 2 * rate.ndbps() / 8;
    gather(
        rate,
        mode,
        &mother[..n_symbols * symbol_bytes],
        symbol_bytes,
        &mut df.interleaved,
        rows,
        point_table(modulation),
    );
}

/// Punctures, interleaves and maps every symbol of a packed mother code
/// (every rate's `2 × Ndbps` is a whole number of bytes,
/// `symbol_bytes`): the interleave runs on the body `mode` selects, then
/// each `NBPSC`-bit group maps into the symbol's row of `rows` (empty
/// when no points are wanted).
fn gather_symbols<const NBPSC: usize>(
    rate: DataRate,
    mode: KernelMode,
    mother: &[u8],
    symbol_bytes: usize,
    interleaved: &mut [u8],
    rows: &mut [[Complex; NUM_DATA]],
    table: &[Complex; 64],
) {
    let map = |n: usize, bits: &[u8]| {
        if let Some(row) = rows.get_mut(n) {
            for (slot, group) in row.iter_mut().zip(bits.chunks_exact(NBPSC)) {
                let g = group.iter().fold(0, |g, &b| g << 1 | usize::from(b));
                *slot = table[g & 63];
            }
        }
    };
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512vbmi"))]
    if mode == KernelMode::Lanes {
        return avx512::interleave(rate, mother, symbol_bytes, interleaved, map);
    }
    let _ = mode;
    interleave_portable(symbol_plan(rate), mother, symbol_bytes, interleaved, map);
}

/// The portable puncture-and-interleave: per symbol, unpack its mother
/// block to one bit per `u32` and gather the interleaved bits through
/// `plan`, then run `map(n, bits)` on them. The `u32` bits let LLVM turn
/// the gather into vector gathers where the target has them.
fn interleave_portable(
    plan: &[u16],
    mother: &[u8],
    symbol_bytes: usize,
    interleaved: &mut [u8],
    mut map: impl FnMut(usize, &[u8]),
) {
    let blocks = mother.chunks_exact(symbol_bytes).zip(interleaved.chunks_exact_mut(plan.len()));
    let mut local = [0u32; SYMBOL_MOTHER_CAP];
    for (n, (block, out)) in blocks.enumerate() {
        for (dst, &byte) in local.chunks_exact_mut(8).zip(block) {
            for (i, bit) in dst.iter_mut().enumerate() {
                *bit = u32::from(byte >> i) & 1;
            }
        }
        for (bit, &m) in out.iter_mut().zip(plan) {
            *bit = local[usize::from(m) & (SYMBOL_MOTHER_CAP - 1)] as u8;
        }
        map(n, out);
    }
}

/// A DATA field staged for Viterbi decoding by
/// [`prepare_data_field_into`]: the mother-code soft bits sit in
/// `fec.mother_llrs[..coded_to_tail]`, truncated at the tail position so
/// the trellis decodes with proper termination.
///
/// A decode is three calls: stage, run [`run_staged_viterbi`], then
/// finish with [`finish_data_field_into`] (the chain
/// [`crate::rx::Receiver::decode_into`] runs after demapping); the split
/// lets each be timed on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedDataField {
    /// Mother-code soft bits to feed the decoder (even, ≥ 14).
    pub coded_to_tail: usize,
}

impl PreparedDataField {
    /// Trellis steps (= decoded bits) of the staged frame.
    pub fn steps(&self) -> usize {
        self.coded_to_tail / 2
    }
}

/// The front of a DATA-field decode: deinterleaves, depunctures and
/// truncates received soft bits (in transmit/interleaved order) at the
/// tail, staging the Viterbi input in `fec.mother_llrs` without running
/// the decoder.
///
/// `psdu_len` (from the SIGNAL LENGTH field) locates the tail bits: the
/// 802.11a pad bits come *after* the tail and are scrambled, so the
/// trellis is only guaranteed to sit in state 0 at the tail position —
/// the stream is truncated there and decoded with proper termination,
/// discarding the pad region entirely. Malformed input never panics.
///
/// One pass (the RX bit plan, `docs/KERNELS.md`): each symbol's
/// `2 × Ndbps` mother-code block is gathered straight from the symbol's
/// soft bits through the inverse of the plan the transmitter builds
/// through, with `0` (an erasure) at punctured slots. Identical to
/// [`Interleaver::deinterleave_soft_into`] followed by
/// [`cos_fec::CodeRate::depuncture_into`]
/// (`crates/phy/tests/rx_staging_differential.rs`).
///
/// # Errors
///
/// [`PhyError::DataFieldTooShort`] when the soft-bit stream cannot even
/// hold the 7-bit SERVICE scrambler prefix.
pub fn prepare_data_field_into(
    llrs: &[i16],
    rate: DataRate,
    psdu_len: usize,
    fec: &mut FecWorkspace,
) -> Result<PreparedDataField, PhyError> {
    prepare_data_field_with(llrs, rate, psdu_len, KernelMode::Lanes, fec)
}

/// [`prepare_data_field_into`] on the staging body `mode` selects:
/// `Lanes` runs the `avx512bw` word permutes where the build has them,
/// `Scalar` the portable gather. Both stage the same soft bits.
///
/// # Errors
///
/// As [`prepare_data_field_into`].
pub fn prepare_data_field_with(
    llrs: &[i16],
    rate: DataRate,
    psdu_len: usize,
    mode: KernelMode,
    fec: &mut FecWorkspace,
) -> Result<PreparedDataField, PhyError> {
    let block = 2 * rate.ndbps();
    let ncbps = rate.ncbps();
    // A truncated stream may end mid-symbol; only whole OFDM symbols can
    // be deinterleaved, so the ragged tail is dropped instead of asserted
    // on. Every slot is written below, so the buffer is only resized.
    let symbols = llrs.len() / ncbps;
    let mother = &mut fec.mother_llrs;
    mother.resize(symbols * block, 0);
    stage_symbols(rate, mode, &llrs[..symbols * ncbps], mother);
    let data_bits_to_tail = SERVICE_BITS + psdu_len * 8 + TAIL_BITS;
    // The Viterbi decoder consumes coded-bit pairs; an odd trailing bit
    // from a truncated stream is dropped rather than asserted on.
    let coded_to_tail = ((data_bits_to_tail * 2).min(mother.len())) & !1;
    // Recovering the scrambler seed needs at least the 7 SERVICE prefix
    // bits, i.e. 14 mother-code bits.
    if coded_to_tail < SEED_BITS * 2 {
        return Err(PhyError::DataFieldTooShort {
            got: coded_to_tail / 2,
            need: SEED_BITS,
        });
    }
    Ok(PreparedDataField { coded_to_tail })
}

/// Stages whole symbols of soft bits into their mother blocks on the body
/// `mode` selects.
fn stage_symbols(rate: DataRate, mode: KernelMode, llrs: &[i16], mother: &mut [i16]) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512bw"))]
    if mode == KernelMode::Lanes {
        return avx512::stage(rate, llrs, mother);
    }
    let _ = mode;
    // One symbol's soft bits, with `0` left at PUNCTURED. A gather
    // through masked indices into this fixed window needs no bounds
    // checks and measured faster than scattering through `symbol_plan`.
    let plan = rx_symbol_plan(rate);
    let ncbps = rate.ncbps();
    let mut window = [0i16; SYMBOL_MOTHER_CAP];
    for (block, symbol) in mother.chunks_exact_mut(plan.len()).zip(llrs.chunks_exact(ncbps)) {
        window[..ncbps].copy_from_slice(symbol);
        for (llr, &j) in block.iter_mut().zip(plan) {
            *llr = window[usize::from(j) & (SYMBOL_MOTHER_CAP - 1)];
        }
    }
}

/// Runs the per-frame Viterbi on a staged DATA field, leaving the
/// scrambled data bits in `fec.decoded` — the single-frame path between
/// [`prepare_data_field_into`] and [`finish_data_field_into`].
pub fn run_staged_viterbi(prep: PreparedDataField, fec: &mut FecWorkspace) {
    let steps = prep.steps();
    // The traceback writes every decoded bit; resizing alone suffices.
    fec.decoded.resize(steps, 0);
    let FecWorkspace { mother_llrs, viterbi, decoded } = fec;
    ViterbiDecoder::new().decode_i16(
        &mother_llrs[..prep.coded_to_tail],
        true,
        viterbi.prepared(steps),
        decoded,
    );
}

/// The back of a DATA-field decode: recovers the scrambler seed (needed
/// to reconstruct the transmitted constellation points for EVM feedback)
/// from the SERVICE prefix of `fec.decoded` and descrambles into
/// `bits`, eight bits per step against the seed's keystream table.
///
/// # Errors
///
/// [`PhyError::ScramblerSeed`] when the seed cannot be recovered from the
/// SERVICE prefix (possible only under catastrophic corruption); `bits`
/// is left empty.
pub fn finish_data_field_into(fec: &FecWorkspace, bits: &mut Vec<u8>) -> Result<u8, PhyError> {
    bits.clear();
    let seed = Scrambler::recover_seed(&fec.decoded[..SEED_BITS]).ok_or(PhyError::ScramblerSeed)?;
    bits.extend_from_slice(&fec.decoded);
    descramble(bits, keystream(seed));
    Ok(seed)
}

/// XORs one-bit-per-byte `bits` with `keystream` (bit `i` of byte `j` is
/// keystream bit `8j + i`, repeating every 127 bytes), eight bits per
/// step: keystream byte `j` spreads to one bit per byte of a word through
/// a 256-entry table. Equal to [`Scrambler::scramble_in_place`] with the
/// keystream's seed on 0/1 bits.
fn descramble(bits: &mut [u8], keystream: &[u8; KEYSTREAM_BYTES]) {
    /// Entry `k` holds bit `i` of `k` in byte `i`.
    static SPREAD: [u64; 256] = {
        let mut table = [0u64; 256];
        let mut k = 0;
        while k < 256 {
            let mut i = 0;
            while i < 8 {
                table[k] |= ((k as u64 >> i) & 1) << (8 * i);
                i += 1;
            }
            k += 1;
        }
        table
    };
    for period in bits.chunks_mut(8 * KEYSTREAM_BYTES) {
        for (chunk, &k) in period.chunks_mut(8).zip(keystream) {
            if let Ok(word) = <&mut [u8; 8]>::try_from(&mut *chunk) {
                *word = (u64::from_le_bytes(*word) ^ SPREAD[usize::from(k)]).to_le_bytes();
            } else {
                for (i, bit) in chunk.iter_mut().enumerate() {
                    *bit ^= (k >> i) & 1;
                }
            }
        }
    }
}

/// Extracts and CRC-verifies the payload from descrambled DATA-field bits.
///
/// `psdu_len` comes from the SIGNAL LENGTH field. Returns the payload
/// (PSDU minus the 4 FCS bytes) only if the CRC passes.
pub fn extract_payload(data_bits: &[u8], psdu_len: usize) -> Option<Vec<u8>> {
    let mut psdu = Vec::new();
    let mut payload = Vec::new();
    extract_payload_into(data_bits, psdu_len, &mut psdu, &mut payload).then_some(payload)
}

/// [`extract_payload`] writing into caller-owned buffers: `psdu_scratch`
/// receives the re-packed PSDU bytes and `payload` the CRC-verified
/// payload. Returns `true` on CRC pass; `payload` is left empty otherwise.
pub fn extract_payload_into(
    data_bits: &[u8],
    psdu_len: usize,
    psdu_scratch: &mut Vec<u8>,
    payload: &mut Vec<u8>,
) -> bool {
    payload.clear();
    let need = SERVICE_BITS + psdu_len * 8;
    if data_bits.len() < need {
        return false;
    }
    // Reserve the payload bound even on frames that will fail the CRC:
    // capacity then saturates on the first frame of a given PSDU length
    // instead of on the first CRC pass, which on a poor link can land
    // arbitrarily late.
    payload.reserve(psdu_len.saturating_sub(4));
    bits_to_bytes_into(&data_bits[SERVICE_BITS..need], psdu_scratch);
    match crc32().verify(psdu_scratch) {
        Some(body) => {
            payload.extend_from_slice(body);
            true
        }
        None => false,
    }
}

/// The longest payload one frame carries: the 12-bit LENGTH field's 4095
/// PSDU bytes less the 4-byte FCS.
pub const MAX_PAYLOAD_LEN: usize = 0xFFF - 4;

/// Wraps a payload into a PSDU by appending the CRC-32 FCS.
pub fn payload_to_psdu(payload: &[u8]) -> Vec<u8> {
    let mut psdu = Vec::new();
    payload_to_psdu_into(payload, &mut psdu);
    psdu
}

/// [`payload_to_psdu`] writing into a caller-owned buffer, which is fully
/// overwritten.
pub fn payload_to_psdu_into(payload: &[u8], psdu: &mut Vec<u8>) {
    crc32().append_into(payload, psdu);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal_llrs(bits: &[u8]) -> Vec<i16> {
        bits.iter().map(|&b| if b == 0 { 100 } else { -100 }).collect()
    }

    /// Decodes soft bits to descrambled DATA-field bits and the scrambler
    /// seed through the staged calls `Receiver::decode_into` makes.
    fn decode(llrs: &[i16], rate: DataRate, psdu_len: usize) -> Result<(Vec<u8>, u8), PhyError> {
        let mut fec = FecWorkspace::new();
        let prep = prepare_data_field_into(llrs, rate, psdu_len, &mut fec)?;
        run_staged_viterbi(prep, &mut fec);
        let mut bits = Vec::new();
        let seed = finish_data_field_into(&fec, &mut bits)?;
        Ok((bits, seed))
    }

    #[test]
    fn lengths_are_symbol_aligned() {
        for rate in DataRate::ALL {
            let psdu = payload_to_psdu(&[0xAB; 100]);
            let df = build_data_field(&psdu, rate, 0x5D);
            assert_eq!(df.n_symbols, rate.data_symbol_count(psdu.len()), "{rate}");
            assert_eq!(df.interleaved.len(), df.n_symbols * rate.ncbps(), "{rate}");
        }
    }

    #[test]
    fn keystream_bytes_match_the_scrambler_past_one_table_period() {
        for seed in [0x01, 0x5D, 0x7F] {
            let mut want = vec![0u8; 8 * 3 * KEYSTREAM_BYTES];
            Scrambler::new(seed).scramble_in_place(&mut want);
            let table = keystream(seed);
            for (j, byte) in want.chunks_exact(8).enumerate() {
                let got: Vec<u8> = (0..8).map(|i| (table[j % KEYSTREAM_BYTES] >> i) & 1).collect();
                assert_eq!(got, byte, "seed {seed:#x}, byte {j}");
            }
        }
    }

    #[test]
    fn word_encoder_matches_the_per_bit_encoder_across_words() {
        let input: Vec<u8> = (0..192).map(|i| ((i * 37 + i / 5) % 3 == 0) as u8).collect();
        let want = cos_fec::ConvEncoder::new().encode(&input);
        let mut prev = 0;
        for (w, chunk) in input.chunks_exact(64).enumerate() {
            let x = chunk.iter().rev().fold(0u64, |acc, &b| acc << 1 | u64::from(b));
            let (a, b) = (conv_word(GEN_A, x, prev), conv_word(GEN_B, x, prev));
            prev = x;
            for t in 0..64 {
                let i = 2 * (64 * w + t);
                assert_eq!(((a >> t) & 1) as u8, want[i], "A at bit {}", 64 * w + t);
                assert_eq!(((b >> t) & 1) as u8, want[i + 1], "B at bit {}", 64 * w + t);
            }
        }
    }

    #[test]
    fn tail_bits_are_zero_after_scrambling() {
        let psdu = vec![0xFF; 50];
        let mut bits = TxBits::new();
        build_data_field_into(&psdu, DataRate::Mbps18, 0x7F, &mut DataField::empty(DataRate::Mbps18), &mut bits);
        assert_eq!(bits.data[SERVICE_BITS / 8 + psdu.len()] & 0x3F, 0);
    }

    #[test]
    fn decode_roundtrip_all_rates() {
        for rate in DataRate::ALL {
            let payload: Vec<u8> = (0..=200).map(|i| (i * 7) as u8).collect();
            let psdu = payload_to_psdu(&payload);
            let df = build_data_field(&psdu, rate, 0x2B);
            let (bits, seed) =
                decode(&ideal_llrs(&df.interleaved), rate, psdu.len()).expect("seed recoverable");
            assert_eq!(seed, 0x2B, "{rate}");
            // The 6 tail bits are re-zeroed *after* scrambling, so they
            // descramble to keystream — compare only SERVICE + PSDU.
            let mut sent = vec![0u8; SERVICE_BITS];
            sent.extend(cos_fec::bits::bytes_to_bits(&psdu));
            assert_eq!(&bits[..sent.len()], &sent[..], "{rate}");
            let got = extract_payload(&bits, psdu.len()).expect("CRC passes");
            assert_eq!(got, payload, "{rate}");
        }
    }

    #[test]
    fn decode_survives_erasures() {
        let payload = b"erasure bridging works".to_vec();
        let psdu = payload_to_psdu(&payload);
        let df = build_data_field(&psdu, DataRate::Mbps24, 0x11);
        let mut llrs = ideal_llrs(&df.interleaved);
        // Erase a sprinkling of transmitted bits (as silence symbols would).
        for i in (0..llrs.len()).step_by(29) {
            llrs[i] = 0;
        }
        let (bits, _) = decode(&llrs, DataRate::Mbps24, psdu.len()).expect("decodes");
        assert_eq!(extract_payload(&bits, psdu.len()), Some(payload));
    }

    #[test]
    fn corrupted_frame_fails_crc() {
        let payload = b"integrity matters".to_vec();
        let psdu = payload_to_psdu(&payload);
        let df = build_data_field(&psdu, DataRate::Mbps12, 0x5D);
        let mut llrs = ideal_llrs(&df.interleaved);
        // A long burst of confident wrong bits defeats the decoder.
        for l in llrs.iter_mut().skip(200).take(120) {
            *l = -*l;
        }
        let (bits, _) = decode(&llrs, DataRate::Mbps12, psdu.len()).expect("seed still recoverable");
        assert_eq!(extract_payload(&bits, psdu.len()), None);
    }

    #[test]
    fn extract_payload_rejects_short_input() {
        assert_eq!(extract_payload(&[0; 40], 100), None);
    }

    #[test]
    fn truncated_llrs_yield_typed_error_not_panic() {
        assert!(matches!(
            decode(&[], DataRate::Mbps6, 100),
            Err(PhyError::DataFieldTooShort { .. })
        ));
        // Shorter than one OFDM symbol: the ragged tail is dropped and
        // nothing decodable remains.
        assert!(matches!(
            decode(&[1; 30], DataRate::Mbps6, 100),
            Err(PhyError::DataFieldTooShort { .. })
        ));
        // Mid-symbol truncation of a real frame degrades to an error or a
        // failed decode, never a panic.
        let psdu = payload_to_psdu(b"truncated mid-flight");
        let df = build_data_field(&psdu, DataRate::Mbps12, 0x5D);
        let llrs = ideal_llrs(&df.interleaved);
        for keep in [1, 47, 96, 131, llrs.len() - 1] {
            let _ = decode(&llrs[..keep], DataRate::Mbps12, psdu.len());
        }
    }

    #[test]
    fn different_seeds_scramble_differently_but_decode_identically() {
        let payload = b"seed independence".to_vec();
        let psdu = payload_to_psdu(&payload);
        let a = build_data_field(&psdu, DataRate::Mbps12, 0x01);
        let b = build_data_field(&psdu, DataRate::Mbps12, 0x7F);
        assert_ne!(a.interleaved, b.interleaved);
        for df in [a, b] {
            let (bits, _) =
                decode(&ideal_llrs(&df.interleaved), DataRate::Mbps12, psdu.len()).expect("decodes");
            assert_eq!(extract_payload(&bits, psdu.len()), Some(payload.clone()));
        }
    }
}
