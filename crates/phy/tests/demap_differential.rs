//! Differential tests for the two demap kernels. Both bodies of the soft
//! kernel — `Modulation::demap_row_with` under `KernelMode::Lanes` (the
//! AVX-512 register body on whole 8-point blocks where the build has it)
//! and `KernelMode::Scalar` (the portable lane body) — and the hard
//! kernel `Modulation::hard_demap_row_into` must reproduce the per-bit
//! brute-force search they replaced: the oracle's `f64` LLRs quantised
//! by `cos_fec::viterbi::quantise` equal to the soft bits, hard bits
//! exactly. Checked on random rows (whole and partial blocks) and on the
//! inputs where a shortcut could slip — exact levels, exact midpoints (in
//! both the soft `level·k` space and the hard `value/k` space), ±1–2 ulp
//! around them, ±0.0, subnormals, huge magnitudes (including ones whose
//! squared distance overflows), weight 0, erasure masks and non-finite
//! values — both in short rows and in every lane of the 48-point rows
//! the receiver demaps.
//!
//! Non-finite points follow the erasure rule (zero LLRs, hard group 0);
//! the oracle applies the same rule, so every input is compared.

use cos_dsp::rng::{cases, splitmix64};
use cos_dsp::{Complex, KernelMode};
use cos_fec::viterbi::quantise;
use cos_phy::constellation::Modulation;

/// The standard's per-axis Gray tables (Table 17-9..17-12), indexed by
/// the axis bit group read MSB-first.
fn levels(m: Modulation) -> &'static [f64] {
    match m {
        Modulation::Bpsk | Modulation::Qpsk => &[-1.0, 1.0],
        Modulation::Qam16 => &[-3.0, -1.0, 3.0, 1.0],
        Modulation::Qam64 => &[-7.0, -5.0, -1.0, -3.0, 7.0, 5.0, 1.0, 3.0],
    }
}

fn bits_per_axis(m: Modulation) -> usize {
    if m == Modulation::Bpsk {
        1
    } else {
        m.bits_per_symbol() / 2
    }
}

/// The retired per-bit search over every level.
fn oracle_axis_soft(m: Modulation, value: f64, weight: f64, out: &mut [f64]) {
    let k = m.kmod();
    let bits = out.len();
    for (i, slot) in out.iter_mut().enumerate() {
        let shift = bits - 1 - i;
        let mut d0 = f64::INFINITY;
        let mut d1 = f64::INFINITY;
        for (g, &level) in levels(m).iter().enumerate() {
            let d = value - level * k;
            let d2 = d * d;
            if (g >> shift) & 1 == 0 {
                d0 = d0.min(d2);
            } else {
                d1 = d1.min(d2);
            }
        }
        *slot = weight * (d1 - d0);
    }
}

/// The retired `min_by` hard decision (first minimum in table order).
fn oracle_axis_hard(m: Modulation, value: f64, out: &mut [u8]) {
    let scaled = value / m.kmod();
    let best = levels(m)
        .iter()
        .enumerate()
        .min_by(|a, b| {
            let da = (a.1 - scaled).abs();
            let db = (b.1 - scaled).abs();
            da.partial_cmp(&db).expect("finite inputs only")
        })
        .map(|(g, _)| g)
        .expect("level table is non-empty");
    let width = out.len();
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = ((best >> (width - 1 - i)) & 1) as u8;
    }
}

/// The oracle for one point, including the erasure and non-finite rules.
fn oracle_point(
    m: Modulation,
    y: Complex,
    weight: f64,
    erased: bool,
    llrs: &mut [f64],
    hard: &mut [u8],
) {
    let ba = bits_per_axis(m);
    let iq = m != Modulation::Bpsk;
    if erased || !y.re.is_finite() || (iq && !y.im.is_finite()) {
        llrs.fill(0.0);
        hard.fill(0);
        return;
    }
    oracle_axis_soft(m, y.re, weight, &mut llrs[..ba]);
    oracle_axis_hard(m, y.re, &mut hard[..ba]);
    if iq {
        oracle_axis_soft(m, y.im, weight, &mut llrs[ba..]);
        oracle_axis_hard(m, y.im, &mut hard[ba..]);
    }
}

/// Runs both soft bodies and the hard kernel (into dirty buffers) and the
/// oracle over one row and asserts equality.
fn assert_row_matches(m: Modulation, row: &[Complex], weights: &[f64], mask: Option<&[bool]>) {
    let n = m.bits_per_symbol();
    let mut want_llrs = vec![0; row.len() * n];
    let mut want_hard = vec![0u8; row.len() * n];
    for (p, (&y, &w)) in row.iter().zip(weights).enumerate() {
        let erased = mask.is_some_and(|mask| mask[p]);
        let mut llrs = [0.0; 6];
        oracle_point(m, y, w, erased, &mut llrs[..n], &mut want_hard[p * n..(p + 1) * n]);
        for (q, &llr) in want_llrs[p * n..].iter_mut().zip(&llrs[..n]) {
            *q = quantise(llr);
        }
    }
    // The first point whose bits differ, for the failure message.
    let first_miss = |got: &[i16], want: &[i16]| {
        let p = got.chunks(n).zip(want.chunks(n)).position(|(a, b)| a != b).expect("a point differs");
        let erased = mask.is_some_and(|mask| mask[p]);
        format!("point {p} y={:?} w={:e} erased={erased}", row[p], weights[p])
    };

    for mode in [KernelMode::Scalar, KernelMode::Lanes] {
        let mut llrs = vec![0x5A5A_i16; row.len() * n];
        m.demap_row_with(row, weights, mask, &mut llrs, mode);
        if llrs != want_llrs {
            panic!("{m} {mode:?} LLRs differ at {}", first_miss(&llrs, &want_llrs));
        }
    }
    let mut hard = vec![0xA5u8; row.len() * n];
    m.hard_demap_row_into(row, mask, &mut hard);
    if hard != want_hard {
        let widen = |bits: &[u8]| bits.iter().map(|&b| i16::from(b)).collect::<Vec<_>>();
        panic!("{m} hard bits differ at {}", first_miss(&widen(&hard), &widen(&want_hard)));
    }
}

/// One-step float neighbours: `v` moved by `steps` ulps toward +∞.
fn ulp_step(v: f64, steps: i64) -> f64 {
    let mut x = v;
    for _ in 0..steps.unsigned_abs() {
        x = if steps > 0 { x.next_up() } else { x.next_down() };
    }
    x
}

/// Every axis value worth pinning for modulation `m`: levels (as the
/// soft metric computes them), soft and hard midpoints, ±2 ulps around
/// each, signed zeros, subnormals and huge magnitudes.
fn edge_values(m: Modulation) -> Vec<f64> {
    let k = m.kmod();
    let mut sorted: Vec<f64> = levels(m).to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut anchors = Vec::new();
    for &l in &sorted {
        anchors.push(l * k);
    }
    for pair in sorted.windows(2) {
        anchors.push((pair[0] * k + pair[1] * k) * 0.5);
        anchors.push(((pair[0] + pair[1]) * 0.5) * k);
    }
    for even in -8..=8 {
        anchors.push(f64::from(even) * k);
    }
    let mut values = Vec::new();
    for &a in &anchors {
        for steps in -2..=2 {
            values.push(ulp_step(a, steps));
        }
    }
    values.extend([
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        1e10,
        -1e10,
        1e20,
        -1e20,
        1e154,
        -1e154,
        1.5e154,
        -1.5e154,
        1e300,
        -1e300,
        f64::MAX,
        f64::MIN,
    ]);
    values
}

#[test]
fn edge_values_match_oracle_on_every_axis() {
    for m in Modulation::ALL {
        let values = edge_values(m);
        for &w in &[1.0, 0.0, 3.75, 1e300] {
            for &v in &values {
                // Each edge value on the I axis, the Q axis, and both.
                let row = [
                    Complex::new(v, 0.1),
                    Complex::new(-0.2, v),
                    Complex::new(v, v),
                    Complex::new(v, -v),
                ];
                assert_row_matches(m, &row, &[w; 4], None);
            }
        }
    }
}

#[test]
fn non_finite_points_match_the_erasure_rule() {
    let specials = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.4, -1e300];
    for m in Modulation::ALL {
        for &re in &specials {
            for &im in &specials {
                let row = [Complex::new(re, im), Complex::new(0.25, -0.5)];
                assert_row_matches(m, &row, &[2.0, 2.0], None);
                assert_row_matches(m, &row, &[2.0, 2.0], Some(&[false, true]));
            }
        }
    }
}

/// The receiver's row length: one DATA symbol, six whole 8-point blocks.
const ROW: usize = 48;

#[test]
fn edge_values_reach_every_lane_of_whole_blocks() {
    // Row `start` carries edge values `start, start + 1, …` on the I axis
    // (and a second walk through the set on Q), so across the starts
    // every edge value sits in every slot of a 48-point row, hence in
    // every lane of every whole block, next to different neighbours.
    for m in Modulation::ALL {
        let values = edge_values(m);
        let len = values.len();
        for &w in &[1.0, 0.0, 3.75, 1e300] {
            for start in 0..len {
                let row: [Complex; ROW] = std::array::from_fn(|p| {
                    Complex::new(values[(start + p) % len], values[(start + 5 * p + 11) % len])
                });
                assert_row_matches(m, &row, &[w; ROW], None);
                let diagonal = row.map(|y| Complex::new(y.re, y.re));
                assert_row_matches(m, &diagonal, &[w; ROW], None);
            }
        }
    }
}

#[test]
fn non_finite_points_reach_every_lane_of_whole_blocks() {
    // Point `p` takes special `(i + p) mod 8` on I and `(j + 3p) mod 8` on
    // Q; over all `i, j` every (I, Q) pair of specials sits in every lane
    // (`p mod 8`), under no mask, a sparse mask and a full one.
    let specials = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.4, -1e300, 0.0, -0.0];
    let sparse: [bool; ROW] = std::array::from_fn(|p| p % 5 == 2);
    for m in Modulation::ALL {
        for i in 0..8 {
            for j in 0..8 {
                let row: [Complex; ROW] =
                    std::array::from_fn(|p| Complex::new(specials[(i + p) % 8], specials[(j + 3 * p) % 8]));
                let weights: [f64; ROW] = std::array::from_fn(|p| [2.0, 0.0, 1e300, 7.5][p % 4]);
                assert_row_matches(m, &row, &weights, None);
                assert_row_matches(m, &row, &weights, Some(&sparse));
                assert_row_matches(m, &row, &weights, Some(&[true; ROW]));
            }
        }
    }
}

/// A deterministic stream of axis values mixing uniform draws with the
/// edge set, so random rows also land on ties and boundaries.
struct Values {
    state: u64,
    edges: Vec<f64>,
}

impl Values {
    fn next_u64(&mut self) -> u64 {
        // A SplitMix64 stream.
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn value(&mut self) -> f64 {
        match self.next_u64() % 8 {
            0 | 1 => {
                let i = (self.next_u64() % self.edges.len() as u64) as usize;
                self.edges[i]
            }
            2 => f64::from_bits(self.next_u64()),
            3 => (self.unit() - 0.5) * 1e6,
            _ => (self.unit() - 0.5) * 3.0,
        }
    }

    fn weight(&mut self) -> f64 {
        match self.next_u64() % 6 {
            0 => 0.0,
            1 => f64::from_bits(self.next_u64() >> 1),
            _ => self.unit() * 200.0,
        }
    }
}

#[test]
fn random_rows_match_oracle() {
    for mut rng in cases(1024) {
        let seed = rng.next_u64();
        let m = Modulation::ALL[rng.below(Modulation::ALL.len())];
        let len = 1 + rng.below(70);
        let masked = rng.next_u64() & 1 == 1;
        let mut values = Values { state: seed, edges: edge_values(m) };
        let row: Vec<Complex> =
            (0..len).map(|_| Complex::new(values.value(), values.value())).collect();
        let weights: Vec<f64> = (0..len).map(|_| values.weight()).collect();
        let mask: Vec<bool> = (0..len).map(|_| values.next_u64().is_multiple_of(3)).collect();
        assert_row_matches(m, &row, &weights, masked.then_some(&mask[..]));
    }
}

#[test]
fn single_point_views_match_the_row_kernel() {
    for mut rng in cases(1024) {
        let seed = rng.next_u64();
        let m = Modulation::ALL[rng.below(Modulation::ALL.len())];
        let mut values = Values { state: seed, edges: edge_values(m) };
        let y = Complex::new(values.value(), values.value());
        let w = values.weight();
        let n = m.bits_per_symbol();
        let mut want_llrs = [0.0; 6];
        let mut want_hard = [0u8; 6];
        oracle_point(m, y, w, false, &mut want_llrs[..n], &mut want_hard[..n]);

        let want: Vec<i16> = want_llrs[..n].iter().map(|&l| quantise(l)).collect();
        let mut llrs = vec![5];
        m.soft_demap(y, w, &mut llrs);
        assert_eq!(&llrs[1..], &want[..]);
        let mut slice = [9; 6];
        m.soft_demap_to_slice(y, w, &mut slice[..n]);
        assert_eq!(&slice[..n], &want[..]);
        assert_eq!(m.hard_demap(y), want_hard[..n].to_vec());
        assert_eq!(m.nearest_point(y), m.map(&want_hard[..n]));
    }
}
