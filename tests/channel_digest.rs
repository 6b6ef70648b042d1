//! Frozen channel digest: pins the noise path bit for bit.
//!
//! The golden vectors carry no noise, so they cannot catch a change to
//! the Gaussian sampler or the AWGN apply. This suite hashes (FNV-1a over
//! `f64::to_bits`):
//!
//! * `GaussianSource` draws for three seeds, taken as an alternation of
//!   batch fills and single draws whose lengths cross the Box–Muller
//!   spare and the lane-step boundaries;
//! * one `Link::transmit` of a frame through a fading channel with AWGN
//!   and a noise-only lead-in.
//!
//! The digests hold on every codegen target, whichever kernel bodies it
//! compiles, because the sampler uses no host libm; `scripts/check.sh`
//! runs this file on baseline x86-64 codegen as well as the default
//! build. Change the constants only with an intended change to
//! the noise stream, and record old → new in the change log.

use cos_channel::{ChannelConfig, Link};
use cos_dsp::GaussianSource;
use cos_phy::rates::DataRate;
use cos_phy::tx::Transmitter;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn f64(&mut self, x: f64) {
        for b in x.to_bits().to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1_0000_01b3);
        }
    }
}

/// Batch lengths around the pair (2) and lane-step (16) boundaries; a
/// single draw between fills flips the spare state.
const FILL_LENS: [usize; 12] = [0, 1, 2, 3, 15, 16, 17, 31, 32, 33, 64, 257];

fn sampler_digest(seed: u64) -> u64 {
    let mut g = GaussianSource::new(seed);
    let mut h = Fnv::new();
    let mut row = Vec::new();
    for len in FILL_LENS {
        row.resize(len, 0.0);
        g.fill_standard_normal(&mut row);
        row.iter().for_each(|&x| h.f64(x));
        h.f64(g.standard_normal());
    }
    h.0
}

#[test]
fn gaussian_draws_match_frozen_digests() {
    let got: Vec<u64> = [1, 2017, 20261017].map(sampler_digest).to_vec();
    assert_eq!(got, [0xe282_3f1e_b9af_a145, 0x7269_7759_09d5_c70d, 0xf906_48f1_8c4b_d05d], "sampler digests moved: {got:x?}");
}

#[test]
fn faded_noisy_transmit_matches_frozen_digest() {
    let frame = Transmitter::new()
        .build_frame(&[0xC5; 200], DataRate::Mbps24, 0x5D)
        .to_time_samples();
    let mut link = Link::new(ChannelConfig::default(), 10.0, 42).with_lead_in(37);
    let mut h = Fnv::new();
    for _ in 0..2 {
        for x in link.transmit(&frame) {
            h.f64(x.re);
            h.f64(x.im);
        }
    }
    assert_eq!(h.0, 0xadd3_7100_e20f_3822, "transmit digest moved: {:x}", h.0);
}
