//! An interference-margin side-channel baseline (hJam \[20\] /
//! Flashback \[21\] style), for the comparison the paper's related-work
//! section argues qualitatively: conveying control bits by **adding**
//! high-power "flash" symbols on top of an ongoing transmission, rather
//! than by *removing* symbols as CoS does.
//!
//! The model follows the published schemes' essentials:
//!
//! * a second node transmits a wideband pulse lasting one OFDM symbol;
//!   control bits live in the *intervals between flashes*, measured in
//!   OFDM symbols (one flash opportunity per symbol — the schemes cannot
//!   target a single subcarrier reliably because the flasher is not
//!   sample-synchronised to the data transmitter),
//! * the flash power is a large multiple of the data signal (hJam uses
//!   64×) so it is detectable on top of it,
//! * the non-synchronised flasher straddles symbol boundaries with some
//!   probability, corrupting two data symbols instead of one,
//! * the receiver detects flashes by per-symbol energy spikes, erases the
//!   flashed symbols entirely and decodes the rest (their decoders do the
//!   same).
//!
//! The three structural disadvantages versus CoS fall out of the model:
//! energy cost (CoS: zero extra), capacity (one opportunity per OFDM
//! symbol versus one per selected subcarrier), and collateral damage
//! (a flash erases all 48 subcarriers of a symbol; a silence erases one).

use crate::interval::IntervalCodec;
use cos_dsp::{Complex, GaussianSource};
use cos_phy::rx::FrontEnd;
use cos_phy::subcarriers::{NUM_DATA, SYMBOL_LEN};
use cos_phy::preamble::PREAMBLE_LEN;

/// Configuration of the flash side channel.
#[derive(Debug, Clone, Copy)]
pub struct FlashConfig {
    /// Flash power as a multiple of the nominal data-signal power
    /// (hJam: 64×).
    pub power_ratio: f64,
    /// Probability that a flash straddles a symbol boundary (the flasher
    /// is not sample-synchronised with the data transmitter).
    pub straddle_prob: f64,
    /// Detection threshold: a symbol is flagged flashed when its total
    /// band energy exceeds this multiple of the frame's median symbol
    /// energy.
    pub detect_ratio: f64,
}

impl Default for FlashConfig {
    fn default() -> Self {
        FlashConfig { power_ratio: 64.0, straddle_prob: 0.3, detect_ratio: 4.0 }
    }
}

/// The flash signalling baseline.
#[derive(Debug, Clone)]
pub struct FlashSignaling {
    config: FlashConfig,
    codec: IntervalCodec,
}

impl FlashSignaling {
    /// Creates the baseline with the paper-comparable interval codec
    /// (k = 4 bits per interval).
    pub fn new(config: FlashConfig) -> Self {
        FlashSignaling { config, codec: IntervalCodec::default() }
    }

    /// The interval codec (shared with CoS for a like-for-like bit count).
    pub fn codec(&self) -> &IntervalCodec {
        &self.codec
    }

    /// Encodes control bits into flash positions (OFDM-symbol indices).
    pub fn encode(&self, bits: &[u8]) -> Vec<usize> {
        self.codec.encode(bits)
    }

    /// Injects flashes into a *received* waveform at the given DATA-symbol
    /// indices. Returns the total flash energy spent (the scheme's cost).
    ///
    /// # Panics
    ///
    /// Panics if a position indexes past the end of the waveform.
    pub fn inject(
        &self,
        rx: &mut [Complex],
        positions: &[usize],
        signal_power: f64,
        rng: &mut GaussianSource,
    ) -> f64 {
        let mut energy = 0.0;
        let flash_var = signal_power * self.config.power_ratio;
        for &sym in positions {
            // DATA symbol `sym` starts after preamble + SIGNAL.
            let mut start = PREAMBLE_LEN + SYMBOL_LEN * (1 + sym);
            if rng.uniform() < self.config.straddle_prob {
                // Non-synchronised flasher: slide into the previous symbol
                // by a quarter symbol, corrupting both.
                start = start.saturating_sub(SYMBOL_LEN / 4);
            }
            let end = (start + SYMBOL_LEN).min(rx.len());
            assert!(start < rx.len(), "flash position {sym} outside the waveform");
            for s in &mut rx[start..end] {
                let flash = rng.complex_normal(flash_var);
                energy += flash.norm_sqr();
                *s += flash;
            }
        }
        energy
    }

    /// Detects flashed DATA symbols by per-symbol band energy spikes.
    /// Returns the flagged symbol indices.
    pub fn detect(&self, fe: &FrontEnd) -> Vec<usize> {
        let mut energies: Vec<f64> = fe
            .raw_symbols
            .iter()
            .map(|sym| sym.0.iter().map(|x| x.norm_sqr()).sum())
            .collect();
        let mut sorted = energies.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2].max(1e-15);
        let threshold = median * self.config.detect_ratio;
        let flagged: Vec<usize> = energies
            .iter()
            .enumerate()
            .filter(|(_, &e)| e > threshold)
            .map(|(i, _)| i)
            .collect();
        energies.clear();
        flagged
    }

    /// Decodes flash positions back to control bits, merging adjacent
    /// flagged symbols. A straddled flash spills *backwards* into the
    /// previous symbol, so the true flash position is the **last** symbol
    /// of each adjacent run.
    pub fn decode(&self, flagged: &[usize]) -> Option<Vec<u8>> {
        let mut merged: Vec<usize> = Vec::new();
        for &sym in flagged {
            if merged.last().is_some_and(|&last| sym == last + 1) {
                *merged.last_mut().expect("non-empty") = sym;
            } else {
                merged.push(sym);
            }
        }
        self.codec.decode(&merged)
    }

    /// The erasure mask corresponding to flagged symbols: every subcarrier
    /// of a flashed symbol is erased.
    pub fn erasure_mask(&self, flagged: &[usize], n_symbols: usize) -> Vec<[bool; NUM_DATA]> {
        let mut mask = vec![[false; NUM_DATA]; n_symbols];
        for &sym in flagged {
            if sym < n_symbols {
                mask[sym] = [true; NUM_DATA];
            }
        }
        mask
    }

    /// Control-capacity opportunities per packet: one per DATA symbol —
    /// versus `n_symbols × n_selected` for CoS.
    pub fn opportunities(&self, n_symbols: usize) -> usize {
        n_symbols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cos_channel::link::NOMINAL_TX_POWER;
    use cos_channel::{ChannelConfig, Link};
    use cos_phy::rates::DataRate;
    use cos_phy::rx::Receiver;
    use cos_phy::tx::Transmitter;

    fn run(bits: &[u8], snr_db: f64, seed: u64, cfg: FlashConfig) -> (Option<Vec<u8>>, bool) {
        let flash = FlashSignaling::new(cfg);
        let frame = Transmitter::new().build_frame(&[0x3Au8; 700], DataRate::Mbps12, 0x5D);
        let n_sym = frame.n_data_symbols();
        let positions = flash.encode(bits);
        assert!(positions.last().copied().unwrap_or(0) < n_sym, "message fits");

        let mut link = Link::new(ChannelConfig::default(), snr_db, seed);
        let mut rx_samples = link.transmit(&frame.to_time_samples());
        let mut rng = GaussianSource::new(seed + 999);
        flash.inject(&mut rx_samples, &positions, NOMINAL_TX_POWER, &mut rng);

        let receiver = Receiver::new();
        let fe = receiver
            .front_end_known(&rx_samples, DataRate::Mbps12, frame.psdu_len)
            .expect("front end");
        let flagged = flash.detect(&fe);
        let control = flash.decode(&flagged);
        let mask = flash.erasure_mask(&flagged, fe.raw_symbols.len());
        let rx = receiver.decode(&fe, Some(&mask));
        (control, rx.crc_ok)
    }

    #[test]
    fn synchronised_flashes_deliver_control() {
        let cfg = FlashConfig { straddle_prob: 0.0, ..Default::default() };
        let bits = vec![0, 1, 1, 0, 1, 0, 0, 0];
        let mut ok = 0;
        for seed in 0..10 {
            let (control, _) = run(&bits, 18.0, seed, cfg);
            ok += (control.as_deref() == Some(&bits[..])) as u32;
        }
        assert!(ok >= 9, "sync flashes delivered {ok}/10");
    }

    #[test]
    fn straddling_is_absorbed_by_merging() {
        let cfg = FlashConfig { straddle_prob: 1.0, ..Default::default() };
        let bits = vec![1, 0, 0, 1, 0, 1, 1, 0];
        let mut ok = 0;
        for seed in 0..10 {
            let (control, _) = run(&bits, 18.0, seed, cfg);
            ok += (control.as_deref() == Some(&bits[..])) as u32;
        }
        // Merging recovers most but not all straddles (a straddle that
        // lands exactly on an encoded adjacent flash pair is ambiguous).
        assert!(ok >= 7, "straddled flashes delivered {ok}/10");
    }

    #[test]
    fn flashes_destroy_the_data_packet() {
        // The paper's critique #1, reproduced: a flash erases all 96
        // coded bits of an OFDM symbol — a contiguous erasure burst far
        // beyond the convolutional code's reach — so the data frame dies
        // even though the receiver knows exactly where the flashes are.
        // (CoS erases one symbol per subcarrier; de-interleaving spreads
        // those bits and the code bridges them.)
        let cfg = FlashConfig::default();
        let bits = vec![0, 0, 1, 1];
        let mut data_ok = 0;
        for seed in 0..10 {
            let (_, ok) = run(&bits, 18.0, seed, cfg);
            data_ok += ok as u32;
        }
        assert!(data_ok <= 2, "whole-symbol erasures should sink the frame: {data_ok}/10 survived");
    }

    #[test]
    fn flash_energy_cost_is_enormous() {
        // CoS *saves* energy (zero-power symbols); the flash scheme spends
        // power_ratio × signal power per flash symbol.
        let flash = FlashSignaling::new(FlashConfig::default());
        let frame = Transmitter::new().build_frame(&[0u8; 700], DataRate::Mbps12, 0x5D);
        let mut rx = frame.to_time_samples();
        let frame_energy: f64 = rx.iter().map(|x| x.norm_sqr()).sum();
        let mut rng = GaussianSource::new(1);
        let spent = flash.inject(&mut rx, &[0, 5, 11], NOMINAL_TX_POWER, &mut rng);
        // Three flash symbols cost more energy than the entire data frame.
        assert!(spent > frame_energy, "flash energy {spent} vs frame {frame_energy}");
    }

    #[test]
    fn capacity_opportunities_are_symbol_limited() {
        let flash = FlashSignaling::new(FlashConfig::default());
        let n_sym = 86;
        // CoS with 6 control subcarriers offers 6× the positions.
        assert_eq!(flash.opportunities(n_sym) * 6, n_sym * 6);
        assert!(flash.opportunities(n_sym) < n_sym * 6);
    }

    #[test]
    fn decode_merges_adjacent_flags_keeping_the_last() {
        let flash = FlashSignaling::new(FlashConfig::default());
        // A straddle spills backwards: the true flash at 3 flags {2, 3}.
        let positions = flash.codec().encode(&[0, 0, 1, 0]); // positions 0, 3
        assert_eq!(positions, vec![0, 3]);
        let decoded = flash.decode(&[0, 2, 3]);
        assert_eq!(decoded, Some(vec![0, 0, 1, 0]));
    }
}
