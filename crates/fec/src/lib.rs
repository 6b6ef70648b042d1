//! The IEEE 802.11a forward-error-correction stack.
//!
//! This crate implements, bit-exactly where the standard specifies test
//! vectors, every bit-level transform between a MAC payload and the
//! constellation mapper:
//!
//! * [`bits`] — LSB-first bit packing (802.11 transmits the LSB of each
//!   octet first),
//! * [`scrambler`] — the `x^7 + x^4 + 1` data scrambler,
//! * [`conv`] — the rate-1/2, constraint-length-7 convolutional encoder
//!   (generators 133/171 octal),
//! * [`puncture`] — the 2/3 and 3/4 puncturing patterns and their soft
//!   de-puncturing inverses,
//! * [`interleaver`] — the two-permutation per-OFDM-symbol block
//!   interleaver,
//! * [`viterbi`] — a soft-decision Viterbi decoder. Feeding a **zero LLR**
//!   for a bit marks it as an *erasure*: that bit contributes nothing to any
//!   path metric, which is exactly the erasure Viterbi decoding (EVD) of the
//!   CoS paper (§III-E, Eq. 7) — the decoder itself is unchanged. The
//!   production kernel decodes quantised `i16` soft bits one frame at a
//!   time, exactly as an `f64` reference decoder would on the same values
//!   (see `docs/KERNELS.md`),
//! * [`crc`] — CRC-32 (the 802.11 FCS).
//!
//! # Examples
//!
//! A noiseless encode→decode round trip:
//!
//! ```
//! use cos_fec::conv::ConvEncoder;
//! use cos_fec::viterbi::ViterbiDecoder;
//!
//! let data = vec![1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0]; // incl. 6 tail zeros
//! let coded = ConvEncoder::new().encode(&data);
//! // Ideal LLRs: bit 0 → +1, bit 1 → -1.
//! let llrs: Vec<f64> = coded.iter().map(|&b| if b == 0 { 1.0 } else { -1.0 }).collect();
//! let decoded = ViterbiDecoder::new().decode(&llrs, true);
//! assert_eq!(decoded, data);
//! ```

#![warn(missing_docs)]

pub mod bits;
pub mod conv;
pub mod crc;
pub mod interleaver;
pub mod puncture;
pub mod scrambler;
pub mod viterbi;
pub mod workspace;

pub use conv::ConvEncoder;
pub use crc::Crc32;
pub use interleaver::Interleaver;
pub use puncture::CodeRate;
pub use scrambler::Scrambler;
pub use viterbi::{LaneFrame, ViterbiDecoder};
pub use workspace::{FecWorkspace, SymbolBatch, ViterbiWorkspace};
