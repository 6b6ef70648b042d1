//! The IEEE 802.11a OFDM physical layer.
//!
//! This crate is the simulator's stand-in for the paper's Sora SoftWiFi
//! driver: a complete 20 MHz 802.11a PHY with
//!
//! * [`rates`] — the eight data rates (6–54 Mbps), their modulation/code
//!   combinations, and the SNR-based rate-adaptation table,
//! * [`constellation`] — Gray-mapped BPSK/QPSK/16QAM/64QAM with exact
//!   normalisation and per-axis max-log soft demapping,
//! * [`subcarriers`] — the 64-bin layout (48 data, 4 pilots, guards),
//! * [`ofdm`] — IFFT/CP OFDM symbol modulation and demodulation,
//! * [`preamble`] — short/long training fields,
//! * [`signal`] — the SIGNAL field,
//! * [`frame`] — DATA-field bit processing (SERVICE/tail/pad, scramble,
//!   encode, interleave),
//! * [`tx`]/[`rx`] — the full transmit and receive chains. The transmit
//!   chain exposes its frequency-domain symbol grid *before* the IFFT so
//!   the CoS power controller can zero symbols (silence insertion), and the
//!   receive chain accepts an erasure mask so energy-detected silences
//!   become zero-LLR bits (erasure Viterbi decoding),
//! * [`pipeline`] — the zero-copy staged pipeline: caller-owned
//!   [`TxWorkspace`]/[`RxWorkspace`] scratch threaded through `*_into`
//!   variants of every stage, each allocating form a thin wrapper that
//!   returns exactly the type its `*_into` form fills,
//! * [`evm`] — per-subcarrier EVM (paper Eq. 1) and the normalised EVM
//!   change `∇EVM` (paper Eq. 2),
//! * [`sync`] — packet detection, sample-accurate timing and CFO
//!   estimation/correction, so frames can be received from raw streams
//!   with unknown offsets.
//!
//! # Examples
//!
//! ```
//! use cos_phy::rates::DataRate;
//! use cos_phy::tx::Transmitter;
//! use cos_phy::rx::Receiver;
//!
//! let payload = b"hello, free control messages".to_vec();
//! let frame = Transmitter::new().build_frame(&payload, DataRate::Mbps24, 0x5D);
//! let samples = frame.to_time_samples();
//! // Loop back over an ideal channel, with no erasure mask.
//! let rx = Receiver::new().receive(&samples, None).expect("decodable");
//! assert!(rx.out.crc_ok);
//! assert_eq!(rx.out.payload, payload);
//! assert_eq!(rx.fe.rate, DataRate::Mbps24);
//! ```

pub mod constellation;
pub mod error;
pub mod evm;
pub mod frame;
pub mod ofdm;
pub mod pipeline;
pub mod preamble;
pub mod rates;
pub mod rx;
pub mod signal;
pub mod subcarriers;
pub mod sync;
pub mod tx;

pub use error::PhyError;
pub use pipeline::{PhyWorkspace, RxWorkspace, TxWorkspace};
pub use rates::DataRate;
