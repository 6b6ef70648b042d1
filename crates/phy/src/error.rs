//! PHY-layer error types.

use std::error::Error;
use std::fmt;

/// Errors produced by the receive chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhyError {
    /// The sample stream is shorter than a preamble + SIGNAL symbol.
    FrameTooShort {
        /// Samples provided.
        got: usize,
        /// Samples required.
        need: usize,
    },
    /// The SIGNAL field failed its even-parity check.
    SignalParity,
    /// The SIGNAL RATE field decoded to a reserved pattern.
    ReservedRate,
    /// The SIGNAL LENGTH field implies more DATA symbols than the frame
    /// carries.
    LengthMismatch {
        /// DATA symbols implied by the LENGTH field.
        need: usize,
        /// DATA symbols present in the sample stream.
        got: usize,
    },
    /// The descrambler could not recover a scrambler seed (all-zero
    /// keystream prefix).
    ScramblerSeed,
    /// No preamble was found in the sample stream.
    NoPreamble,
    /// The DATA field carries fewer decoded bits than the SERVICE prefix
    /// needs — the Viterbi input was empty or shorter than one seed's
    /// worth of bits (severely truncated frame).
    DataFieldTooShort {
        /// Decoded DATA-field bits available.
        got: usize,
        /// Bits required to recover the scrambler seed.
        need: usize,
    },
}

impl PhyError {
    /// A short stable label for tallying errors by kind (used by the
    /// resilience layer to classify receive failures without matching on
    /// variant payloads).
    pub fn kind(&self) -> &'static str {
        match self {
            PhyError::FrameTooShort { .. } => "frame_too_short",
            PhyError::SignalParity => "signal_parity",
            PhyError::ReservedRate => "reserved_rate",
            PhyError::LengthMismatch { .. } => "length_mismatch",
            PhyError::ScramblerSeed => "scrambler_seed",
            PhyError::NoPreamble => "no_preamble",
            PhyError::DataFieldTooShort { .. } => "data_field_too_short",
        }
    }
}

impl fmt::Display for PhyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhyError::FrameTooShort { got, need } => {
                write!(f, "frame too short: got {got} samples, need {need}")
            }
            PhyError::SignalParity => write!(f, "SIGNAL field parity check failed"),
            PhyError::ReservedRate => write!(f, "SIGNAL RATE field is a reserved pattern"),
            PhyError::LengthMismatch { need, got } => {
                write!(f, "LENGTH field needs {need} data symbols but frame has {got}")
            }
            PhyError::ScramblerSeed => write!(f, "could not recover scrambler seed"),
            PhyError::NoPreamble => write!(f, "no preamble found in sample stream"),
            PhyError::DataFieldTooShort { got, need } => {
                write!(f, "DATA field too short: got {got} bits, need {need}")
            }
        }
    }
}

impl Error for PhyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = PhyError::FrameTooShort { got: 3, need: 400 };
        assert_eq!(e.to_string(), "frame too short: got 3 samples, need 400");
        assert!(PhyError::SignalParity.to_string().contains("parity"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(PhyError::SignalParity, PhyError::SignalParity);
        assert_ne!(PhyError::SignalParity, PhyError::ReservedRate);
    }

    #[test]
    fn implements_std_error() {
        fn is_error<E: Error>(_: E) {}
        is_error(PhyError::ReservedRate);
    }

    #[test]
    fn kinds_are_distinct_labels() {
        let all = [
            PhyError::FrameTooShort { got: 0, need: 1 },
            PhyError::SignalParity,
            PhyError::ReservedRate,
            PhyError::LengthMismatch { need: 1, got: 0 },
            PhyError::ScramblerSeed,
            PhyError::NoPreamble,
            PhyError::DataFieldTooShort { got: 0, need: 7 },
        ];
        let mut kinds: Vec<_> = all.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), all.len());
    }
}
