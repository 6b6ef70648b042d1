//! Typed control messages — the upper-layer vocabulary the paper's
//! introduction motivates (access coordination, resource allocation, load
//! balancing) encoded onto the raw control-bit channel.
//!
//! The CoS bit channel has no built-in integrity (a missed or phantom
//! silence garbles the interval stream), so every message carries a 4-bit
//! header checksum; the receiver either gets the exact message or knows
//! it got nothing. All encodings are multiples of the interval codec's
//! k = 4 bits.

use std::fmt;

/// A 4-bit XOR-fold checksum over 4-bit nibbles.
fn checksum4(bits: &[u8]) -> u8 {
    debug_assert!(bits.len().is_multiple_of(4));
    bits.chunks_exact(4)
        .fold(0u8, |acc, nibble| {
            acc ^ nibble.iter().fold(0u8, |v, &b| (v << 1) | b)
        })
}

fn push_bits(out: &mut Vec<u8>, value: u32, width: usize) {
    for i in (0..width).rev() {
        out.push(((value >> i) & 1) as u8);
    }
}

fn read_bits(bits: &[u8], offset: usize, width: usize) -> u32 {
    bits[offset..offset + width]
        .iter()
        .fold(0u32, |v, &b| (v << 1) | b as u32)
}

/// The control-plane messages of a CoS-enabled WLAN cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMessage {
    /// Grant the next transmission opportunity to a station
    /// (access coordination).
    ScheduleGrant {
        /// Station identifier.
        station: u8,
        /// Slot duration in units of 256 µs (0 = one slot).
        duration: u8,
    },
    /// Announce the cell's congestion level and queue backlog
    /// (load balancing).
    CongestionReport {
        /// Congestion level 0–15.
        level: u8,
        /// Backlogged frames, saturating at 255.
        backlog: u8,
    },
    /// Announce a power-save window (resource allocation): stations may
    /// sleep for `windows` beacon intervals.
    PowerSave {
        /// Beacon intervals to sleep.
        windows: u8,
    },
    /// Request the receiver's channel feedback immediately (instead of
    /// waiting for the next ACK).
    FeedbackPoll,
}

/// Message type tags (4 bits on the wire).
const TAG_SCHEDULE: u32 = 0x1;
const TAG_CONGESTION: u32 = 0x2;
const TAG_POWERSAVE: u32 = 0x3;
const TAG_POLL: u32 = 0x4;

/// Errors from decoding a control-message bit stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageError {
    /// Fewer bits than a header.
    Truncated,
    /// Unknown message tag.
    UnknownTag(u8),
    /// Checksum mismatch (detection corrupted the interval stream).
    Checksum,
}

impl fmt::Display for MessageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MessageError::Truncated => write!(f, "control message truncated"),
            MessageError::UnknownTag(t) => write!(f, "unknown control message tag {t:#x}"),
            MessageError::Checksum => write!(f, "control message checksum mismatch"),
        }
    }
}

impl std::error::Error for MessageError {}

impl ControlMessage {
    /// Encodes the message to control bits: 4-bit tag, payload, 4-bit
    /// checksum. The result length is always a multiple of 4 (the
    /// interval codec's k).
    pub fn to_bits(self) -> Vec<u8> {
        let mut bits = Vec::with_capacity(24);
        match self {
            ControlMessage::ScheduleGrant { station, duration } => {
                push_bits(&mut bits, TAG_SCHEDULE, 4);
                push_bits(&mut bits, station as u32, 8);
                push_bits(&mut bits, duration as u32, 8);
            }
            ControlMessage::CongestionReport { level, backlog } => {
                assert!(level < 16, "congestion level is 4 bits");
                push_bits(&mut bits, TAG_CONGESTION, 4);
                push_bits(&mut bits, level as u32, 4);
                push_bits(&mut bits, backlog as u32, 8);
            }
            ControlMessage::PowerSave { windows } => {
                push_bits(&mut bits, TAG_POWERSAVE, 4);
                push_bits(&mut bits, windows as u32, 8);
            }
            ControlMessage::FeedbackPoll => {
                push_bits(&mut bits, TAG_POLL, 4);
            }
        }
        // Pad the body to a nibble boundary (already guaranteed) and
        // append the checksum nibble.
        let ck = checksum4(&bits);
        push_bits(&mut bits, ck as u32, 4);
        debug_assert_eq!(bits.len() % 4, 0);
        bits
    }

    /// Decodes control bits back to a message.
    ///
    /// # Errors
    ///
    /// [`MessageError`] when the stream is truncated, has an unknown tag
    /// or fails its checksum.
    pub fn from_bits(bits: &[u8]) -> Result<ControlMessage, MessageError> {
        if bits.len() < 8 || !bits.len().is_multiple_of(4) {
            return Err(MessageError::Truncated);
        }
        let body = &bits[..bits.len() - 4];
        let ck = read_bits(bits, bits.len() - 4, 4) as u8;
        if checksum4(body) != ck {
            return Err(MessageError::Checksum);
        }
        let tag = read_bits(body, 0, 4);
        let need = |n: usize| {
            if body.len() < 4 + n {
                Err(MessageError::Truncated)
            } else {
                Ok(())
            }
        };
        match tag {
            TAG_SCHEDULE => {
                need(16)?;
                Ok(ControlMessage::ScheduleGrant {
                    station: read_bits(body, 4, 8) as u8,
                    duration: read_bits(body, 12, 8) as u8,
                })
            }
            TAG_CONGESTION => {
                need(12)?;
                Ok(ControlMessage::CongestionReport {
                    level: read_bits(body, 4, 4) as u8,
                    backlog: read_bits(body, 8, 8) as u8,
                })
            }
            TAG_POWERSAVE => {
                need(8)?;
                Ok(ControlMessage::PowerSave { windows: read_bits(body, 4, 8) as u8 })
            }
            TAG_POLL => Ok(ControlMessage::FeedbackPoll),
            t => Err(MessageError::UnknownTag(t as u8)),
        }
    }

    /// The silence symbols this message costs (start marker + one per
    /// 4-bit group).
    pub fn silence_cost(self) -> usize {
        1 + self.to_bits().len() / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<ControlMessage> {
        vec![
            ControlMessage::ScheduleGrant { station: 0x3C, duration: 7 },
            ControlMessage::ScheduleGrant { station: 0, duration: 255 },
            ControlMessage::CongestionReport { level: 15, backlog: 200 },
            ControlMessage::CongestionReport { level: 0, backlog: 0 },
            ControlMessage::PowerSave { windows: 12 },
            ControlMessage::FeedbackPoll,
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for msg in all_messages() {
            let bits = msg.to_bits();
            assert_eq!(bits.len() % 4, 0, "{msg:?} not nibble-aligned");
            assert_eq!(ControlMessage::from_bits(&bits), Ok(msg));
        }
    }

    #[test]
    fn checksum_catches_any_single_bit_flip() {
        for msg in all_messages() {
            let bits = msg.to_bits();
            for i in 0..bits.len() {
                let mut bad = bits.clone();
                bad[i] ^= 1;
                let decoded = ControlMessage::from_bits(&bad);
                assert!(
                    decoded != Ok(msg),
                    "{msg:?}: flip at {i} decoded back to the same message"
                );
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bits = ControlMessage::ScheduleGrant { station: 1, duration: 2 }.to_bits();
        assert_eq!(ControlMessage::from_bits(&bits[..4]), Err(MessageError::Truncated));
        assert_eq!(ControlMessage::from_bits(&[]), Err(MessageError::Truncated));
    }

    #[test]
    fn unknown_tag_is_reported() {
        // Tag 0xF with a valid checksum.
        let mut bits = Vec::new();
        push_bits(&mut bits, 0xF, 4);
        let ck = checksum4(&bits);
        push_bits(&mut bits, ck as u32, 4);
        assert_eq!(ControlMessage::from_bits(&bits), Err(MessageError::UnknownTag(0xF)));
    }

    #[test]
    fn silence_costs_are_small() {
        // Every message fits comfortably in a handful of silences.
        for msg in all_messages() {
            let cost = msg.silence_cost();
            assert!(cost <= 7, "{msg:?} costs {cost} silences");
        }
        assert_eq!(ControlMessage::FeedbackPoll.silence_cost(), 3);
    }

    #[test]
    fn end_to_end_over_a_session() {
        use crate::session::{CosSession, SessionConfig};
        let mut session =
            CosSession::new(SessionConfig { snr_db: 20.0, ..Default::default() }, 77);
        session.send_packet_summary(&[0u8; 600], &[]); // warm-up
        let msg = ControlMessage::CongestionReport { level: 9, backlog: 42 };
        let report = session.send_packet_summary(&[0u8; 600], &msg.to_bits());
        assert!(report.data_ok);
        // `control_ok`: the decoded bits are exactly `msg.to_bits()`.
        assert!(report.control_ok);
        assert_eq!(ControlMessage::from_bits(&msg.to_bits()), Ok(msg));
    }
}
