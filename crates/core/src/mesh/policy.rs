//! The AP's coordination brain and its 12-bit command vocabulary.
//!
//! The whole point of the mesh subsystem: once collisions are eating the
//! cell, the AP pushes scheduling commands to the stations — and those
//! commands ride **for free** as CoS silences inside the beacon frames it
//! was sending anyway, delivered reliably by the control ARQ
//! ([`ControlArq`](crate::resilience::ControlArq)). A command is 12 bits
//! — three k=4 interval symbols — so even a small silence budget carries
//! one per beacon.
//!
//! [`CoordinationPolicy`] is a two-phase state machine:
//!
//! * **Monitor** — watch the collision rate over a tumbling window of
//!   ticks. Hidden-terminal cells trip the threshold quickly, because
//!   carrier sense cannot save them.
//! * **Coordinating** — issue every station a TDMA grant (round-robin
//!   phases) plus a silence-budget grant; pin stations whose
//!   contention-era delivery was poor to a robust rate cap, lifting the
//!   caps once the schedule has settled. Stations that churn in are
//!   muted for an admission quiet time, then granted a slot and unmuted.

use super::medium::MediumScheduler;
use cos_phy::rates::DataRate;

/// A coordination command from the AP to one station, encoded in 12 bits
/// (three k=4 interval symbols): `[op:4][a:4][b:4]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshCommand {
    /// Stop transmitting for this many ticks (admission quiet time).
    Mute {
        /// Quiet time in ticks (8-bit, split across the a/b nibbles).
        ticks: u8,
    },
    /// Lift any mute immediately.
    Unmute,
    /// Transmit only when `tick % period == phase` (TDMA grant).
    Tdma {
        /// The station's phase within the schedule (`< period`).
        phase: u8,
        /// Schedule period in ticks (1–16).
        period: u8,
    },
    /// Return to CSMA contention.
    ClearTdma,
    /// Clamp the station's adaptive rate staircase at this rate.
    RateCap(
        /// The cap (encoded as its [`DataRate::band_index`]).
        DataRate,
    ),
    /// Lift the rate cap.
    ClearRateCap,
    /// Raise (or lower) the station's silence-budget ceiling.
    BudgetGrant(
        /// The granted budget in silence symbols (8-bit).
        u8,
    ),
}

const OP_MUTE: u8 = 0;
const OP_UNMUTE: u8 = 1;
const OP_TDMA: u8 = 2;
const OP_CLEAR_TDMA: u8 = 3;
const OP_RATE_CAP: u8 = 4;
const OP_CLEAR_RATE_CAP: u8 = 5;
const OP_BUDGET_GRANT: u8 = 6;

impl MeshCommand {
    /// Encodes the command as 12 bits, one per byte, MSB-first per
    /// nibble — ready for
    /// [`CosSession::queue_control`](crate::session::CosSession::queue_control).
    ///
    /// # Panics
    ///
    /// Panics on un-encodable fields: a TDMA phase at or above its
    /// period, or a period outside 1–16.
    pub fn encode(self) -> Vec<u8> {
        let (op, a, b) = match self {
            MeshCommand::Mute { ticks } => (OP_MUTE, ticks >> 4, ticks & 0xF),
            MeshCommand::Unmute => (OP_UNMUTE, 0, 0),
            MeshCommand::Tdma { phase, period } => {
                assert!((1..=16).contains(&period), "TDMA period must be 1-16");
                assert!(phase < period, "TDMA phase must be below its period");
                (OP_TDMA, phase, period - 1)
            }
            MeshCommand::ClearTdma => (OP_CLEAR_TDMA, 0, 0),
            MeshCommand::RateCap(rate) => (OP_RATE_CAP, rate.band_index() as u8, 0),
            MeshCommand::ClearRateCap => (OP_CLEAR_RATE_CAP, 0, 0),
            MeshCommand::BudgetGrant(budget) => (OP_BUDGET_GRANT, budget >> 4, budget & 0xF),
        };
        let mut bits = Vec::with_capacity(12);
        for nibble in [op, a, b] {
            for k in (0..4).rev() {
                bits.push((nibble >> k) & 1);
            }
        }
        bits
    }

    /// Decodes 12 bits back into a command; `None` on a wrong length,
    /// non-bit bytes, an unknown opcode, or out-of-range fields.
    pub fn decode(bits: &[u8]) -> Option<MeshCommand> {
        if bits.len() != 12 || bits.iter().any(|&b| b > 1) {
            return None;
        }
        let nibble = |i: usize| -> u8 {
            bits[4 * i..4 * i + 4].iter().fold(0, |acc, &b| (acc << 1) | b)
        };
        let (op, a, b) = (nibble(0), nibble(1), nibble(2));
        Some(match op {
            OP_MUTE => MeshCommand::Mute { ticks: (a << 4) | b },
            OP_UNMUTE if a == 0 && b == 0 => MeshCommand::Unmute,
            OP_TDMA if a <= b => MeshCommand::Tdma { phase: a, period: b + 1 },
            OP_CLEAR_TDMA if a == 0 && b == 0 => MeshCommand::ClearTdma,
            OP_RATE_CAP if (a as usize) < DataRate::ALL.len() && b == 0 => {
                MeshCommand::RateCap(DataRate::ALL[a as usize])
            }
            OP_CLEAR_RATE_CAP if a == 0 && b == 0 => MeshCommand::ClearRateCap,
            OP_BUDGET_GRANT => MeshCommand::BudgetGrant((a << 4) | b),
            _ => return None,
        })
    }

    /// Applies the command's medium-side effect (mute / TDMA ops) to the
    /// scheduler at `tick`. Rate-cap and budget ops touch the station's
    /// adaptation controller instead and are the caller's business.
    pub fn apply_to_medium(self, scheduler: &mut MediumScheduler, station: usize, tick: u64) {
        match self {
            MeshCommand::Mute { ticks } => scheduler.mute(station, tick + 1 + ticks as u64),
            MeshCommand::Unmute => scheduler.unmute(station),
            MeshCommand::Tdma { phase, period } => {
                scheduler.set_tdma(station, Some((phase, period)));
            }
            MeshCommand::ClearTdma => scheduler.set_tdma(station, None),
            MeshCommand::RateCap(_)
            | MeshCommand::ClearRateCap
            | MeshCommand::BudgetGrant(_) => {}
        }
    }
}

/// What one station's transmission looked like in one tick, as the AP
/// saw it — the policy's observation unit.
#[derive(Debug, Clone, Copy)]
pub struct SlotResult {
    /// The transmitting station.
    pub station: usize,
    /// Whether another frame overlapped it at the AP.
    pub collided: bool,
    /// Whether its data CRC passed at the AP.
    pub data_ok: bool,
}

// The Monitor → Coordinating state machine's constants.

/// Tumbling observation window, in ticks.
pub const COLLISION_WINDOW: u64 = 16;
/// Collided transmissions within one window that trip coordination.
pub const COLLISION_THRESHOLD: u64 = 4;
/// Silence budget granted alongside each TDMA assignment.
pub const GRANT_BUDGET: u8 = 24;
/// Admission quiet time for stations that churn in, in ticks.
pub const JOIN_MUTE_TICKS: u8 = 16;
/// Contention-era delivery ratio below which a station gets a rate cap
/// with its grant.
pub const CAP_PRR: f64 = 0.5;
/// Minimum contention-era attempts before a station's delivery is judged.
pub const CAP_MIN_ATTEMPTS: u64 = 6;
/// The rate stations are capped at while the schedule settles.
pub const CAP_RATE: DataRate = DataRate::Mbps12;
/// Ticks of coordination after which the caps are lifted.
pub const CAP_RELEASE_TICKS: u64 = 64;

/// The policy's phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyPhase {
    /// Watching the collision rate; no commands issued yet.
    Monitor,
    /// The cell is under TDMA coordination.
    Coordinating,
}

/// The AP-side coordination state machine. Observations go in via
/// [`observe_slot`](Self::observe_slot); commands come out as
/// `(station, MeshCommand)` pairs for the caller to queue on each
/// station's control-plane ARQ.
#[derive(Debug, Clone)]
pub struct CoordinationPolicy {
    n: usize,
    phase: PolicyPhase,
    window_start: u64,
    window_collisions: u64,
    coordinating_since: u64,
    caps_released: bool,
    /// Per-station contention-era attempts / successes (for cap
    /// decisions).
    attempts: Vec<u64>,
    oks: Vec<u64>,
    capped: Vec<bool>,
}

impl CoordinationPolicy {
    /// A policy for a cell of `n` stations, starting in Monitor.
    pub fn new(n: usize) -> Self {
        CoordinationPolicy {
            n,
            phase: PolicyPhase::Monitor,
            window_start: 0,
            window_collisions: 0,
            coordinating_since: 0,
            caps_released: false,
            attempts: vec![0; n],
            oks: vec![0; n],
            capped: vec![false; n],
        }
    }

    /// The current phase.
    pub fn phase(&self) -> PolicyPhase {
        self.phase
    }

    /// True once the cell is under TDMA coordination.
    pub fn is_coordinating(&self) -> bool {
        self.phase == PolicyPhase::Coordinating
    }

    /// The TDMA period this cell uses: one phase per station, clamped to
    /// the 16 phases the 12-bit command can express (larger cells share
    /// phases).
    pub fn tdma_period(&self) -> u8 {
        (self.n.clamp(1, 16)) as u8
    }

    fn tdma_for(&self, station: usize) -> MeshCommand {
        let period = self.tdma_period();
        MeshCommand::Tdma { phase: (station % period as usize) as u8, period }
    }

    /// Feeds one tick's transmission outcomes in; appends any commands
    /// the policy decides on to `out` as `(station, command)` pairs.
    pub fn observe_slot(
        &mut self,
        tick: u64,
        results: &[SlotResult],
        out: &mut Vec<(usize, MeshCommand)>,
    ) {
        for r in results {
            self.attempts[r.station] += 1;
            self.oks[r.station] += r.data_ok as u64;
            self.window_collisions += r.collided as u64;
        }
        if tick.saturating_sub(self.window_start) < COLLISION_WINDOW {
            return;
        }
        // Window boundary: act, then tumble.
        match self.phase {
            PolicyPhase::Monitor => {
                if self.window_collisions >= COLLISION_THRESHOLD {
                    self.phase = PolicyPhase::Coordinating;
                    self.coordinating_since = tick;
                    for i in 0..self.n {
                        out.push((i, self.tdma_for(i)));
                        out.push((i, MeshCommand::BudgetGrant(GRANT_BUDGET)));
                        if self.attempts[i] >= CAP_MIN_ATTEMPTS
                            && (self.oks[i] as f64) < CAP_PRR * self.attempts[i] as f64
                        {
                            out.push((i, MeshCommand::RateCap(CAP_RATE)));
                            self.capped[i] = true;
                        }
                    }
                }
            }
            PolicyPhase::Coordinating => {
                if !self.caps_released
                    && tick.saturating_sub(self.coordinating_since) >= CAP_RELEASE_TICKS
                {
                    for i in 0..self.n {
                        if self.capped[i] {
                            out.push((i, MeshCommand::ClearRateCap));
                            self.capped[i] = false;
                        }
                    }
                    self.caps_released = true;
                }
            }
        }
        self.window_start = tick;
        self.window_collisions = 0;
    }

    /// A station churned in at `station`'s slot: resets its history and
    /// issues the admission sequence — a quiet-time mute, and (once the
    /// cell is coordinated) its TDMA grant, budget grant and unmute.
    pub fn on_station_joined(
        &mut self,
        station: usize,
        out: &mut Vec<(usize, MeshCommand)>,
    ) {
        self.attempts[station] = 0;
        self.oks[station] = 0;
        self.capped[station] = false;
        out.push((station, MeshCommand::Mute { ticks: JOIN_MUTE_TICKS }));
        if self.is_coordinating() {
            out.push((station, self.tdma_for(station)));
            out.push((station, MeshCommand::BudgetGrant(GRANT_BUDGET)));
            out.push((station, MeshCommand::Unmute));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_roundtrip_through_twelve_bits() {
        let all = [
            MeshCommand::Mute { ticks: 201 },
            MeshCommand::Unmute,
            MeshCommand::Tdma { phase: 5, period: 12 },
            MeshCommand::ClearTdma,
            MeshCommand::RateCap(DataRate::Mbps12),
            MeshCommand::ClearRateCap,
            MeshCommand::BudgetGrant(46),
        ];
        for cmd in all {
            let bits = cmd.encode();
            assert_eq!(bits.len(), 12, "{cmd:?}");
            assert!(bits.len() % 4 == 0, "must fill whole k=4 intervals");
            assert_eq!(MeshCommand::decode(&bits), Some(cmd));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(MeshCommand::decode(&[1; 11]), None, "short");
        assert_eq!(MeshCommand::decode(&[2; 12]), None, "non-bits");
        // Opcode 15 is unassigned.
        let mut bits = MeshCommand::Unmute.encode();
        bits[..4].copy_from_slice(&[1, 1, 1, 1]);
        assert_eq!(MeshCommand::decode(&bits), None);
        // TDMA with phase >= period.
        let bad = [0, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1];
        assert_eq!(MeshCommand::decode(&bad), None);
    }

    /// Feeds `COLLISION_THRESHOLD` collided transmissions of `station`,
    /// then quiet ticks up to the first window boundary.
    fn trip(p: &mut CoordinationPolicy, station: usize, out: &mut Vec<(usize, MeshCommand)>) {
        let r = [SlotResult { station, collided: true, data_ok: false }];
        for tick in 0..=COLLISION_WINDOW {
            p.observe_slot(tick, if tick < COLLISION_THRESHOLD { &r } else { &[] }, out);
        }
    }

    #[test]
    fn monitor_trips_into_coordination_on_collisions() {
        let mut p = CoordinationPolicy::new(3);
        let mut out = Vec::new();
        // One collision short of the threshold in the first window: no
        // trip at its boundary.
        let r = [SlotResult { station: 0, collided: true, data_ok: false }];
        for tick in 0..=COLLISION_WINDOW {
            p.observe_slot(tick, if tick < COLLISION_THRESHOLD - 1 { &r } else { &[] }, &mut out);
        }
        assert!(!p.is_coordinating());
        assert!(out.is_empty());
        // A full threshold's worth trips it.
        let mut q = CoordinationPolicy::new(3);
        trip(&mut q, 0, &mut out);
        assert!(q.is_coordinating());
        // Every station got a TDMA grant and a budget grant.
        for i in 0..3 {
            assert!(out.contains(&(i, MeshCommand::Tdma { phase: i as u8, period: 3 })));
            assert!(out.contains(&(i, MeshCommand::BudgetGrant(GRANT_BUDGET))));
        }
    }

    #[test]
    fn poor_contention_delivery_earns_a_cap_then_release() {
        let mut p = CoordinationPolicy::new(2);
        let mut out = Vec::new();
        // Station 0: CAP_MIN_ATTEMPTS attempts, all collided and failed;
        // station 1: as many, all delivered.
        for tick in 0..CAP_MIN_ATTEMPTS {
            let r = [
                SlotResult { station: 0, collided: true, data_ok: false },
                SlotResult { station: 1, collided: false, data_ok: true },
            ];
            p.observe_slot(tick, &r, &mut out);
        }
        for tick in CAP_MIN_ATTEMPTS..=COLLISION_WINDOW {
            p.observe_slot(tick, &[], &mut out);
        }
        assert!(p.is_coordinating());
        assert!(out.contains(&(0, MeshCommand::RateCap(CAP_RATE))));
        assert!(!out.iter().any(|&(s, c)| s == 1 && c == MeshCommand::RateCap(CAP_RATE)));
        // The cap holds for CAP_RELEASE_TICKS, then is lifted once, at a
        // window boundary.
        out.clear();
        let release = COLLISION_WINDOW + CAP_RELEASE_TICKS;
        for tick in COLLISION_WINDOW + 1..release {
            p.observe_slot(tick, &[], &mut out);
        }
        assert!(out.is_empty(), "cap lifted early: {out:?}");
        for tick in release..release + 4 * COLLISION_WINDOW {
            p.observe_slot(tick, &[], &mut out);
        }
        assert_eq!(out, vec![(0, MeshCommand::ClearRateCap)]);
    }

    #[test]
    fn monitor_stays_quiet_below_threshold() {
        let mut p = CoordinationPolicy::new(4);
        let mut out = Vec::new();
        for tick in 0..100 {
            let r = [SlotResult { station: tick as usize % 4, collided: false, data_ok: true }];
            p.observe_slot(tick, &r, &mut out);
        }
        assert!(!p.is_coordinating());
        assert!(out.is_empty());
    }

    #[test]
    fn joiner_gets_admission_sequence_once_coordinated() {
        let mut p = CoordinationPolicy::new(2);
        let mut out = Vec::new();
        // Before coordination: just the mute.
        p.on_station_joined(1, &mut out);
        assert_eq!(out, vec![(1, MeshCommand::Mute { ticks: JOIN_MUTE_TICKS })]);
        // Trip coordination, then re-join.
        out.clear();
        trip(&mut p, 0, &mut out);
        assert!(p.is_coordinating());
        out.clear();
        p.on_station_joined(1, &mut out);
        let cmds: Vec<MeshCommand> = out.iter().map(|&(_, c)| c).collect();
        assert_eq!(
            cmds,
            vec![
                MeshCommand::Mute { ticks: JOIN_MUTE_TICKS },
                MeshCommand::Tdma { phase: 1, period: 2 },
                MeshCommand::BudgetGrant(GRANT_BUDGET),
                MeshCommand::Unmute,
            ]
        );
    }
}
