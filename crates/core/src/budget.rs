//! The one silence-budget state machine: how many silences the next
//! frame may carry, shaped like RFC 8899 §5.2's packetization-layer
//! search (SNIPPETS.md snippet 3) with silent symbols per packet in
//! place of bytes per datagram.
//!
//! [`BudgetSearch`] has RFC 8899's four states:
//!
//! * **SEARCHING** — probe one [`PROBE_STEP`] above the last confirmed
//!   budget; an acknowledged probe confirms it, [`MAX_PROBES`]
//!   consecutive unconfirmed probes complete the search at the last
//!   confirmed budget, and confirming the ceiling completes it too.
//! * **SEARCH_COMPLETE** — carry the confirmed budget. More than
//!   [`CTRL_FAIL_BUDGET`] control failures in the last [`CTRL_WINDOW`]
//!   attempts step the budget down one [`PROBE_STEP`]; at the floor
//!   ([`BASE_BUDGET`]) they enter ERROR instead.
//! * **ERROR** — carry no silences. The black-hole state: entered from
//!   either searching state after [`STALE_AFTER`] consecutive packets
//!   without a report, or by control failures at the floor. It waits out
//!   a re-probe backoff ([`REPROBE_BACKOFF`], doubling per failed probe
//!   up to [`REPROBE_BACKOFF_MAX`]) and then sends one BASE probe.
//! * **BASE** — one packet carries a control message at the floor. A
//!   confirmed probe with a fresh report resets the backoff and resumes
//!   SEARCHING from the floor (SEARCH_COMPLETE when the ceiling is the
//!   floor); anything else returns to ERROR with the backoff doubled.
//!
//! An instance whose ceiling is the floor never searches: it is the
//! resilience guard of a session's resilient frames and the service's
//! health controller. An adaptive session's policy runs one that climbs
//! to `SessionConfig::max_budget`. [`LinkMode`] is the machine's public
//! label; the machine keeps no log: a resilient frame's summary carries
//! the label it was sent in and the one after, so a reader finds every
//! change (every ERROR and BASE event makes one) in the summaries.
//! `docs/ADAPTATION.md` and `docs/ROBUSTNESS.md` hold the mapping table
//! and each constant's role.

/// Consecutive packets without a delivered report that move a searching
/// state to ERROR.
pub const STALE_AFTER: u32 = 4;
/// Length of the sliding window of control outcomes at a confirmed
/// budget (one bit each in a `u8`).
pub const CTRL_WINDOW: usize = 8;
/// Control failures tolerated inside the window; one more steps the
/// budget down, or enters ERROR at the floor.
pub const CTRL_FAIL_BUDGET: usize = 2;
/// Packets to wait in ERROR before the first BASE probe.
pub const REPROBE_BACKOFF: u32 = 2;
/// Upper clamp on the re-probe backoff (doubles per failed probe).
pub const REPROBE_BACKOFF_MAX: u32 = 16;
/// The floor: the smallest silence budget (silent symbols per packet),
/// the BASE probe's budget and the search's restart point. At least 2:
/// one silence terminates the interval code, so budget `b` carries
/// `(b − 1) · k` control bits.
pub const BASE_BUDGET: usize = 2;
/// Silent symbols added per upward probe step, and removed per step
/// down.
pub const PROBE_STEP: usize = 4;
/// Consecutive unconfirmed probes (RFC 8899 `MAX_PROBES`) before the
/// search completes at the last confirmed budget.
pub const MAX_PROBES: u32 = 3;

const _: () = assert!(CTRL_WINDOW == u8::BITS as usize, "the window is one u8");

/// The link's operating mode: the public label of a [`BudgetState`].
///
/// The discriminants are digest bytes (`Fnv::resilient`, the frame-
/// pipeline benchmark's outcome digest); they must not move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkMode {
    /// SEARCHING or SEARCH_COMPLETE: control messages ride as silence
    /// symbols.
    Cos,
    /// ERROR: plain data frames, no silences, reports still consumed.
    DataOnly,
    /// BASE: one probe packet whose outcome decides between recovery and
    /// a longer backoff.
    Probing,
}

impl LinkMode {
    /// Stable label for CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            LinkMode::Cos => "cos",
            LinkMode::DataOnly => "data_only",
            LinkMode::Probing => "probing",
        }
    }
}

/// RFC 8899 §5.2's states. The discriminants are digest bytes: the first
/// two keep the values the adaptive summary has always hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetState {
    /// Probing upward: the target is one step above the confirmed budget.
    Searching = 0,
    /// Converged: the target is the confirmed budget.
    SearchComplete = 1,
    /// The control channel is presumed dead: no silences until a probe.
    Error = 2,
    /// The one-packet probe at the floor that ends ERROR.
    Base = 3,
}

impl BudgetState {
    /// A stable short label for CSV traces.
    pub fn label(self) -> &'static str {
        match self {
            BudgetState::Searching => "searching",
            BudgetState::SearchComplete => "complete",
            BudgetState::Error => "error",
            BudgetState::Base => "base",
        }
    }

    /// The public label.
    pub fn mode(self) -> LinkMode {
        match self {
            BudgetState::Searching | BudgetState::SearchComplete => LinkMode::Cos,
            BudgetState::Error => LinkMode::DataOnly,
            BudgetState::Base => LinkMode::Probing,
        }
    }
}

/// What the machine did with one packet. The discriminants are digest
/// bytes: the first six keep the values the adaptive summary has always
/// hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetEvent {
    /// No state or budget change.
    Hold = 0,
    /// A probe was acknowledged: the probed budget is confirmed and the
    /// next probe targets one step higher.
    Confirmed = 1,
    /// A probe went unconfirmed, fewer than [`MAX_PROBES`] in a row; the
    /// same budget is probed again.
    Failed = 2,
    /// The search converged: the ceiling was confirmed, or
    /// [`MAX_PROBES`] probes in a row failed.
    Completed = 3,
    /// Control failures over budget at a confirmed budget above the
    /// floor: one step down.
    BackedOff = 4,
    /// The search restarted from the floor (a rate-band change).
    Restarted = 5,
    /// ERROR entry: no report for [`STALE_AFTER`] packets.
    StaleFeedback = 6,
    /// ERROR entry: control failures over budget at the floor.
    ControlBerBudget = 7,
    /// The ERROR backoff elapsed: the next packet is the BASE probe.
    ProbeDue = 8,
    /// The BASE probe went unconfirmed: back to ERROR, backoff doubled.
    ProbeFailed = 9,
    /// The BASE probe was confirmed: searching again.
    ProbeRecovered = 10,
}

impl BudgetEvent {
    /// Whether this event left a searching state for ERROR — where the
    /// one miss rule drops an unpinned rate to the slowest.
    pub fn enters_error(self) -> bool {
        matches!(self, BudgetEvent::StaleFeedback | BudgetEvent::ControlBerBudget)
    }
}

/// One packet's outcome as the machine sees it.
#[derive(Debug, Clone, Copy)]
pub struct PacketObservation {
    /// A report reached the sender.
    pub feedback_fresh: bool,
    /// The packet carried the target budget's control message, so its
    /// outcome says something about that budget.
    pub control_attempted: bool,
    /// The control message came back confirmed.
    pub control_ok: bool,
}

/// The silence-budget machine (see the module docs).
#[derive(Debug, Clone)]
pub struct BudgetSearch {
    ceiling: usize,
    state: BudgetState,
    confirmed: usize,
    probed: usize,
    /// Consecutive unconfirmed probes in SEARCHING.
    probe_fails: u32,
    /// The last [`CTRL_WINDOW`] control outcomes in SEARCH_COMPLETE, one
    /// bit per failure, newest lowest.
    fail_bits: u8,
    feedback_age: u32,
    probe_wait: u32,
    backoff: u32,
}

impl BudgetSearch {
    /// A machine searching from the floor toward `ceiling` (floored at
    /// [`BASE_BUDGET`]); one whose ceiling is the floor starts in
    /// SEARCH_COMPLETE and never searches.
    pub fn new(ceiling: usize) -> Self {
        let mut s = BudgetSearch {
            ceiling: ceiling.max(BASE_BUDGET),
            state: BudgetState::Searching,
            confirmed: BASE_BUDGET,
            probed: BASE_BUDGET,
            probe_fails: 0,
            fail_bits: 0,
            feedback_age: 0,
            probe_wait: 0,
            backoff: REPROBE_BACKOFF,
        };
        s.state = s.search_from_floor();
        s
    }

    /// Resets the search to the floor and returns the state it resumes
    /// in: SEARCHING, or SEARCH_COMPLETE when there is nothing to probe.
    fn search_from_floor(&mut self) -> BudgetState {
        self.confirmed = BASE_BUDGET;
        self.probed = (BASE_BUDGET + PROBE_STEP).min(self.ceiling);
        self.probe_fails = 0;
        self.fail_bits = 0;
        if self.ceiling == BASE_BUDGET {
            BudgetState::SearchComplete
        } else {
            BudgetState::Searching
        }
    }

    /// The current state.
    pub fn state(&self) -> BudgetState {
        self.state
    }

    /// The public label of the current state: the mode the next packet
    /// is sent in.
    pub fn mode(&self) -> LinkMode {
        self.state.mode()
    }

    /// The silence budget the next packet should carry: the probe while
    /// searching, the confirmed budget once complete, the floor for the
    /// BASE probe and none in ERROR.
    pub fn target_budget(&self) -> usize {
        match self.state {
            BudgetState::Searching => self.probed,
            BudgetState::SearchComplete => self.confirmed,
            BudgetState::Base => BASE_BUDGET,
            BudgetState::Error => 0,
        }
    }

    /// The largest budget the machine will probe.
    pub fn ceiling(&self) -> usize {
        self.ceiling
    }

    fn enter_error(&mut self, reason: BudgetEvent) -> BudgetEvent {
        self.probe_wait = self.backoff;
        self.confirmed = BASE_BUDGET;
        self.state = BudgetState::Error;
        reason
    }

    /// Feeds one packet's outcome; may change the state and budget for
    /// the next one.
    pub fn observe(&mut self, obs: PacketObservation) -> BudgetEvent {
        self.feedback_age = if obs.feedback_fresh { 0 } else { self.feedback_age.saturating_add(1) };
        let stale = self.feedback_age >= STALE_AFTER;
        match self.state {
            BudgetState::Searching | BudgetState::SearchComplete if stale => {
                self.enter_error(BudgetEvent::StaleFeedback)
            }
            BudgetState::Searching if !obs.control_attempted => BudgetEvent::Hold,
            BudgetState::Searching if obs.control_ok => {
                self.confirmed = self.probed;
                self.probe_fails = 0;
                if self.probed >= self.ceiling {
                    self.state = BudgetState::SearchComplete;
                    BudgetEvent::Completed
                } else {
                    self.probed = (self.probed + PROBE_STEP).min(self.ceiling);
                    BudgetEvent::Confirmed
                }
            }
            BudgetState::Searching => {
                self.probe_fails += 1;
                if self.probe_fails < MAX_PROBES {
                    return BudgetEvent::Failed;
                }
                self.probe_fails = 0;
                self.state = BudgetState::SearchComplete;
                BudgetEvent::Completed
            }
            BudgetState::SearchComplete => {
                if obs.control_attempted {
                    self.fail_bits = (self.fail_bits << 1) | !obs.control_ok as u8;
                }
                if self.fail_bits.count_ones() as usize <= CTRL_FAIL_BUDGET {
                    return BudgetEvent::Hold;
                }
                self.fail_bits = 0;
                if self.confirmed == BASE_BUDGET {
                    return self.enter_error(BudgetEvent::ControlBerBudget);
                }
                self.confirmed = self.confirmed.saturating_sub(PROBE_STEP).max(BASE_BUDGET);
                BudgetEvent::BackedOff
            }
            BudgetState::Error if self.probe_wait == 0 => {
                self.state = BudgetState::Base;
                BudgetEvent::ProbeDue
            }
            BudgetState::Error => {
                self.probe_wait -= 1;
                BudgetEvent::Hold
            }
            BudgetState::Base if obs.control_ok && obs.feedback_fresh => {
                self.backoff = REPROBE_BACKOFF;
                self.state = self.search_from_floor();
                BudgetEvent::ProbeRecovered
            }
            BudgetState::Base => {
                self.backoff = self.backoff.saturating_mul(2).min(REPROBE_BACKOFF_MAX);
                self.probe_wait = self.backoff;
                self.state = BudgetState::Error;
                BudgetEvent::ProbeFailed
            }
        }
    }

    /// Restarts a searching machine from the floor, in place of
    /// [`observe`](Self::observe), when a delivered report changed the
    /// rate band: a new band means a new silence margin. ERROR and BASE
    /// do not restart; they wait for their probe.
    pub fn restart(&mut self) -> BudgetEvent {
        debug_assert_eq!(self.mode(), LinkMode::Cos, "only a searching state restarts");
        self.feedback_age = 0;
        self.state = self.search_from_floor();
        BudgetEvent::Restarted
    }

    /// Retargets the ceiling mid-flight — how an externally granted
    /// budget (an AP coordination command) takes effect.
    ///
    /// The ceiling is floored at [`BASE_BUDGET`]. In a searching state,
    /// lowering it to or below the confirmed budget clamps that budget
    /// and completes the search at the new ceiling; raising it above the
    /// confirmed budget resumes SEARCHING upward from there. ERROR and
    /// BASE only take the new ceiling, which the search after the next
    /// recovery climbs to. Re-asserting the ceiling in force changes
    /// nothing.
    pub fn set_ceiling(&mut self, ceiling: usize) {
        let ceiling = ceiling.max(BASE_BUDGET);
        if ceiling == self.ceiling {
            return;
        }
        self.ceiling = ceiling;
        if matches!(self.state, BudgetState::Error | BudgetState::Base) {
            return;
        }
        self.probe_fails = 0;
        self.fail_bits = 0;
        if self.confirmed >= ceiling {
            self.confirmed = ceiling;
            self.probed = ceiling;
            self.state = BudgetState::SearchComplete;
        } else {
            self.state = BudgetState::Searching;
            self.probed = (self.confirmed + PROBE_STEP).min(ceiling);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default session's ceiling.
    const MAX: usize = 46;

    fn obs(fresh: bool, attempted: bool, ok: bool) -> PacketObservation {
        PacketObservation { feedback_fresh: fresh, control_attempted: attempted, control_ok: ok }
    }

    /// Runs a script on `m`: `<n>a` acknowledged packets, `<n>f` control
    /// failures with a report, `<n>m` misses (no report, so no ACK),
    /// `<n>s` packets with neither a report nor a control message, and
    /// `g<c>` a ceiling grant (skipped when `grants` is false). Returns
    /// one `<state><target>` token per packet (`s`earching, `c`omplete,
    /// `e`rror, `b`ase), every non-`Hold` event as `<packet>:<event>`,
    /// and each change of label as `<packet> <from>><to> <reason>`.
    fn run(m: &mut BudgetSearch, script: &str, grants: bool) -> (String, String, String) {
        let mode = |l: LinkMode| &l.label()[..1];
        let mut states = Vec::new();
        let mut events = Vec::new();
        let mut transitions = Vec::new();
        let mut packet = 0u64;
        for tok in script.split_whitespace() {
            if let Some(c) = tok.strip_prefix('g') {
                if grants {
                    m.set_ceiling(c.parse().unwrap());
                }
                continue;
            }
            let (n, kind) = tok.split_at(tok.len() - 1);
            let o = match kind {
                "a" => obs(true, true, true),
                "f" => obs(true, true, false),
                "m" => obs(false, true, false),
                "s" => obs(false, false, false),
                _ => panic!("bad token {tok}"),
            };
            for _ in 0..n.parse::<usize>().unwrap() {
                let from = m.mode();
                let ev = m.observe(o);
                if ev != BudgetEvent::Hold {
                    events.push(format!("{packet}:{ev:?}"));
                }
                if m.mode() != from {
                    transitions.push(format!("{packet} {}>{} {ev:?}", mode(from), mode(m.mode())));
                }
                states.push(format!("{}{}", &m.state().label()[..1], m.target_budget()));
                packet += 1;
            }
        }
        (states.join(" "), events.join(" "), transitions.join(", "))
    }

    /// The label sequence of a `run`'s state tokens: `c`os, `d`ata-only,
    /// `p`robing per packet.
    fn modes(states: &str) -> String {
        states
            .split(' ')
            .map(|t| match &t[..1] {
                "s" | "c" => 'c',
                "e" => 'd',
                "b" => 'p',
                other => panic!("bad state {other}"),
            })
            .collect()
    }

    /// Seven scripted event runs through both instances. The
    /// floor-ceiling machine must reproduce, packet for packet, the mode
    /// sequence and transitions the retired `DegradedModeController`
    /// recorded on the same runs. The searching machine's outputs are
    /// pinned as they are; they equal the retired `SilenceProbeSearch`'s
    /// (driven through its controller) except where ERROR or the
    /// windowed back-off acts: the stale, failed-probe, recovery and
    /// windowed runs.
    #[test]
    fn scripted_runs_are_pinned() {
        struct Run {
            script: &'static str,
            guard_modes: &'static str,
            guard_transitions: &'static str,
            states: &'static str,
            events: &'static str,
        }
        let runs = [
            Run {
                script: "3a 5s 4a",
                guard_modes: "ccccccdddpcc",
                guard_transitions: "6 c>d StaleFeedback, 9 d>p ProbeDue, 10 p>c ProbeRecovered",
                states: "s10 s14 s18 s18 s18 s18 e0 e0 e0 b2 s6 s10",
                events: "0:Confirmed 1:Confirmed 2:Confirmed 6:StaleFeedback 9:ProbeDue \
                         10:ProbeRecovered 11:Confirmed",
            },
            Run {
                script: "2a 3f 5a",
                guard_modes: "ccccdddpcc",
                guard_transitions: "4 c>d ControlBerBudget, 7 d>p ProbeDue, 8 p>c ProbeRecovered",
                states: "s10 s14 s14 s14 c10 c10 c10 c10 c10 c10",
                events: "0:Confirmed 1:Confirmed 2:Failed 3:Failed 4:Completed",
            },
            // Failed probes: the backoff doubles to 16 and stays there.
            Run {
                script: "70m",
                guard_modes: "ccdddpdddddpdddddddddpdddddddddddddddddpdddddddddddddddddpdddddddddddd",
                guard_transitions: "2 c>d ControlBerBudget, 5 d>p ProbeDue, 6 p>d ProbeFailed, \
                                    11 d>p ProbeDue, 12 p>d ProbeFailed, 21 d>p ProbeDue, \
                                    22 p>d ProbeFailed, 39 d>p ProbeDue, 40 p>d ProbeFailed, \
                                    57 d>p ProbeDue, 58 p>d ProbeFailed",
                states: "s6 s6 c2 e0 e0 e0 b2 e0 e0 e0 e0 e0 b2 e0 e0 e0 e0 e0 e0 e0 e0 e0 b2 \
                         e0 e0 e0 e0 e0 e0 e0 e0 e0 e0 e0 e0 e0 e0 e0 e0 e0 b2 e0 e0 e0 e0 e0 \
                         e0 e0 e0 e0 e0 e0 e0 e0 e0 e0 e0 e0 b2 e0 e0 e0 e0 e0 e0 e0 e0 e0 e0 e0",
                events: "0:Failed 1:Failed 2:Completed 3:StaleFeedback 6:ProbeDue 7:ProbeFailed \
                         12:ProbeDue 13:ProbeFailed 22:ProbeDue 23:ProbeFailed 40:ProbeDue \
                         41:ProbeFailed 58:ProbeDue 59:ProbeFailed",
            },
            Run {
                script: "5m 20a",
                guard_modes: "ccdddpccccccccccccccccccc",
                guard_transitions: "2 c>d ControlBerBudget, 5 d>p ProbeDue, 6 p>c ProbeRecovered",
                states: "s6 s6 c2 e0 e0 e0 b2 s6 s10 s14 s18 s22 s26 s30 s34 s38 s42 s46 c46 \
                         c46 c46 c46 c46 c46 c46",
                events: "0:Failed 1:Failed 2:Completed 3:StaleFeedback 6:ProbeDue \
                         7:ProbeRecovered 8:Confirmed 9:Confirmed 10:Confirmed 11:Confirmed \
                         12:Confirmed 13:Confirmed 14:Confirmed 15:Confirmed 16:Confirmed \
                         17:Confirmed 18:Completed",
            },
            // A search climb and consecutive failures that back it off.
            Run {
                script: "14a 3f 1a 3f 3f 5f",
                guard_modes: "ccccccccccccccccdddpdddddpddd",
                guard_transitions: "16 c>d ControlBerBudget, 19 d>p ProbeDue, 20 p>d ProbeFailed, \
                                    25 d>p ProbeDue, 26 p>d ProbeFailed",
                states: "s10 s14 s18 s22 s26 s30 s34 s38 s42 s46 c46 c46 c46 c46 c46 c46 c42 c42 \
                         c42 c42 c38 c38 c38 c34 c34 c34 c30 c30 c30",
                events: "0:Confirmed 1:Confirmed 2:Confirmed 3:Confirmed 4:Confirmed 5:Confirmed \
                         6:Confirmed 7:Confirmed 8:Confirmed 9:Confirmed 10:Completed \
                         16:BackedOff 20:BackedOff 23:BackedOff 26:BackedOff",
            },
            // Ceiling grants; the floor instance is never granted one.
            Run {
                script: "4a g10 3a g46 4a g2 3a",
                guard_modes: "cccccccccccccc",
                guard_transitions: "",
                states: "s10 s14 s18 s22 c10 c10 c10 s18 s22 s26 s30 c2 c2 c2",
                events: "0:Confirmed 1:Confirmed 2:Confirmed 3:Confirmed 7:Confirmed \
                         8:Confirmed 9:Confirmed 10:Confirmed",
            },
            // Failures that are not consecutive still fill the window.
            Run {
                script: "12a 1f 1a 1f 1a 1f 3a",
                guard_modes: "ccccccccccccccccdddp",
                guard_transitions: "16 c>d ControlBerBudget, 19 d>p ProbeDue",
                states: "s10 s14 s18 s22 s26 s30 s34 s38 s42 s46 c46 c46 c46 c46 c46 c46 c42 c42 \
                         c42 c42",
                events: "0:Confirmed 1:Confirmed 2:Confirmed 3:Confirmed 4:Confirmed 5:Confirmed \
                         6:Confirmed 7:Confirmed 8:Confirmed 9:Confirmed 10:Completed \
                         16:BackedOff",
            },
        ];
        for r in runs {
            let (states, _, transitions) = run(&mut BudgetSearch::new(BASE_BUDGET), r.script, false);
            assert_eq!(modes(&states), r.guard_modes, "floor instance on {}", r.script);
            assert_eq!(transitions, r.guard_transitions, "floor instance on {}", r.script);
            let (states, events, _) = run(&mut BudgetSearch::new(MAX), r.script, true);
            assert_eq!(states, r.states, "searching instance on {}", r.script);
            assert_eq!(events, r.events, "searching instance on {}", r.script);
        }
    }

    #[test]
    fn restart_searches_from_the_floor() {
        let mut m = BudgetSearch::new(MAX);
        for _ in 0..4 {
            m.observe(obs(true, true, true));
        }
        assert_eq!(m.target_budget(), 22);
        assert_eq!(m.restart(), BudgetEvent::Restarted);
        assert_eq!((m.state(), m.target_budget()), (BudgetState::Searching, 6));
    }

    #[test]
    fn a_grant_in_error_takes_effect_after_recovery() {
        let mut m = BudgetSearch::new(MAX);
        while m.state() != BudgetState::Error {
            m.observe(obs(false, true, false));
        }
        m.set_ceiling(0);
        assert_eq!((m.ceiling(), m.state(), m.target_budget()), (BASE_BUDGET, BudgetState::Error, 0));
        m.set_ceiling(10);
        while m.mode() != LinkMode::Cos {
            m.observe(obs(true, true, true));
        }
        assert_eq!((m.state(), m.target_budget()), (BudgetState::Searching, 6));
        m.observe(obs(true, true, true));
        m.observe(obs(true, true, true));
        assert_eq!((m.state(), m.target_budget()), (BudgetState::SearchComplete, 10));
    }

    /// A ceiling that is not the floor plus whole steps (3 mod 4, as a
    /// config's `max_budget` or a grant may set it) backs off to 3, then
    /// to the floor, then into ERROR.
    #[test]
    fn back_off_from_an_odd_ceiling_reaches_error() {
        let (states, events, _) = run(&mut BudgetSearch::new(7), "2a 3f 3f 3f", true);
        assert_eq!(states, "s7 c7 c7 c7 c3 c3 c3 c2 c2 c2 e0");
        assert_eq!(events, "0:Confirmed 1:Completed 4:BackedOff 7:BackedOff 10:ControlBerBudget");
        let (states, events, _) = run(&mut BudgetSearch::new(MAX), "4a g7 9f", true);
        assert_eq!(states, "s10 s14 s18 s22 c7 c7 c3 c3 c3 c2 c2 c2 e0");
        assert_eq!(
            events,
            "0:Confirmed 1:Confirmed 2:Confirmed 3:Confirmed 6:BackedOff 9:BackedOff \
             12:ControlBerBudget"
        );
    }
}
