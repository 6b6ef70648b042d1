//! Closed-loop link adaptation: an SNR-driven **rate staircase** plus a
//! **silence-budget probe search** (paper §II-B, Fig. 2).
//!
//! The paper's premise is that stair-case rate adaptation leaves an SNR
//! gap — the margin between the selected rate's decoding threshold and
//! the channel's actual SNR — and that silence symbols ride in exactly
//! that gap. This module closes the loop on both halves:
//!
//! 1. [`RateStaircase`] — an explicit state machine over the 8
//!    golden-vector rates. A per-session EWMA of the measured per-frame
//!    SNR ([`SnrEstimator`]) drives hysteresis-banded selection: a rate
//!    upgrade requires the estimate to clear the *next* band's threshold
//!    by an up-margin for a dwell count of consecutive packets, while a
//!    downgrade fires as soon as the estimate falls a down-margin below
//!    the *current* band's threshold. The asymmetric margins are what
//!    keep the controller from flapping when the SNR sits on a band
//!    edge.
//! 2. [`BudgetSearch`] — the silence-budget machine shaped like RFC
//!    8899's PLPMTU search (Datagram Packetization-Layer Path MTU
//!    Discovery): probe one silent-symbol step above the last confirmed
//!    budget, treat a [`crate::resilience::ControlArq`] ACK of the
//!    probing packet as confirmation, count consecutive unconfirmed
//!    probes against `MAX_PROBES`, converge to `SEARCH_COMPLETE` at the
//!    largest confirmed budget, and drop to `ERROR` when feedback goes
//!    stale. A rate-band change restarts the search from its base — a new
//!    band means a new silence margin — and `ERROR` entry drops the rate
//!    to the slowest ([`RateStaircase::fallback`]).
//!
//! [`LinkAdaptationController`] composes the two behind a single
//! [`observe`](LinkAdaptationController::observe) call per packet. The
//! controller is a pure state machine over its inputs: no clocks, no
//! RNG, no floats beyond the EWMA (whose update order is fixed by the
//! packet sequence). Two sessions fed the same `(snr, ack)` sequence
//! hold bit-identical state — the property the engine's differential
//! tests and `gate adaptation` pin (see `docs/ADAPTATION.md`).

use crate::budget::{BudgetEvent, BudgetSearch, LinkMode, PacketObservation};
use cos_phy::rates::DataRate;

// The staircase's constants, calibrated against the simulated indoor
// channel (`docs/ADAPTATION.md` gives the reasoning behind each value).
// The budget machine's are `crate::budget`'s; its ceiling is per
// session: `SessionConfig::max_budget`.

/// EWMA smoothing factor in `(0, 1]` for the SNR estimate; higher tracks
/// faster, lower smooths harder.
pub const SNR_ALPHA: f64 = 0.25;
/// Extra dB the EWMA must clear *above the next faster rate's* minimum
/// SNR before an upgrade is considered.
pub const UP_MARGIN_DB: f64 = 1.5;
/// dB the EWMA must fall *below the current rate's* minimum SNR before a
/// downgrade fires.
pub const DOWN_MARGIN_DB: f64 = 0.5;
/// Consecutive packets the upgrade condition must hold before the
/// staircase steps up one band.
pub const UP_DWELL: u32 = 2;

/// Exponentially weighted moving average over measured per-frame SNR.
///
/// The first observation initialises the average directly (no warm-up
/// bias); [`reset`](SnrEstimator::reset) returns to the uninitialised
/// state, which is how a fallback forgets a stale channel estimate. The
/// smoothing factor is [`SNR_ALPHA`].
#[derive(Debug, Clone, Default)]
pub struct SnrEstimator {
    ewma: Option<f64>,
}

impl SnrEstimator {
    /// Creates an estimator with no observation yet.
    pub fn new() -> Self {
        SnrEstimator::default()
    }

    /// Folds one measured SNR into the average and returns the updated
    /// estimate.
    pub fn observe(&mut self, measured_snr_db: f64) -> f64 {
        let next = match self.ewma {
            Some(prev) => prev + SNR_ALPHA * (measured_snr_db - prev),
            None => measured_snr_db,
        };
        self.ewma = Some(next);
        next
    }

    /// The current estimate, or `None` before the first observation.
    pub fn value(&self) -> Option<f64> {
        self.ewma
    }

    /// Forgets the estimate (used on fallback).
    pub fn reset(&mut self) {
        self.ewma = None;
    }
}

/// What the staircase did with one SNR observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaircaseEvent {
    /// No transition.
    Hold,
    /// First feedback after a reset: the rate snapped straight to the
    /// stair-case selection for the measured SNR.
    Acquire,
    /// Stepped up one band (dwell + up-margin satisfied).
    Upgrade,
    /// Dropped to the stair-case selection for the degraded estimate.
    Downgrade,
    /// Feedback starvation: fell back to the slowest rate.
    Fallback,
}

/// The hysteresis-banded rate state machine.
///
/// States are the 8 bands of [`DataRate::ALL`] plus an *unacquired*
/// flag; transitions are `Acquire` (first estimate → direct stair-case
/// selection), `Upgrade` (one band up after [`UP_DWELL`] consecutive
/// packets clear the next band's threshold + [`UP_MARGIN_DB`]),
/// `Downgrade` (straight to the stair-case selection once the estimate
/// falls [`DOWN_MARGIN_DB`] below the current band), and `Fallback`
/// (external: feedback starvation drops to 6 Mbps, unacquired).
#[derive(Debug, Clone)]
pub struct RateStaircase {
    rate: DataRate,
    streak: u32,
    acquired: bool,
}

impl Default for RateStaircase {
    fn default() -> Self {
        Self::new()
    }
}

impl RateStaircase {
    /// Starts at the slowest rate, unacquired (no SNR estimate yet).
    pub fn new() -> Self {
        RateStaircase { rate: DataRate::Mbps6, streak: 0, acquired: false }
    }

    /// The currently selected rate.
    pub fn rate(&self) -> DataRate {
        self.rate
    }

    /// Whether at least one SNR estimate has been absorbed since the
    /// last reset.
    pub fn acquired(&self) -> bool {
        self.acquired
    }

    /// Feeds one EWMA SNR estimate and returns the transition taken.
    pub fn observe(&mut self, ewma_snr_db: f64) -> StaircaseEvent {
        if !self.acquired {
            self.acquired = true;
            self.streak = 0;
            let selected = DataRate::select(ewma_snr_db);
            let event =
                if selected == self.rate { StaircaseEvent::Hold } else { StaircaseEvent::Acquire };
            self.rate = selected;
            return event;
        }
        if ewma_snr_db < self.rate.min_snr_db() - DOWN_MARGIN_DB {
            let target = DataRate::select(ewma_snr_db);
            if target < self.rate {
                self.rate = target;
                self.streak = 0;
                return StaircaseEvent::Downgrade;
            }
        }
        if let Some(next) = self.rate.faster() {
            if ewma_snr_db >= next.min_snr_db() + UP_MARGIN_DB {
                self.streak += 1;
                if self.streak >= UP_DWELL {
                    self.rate = next;
                    self.streak = 0;
                    return StaircaseEvent::Upgrade;
                }
            } else {
                self.streak = 0;
            }
        }
        StaircaseEvent::Hold
    }

    /// Drops to the slowest rate and forgets acquisition — the reaction
    /// to feedback starvation.
    pub fn fallback(&mut self) -> StaircaseEvent {
        self.rate = DataRate::Mbps6;
        self.streak = 0;
        self.acquired = false;
        StaircaseEvent::Fallback
    }
}

/// The transitions both state machines took for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptationEvents {
    /// The rate staircase's transition.
    pub staircase: StaircaseEvent,
    /// The budget machine's transition.
    pub probe: BudgetEvent,
}

/// Per-session closed-loop controller: EWMA SNR estimator feeding the
/// rate staircase, with the silence-budget machine slaved to the
/// selected band.
///
/// Call order per packet: read [`rate`](Self::rate) and
/// [`target_budget`](Self::target_budget) *before* transmitting, then
/// feed the packet's outcome to [`observe`](Self::observe). The
/// controller is deterministic: its state is a pure function of the
/// observation sequence.
#[derive(Debug, Clone)]
pub struct LinkAdaptationController {
    snr: SnrEstimator,
    staircase: RateStaircase,
    budget: BudgetSearch,
    /// Externally imposed rate ceiling (e.g. an AP coordination
    /// command); `None` leaves the staircase uncapped.
    rate_cap: Option<DataRate>,
}

impl LinkAdaptationController {
    /// Creates a controller in its reset state: slowest rate, base
    /// silence budget, no SNR estimate; the budget search climbs to
    /// `max_budget` (floored at [`crate::budget::BASE_BUDGET`]).
    pub fn new(max_budget: usize) -> Self {
        LinkAdaptationController {
            snr: SnrEstimator::new(),
            staircase: RateStaircase::new(),
            budget: BudgetSearch::new(max_budget),
            rate_cap: None,
        }
    }

    /// The rate the next packet should use: the staircase's selection,
    /// clamped to any externally imposed [`rate cap`](Self::set_rate_cap).
    pub fn rate(&self) -> DataRate {
        let rate = self.staircase.rate();
        match self.rate_cap {
            Some(cap) if cap < rate => cap,
            _ => rate,
        }
    }

    /// Imposes (or with `None` lifts) an external rate ceiling, e.g. an
    /// AP coordination command pinning a persistently poor station to a
    /// robust rate. The staircase keeps tracking the channel underneath —
    /// only [`rate`](Self::rate) is clamped — so lifting the cap restores
    /// the staircase's own selection instantly.
    pub fn set_rate_cap(&mut self, cap: Option<DataRate>) {
        self.rate_cap = cap;
    }

    /// The external rate ceiling in force, if any.
    pub fn rate_cap(&self) -> Option<DataRate> {
        self.rate_cap
    }

    /// Retargets the silence-budget ceiling (see
    /// [`BudgetSearch::set_ceiling`]) — how an AP budget grant widens or
    /// narrows the search space mid-session.
    pub fn set_budget_ceiling(&mut self, ceiling: usize) {
        self.budget.set_ceiling(ceiling);
    }

    /// The silence budget the next packet should carry.
    pub fn target_budget(&self) -> usize {
        self.budget.target_budget()
    }

    /// The budget machine (read-only): its state and ceiling.
    pub fn budget(&self) -> &BudgetSearch {
        &self.budget
    }

    /// The EWMA SNR estimate, or `None` before any feedback arrived.
    pub fn ewma_snr_db(&self) -> Option<f64> {
        self.snr.value()
    }

    /// Feeds the outcome of one of the session's packets.
    ///
    /// * `measured_snr_db` — the per-frame SNR carried by the EVM
    ///   feedback report, or `None` when the report was lost.
    /// * `acked` — whether the control message this packet carried was
    ///   recovered and its ACK delivered.
    /// * `carried_full_budget` — whether the packet actually embedded
    ///   the full [`target_budget`](Self::target_budget) silences. When
    ///   a short frame clamps the budget (see
    ///   [`CosSession::send_packet_adaptive_summary`](crate::session::CosSession::send_packet_adaptive_summary)),
    ///   the outcome says nothing about the probed budget, so the search
    ///   ignores it.
    pub fn observe(
        &mut self,
        measured_snr_db: Option<f64>,
        acked: bool,
        carried_full_budget: bool,
    ) -> AdaptationEvents {
        let mut staircase = StaircaseEvent::Hold;
        let mut band_changed = false;
        if let Some(snr_db) = measured_snr_db {
            let ewma = self.snr.observe(snr_db);
            let before = self.staircase.rate();
            staircase = self.staircase.observe(ewma);
            band_changed = self.staircase.rate() != before;
        }
        let probe = if band_changed && self.budget.mode() == LinkMode::Cos {
            // The silence margin moved, so the ack (earned in the old
            // band) confirms nothing: the search restarts instead of
            // absorbing it.
            self.budget.restart()
        } else {
            let obs = PacketObservation {
                feedback_fresh: measured_snr_db.is_some(),
                control_attempted: carried_full_budget,
                control_ok: acked,
            };
            self.budget.observe(obs)
        };
        // The one miss rule: ERROR entry drops to the slowest rate.
        if probe.enters_error() && (self.staircase.acquired() || self.staircase.rate() != DataRate::Mbps6) {
            staircase = self.staircase.fallback();
            self.snr.reset();
        }
        AdaptationEvents { staircase, probe }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{BudgetEvent, BudgetState};

    /// The default session's probe ceiling.
    const MAX: usize = 46;

    #[test]
    fn estimator_first_observation_initialises_directly() {
        let mut e = SnrEstimator::new();
        assert_eq!(e.value(), None);
        assert_eq!(e.observe(20.0), 20.0);
        // 20 + 0.25·(24 − 20) = 21.
        assert_eq!(e.observe(24.0), 21.0);
        e.reset();
        assert_eq!(e.value(), None);
    }

    #[test]
    fn staircase_acquires_directly_then_steps() {
        let mut s = RateStaircase::new();
        assert_eq!(s.rate(), DataRate::Mbps6);
        assert_eq!(s.observe(17.0), StaircaseEvent::Acquire);
        assert_eq!(s.rate(), DataRate::Mbps36); // select(17) = 36 Mbps (min 16.5)
        // Upgrade to 48 Mbps (min 20.5) needs ≥ 22.0 for UP_DWELL = 2 packets.
        assert_eq!(s.observe(22.5), StaircaseEvent::Hold);
        assert_eq!(s.observe(22.5), StaircaseEvent::Upgrade);
        assert_eq!(s.rate(), DataRate::Mbps48);
    }

    #[test]
    fn staircase_downgrade_is_immediate_and_multi_band() {
        let mut s = RateStaircase::new();
        s.observe(23.0);
        assert_eq!(s.rate(), DataRate::Mbps54);
        // A collapse straight past several bands downgrades in one step.
        assert_eq!(s.observe(9.0), StaircaseEvent::Downgrade);
        assert_eq!(s.rate(), DataRate::Mbps12); // select(9) = 12 Mbps (min 8.0)
    }

    /// The ISSUE's hysteresis requirement: an SNR oscillating ±ε around
    /// a band edge must not flap the rate in either direction.
    #[test]
    fn staircase_does_not_flap_across_a_band_edge() {
        let edge = DataRate::Mbps36.min_snr_db(); // 16.5 dB
        let eps = 0.3; // < both margins (up 1.5 dB, down 0.5 dB)

        // Sitting just below the edge at 24 Mbps: never upgrades.
        let mut below = RateStaircase::new();
        below.observe(edge - eps);
        assert_eq!(below.rate(), DataRate::Mbps24);
        for i in 0..64 {
            let snr = if i % 2 == 0 { edge + eps } else { edge - eps };
            assert_eq!(below.observe(snr), StaircaseEvent::Hold, "packet {i}");
            assert_eq!(below.rate(), DataRate::Mbps24, "packet {i}");
        }

        // Sitting just above the edge at 36 Mbps: never downgrades.
        let mut above = RateStaircase::new();
        above.observe(edge + 2.0); // acquire at 36 Mbps
        assert_eq!(above.rate(), DataRate::Mbps36);
        for i in 0..64 {
            let snr = if i % 2 == 0 { edge + eps } else { edge - eps };
            assert_eq!(above.observe(snr), StaircaseEvent::Hold, "packet {i}");
            assert_eq!(above.rate(), DataRate::Mbps36, "packet {i}");
        }
    }

    #[test]
    fn controller_band_change_restarts_search_and_ignores_ack() {
        let mut c = LinkAdaptationController::new(MAX);
        c.observe(Some(17.0), true, true); // acquire 36 Mbps; ack ignored (band change)
        assert_eq!(c.rate(), DataRate::Mbps36);
        assert_eq!(c.target_budget(), 6); // still the first probe target
        c.observe(Some(17.0), true, true); // no band change: ack confirms 6
        assert_eq!(c.target_budget(), 10);
        // Collapse → downgrade → search restarts from base.
        let ev = c.observe(Some(5.0), true, true);
        assert_eq!(ev.staircase, StaircaseEvent::Downgrade);
        assert_eq!(ev.probe, BudgetEvent::Restarted);
        assert_eq!(c.target_budget(), 6);
        assert_eq!(c.budget().state(), BudgetState::Searching);
    }

    #[test]
    fn feedback_starvation_enters_error_at_the_slowest_rate() {
        let mut c = LinkAdaptationController::new(MAX);
        c.observe(Some(23.0), true, true);
        assert_eq!(c.rate(), DataRate::Mbps54);
        let events: Vec<_> = (1..=4).map(|_| c.observe(None, false, false)).collect();
        let entry = AdaptationEvents {
            staircase: StaircaseEvent::Fallback,
            probe: BudgetEvent::StaleFeedback,
        };
        assert_eq!(events.last(), Some(&entry), "STALE_AFTER misses enter ERROR: {events:?}");
        assert_eq!(c.rate(), DataRate::Mbps6);
        assert_eq!(c.ewma_snr_db(), None);
        assert_eq!(c.budget().state(), BudgetState::Error);
        assert_eq!(c.target_budget(), 0);
        // A report in ERROR re-acquires the rate but not the budget: that
        // waits for the BASE probe.
        let ev = c.observe(Some(23.0), false, true);
        assert_eq!(ev.staircase, StaircaseEvent::Acquire);
        assert_eq!(ev.probe, BudgetEvent::Hold);
        assert_eq!(c.budget().state(), BudgetState::Error);
    }

    #[test]
    fn controller_clamped_packets_do_not_advance_the_search() {
        let mut c = LinkAdaptationController::new(MAX);
        c.observe(Some(17.0), true, true); // acquire
        let before = c.target_budget();
        // A clamped packet (carried_full_budget = false) says nothing
        // about the probe — confirmed and target are untouched.
        c.observe(Some(17.0), true, false);
        c.observe(Some(17.0), false, false);
        assert_eq!(c.target_budget(), before);
    }

    #[test]
    fn rate_cap_clamps_without_disturbing_the_staircase() {
        let mut c = LinkAdaptationController::new(MAX);
        c.observe(Some(23.0), true, true);
        assert_eq!(c.rate(), DataRate::Mbps54);
        c.set_rate_cap(Some(DataRate::Mbps12));
        assert_eq!(c.rate(), DataRate::Mbps12);
        // The staircase keeps tracking underneath: feeding more high-SNR
        // packets changes nothing visible while the cap holds…
        c.observe(Some(23.0), true, true);
        assert_eq!(c.rate(), DataRate::Mbps12);
        // …and lifting the cap restores the staircase's own selection.
        c.set_rate_cap(None);
        assert_eq!(c.rate(), DataRate::Mbps54);
        // A cap above the selection is inert.
        let mut low = LinkAdaptationController::new(MAX);
        low.observe(Some(9.0), true, true); // 12 Mbps
        low.set_rate_cap(Some(DataRate::Mbps54));
        assert_eq!(low.rate(), DataRate::Mbps12);
    }

    #[test]
    fn controller_budget_ceiling_routes_to_the_search() {
        let mut c = LinkAdaptationController::new(MAX);
        c.observe(Some(17.0), true, true); // acquire
        c.observe(Some(17.0), true, true); // confirm 6
        c.set_budget_ceiling(8);
        assert_eq!(c.budget().ceiling(), 8);
        assert_eq!(c.target_budget(), 8); // probe clamped to the grant
    }

    #[test]
    fn controller_state_is_a_pure_function_of_observations() {
        let seq: Vec<(Option<f64>, bool)> = (0..200)
            .map(|i| {
                let snr = 9.0 + (i % 37) as f64 * 0.45;
                (if i % 11 == 3 { None } else { Some(snr) }, i % 5 != 0)
            })
            .collect();
        let run = || {
            let mut c = LinkAdaptationController::new(MAX);
            for &(snr, ack) in &seq {
                c.observe(snr, ack, true);
            }
            (c.rate(), c.target_budget(), c.budget().state(), c.ewma_snr_db().map(f64::to_bits))
        };
        assert_eq!(run(), run());
    }
}
