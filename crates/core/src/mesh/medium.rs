//! Slotted DCF medium arbitration with hidden-terminal barge-in.
//!
//! The scheduler discretises the medium into **ticks**: one tick is one
//! frame exchange (or one idle listen). Inside a tick, contention runs in
//! 802.11a **mini-slots** (9 µs): every contending station holds a
//! residual backoff counter drawn from `[1, CW]`; the stations whose
//! counter hits the minimum `m` transmit first, and everyone else reacts
//! according to what they can *hear* (the [`MeshTopology`] adjacency):
//!
//! * a station that hears a transmitter **freezes** — it decrements by
//!   `m` and defers, exactly like a DCF counter pausing on a busy medium;
//! * a station that hears **none** of the transmitters keeps counting
//!   down through the (to it, silent) air. If its residual runs out
//!   before the frame on the air ends, it **barges in mid-frame** — the
//!   hidden-terminal collision, landing at the AP as overlapping energy;
//! * a station with a TDMA assignment ignores backoff entirely and
//!   transmits in its own phase slots — the coordinated regime the AP's
//!   [`CoordinationPolicy`](super::policy::CoordinationPolicy) pushes the
//!   cell into.
//!
//! Transmission outcomes feed back through
//! [`record_tx`](MediumScheduler::record_tx): success resets the
//! contention window to `CW_min`, failure doubles it up to `CW_max`
//! (binary exponential backoff), and a fresh counter is drawn from the
//! station's own seeded stream. Draws are never zero, so every contending
//! station's counter strictly decreases while it waits — no station can
//! be starved forever by luck of the draw.
//!
//! Everything is integer mini-slot arithmetic on seeded SplitMix64
//! streams: arbitration is a pure function of (seed, history), which is
//! what lets the mesh replay byte-identically at any thread count.

use super::topology::MeshTopology;
use cos_dsp::rng::splitmix64;

/// One DCF mini-slot (the 802.11a slot time), in microseconds.
pub const MINISLOT_US: f64 = 9.0;

// The contention windows are deliberately smaller than 802.11a's
// 15/1023: a simulated cell of tens of stations should exhibit contention
// within hundreds of ticks, not tens of thousands.

/// Initial (and post-success) contention window, in mini-slots.
pub const CW_MIN: u32 = 8;

/// Upper clamp of the binary exponential backoff, in mini-slots.
pub const CW_MAX: u32 = 64;

/// Per-station medium state.
#[derive(Debug, Clone, Copy)]
struct StationMedium {
    /// Residual backoff counter, in mini-slots.
    backoff: u64,
    /// Current contention window.
    cw: u32,
    /// SplitMix64 stream state for backoff draws.
    rng: u64,
    /// Station idles while `tick < muted_until`.
    muted_until: u64,
    /// TDMA assignment: transmit when `tick % period == phase`.
    tdma: Option<(u8, u8)>,
    attempts: u64,
    collisions: u64,
    defers: u64,
}

/// One planned transmission within a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotTx {
    /// The transmitting station.
    pub station: usize,
    /// Mini-slot offset (from the end of contention) at which its frame
    /// starts. `0` for contention winners and TDMA owners; a positive
    /// offset marks a hidden terminal barging in mid-frame.
    pub start_minislot: u64,
}

/// The arbiter's plan for one tick.
#[derive(Debug, Clone, Default)]
pub struct SlotPlan {
    /// Stations transmitting this tick, with their start offsets, in the
    /// deterministic order the arbiter admitted them.
    pub transmitters: Vec<SlotTx>,
    /// Stations that froze their counter because they heard a
    /// transmitter.
    pub deferred: Vec<usize>,
    /// Mini-slots of contention before the first frame started.
    pub wait_minislots: u64,
    /// Mini-slots from the first frame's start to the last frame's end
    /// (0 on an idle tick).
    pub span_minislots: u64,
}

impl SlotPlan {
    /// True when nobody transmitted this tick.
    pub fn is_idle(&self) -> bool {
        self.transmitters.is_empty()
    }
}

/// The slotted DCF arbiter for one cell. See the module docs for the
/// arbitration rules.
#[derive(Debug, Clone)]
pub struct MediumScheduler {
    seed: u64,
    stations: Vec<StationMedium>,
    /// Scratch: (residual, station) of non-winning contenders.
    scratch: Vec<(u64, usize)>,
}

impl MediumScheduler {
    /// An arbiter for `n` stations, each with its own draw stream mixed
    /// from `seed`.
    pub fn new(n: usize, seed: u64) -> Self {
        let mut s = MediumScheduler { seed, stations: Vec::with_capacity(n), scratch: Vec::new() };
        for i in 0..n {
            s.stations.push(s.fresh_station(i, 0));
        }
        s
    }

    fn fresh_station(&self, station: usize, generation: u64) -> StationMedium {
        let mut rng = splitmix64(self.seed ^ splitmix64(station as u64 ^ splitmix64(generation)));
        let backoff = draw(&mut rng, CW_MIN);
        StationMedium {
            backoff,
            cw: CW_MIN,
            rng,
            muted_until: 0,
            tdma: None,
            attempts: 0,
            collisions: 0,
            defers: 0,
        }
    }

    /// Number of stations.
    pub fn n_stations(&self) -> usize {
        self.stations.len()
    }

    /// Plans tick `tick`: who transmits, at which offset, who defers.
    /// `frame_minislots[i]` is the airtime of station `i`'s next frame in
    /// mini-slots (its rate and payload are the caller's business).
    /// Mutates backoff counters; outcomes are reported back later via
    /// [`record_tx`](Self::record_tx).
    pub fn arbitrate(
        &mut self,
        tick: u64,
        topo: &MeshTopology,
        frame_minislots: &[u64],
    ) -> SlotPlan {
        let mut plan = SlotPlan::default();
        self.arbitrate_into(tick, topo, frame_minislots, &mut plan);
        plan
    }

    /// [`arbitrate`](Self::arbitrate) into a caller-owned plan
    /// (allocation reuse for large cells).
    pub fn arbitrate_into(
        &mut self,
        tick: u64,
        topo: &MeshTopology,
        frame_minislots: &[u64],
        plan: &mut SlotPlan,
    ) {
        let n = self.stations.len();
        assert_eq!(frame_minislots.len(), n, "one frame length per station");
        assert_eq!(topo.n_stations(), n, "topology/scheduler size mismatch");
        plan.transmitters.clear();
        plan.deferred.clear();
        plan.wait_minislots = 0;
        plan.span_minislots = 0;

        // Split the eligible stations: TDMA owners of this tick transmit
        // outright; unassigned stations contend by backoff. Muted
        // stations and TDMA stations waiting for their phase sit out.
        self.scratch.clear();
        let mut min_backoff = u64::MAX;
        let mut has_owner = false;
        for (i, st) in self.stations.iter().enumerate() {
            if tick < st.muted_until {
                continue;
            }
            match st.tdma {
                Some((phase, period)) => {
                    if tick % period as u64 == phase as u64 {
                        plan.transmitters.push(SlotTx { station: i, start_minislot: 0 });
                        has_owner = true;
                    }
                }
                None => {
                    min_backoff = min_backoff.min(st.backoff);
                    self.scratch.push((st.backoff, i));
                }
            }
        }

        // Contention wait: zero when a TDMA owner seizes the tick start,
        // else the minimum counter among contenders.
        let m = if has_owner {
            0
        } else if min_backoff != u64::MAX {
            min_backoff
        } else {
            return; // everyone muted or waiting out a TDMA phase
        };

        if !has_owner {
            // Contention winners: counters that hit the minimum together.
            self.scratch.retain(|&(backoff, i)| {
                if backoff == m {
                    plan.transmitters.push(SlotTx { station: i, start_minislot: 0 });
                    false
                } else {
                    true
                }
            });
            if plan.transmitters.is_empty() {
                return; // no owner and no contenders
            }
        }
        plan.wait_minislots = m;
        let mut span: u64 = plan
            .transmitters
            .iter()
            .map(|tx| frame_minislots[tx.station])
            .max()
            .unwrap_or(0);

        // Remaining contenders, in ascending (residual, index) order:
        // hearers freeze, hidden stations barge in or count through.
        for &mut (backoff, _) in &mut self.scratch {
            debug_assert!(backoff >= m);
        }
        self.scratch.sort_unstable();
        // `scratch` is borrowed around the loop, so collect mutations.
        let mut joined_span = span;
        let scratch = std::mem::take(&mut self.scratch);
        for &(backoff, i) in &scratch {
            let residual = backoff - m;
            let hears_a_transmitter =
                plan.transmitters.iter().any(|tx| topo.hears(i, tx.station));
            let st = &mut self.stations[i];
            if hears_a_transmitter {
                // Carrier sensed: freeze the counter at its residual.
                st.backoff = residual.max(1);
                st.defers += 1;
                plan.deferred.push(i);
            } else if residual <= joined_span {
                // Hidden from everyone on the air: the counter ran out
                // mid-frame — barge in at that offset.
                plan.transmitters.push(SlotTx { station: i, start_minislot: residual });
                joined_span = joined_span.max(residual + frame_minislots[i]);
            } else {
                // Hidden, but the counter outlasted the tick: it kept
                // counting through the whole (to it, idle) air.
                st.backoff = residual - joined_span;
            }
        }
        self.scratch = scratch;
        span = joined_span;
        plan.span_minislots = span;
    }

    /// Reports the outcome of station `i`'s transmission this tick:
    /// success resets the contention window, failure doubles it
    /// (binary exponential backoff); either way a fresh counter is drawn.
    pub fn record_tx(&mut self, i: usize, success: bool) {
        let st = &mut self.stations[i];
        st.attempts += 1;
        st.cw = if success { CW_MIN } else { (st.cw.saturating_mul(2)).min(CW_MAX) };
        st.backoff = draw(&mut st.rng, st.cw);
    }

    /// Counts a collision (overlapped transmission) against station `i`.
    pub fn record_collision(&mut self, i: usize) {
        self.stations[i].collisions += 1;
    }

    /// Mutes station `i` until `until_tick` (admission quiet time).
    pub fn mute(&mut self, i: usize, until_tick: u64) {
        self.stations[i].muted_until = until_tick;
    }

    /// Lifts any mute on station `i`.
    pub fn unmute(&mut self, i: usize) {
        self.stations[i].muted_until = 0;
    }

    /// Is station `i` muted at `tick`?
    pub fn is_muted(&self, i: usize, tick: u64) -> bool {
        tick < self.stations[i].muted_until
    }

    /// Assigns (or clears) a TDMA slot: station `i` transmits when
    /// `tick % period == phase`.
    ///
    /// # Panics
    ///
    /// Panics if `phase >= period`.
    pub fn set_tdma(&mut self, i: usize, assignment: Option<(u8, u8)>) {
        if let Some((phase, period)) = assignment {
            assert!(phase < period, "TDMA phase must be below its period");
        }
        self.stations[i].tdma = assignment;
    }

    /// Station `i`'s TDMA assignment, if any.
    pub fn tdma(&self, i: usize) -> Option<(u8, u8)> {
        self.stations[i].tdma
    }

    /// Transmissions station `i` started (including collided ones).
    pub fn attempts(&self, i: usize) -> u64 {
        self.stations[i].attempts
    }

    /// Overlapped transmissions recorded against station `i`.
    pub fn collisions(&self, i: usize) -> u64 {
        self.stations[i].collisions
    }

    /// Ticks station `i` spent frozen behind a sensed carrier.
    pub fn defers(&self, i: usize) -> u64 {
        self.stations[i].defers
    }

    /// Replaces station `i` with a fresh one (churn): new draw stream
    /// (mixed from `generation`), `CW_min`, no mute, no TDMA, zeroed
    /// counters.
    pub fn reset_station(&mut self, i: usize, generation: u64) {
        self.stations[i] = self.fresh_station(i, generation);
    }

    /// Test hook: pins station `i`'s residual backoff counter.
    pub fn set_backoff(&mut self, i: usize, minislots: u64) {
        self.stations[i].backoff = minislots.max(1);
    }
}

/// A backoff draw in `[1, cw]` — never zero, so waiting counters always
/// make progress and no station starves.
fn draw(rng: &mut u64, cw: u32) -> u64 {
    *rng = splitmix64(*rng);
    1 + *rng % cw as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: usize, len: u64) -> Vec<u64> {
        vec![len; n]
    }

    #[test]
    fn single_station_always_wins_after_its_backoff() {
        let topo = MeshTopology::fully_connected(1, 20.0);
        let mut s = MediumScheduler::new(1, 7);
        let plan = s.arbitrate(0, &topo, &frames(1, 100));
        assert_eq!(plan.transmitters, vec![SlotTx { station: 0, start_minislot: 0 }]);
        assert!(plan.wait_minislots >= 1, "draws are never zero");
        assert_eq!(plan.span_minislots, 100);
    }

    #[test]
    fn mutual_hearers_defer_instead_of_colliding() {
        let topo = MeshTopology::fully_connected(2, 20.0);
        let mut s = MediumScheduler::new(2, 3);
        s.set_backoff(0, 2);
        s.set_backoff(1, 5);
        let plan = s.arbitrate(0, &topo, &frames(2, 100));
        assert_eq!(plan.transmitters, vec![SlotTx { station: 0, start_minislot: 0 }]);
        assert_eq!(plan.deferred, vec![1]);
        assert_eq!(s.defers(1), 1);
        // The loser's counter decremented by the winner's wait.
        s.set_backoff(0, 10);
        let plan = s.arbitrate(1, &topo, &frames(2, 100));
        assert_eq!(plan.transmitters, vec![SlotTx { station: 1, start_minislot: 0 }]);
        assert_eq!(plan.wait_minislots, 3);
    }

    #[test]
    fn hidden_station_barges_in_mid_frame() {
        // A(0) ⊥ B(1) hidden; C(2) hears A. A wins at m=1, C freezes,
        // B's counter runs out 2 mini-slots into A's frame.
        let mut topo = MeshTopology::fully_connected(3, 20.0);
        topo.hide_pair(0, 1);
        let mut s = MediumScheduler::new(3, 1);
        s.set_backoff(0, 1);
        s.set_backoff(1, 3);
        s.set_backoff(2, 2);
        let plan = s.arbitrate(0, &topo, &frames(3, 100));
        assert_eq!(
            plan.transmitters,
            vec![
                SlotTx { station: 0, start_minislot: 0 },
                SlotTx { station: 1, start_minislot: 2 },
            ]
        );
        assert_eq!(plan.deferred, vec![2]);
        assert_eq!(plan.wait_minislots, 1);
        assert_eq!(plan.span_minislots, 102, "barging frame extends the tick");
    }

    #[test]
    fn hidden_station_with_long_counter_counts_through() {
        let mut topo = MeshTopology::fully_connected(2, 20.0);
        topo.hide_pair(0, 1);
        let mut s = MediumScheduler::new(2, 1);
        s.set_backoff(0, 1);
        s.set_backoff(1, 500); // outlasts the 100-minislot frame
        let plan = s.arbitrate(0, &topo, &frames(2, 100));
        assert_eq!(plan.transmitters.len(), 1);
        assert!(plan.deferred.is_empty());
        // 500 - 1 (wait) - 100 (frame it never heard) = 399.
        s.set_backoff(0, 1000);
        let plan = s.arbitrate(1, &topo, &frames(2, 100));
        assert_eq!(plan.wait_minislots, 399);
    }

    #[test]
    fn tdma_owner_seizes_its_phase_and_others_freeze() {
        let topo = MeshTopology::fully_connected(2, 20.0);
        let mut s = MediumScheduler::new(2, 9);
        s.set_tdma(0, Some((1, 4)));
        s.set_backoff(1, 7);
        // Tick 1 is station 0's phase: it owns the tick, station 1 hears
        // it and freezes without progress (m = 0).
        let plan = s.arbitrate(1, &topo, &frames(2, 50));
        assert_eq!(plan.transmitters, vec![SlotTx { station: 0, start_minislot: 0 }]);
        assert_eq!(plan.deferred, vec![1]);
        assert_eq!(plan.wait_minislots, 0);
        // Tick 2 is nobody's phase: station 1 contends alone.
        let plan = s.arbitrate(2, &topo, &frames(2, 50));
        assert_eq!(plan.transmitters, vec![SlotTx { station: 1, start_minislot: 0 }]);
    }

    #[test]
    fn muted_station_sits_out_until_expiry() {
        let topo = MeshTopology::fully_connected(1, 20.0);
        let mut s = MediumScheduler::new(1, 5);
        s.mute(0, 3);
        assert!(s.is_muted(0, 2));
        assert!(s.arbitrate(2, &topo, &frames(1, 10)).is_idle());
        assert!(!s.is_muted(0, 3));
        assert!(!s.arbitrate(3, &topo, &frames(1, 10)).is_idle());
    }

    #[test]
    fn backoff_doubles_on_failure_and_resets_on_success() {
        let mut s = MediumScheduler::new(1, 2);
        let mut cw = CW_MIN;
        for _ in 0..10 {
            s.record_tx(0, false);
            cw = (cw * 2).min(CW_MAX);
            assert_eq!(s.stations[0].cw, cw, "doubles, clamped at CW_MAX");
        }
        assert_eq!(s.stations[0].cw, CW_MAX);
        s.record_tx(0, true);
        assert_eq!(s.stations[0].cw, CW_MIN);
        assert!(s.stations[0].backoff >= 1);
    }

    #[test]
    fn saturated_csma_cell_starves_nobody() {
        let topo = MeshTopology::fully_connected(5, 20.0);
        let mut s = MediumScheduler::new(5, 11);
        for tick in 0..200 {
            let plan = s.arbitrate(tick, &topo, &frames(5, 120));
            let collided = plan.transmitters.len() > 1;
            for tx in &plan.transmitters {
                s.record_tx(tx.station, !collided);
            }
        }
        for i in 0..5 {
            assert!(s.attempts(i) > 0, "station {i} never transmitted");
        }
    }

    #[test]
    fn reset_station_clears_tdma_mute_and_counters() {
        let mut s = MediumScheduler::new(2, 4);
        s.set_tdma(1, Some((0, 2)));
        s.mute(1, 100);
        s.record_tx(1, false);
        s.reset_station(1, 1);
        assert_eq!(s.tdma(1), None);
        assert!(!s.is_muted(1, 0));
        assert_eq!(s.attempts(1), 0);
        assert_eq!(s.stations[1].cw, CW_MIN);
    }

    #[test]
    fn arbitration_is_deterministic() {
        let topo = MeshTopology::hidden_clusters(6, 2, 20.0);
        let run = || {
            let mut s = MediumScheduler::new(6, 21);
            let mut log = Vec::new();
            for tick in 0..100 {
                let plan = s.arbitrate(tick, &topo, &frames(6, 90));
                let collided = plan.transmitters.len() > 1;
                for tx in &plan.transmitters {
                    log.push((tick, tx.station, tx.start_minislot));
                    s.record_tx(tx.station, !collided);
                }
            }
            log
        };
        assert_eq!(run(), run());
    }
}
