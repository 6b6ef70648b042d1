//! The cell itself: stations as pooled sessions, one tick per medium
//! slot, byte-identical at any thread count.
//!
//! [`MeshNet`] owns a [`SessionPool`] + [`BatchEngine`] and any number of
//! independent cells. Each station is **two** sessions:
//!
//! * a **data session** on the adaptive path (uplink traffic, rate
//!   staircase + silence-budget probing, periodic uplink control
//!   messages riding its session's ARQ queue), and
//! * a **control subsession** on the resilient path, pinned to a robust
//!   base rate — the model of the AP's beacon downlink, whose CoS
//!   silences carry the [`MeshCommand`]s and whose
//!   [`ControlArq`](crate::resilience::ControlArq) makes them reliable.
//!
//! One [`step`](MeshNet::step) is one medium tick, in four strictly
//! ordered phases:
//!
//! 1. **Arbitrate + submit** (sequential per cell): beacon ticks submit
//!    one resilient control frame per station with queued commands; data
//!    ticks run the [`MediumScheduler`] and submit one adaptive frame
//!    per planned transmitter, with an [`OverlapComposer`] attached for
//!    exactly the interferers the plan says overlap it.
//! 2. **Drain** — one parallel [`BatchEngine::drain_into`] across every
//!    cell. Sessions are independent, so this is the only parallel part
//!    and is byte-identical at any `COS_THREADS`.
//! 3. **Apply** (sequential, submit order): scheduler feedback, command
//!    ARQ reconciliation (commands take effect only when their delivery
//!    is confirmed), stats and the running FNV digest.
//! 4. **Policy** (sequential per cell): the [`CoordinationPolicy`]
//!    observes the tick and queues any new commands.
//!
//! Determinism contract: phases 1, 3 and 4 are single-threaded over
//! `Vec`s in fixed order; every seed is a pure SplitMix64 function of
//! (cell seed, station, generation); floating-point accumulation order is
//! fixed. The [`digest`](MeshNet::digest) folds every outcome, command
//! and churn event — two runs agree iff their digests agree.

use super::medium::{MediumScheduler, SlotPlan, MINISLOT_US};
use super::policy::{CoordinationPolicy, MeshCommand, SlotResult};
use super::topology::MeshTopology;
use crate::engine::{
    BatchEngine, EngineConfig, JobOutcome, JobResult, PayloadId, SessionPool,
};
use crate::session::{
    AdaptiveSummary, Fnv, ResilientSummary, SessionConfig, SessionMetrics, BITS_PER_INTERVAL,
};
use cos_channel::{FaultEngine, Overlap, OverlapComposer};
use cos_dsp::rng::splitmix64;
use cos_phy::frame::MAX_PAYLOAD_LEN;
use cos_phy::rates::DataRate;
use std::collections::VecDeque;

use crate::engine::SessionId;

/// Airtime charged for a tick in which nobody transmitted (a DIFS of
/// idle listening), in microseconds.
const IDLE_TICK_US: f64 = 34.0;

/// SIFS + ACK overhead charged per busy tick, in microseconds.
const ACK_OVERHEAD_US: f64 = 50.0;

/// Beacon (control downlink) payload, in bytes.
pub const BEACON_PAYLOAD_LEN: usize = 64;

/// Beacon cadence: command-carrying beacon ticks happen when
/// `tick % BEACON_PERIOD == 0` and commands are pending.
pub const BEACON_PERIOD: u64 = 8;

/// Fixed rate of the control subsessions (beacons).
pub const CTL_RATE: DataRate = DataRate::Mbps6;

/// Length of the periodic uplink control message each station rides on
/// its own frames, in bits (whole k = 4 intervals).
pub const UPLINK_CONTROL_BITS: usize = 8;
const _: () = assert!(UPLINK_CONTROL_BITS.is_multiple_of(BITS_PER_INTERVAL));

/// A station queues an uplink control message every this many of its own
/// transmissions (when its queue is drained).
pub const UPLINK_CONTROL_EVERY: u64 = 4;

/// The ARQ retry bound of both station sessions: generous, so uplink
/// control survives contention. The control subsession retries on the
/// next beacon (the ARQ backs off one packet first).
pub const STATION_ARQ_MAX_RETRIES: u32 = 32;

/// Configuration of one mesh cell.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Cell seed — every per-station seed is mixed from it.
    pub seed: u64,
    /// Whether the AP runs the [`CoordinationPolicy`]; `false` runs the
    /// uncoordinated baseline (pure CSMA, no commands ever).
    pub coordinated: bool,
    /// Uplink data payload per frame, in bytes.
    pub payload_len: usize,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig { seed: 1, coordinated: true, payload_len: 256 }
    }
}

/// One event on a station's data session, in execution order — enough to
/// replay the session stand-alone, byte-identically.
#[derive(Debug, Clone)]
pub enum DataEvent {
    /// `queue_control(bits)` was called.
    QueueControl(
        /// The queued bits.
        Vec<u8>,
    ),
    /// One adaptive frame was sent with exactly these interferers.
    Send {
        /// The overlap specs attached for this frame (possibly empty).
        overlaps: Vec<Overlap>,
        /// What the frame produced.
        summary: AdaptiveSummary,
    },
    /// A delivered command set (or cleared) the rate cap.
    SetRateCap(
        /// The new cap.
        Option<DataRate>,
    ),
    /// A delivered command re-ceilinged the silence-budget search.
    SetBudgetCeiling(
        /// The new ceiling, in silence symbols.
        usize,
    ),
}

/// One event on a station's control subsession, in execution order.
#[derive(Debug, Clone)]
pub enum CtlEvent {
    /// `queue_control(bits)` was called (a command was issued).
    Queue(
        /// The encoded command bits.
        Vec<u8>,
    ),
    /// One resilient beacon frame was sent.
    Send {
        /// What the frame produced.
        summary: ResilientSummary,
    },
}

/// Everything needed to replay one station's two sessions stand-alone:
/// seeds, configs, payloads, and the per-session event streams. Recorded
/// only when the net is built with [`MeshNet::with_trace`].
#[derive(Debug, Clone)]
pub struct StationTrace {
    /// Seed of the data session.
    pub data_seed: u64,
    /// Seed of the control subsession.
    pub ctl_seed: u64,
    /// Config of the data session.
    pub data_config: SessionConfig,
    /// Config of the control subsession.
    pub ctl_config: SessionConfig,
    /// Payload bytes of every data frame.
    pub data_payload: Vec<u8>,
    /// Payload bytes of every beacon frame.
    pub ctl_payload: Vec<u8>,
    /// The data session's events, in execution order.
    pub data_events: Vec<DataEvent>,
    /// The control subsession's events, in execution order.
    pub ctl_events: Vec<CtlEvent>,
}

impl StationTrace {
    fn new(
        data_seed: u64,
        ctl_seed: u64,
        data_config: SessionConfig,
        ctl_config: SessionConfig,
        data_payload: Vec<u8>,
        ctl_payload: Vec<u8>,
    ) -> Self {
        StationTrace {
            data_seed,
            ctl_seed,
            data_config,
            ctl_config,
            data_payload,
            ctl_payload,
            data_events: Vec::new(),
            ctl_events: Vec::new(),
        }
    }
}

/// Per-station snapshot in a [`MeshReport`].
#[derive(Debug, Clone)]
pub struct StationReport {
    /// Station index within its cell.
    pub station: usize,
    /// The data session's counters.
    pub data: SessionMetrics,
    /// The control subsession's counters.
    pub ctl: SessionMetrics,
    /// Transmissions the medium scheduler recorded for it.
    pub attempts: u64,
    /// Overlapped transmissions among them.
    pub collisions: u64,
    /// Ticks spent frozen behind a sensed carrier.
    pub defers: u64,
    /// The adaptive rate currently in force.
    pub rate: DataRate,
    /// The rate cap currently in force, if any.
    pub rate_cap: Option<DataRate>,
    /// The silence budget currently in force.
    pub silence_budget: usize,
    /// The TDMA assignment currently in force, if any.
    pub tdma: Option<(u8, u8)>,
}

/// Aggregate outcome of one cell.
#[derive(Debug, Clone)]
pub struct MeshReport {
    /// Medium ticks simulated.
    pub ticks: u64,
    /// Stations in the cell.
    pub stations: usize,
    /// Whether a coordination policy is attached.
    pub coordinated: bool,
    /// Whether the policy has tripped into its Coordinating phase.
    pub coordinating: bool,
    /// Data frames transmitted.
    pub frames: u64,
    /// Data frames whose CRC passed at the AP.
    pub frames_ok: u64,
    /// Data frames that overlapped another at the AP.
    pub collided_frames: u64,
    /// Ticks in which nobody transmitted.
    pub idle_ticks: u64,
    /// Command-carrying beacon ticks.
    pub beacons: u64,
    /// Stations replaced by churn.
    pub churns: u64,
    /// Total simulated airtime, in microseconds.
    pub airtime_us: f64,
    /// Payload bits delivered (CRC-pass frames).
    pub delivered_bits: u64,
    /// Aggregate goodput: delivered bits over airtime, in Mbps.
    pub goodput_mbps: f64,
    /// Data-frame delivery ratio.
    pub data_prr: f64,
    /// Coordination commands issued (queued on a control ARQ).
    pub cmd_issued: u64,
    /// Commands confirmed delivered through the silence plane.
    pub cmd_delivered: u64,
    /// Commands whose ARQ gave up.
    pub cmd_failed: u64,
    /// Commands dropped because their station churned away.
    pub cmd_dropped: u64,
    /// Uplink control messages confirmed delivered.
    pub uplink_ctl_delivered: u64,
    /// Uplink control messages whose ARQ gave up.
    pub uplink_ctl_failed: u64,
    /// Control-plane delivery ratio over every resolved message —
    /// commands and uplink control combined (1.0 when none resolved).
    pub control_delivery: f64,
    /// Per-station snapshots.
    pub per_station: Vec<StationReport>,
}

#[derive(Debug, Clone, Copy)]
enum SubKind {
    Data { collided: bool },
    Ctl,
}

#[derive(Debug, Clone, Copy)]
struct Sub {
    cell: u32,
    station: u32,
    kind: SubKind,
}

#[derive(Debug)]
struct MeshStation {
    data: SessionId,
    ctl: SessionId,
    generation: u64,
    /// Commands queued on the control ARQ and not yet resolved — the
    /// simulator's FIFO mirror of the ARQ queue (stop-and-wait resolves
    /// strictly in order, at most one message per frame).
    pending_cmds: VecDeque<MeshCommand>,
    ctl_delivered_seen: u64,
    ctl_failed_seen: u64,
    uplink_sent: u64,
    trace: Option<Box<StationTrace>>,
}

#[derive(Debug)]
struct MeshCell {
    cfg: MeshConfig,
    topo: MeshTopology,
    scheduler: MediumScheduler,
    policy: Option<CoordinationPolicy>,
    stations: Vec<MeshStation>,
    payload: PayloadId,
    beacon_payload: PayloadId,
    payload_bytes: Vec<u8>,
    beacon_bytes: Vec<u8>,
    beacon_airtime_us: f64,
    frame_minislots: Vec<u64>,
    plan: SlotPlan,
    ticks: u64,
    frames: u64,
    frames_ok: u64,
    collided_frames: u64,
    idle_ticks: u64,
    beacons: u64,
    churns: u64,
    airtime_us: f64,
    delivered_bits: u64,
    cmd_issued: u64,
    cmd_delivered: u64,
    cmd_failed: u64,
    cmd_dropped: u64,
}

/// The multi-cell mesh simulator. See the module docs for the tick
/// phases and the determinism contract.
#[derive(Debug)]
pub struct MeshNet {
    engine: BatchEngine,
    pool: SessionPool,
    cells: Vec<MeshCell>,
    out: Vec<JobOutcome>,
    subs: Vec<Sub>,
    sub_overlaps: Vec<Vec<Overlap>>,
    results: Vec<Vec<SlotResult>>,
    cmd_scratch: Vec<(usize, MeshCommand)>,
    tick: u64,
    digest: Fnv,
    tracing: bool,
}

impl MeshNet {
    /// An empty net on a fresh engine.
    pub fn new(engine: EngineConfig) -> Self {
        MeshNet {
            engine: BatchEngine::new(engine),
            pool: SessionPool::new(),
            cells: Vec::new(),
            out: Vec::new(),
            subs: Vec::new(),
            sub_overlaps: Vec::new(),
            results: Vec::new(),
            cmd_scratch: Vec::new(),
            tick: 0,
            digest: Fnv::new(),
            tracing: false,
        }
    }

    /// Like [`new`](Self::new), but records a per-station
    /// [`StationTrace`] — the shadow-replay hook the property tests use.
    pub fn with_trace(engine: EngineConfig) -> Self {
        let mut net = Self::new(engine);
        net.tracing = true;
        net
    }

    /// Adds a cell of `topo.n_stations()` stations. Cells are fully
    /// independent (separate spectrum); they exist so one net can shard
    /// a whole fleet of cells across the engine's workers.
    ///
    /// # Panics
    ///
    /// Panics after stepping has begun, on an empty topology, or if
    /// `cfg.payload_len` is longer than one frame carries
    /// ([`MAX_PAYLOAD_LEN`]).
    pub fn add_cell(&mut self, topo: MeshTopology, cfg: MeshConfig) -> usize {
        assert_eq!(self.tick, 0, "add cells before stepping");
        let n = topo.n_stations();
        assert!(n > 0, "a cell needs at least one station");
        assert!(
            cfg.payload_len <= MAX_PAYLOAD_LEN,
            "MeshConfig::payload_len of {} B exceeds the {MAX_PAYLOAD_LEN}-B frame limit",
            cfg.payload_len
        );
        let payload_bytes: Vec<u8> =
            (0..cfg.payload_len).map(|k| (splitmix64(cfg.seed ^ k as u64) & 0xFF) as u8).collect();
        let beacon_bytes: Vec<u8> = (0..BEACON_PAYLOAD_LEN)
            .map(|k| (splitmix64(cfg.seed ^ 0xBEAC ^ (k as u64) << 8) & 0xFF) as u8)
            .collect();
        let payload = self.engine.add_payload(&payload_bytes);
        let beacon_payload = self.engine.add_payload(&beacon_bytes);
        let beacon_airtime_us = CTL_RATE.frame_airtime_us(BEACON_PAYLOAD_LEN + 4) + ACK_OVERHEAD_US;
        let scheduler = MediumScheduler::new(n, splitmix64(cfg.seed ^ 0x5EED));
        let policy = cfg.coordinated.then(|| CoordinationPolicy::new(n));
        let mut cell = MeshCell {
            topo,
            scheduler,
            policy,
            stations: Vec::with_capacity(n),
            payload,
            beacon_payload,
            payload_bytes,
            beacon_bytes,
            beacon_airtime_us,
            frame_minislots: vec![0; n],
            plan: SlotPlan::default(),
            ticks: 0,
            frames: 0,
            frames_ok: 0,
            collided_frames: 0,
            idle_ticks: 0,
            beacons: 0,
            churns: 0,
            airtime_us: 0.0,
            delivered_bits: 0,
            cmd_issued: 0,
            cmd_delivered: 0,
            cmd_failed: 0,
            cmd_dropped: 0,
            cfg,
        };
        for si in 0..n {
            let station = Self::build_station(&mut self.pool, self.tracing, &cell, si, 0);
            cell.stations.push(station);
        }
        self.cells.push(cell);
        self.results.push(Vec::new());
        self.cells.len() - 1
    }

    fn build_station(
        pool: &mut SessionPool,
        tracing: bool,
        cell: &MeshCell,
        si: usize,
        generation: u64,
    ) -> MeshStation {
        let snr = cell.topo.snr_db(si);
        let data_config = data_config(snr);
        let ctl_config = ctl_config(snr);
        let data_seed = station_seed(cell.cfg.seed, si, generation, 0);
        let ctl_seed = station_seed(cell.cfg.seed, si, generation, 1);
        let data = pool.create(data_config.clone(), data_seed);
        let ctl = pool.create(ctl_config.clone(), ctl_seed);
        let trace = tracing.then(|| {
            Box::new(StationTrace::new(
                data_seed,
                ctl_seed,
                data_config,
                ctl_config,
                cell.payload_bytes.clone(),
                cell.beacon_bytes.clone(),
            ))
        });
        MeshStation {
            data,
            ctl,
            generation,
            pending_cmds: VecDeque::new(),
            ctl_delivered_seen: 0,
            ctl_failed_seen: 0,
            uplink_sent: 0,
            trace,
        }
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// The current medium tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The running FNV-1a digest over every outcome, command and churn
    /// event — two runs agree iff their digests agree.
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }

    /// The recorded trace for `(cell, station)`; `None` unless the net
    /// was built with [`with_trace`](Self::with_trace).
    pub fn trace(&self, cell: usize, station: usize) -> Option<&StationTrace> {
        self.cells[cell].stations[station].trace.as_deref()
    }

    /// Runs `ticks` medium ticks.
    pub fn run(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.step();
        }
    }

    /// Advances every cell by one medium tick (see the module docs for
    /// the four phases).
    pub fn step(&mut self) {
        let tick = self.tick;
        self.subs.clear();
        self.sub_overlaps.clear();
        for r in &mut self.results {
            r.clear();
        }

        // Phase 1 — arbitrate + submit, sequential per cell.
        for ci in 0..self.cells.len() {
            let cell = &mut self.cells[ci];
            cell.ticks += 1;
            let beacon_due = tick.is_multiple_of(BEACON_PERIOD)
                && cell.stations.iter().any(|s| !s.pending_cmds.is_empty());
            if beacon_due {
                // The AP owns the medium for this tick: one beacon per
                // station with pending commands, each carrying its ARQ
                // head as CoS silences. No data contention underneath.
                cell.beacons += 1;
                cell.airtime_us += cell.beacon_airtime_us;
                for si in 0..cell.stations.len() {
                    if cell.stations[si].pending_cmds.is_empty() {
                        continue;
                    }
                    self.engine.submit_resilient(cell.stations[si].ctl, cell.beacon_payload);
                    self.subs.push(Sub { cell: ci as u32, station: si as u32, kind: SubKind::Ctl });
                    self.sub_overlaps.push(Vec::new());
                }
                cell.plan.transmitters.clear();
                cell.plan.deferred.clear();
                continue;
            }

            // Frame airtimes at each station's current adaptive rate.
            for si in 0..cell.stations.len() {
                let s = self.pool.get(cell.stations[si].data).expect("live data session");
                let rate = s.adaptation_controller().rate();
                let us = rate.frame_airtime_us(cell.cfg.payload_len + 4);
                cell.frame_minislots[si] = (us / MINISLOT_US).ceil() as u64;
            }
            let mut plan = std::mem::take(&mut cell.plan);
            cell.scheduler.arbitrate_into(tick, &cell.topo, &cell.frame_minislots, &mut plan);
            if plan.is_idle() {
                cell.idle_ticks += 1;
                cell.airtime_us += IDLE_TICK_US;
            } else {
                cell.airtime_us +=
                    (plan.wait_minislots + plan.span_minislots) as f64 * MINISLOT_US
                        + ACK_OVERHEAD_US;
                let payload = cell.payload;
                let cell_seed = cell.cfg.seed;
                for k in 0..plan.transmitters.len() {
                    let tx = plan.transmitters[k];
                    // Compose exactly this victim's interferers.
                    let mut comp = OverlapComposer::new();
                    let v_start = tx.start_minislot;
                    let v_len = cell.frame_minislots[tx.station].max(1);
                    for (j, o) in plan.transmitters.iter().enumerate() {
                        if j == k {
                            continue;
                        }
                        let o_len = cell.frame_minislots[o.station].max(1);
                        if o.start_minislot < v_start + v_len
                            && o.start_minislot + o_len > v_start
                        {
                            let frac = o.start_minislot.saturating_sub(v_start) as f64
                                / v_len as f64;
                            comp.push(Overlap::new(
                                cell.topo.snr_db(o.station),
                                frac.clamp(0.0, 1.0),
                                overlap_seed(cell_seed, tick, tx.station, o.station),
                            ));
                        }
                    }
                    let collided = !comp.is_empty();
                    let overlaps = comp.overlaps().to_vec();
                    let st = &mut cell.stations[tx.station];
                    let session = self.pool.get_mut(st.data).expect("live data session");
                    // Periodic uplink control message — the free-rider
                    // traffic whose delivery the experiment scores.
                    if st.uplink_sent.is_multiple_of(UPLINK_CONTROL_EVERY)
                        && session.arq_backlog() == 0
                    {
                        let bits = uplink_bits(tx.station, st.uplink_sent, UPLINK_CONTROL_BITS);
                        if let Some(t) = st.trace.as_mut() {
                            t.data_events.push(DataEvent::QueueControl(bits.clone()));
                        }
                        session.queue_control(bits);
                    }
                    st.uplink_sent += 1;
                    session.set_faults(FaultEngine::new().with(comp));
                    self.engine.submit_adaptive(st.data, payload);
                    self.subs.push(Sub {
                        cell: ci as u32,
                        station: tx.station as u32,
                        kind: SubKind::Data { collided },
                    });
                    self.sub_overlaps.push(overlaps);
                }
            }
            cell.plan = plan;
        }

        // Phase 2 — one parallel drain across every cell.
        self.engine.drain_into(&mut self.pool, &mut self.out);

        // Phase 3 — apply outcomes sequentially, in submit order.
        for k in 0..self.subs.len() {
            let sub = self.subs[k];
            let (ci, si) = (sub.cell as usize, sub.station as usize);
            let result = self.out[k].result;
            match (sub.kind, result) {
                (SubKind::Data { collided }, JobResult::Adaptive(sum)) => {
                    let cell = &mut self.cells[ci];
                    let ok = sum.packet.data_ok;
                    cell.frames += 1;
                    cell.frames_ok += ok as u64;
                    if collided {
                        cell.collided_frames += 1;
                        cell.scheduler.record_collision(si);
                    }
                    cell.scheduler.record_tx(si, ok);
                    if ok {
                        cell.delivered_bits += 8 * cell.cfg.payload_len as u64;
                    }
                    self.results[ci].push(SlotResult { station: si, collided, data_ok: ok });
                    fold_adaptive(&mut self.digest, tick, ci, si, collided, &sum);
                    if let Some(t) = cell.stations[si].trace.as_mut() {
                        t.data_events.push(DataEvent::Send {
                            overlaps: std::mem::take(&mut self.sub_overlaps[k]),
                            summary: sum,
                        });
                    }
                }
                (SubKind::Ctl, JobResult::Resilient(sum)) => {
                    let (ctl_id, data_id) = {
                        let st = &self.cells[ci].stations[si];
                        (st.ctl, st.data)
                    };
                    let stats = self.pool.get(ctl_id).expect("live ctl session").arq_stats();
                    fold_resilient(&mut self.digest, tick, ci, si, &sum);
                    let cell = &mut self.cells[ci];
                    if let Some(t) = cell.stations[si].trace.as_mut() {
                        t.ctl_events.push(CtlEvent::Send { summary: sum });
                    }
                    // Reconcile the command ARQ: stop-and-wait resolves
                    // at most one message per frame, strictly in order.
                    let st = &mut cell.stations[si];
                    let d = stats.delivered - st.ctl_delivered_seen;
                    let f = stats.failed - st.ctl_failed_seen;
                    debug_assert!(d + f <= 1, "one resolution per beacon frame");
                    if d > 0 {
                        st.ctl_delivered_seen = stats.delivered;
                        let cmd = st.pending_cmds.pop_front().expect("delivered cmd was queued");
                        cell.cmd_delivered += 1;
                        fold_event(&mut self.digest, 4, tick, ci, si, 1);
                        match cmd {
                            MeshCommand::RateCap(r) => {
                                let s = self.pool.get_mut(data_id).expect("live data session");
                                s.adaptation_controller_mut().set_rate_cap(Some(r));
                                if let Some(t) = cell.stations[si].trace.as_mut() {
                                    t.data_events.push(DataEvent::SetRateCap(Some(r)));
                                }
                            }
                            MeshCommand::ClearRateCap => {
                                let s = self.pool.get_mut(data_id).expect("live data session");
                                s.adaptation_controller_mut().set_rate_cap(None);
                                if let Some(t) = cell.stations[si].trace.as_mut() {
                                    t.data_events.push(DataEvent::SetRateCap(None));
                                }
                            }
                            MeshCommand::BudgetGrant(b) => {
                                let s = self.pool.get_mut(data_id).expect("live data session");
                                s.adaptation_controller_mut().set_budget_ceiling(b as usize);
                                if let Some(t) = cell.stations[si].trace.as_mut() {
                                    t.data_events.push(DataEvent::SetBudgetCeiling(b as usize));
                                }
                            }
                            medium_cmd => {
                                medium_cmd.apply_to_medium(&mut cell.scheduler, si, tick);
                            }
                        }
                    } else if f > 0 {
                        st.ctl_failed_seen = stats.failed;
                        st.pending_cmds.pop_front().expect("failed cmd was queued");
                        cell.cmd_failed += 1;
                        fold_event(&mut self.digest, 4, tick, ci, si, 0);
                    }
                }
                _ => unreachable!("mesh submits only adaptive data and resilient ctl frames"),
            }
        }

        // Phase 4 — coordination policy, sequential per cell.
        for ci in 0..self.cells.len() {
            if self.cells[ci].policy.is_none() {
                continue;
            }
            let mut cmds = std::mem::take(&mut self.cmd_scratch);
            cmds.clear();
            self.cells[ci]
                .policy
                .as_mut()
                .expect("checked above")
                .observe_slot(tick, &self.results[ci], &mut cmds);
            for &(si, cmd) in &cmds {
                self.issue_command(ci, si, cmd, tick);
            }
            self.cmd_scratch = cmds;
        }

        self.tick += 1;
    }

    /// Queues `cmd` for `station` on its control-plane ARQ: the AP's
    /// next beacon will start carrying it as CoS silences.
    fn issue_command(&mut self, ci: usize, si: usize, cmd: MeshCommand, tick: u64) {
        let bits = cmd.encode();
        let packed = bits.iter().fold(0u64, |acc, &b| (acc << 1) | b as u64);
        let cell = &mut self.cells[ci];
        let st = &mut cell.stations[si];
        if let Some(t) = st.trace.as_mut() {
            t.ctl_events.push(CtlEvent::Queue(bits.clone()));
        }
        self.pool.get_mut(st.ctl).expect("live ctl session").queue_control(bits);
        st.pending_cmds.push_back(cmd);
        cell.cmd_issued += 1;
        fold_event(&mut self.digest, 3, tick, ci, si, packed);
    }

    /// Churn: station `(cell, station)` leaves and a fresh one joins in
    /// its place — new sessions on new seeds, reset medium state, and
    /// (under coordination) the policy's admission sequence.
    pub fn replace_station(&mut self, ci: usize, si: usize) {
        let tick = self.tick;
        {
            let cell = &mut self.cells[ci];
            let old = &mut cell.stations[si];
            self.pool.release(old.data);
            self.pool.release(old.ctl);
            let generation = old.generation + 1;
            cell.cmd_dropped += old.pending_cmds.len() as u64;
            cell.scheduler.reset_station(si, generation);
            cell.churns += 1;
            fold_event(&mut self.digest, 5, tick, ci, si, generation);
        }
        let fresh = {
            let generation = self.cells[ci].stations[si].generation + 1;
            Self::build_station(&mut self.pool, self.tracing, &self.cells[ci], si, generation)
        };
        self.cells[ci].stations[si] = fresh;
        let mut cmds = std::mem::take(&mut self.cmd_scratch);
        cmds.clear();
        if let Some(policy) = self.cells[ci].policy.as_mut() {
            policy.on_station_joined(si, &mut cmds);
        }
        for &(station, cmd) in &cmds {
            self.issue_command(ci, station, cmd, tick);
        }
        self.cmd_scratch = cmds;
    }

    /// Snapshot of cell `ci`'s aggregate and per-station state.
    pub fn report(&self, ci: usize) -> MeshReport {
        let cell = &self.cells[ci];
        let n = cell.stations.len();
        let mut per_station = Vec::with_capacity(n);
        let mut up_del = 0u64;
        let mut up_fail = 0u64;
        for (si, st) in cell.stations.iter().enumerate() {
            let s = self.pool.get(st.data).expect("live data session");
            let metrics = s.metrics();
            let adp = s.arq_stats();
            up_del += adp.delivered;
            up_fail += adp.failed;
            let ctrl = s.adaptation_controller();
            per_station.push(StationReport {
                station: si,
                data: metrics,
                ctl: self.pool.get(st.ctl).expect("live ctl session").metrics(),
                attempts: cell.scheduler.attempts(si),
                collisions: cell.scheduler.collisions(si),
                defers: cell.scheduler.defers(si),
                rate: ctrl.rate(),
                rate_cap: ctrl.rate_cap(),
                silence_budget: metrics.silence_budget,
                tdma: cell.scheduler.tdma(si),
            });
        }
        let resolved = cell.cmd_delivered + cell.cmd_failed + up_del + up_fail;
        let delivered = cell.cmd_delivered + up_del;
        MeshReport {
            ticks: cell.ticks,
            stations: n,
            coordinated: cell.policy.is_some(),
            coordinating: cell.policy.as_ref().is_some_and(|p| p.is_coordinating()),
            frames: cell.frames,
            frames_ok: cell.frames_ok,
            collided_frames: cell.collided_frames,
            idle_ticks: cell.idle_ticks,
            beacons: cell.beacons,
            churns: cell.churns,
            airtime_us: cell.airtime_us,
            delivered_bits: cell.delivered_bits,
            goodput_mbps: if cell.airtime_us > 0.0 {
                cell.delivered_bits as f64 / cell.airtime_us
            } else {
                0.0
            },
            data_prr: if cell.frames > 0 {
                cell.frames_ok as f64 / cell.frames as f64
            } else {
                0.0
            },
            cmd_issued: cell.cmd_issued,
            cmd_delivered: cell.cmd_delivered,
            cmd_failed: cell.cmd_failed,
            cmd_dropped: cell.cmd_dropped,
            uplink_ctl_delivered: up_del,
            uplink_ctl_failed: up_fail,
            control_delivery: if resolved > 0 { delivered as f64 / resolved as f64 } else { 1.0 },
            per_station,
        }
    }

    #[cfg(test)]
    fn scheduler_mut(&mut self, ci: usize) -> &mut MediumScheduler {
        &mut self.cells[ci].scheduler
    }
}

/// The data-plane session config for one station: adaptive rate, per-
/// station SNR.
fn data_config(snr_db: f64) -> SessionConfig {
    SessionConfig { snr_db, arq_max_retries: STATION_ARQ_MAX_RETRIES, ..SessionConfig::default() }
}

/// The control-subsession config: pinned robust rate (it sends only
/// resilient beacons).
fn ctl_config(snr_db: f64) -> SessionConfig {
    SessionConfig { rate: Some(CTL_RATE), ..data_config(snr_db) }
}

fn station_seed(cell_seed: u64, station: usize, generation: u64, plane: u64) -> u64 {
    splitmix64(cell_seed ^ splitmix64(((station as u64) << 2 | plane) ^ splitmix64(generation)))
}

fn overlap_seed(cell_seed: u64, tick: u64, victim: usize, interferer: usize) -> u64 {
    splitmix64(
        cell_seed
            ^ splitmix64(tick ^ splitmix64(((victim as u64) << 32) | interferer as u64)),
    )
}

/// The deterministic periodic uplink control message of `station`'s
/// `counter`-th frame.
fn uplink_bits(station: usize, counter: u64, len: usize) -> Vec<u8> {
    let mut bits = Vec::with_capacity(len);
    let mut x = splitmix64((station as u64) ^ splitmix64(counter ^ 0x0075_706C_696E_6B00));
    for i in 0..len {
        if i > 0 && i % 64 == 0 {
            x = splitmix64(x);
        }
        bits.push(((x >> (i % 64)) & 1) as u8);
    }
    bits
}

fn fold_event(h: &mut Fnv, kind: u64, tick: u64, ci: usize, si: usize, extra: u64) {
    h.u64(kind);
    h.u64(tick);
    h.u64(ci as u64);
    h.u64(si as u64);
    h.u64(extra);
}

fn fold_adaptive(h: &mut Fnv, tick: u64, ci: usize, si: usize, collided: bool, s: &AdaptiveSummary) {
    fold_event(h, 1, tick, ci, si, collided as u64);
    h.u64(s.packet.data_ok as u64);
    h.u64(s.packet.control_ok as u64);
    h.u64(s.packet.silences_sent as u64);
    h.u64(s.packet.measured_snr_db.to_bits());
    h.u64(s.packet.rate.band_index() as u64);
    h.u64(s.packet.selected_hash);
    h.u64(s.packet.control_hash);
    h.u64(s.budget as u64);
    h.u64(s.budget_after as u64);
    h.u64(s.rate_after.band_index() as u64);
    h.u64(s.ewma_snr_db.to_bits());
}

fn fold_resilient(h: &mut Fnv, tick: u64, ci: usize, si: usize, s: &ResilientSummary) {
    fold_event(h, 2, tick, ci, si, s.control_acked as u64);
    h.u64(s.packet.data_ok as u64);
    h.u64(s.packet.control_ok as u64);
    h.u64(s.feedback_delivered as u64);
    h.u64(s.packet.selected_hash);
    h.u64(s.packet.control_hash);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hidden_cell_cfg(seed: u64, coordinated: bool) -> MeshConfig {
        MeshConfig { seed, coordinated, ..MeshConfig::default() }
    }

    #[test]
    #[should_panic(expected = "MeshConfig::payload_len of 4092 B exceeds the 4091-B frame limit")]
    fn add_cell_rejects_a_payload_longer_than_a_frame() {
        let mut net = MeshNet::new(EngineConfig { threads: 1 });
        let topo = || MeshTopology::fully_connected(2, 20.0);
        net.add_cell(topo(), MeshConfig { payload_len: MAX_PAYLOAD_LEN, ..MeshConfig::default() });
        net.add_cell(topo(), MeshConfig { payload_len: MAX_PAYLOAD_LEN + 1, ..MeshConfig::default() });
    }

    #[test]
    fn hidden_terminal_collides_at_ap_while_exposed_station_defers() {
        // A(0) ⊥ B(1) hidden; C(2) hears A. Pin backoffs so A wins the
        // tick, C freezes on A's carrier, and B barges in mid-frame.
        let mut topo = MeshTopology::fully_connected(3, 20.0);
        topo.hide_pair(0, 1);
        let mut net = MeshNet::new(EngineConfig { threads: 1 });
        let cfg = MeshConfig { coordinated: false, ..MeshConfig::default() };
        net.add_cell(topo, cfg);
        let s = net.scheduler_mut(0);
        s.set_backoff(0, 1);
        s.set_backoff(1, 3);
        s.set_backoff(2, 2);
        net.step();
        let r = net.report(0);
        assert_eq!(r.frames, 2, "A and the barging B both transmitted");
        assert_eq!(r.collided_frames, 2, "both frames overlapped at the AP");
        assert_eq!(r.frames_ok, 0, "≈0 dB SINR destroys both CRCs");
        assert_eq!(r.per_station[2].defers, 1, "the exposed station deferred");
        assert_eq!(r.per_station[2].attempts, 0);
    }

    #[test]
    fn coordination_tames_a_hidden_cell() {
        let topo = MeshTopology::hidden_clusters(4, 2, 20.0);
        let mut net = MeshNet::new(EngineConfig { threads: 1 });
        net.add_cell(topo, hidden_cell_cfg(42, true));
        net.run(140);
        let r = net.report(0);
        assert!(r.coordinating, "hidden clusters must trip the collision threshold");
        assert!(r.beacons > 0, "commands must have ridden beacons");
        assert!(r.cmd_delivered >= 8, "TDMA + budget grants for 4 stations");
        for st in &r.per_station {
            assert!(st.tdma.is_some(), "station {} never got its TDMA grant", st.station);
        }
        assert!(r.control_delivery > 0.9, "control delivery was {}", r.control_delivery);
        assert!(r.goodput_mbps > 0.0);
        // Once the schedule is in force, ticks are collision-free: the
        // tail of the run must be dominated by clean frames.
        assert!(
            r.frames_ok > r.collided_frames,
            "coordination never tamed the cell: {} ok vs {} collided",
            r.frames_ok,
            r.collided_frames
        );
    }

    #[test]
    fn uncoordinated_baseline_issues_no_commands() {
        let topo = MeshTopology::hidden_clusters(4, 2, 20.0);
        let mut net = MeshNet::new(EngineConfig { threads: 1 });
        net.add_cell(topo, hidden_cell_cfg(42, false));
        net.run(60);
        let r = net.report(0);
        assert!(!r.coordinated && !r.coordinating);
        assert_eq!(r.cmd_issued, 0);
        assert_eq!(r.beacons, 0);
        assert!(r.collided_frames > 0, "hidden clusters must keep colliding");
    }

    #[test]
    fn digests_and_reports_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut net = MeshNet::new(EngineConfig { threads });
            net.add_cell(MeshTopology::hidden_clusters(4, 2, 20.0), hidden_cell_cfg(7, true));
            net.add_cell(MeshTopology::fully_connected(3, 24.0), hidden_cell_cfg(8, false));
            net.run(80);
            let (a, b) = (net.report(0), net.report(1));
            (net.digest(), a.frames, a.delivered_bits, a.cmd_delivered, b.frames, b.delivered_bits)
        };
        let one = run(1);
        assert_eq!(one, run(4));
        assert_eq!(one, run(8));
    }

    #[test]
    fn churn_is_deterministic_and_resets_the_station() {
        let run = || {
            let mut net = MeshNet::new(EngineConfig { threads: 2 });
            net.add_cell(MeshTopology::hidden_clusters(4, 2, 20.0), hidden_cell_cfg(11, true));
            net.run(60);
            net.replace_station(0, 1);
            net.run(60);
            net
        };
        let net = run();
        let r = net.report(0);
        assert_eq!(r.churns, 1);
        assert!(
            r.per_station[1].data.frames_tx < r.per_station[0].data.frames_tx,
            "the replaced station's metrics must have reset"
        );
        assert_eq!(net.digest(), run().digest());
    }

    #[test]
    fn nobody_starves_even_uncoordinated() {
        let topo = MeshTopology::hidden_clusters(5, 2, 20.0);
        let mut net = MeshNet::new(EngineConfig { threads: 1 });
        net.add_cell(topo, hidden_cell_cfg(3, false));
        net.run(120);
        let r = net.report(0);
        for st in &r.per_station {
            assert!(st.data.frames_tx > 0, "station {} starved", st.station);
        }
    }

    #[test]
    fn trace_records_both_planes() {
        let mut net = MeshNet::with_trace(EngineConfig { threads: 1 });
        net.add_cell(MeshTopology::hidden_clusters(4, 2, 20.0), hidden_cell_cfg(5, true));
        net.run(100);
        let r = net.report(0);
        assert!(r.cmd_delivered > 0);
        let t = net.trace(0, 0).expect("tracing enabled");
        let sends = t.data_events.iter().filter(|e| matches!(e, DataEvent::Send { .. })).count();
        assert_eq!(sends as u64, r.per_station[0].data.frames_tx);
        assert!(
            t.ctl_events.iter().any(|e| matches!(e, CtlEvent::Queue(_))),
            "commands must be recorded on the ctl plane"
        );
        assert!(
            t.data_events.iter().any(|e| matches!(e, DataEvent::SetBudgetCeiling(_))),
            "a delivered budget grant must be recorded on the data plane"
        );
    }
}
