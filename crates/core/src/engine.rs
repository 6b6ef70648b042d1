//! The batched multi-session engine: a [`SessionPool`] slab of
//! [`CosSession`]s plus a [`BatchEngine`] that shards frame jobs across
//! worker threads.
//!
//! A session holds only the state that persists between frames (link,
//! controller, detector, selection, ARQ/adaptation, metrics). The
//! frame-sized planes a frame runs through — waveforms, front end,
//! decoder scratch — belong to the engine: each worker owns one
//! [`FrameScratch`] per lane of a lockstep bundle, persistent across
//! drains, and lends lane `k` to the `k`-th session of the bundle for one
//! frame at a time. Workspaces carry no semantic state between frames,
//! so which lane a frame lands in never shows in its outcome, and a
//! drain over many sessions touches a few warm lanes instead of one cold
//! set of buffers per session. That turns "run N frames for M sessions"
//! into a pure orchestration problem: each worker thread claims whole
//! per-session job groups, so a session is only ever touched by one
//! thread at a time and no transform needs to know it is being batched.
//!
//! # Determinism
//!
//! The engine honours the repository's determinism contract
//! (`docs/DETERMINISM.md`), the same one [`run_indexed`] and the
//! experiment harness's `run_trials` obey: outcomes are **byte-identical
//! at any worker count**. Two properties make that true:
//!
//! * sessions are independent — a job only reads and mutates its own
//!   session's state, so cross-session execution order is irrelevant;
//! * per-session order is program order — jobs for one session form one
//!   group, executed by one worker in submit order, and results are
//!   scattered back by submit index.
//!
//! # Zero allocation at steady state
//!
//! [`BatchEngine::drain_into`] reuses its job/order/group buffers and the
//! caller's outcome buffer; jobs reference payload/control bytes by ID
//! into tables registered up front ([`BatchEngine::add_payload`] /
//! [`BatchEngine::add_control`]); and each frame runs the session's one
//! frame path (stage → Viterbi → finish), whose hot path performs no heap
//! allocation. A warmed-up single-threaded drain of plain jobs is
//! allocation-free per frame (`session_storm` measures and `scripts/
//! check.sh` gates this); multi-threaded drains add a small per-drain —
//! not per-frame — orchestration cost (thread spawns and one unit list).

use crate::session::{
    AdaptiveSummary, ControlSource, CosSession, FrameScratch, PacketSummary, ResilientSummary,
    SessionConfig, Staged,
};
use cos_dsp::lanes::LANES;
use cos_fec::{SymbolBatch, ViterbiDecoder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a worker-thread count: an explicit non-zero `override_threads`
/// wins, then the `COS_THREADS` environment variable, then the machine's
/// available parallelism. The single thread-resolution rule of the
/// repository — the experiment harness's `threads()` delegates here.
pub fn configured_threads(override_threads: usize) -> usize {
    if override_threads > 0 {
        return override_threads;
    }
    if let Some(n) = std::env::var("COS_THREADS").ok().and_then(|v| v.parse().ok()) {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `n` independent jobs, `job(0) .. job(n-1)`, across `workers`
/// scoped threads and returns the results **in index order** — the
/// deterministic fan-out primitive shared by the engine and the
/// experiment harness (`run_trials` delegates here with its resolved
/// thread count). Work is claimed from a shared atomic counter so threads
/// load-balance over jobs of uneven cost; because every job derives its
/// state purely from its index, the output is identical at any worker
/// count.
///
/// # Panics
///
/// Propagates a panic from any job.
pub fn run_indexed<T, F>(n: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return (0..n).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, job(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("indexed worker panicked"))
            .collect()
    });
    tagged.sort_by_key(|&(i, _)| i);
    debug_assert!(tagged.iter().enumerate().all(|(k, &(i, _))| k == i));
    tagged.into_iter().map(|(_, t)| t).collect()
}

/// Stable handle to a pooled session: a slab index plus a generation
/// counter, so a handle to a released slot can never alias the slot's
/// next occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId {
    index: u32,
    generation: u32,
}

impl SessionId {
    /// The slab slot this handle points at.
    pub fn index(&self) -> usize {
        self.index as usize
    }

    /// The slot generation this handle was minted for — together with
    /// [`index`](Self::index) it identifies one session lifetime uniquely,
    /// which is what outcome digests and the service replay journal hash.
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

#[derive(Debug)]
struct Slot {
    generation: u32,
    session: Option<CosSession>,
}

/// A slab of [`CosSession`]s with stable generational [`SessionId`]s.
///
/// Released sessions are kept as **spares** and recycled into the next
/// [`create`](SessionPool::create) via [`CosSession::reinit`], so a pool
/// at steady state (create/release churn around a stable population)
/// stops allocating session scratch entirely: a recycled session keeps
/// every buffer's capacity, and the `*_into` full-overwrite convention
/// makes it behaviourally indistinguishable from a fresh one.
#[derive(Debug, Default)]
pub struct SessionPool {
    slots: Vec<Slot>,
    free: Vec<u32>,
    spares: Vec<CosSession>,
}

impl SessionPool {
    /// An empty pool.
    pub fn new() -> Self {
        SessionPool::default()
    }

    /// An empty pool with slab capacity for `n` sessions.
    pub fn with_capacity(n: usize) -> Self {
        SessionPool {
            slots: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            spares: Vec::new(),
        }
    }

    /// Creates (or recycles) a session for `(config, seed)` and returns
    /// its handle. Recycled sessions behave exactly like
    /// `CosSession::new(config, seed)` — see [`CosSession::reinit`].
    pub fn create(&mut self, config: SessionConfig, seed: u64) -> SessionId {
        let session = match self.spares.pop() {
            Some(mut s) => {
                s.reinit(config, seed);
                s
            }
            None => CosSession::new(config, seed),
        };
        let index = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize].session = Some(session);
                i
            }
            None => {
                self.slots.push(Slot { generation: 0, session: Some(session) });
                (self.slots.len() - 1) as u32
            }
        };
        SessionId { index, generation: self.slots[index as usize].generation }
    }

    /// The live session behind `id`, or `None` if it was released (or the
    /// slot re-occupied by a later generation).
    pub fn get(&self, id: SessionId) -> Option<&CosSession> {
        let slot = self.slots.get(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.session.as_ref()
    }

    /// Mutable access to the live session behind `id`.
    pub fn get_mut(&mut self, id: SessionId) -> Option<&mut CosSession> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.session.as_mut()
    }

    /// Whether `id` still refers to a live session.
    pub fn contains(&self, id: SessionId) -> bool {
        self.get(id).is_some()
    }

    /// Releases the session behind `id` back to the spare list, bumping
    /// the slot's generation so the handle (and any copy of it) goes
    /// stale. Returns `false` if the handle was already stale.
    pub fn release(&mut self, id: SessionId) -> bool {
        let Some(slot) = self.slots.get_mut(id.index as usize) else { return false };
        if slot.generation != id.generation {
            return false;
        }
        let Some(session) = slot.session.take() else { return false };
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index);
        self.spares.push(session);
        true
    }

    /// Live sessions currently in the pool.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether the pool holds no live session.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Released sessions waiting to be recycled.
    pub fn spares(&self) -> usize {
        self.spares.len()
    }
}

/// Handle to a payload registered with [`BatchEngine::add_payload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadId(u32);

impl PayloadId {
    /// Registration ordinal: the n-th `add_payload` call returned n-1.
    /// The service replay journal keys its payload table on this.
    pub fn ordinal(&self) -> u32 {
        self.0
    }
}

/// Handle to a control message registered with
/// [`BatchEngine::add_control`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlId(u32);

impl ControlId {
    /// Registration ordinal: the n-th `add_control` call returned n-1.
    pub fn ordinal(&self) -> u32 {
        self.0
    }
}

#[derive(Debug, Clone, Copy)]
enum JobKind {
    Plain(ControlId),
    Resilient,
    Adaptive,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    session: SessionId,
    payload: PayloadId,
    kind: JobKind,
}

#[derive(Debug, Clone, Copy)]
struct Group {
    slot: u32,
    start: u32,
    end: u32,
}

/// Per-job outcome of a [`BatchEngine::drain`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobResult {
    /// A [`CosSession::send_packet_summary`] outcome.
    Plain(PacketSummary),
    /// A [`CosSession::send_packet_resilient_summary`] outcome.
    Resilient(ResilientSummary),
    /// A [`CosSession::send_packet_adaptive_summary`] outcome.
    Adaptive(AdaptiveSummary),
    /// The job's session handle was stale at drain time (released, or
    /// from a different pool); the frame was not sent.
    StaleSession,
}

/// One drained job: the session it ran on and what happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// The session handle the job was submitted with.
    pub session: SessionId,
    /// What the frame produced.
    pub result: JobResult,
}

/// Engine tuning.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Worker threads per drain; 0 resolves via [`configured_threads`]
    /// (`COS_THREADS`, then available parallelism).
    pub threads: usize,
}

/// The batch front door: submit frame jobs tagged by session, then drain
/// them across worker threads — see the module docs for the determinism
/// and allocation guarantees.
///
/// # Examples
///
/// ```
/// use cos_core::engine::{BatchEngine, EngineConfig, JobResult, SessionPool};
/// use cos_core::session::SessionConfig;
///
/// let mut pool = SessionPool::new();
/// let a = pool.create(SessionConfig { snr_db: 24.0, ..Default::default() }, 1);
/// let b = pool.create(SessionConfig { snr_db: 20.0, ..Default::default() }, 2);
///
/// let mut engine = BatchEngine::new(EngineConfig::default());
/// let payload = engine.add_payload(&[0xAB; 300]);
/// let control = engine.add_control(&[1, 0, 1, 1]);
/// for _ in 0..3 {
///     engine.submit(a, payload, control);
///     engine.submit(b, payload, control);
/// }
/// let outcomes = engine.drain(&mut pool);
/// assert_eq!(outcomes.len(), 6);
/// assert!(matches!(outcomes[0].result, JobResult::Plain(_)));
/// ```
#[derive(Debug, Default)]
pub struct BatchEngine {
    cfg: EngineConfig,
    payloads: Vec<Box<[u8]>>,
    controls: Vec<Box<[u8]>>,
    jobs: Vec<Job>,
    /// Job indices ordered by (slot, submit index) — rebuilt per drain.
    order: Vec<u32>,
    /// Contiguous per-slot ranges of `order` — rebuilt per drain.
    groups: Vec<Group>,
    /// One scratch per worker thread, borrowed by index; grows to the
    /// largest worker count drained with and persists across drains.
    workers: Vec<WorkerScratch>,
}

/// One worker's frame planes: the lockstep Viterbi staging, and one
/// [`FrameScratch`] per lane of a bundle — lane `k` is lent to the
/// bundle's `k`-th session for each of its frames.
#[derive(Debug, Default)]
struct WorkerScratch {
    batch: SymbolBatch,
    lanes: [FrameScratch; LANES],
}

impl BatchEngine {
    /// An empty engine.
    pub fn new(cfg: EngineConfig) -> Self {
        BatchEngine { cfg, ..Default::default() }
    }

    /// Registers payload bytes once; jobs reference them by ID so
    /// [`submit`](Self::submit) never allocates.
    pub fn add_payload(&mut self, bytes: &[u8]) -> PayloadId {
        self.payloads.push(bytes.into());
        PayloadId((self.payloads.len() - 1) as u32)
    }

    /// Registers a control message (bits, one per byte) once.
    pub fn add_control(&mut self, bits: &[u8]) -> ControlId {
        self.controls.push(bits.into());
        ControlId((self.controls.len() - 1) as u32)
    }

    /// Queues one plain-path frame ([`CosSession::send_packet_summary`])
    /// for `session`.
    ///
    /// # Panics
    ///
    /// Panics if `payload` or `control` was not registered with this
    /// engine.
    pub fn submit(&mut self, session: SessionId, payload: PayloadId, control: ControlId) {
        assert!((payload.0 as usize) < self.payloads.len(), "unregistered payload id");
        assert!((control.0 as usize) < self.controls.len(), "unregistered control id");
        self.jobs.push(Job { session, payload, kind: JobKind::Plain(control) });
    }

    /// Queues one resilient-path frame
    /// ([`CosSession::send_packet_resilient_summary`]) for `session`; its
    /// control bits come from the session's ARQ queue.
    ///
    /// # Panics
    ///
    /// Panics if `payload` was not registered with this engine.
    pub fn submit_resilient(&mut self, session: SessionId, payload: PayloadId) {
        assert!((payload.0 as usize) < self.payloads.len(), "unregistered payload id");
        self.jobs.push(Job { session, payload, kind: JobKind::Resilient });
    }

    /// Queues one adaptive-path frame
    /// ([`CosSession::send_packet_adaptive_summary`]) for `session`: the
    /// session's link-adaptation controller picks the rate and silence
    /// budget, and its ARQ queue supplies the control bits. Adaptation
    /// state lives in the session, so it follows the session through the
    /// pool and is reset by recycling like every other per-session state.
    ///
    /// # Panics
    ///
    /// Panics if `payload` was not registered with this engine.
    pub fn submit_adaptive(&mut self, session: SessionId, payload: PayloadId) {
        assert!((payload.0 as usize) < self.payloads.len(), "unregistered payload id");
        self.jobs.push(Job { session, payload, kind: JobKind::Adaptive });
    }

    /// Jobs queued and not yet drained.
    pub fn pending(&self) -> usize {
        self.jobs.len()
    }

    /// Drains every queued job and returns the outcomes **in submit
    /// order** (allocating convenience wrapper around
    /// [`drain_into`](Self::drain_into)).
    pub fn drain(&mut self, pool: &mut SessionPool) -> Vec<JobOutcome> {
        let mut out = Vec::new();
        self.drain_into(pool, &mut out);
        out
    }

    /// Drains every queued job into `out` (cleared, then one outcome per
    /// job in submit order), sharding per-session job groups across the
    /// configured worker threads. Outcomes are byte-identical at any
    /// worker count; see the module docs.
    pub fn drain_into(&mut self, pool: &mut SessionPool, out: &mut Vec<JobOutcome>) {
        let n = self.jobs.len();
        out.clear();
        if n == 0 {
            return;
        }
        // Placeholder — every index is overwritten below, because each
        // job index appears in exactly one group range or stale fill.
        out.resize(n, JobOutcome { session: self.jobs[0].session, result: JobResult::StaleSession });

        // Per-session program order is submit order; cross-session order
        // is irrelevant (sessions are independent).
        self.order.clear();
        self.order.extend(0..n as u32);
        let jobs = &self.jobs;
        self.order.sort_unstable_by_key(|&i| (jobs[i as usize].session.index, i));

        self.groups.clear();
        let mut i = 0usize;
        while i < n {
            let slot = jobs[self.order[i] as usize].session.index;
            let mut j = i + 1;
            while j < n && jobs[self.order[j] as usize].session.index == slot {
                j += 1;
            }
            self.groups.push(Group { slot, start: i as u32, end: j as u32 });
            i = j;
        }

        let BatchEngine { payloads, controls, jobs, order, groups, cfg, workers: scratch } = self;
        let workers = configured_threads(cfg.threads).min(groups.len());
        if scratch.len() < workers {
            scratch.resize_with(workers, WorkerScratch::default);
        }

        if workers <= 1 {
            let ws = &mut scratch[0];
            // Bundle groups whose current frames will lockstep: sorting
            // by head payload length hands `decode_lockstep` bundles of
            // equal-length trellises instead of whatever LANES slots
            // happened to be adjacent. Outcomes are position-addressed,
            // so processing order never shows in `out`.
            groups.sort_unstable_by_key(|&g| bundle_key(payloads, jobs, order, g));
            let mut gi = 0usize;
            while gi < groups.len() {
                // Gather up to LANES live-slot groups for one lockstep
                // bundle; dead or out-of-range slots resolve inline.
                let mut bundle = [Group { slot: 0, start: 0, end: 0 }; LANES];
                let mut idxs = [0usize; LANES];
                let mut n = 0usize;
                while gi < groups.len() && n < LANES {
                    let g = groups[gi];
                    gi += 1;
                    if pool.slots.get(g.slot as usize).is_some_and(|s| s.session.is_some()) {
                        bundle[n] = g;
                        idxs[n] = g.slot as usize;
                        n += 1;
                    } else {
                        stale_group(jobs, order, g, |i, o| out[i] = o);
                    }
                }
                if n == LANES {
                    // Groups are unique per slot, so the indices are
                    // distinct and the disjoint borrow always succeeds.
                    let slots = pool
                        .slots
                        .get_disjoint_mut(idxs)
                        .expect("bundle slots are distinct and in range");
                    let mut units: [Option<(Group, u32, &mut CosSession)>; LANES] =
                        std::array::from_fn(|_| None);
                    for ((u, slot), g) in units.iter_mut().zip(slots).zip(bundle) {
                        let sess = slot.session.as_mut().expect("liveness checked above");
                        *u = Some((g, slot.generation, sess));
                    }
                    run_units_lockstep(payloads, controls, jobs, order, &mut units, ws, |i, o| {
                        out[i] = o
                    });
                } else {
                    // Tail bundle: fewer live groups than a lane group
                    // holds, so lockstep could not fire — run each alone.
                    for (&g, &si) in bundle[..n].iter().zip(&idxs[..n]) {
                        let slot = &mut pool.slots[si];
                        let sess = slot.session.as_mut().expect("liveness checked above");
                        let mut unit = [Some((g, slot.generation, sess))];
                        run_units_lockstep(payloads, controls, jobs, order, &mut unit, ws, |i, o| {
                            out[i] = o
                        });
                    }
                }
            }
        } else {
            // One claimable unit per live per-slot group; dead or
            // out-of-range slots resolve inline. Groups are sorted by
            // slot and unique per slot, so co-walking the slab hands each
            // unit a disjoint `&mut CosSession`.
            // One group, the owning slot's generation, and the slot's
            // session — claimed exactly once by whichever worker takes it.
            type Unit<'s> = Mutex<Option<(Group, u32, &'s mut CosSession)>>;
            let mut raw: Vec<(Group, u32, &mut CosSession)> = Vec::with_capacity(groups.len());
            let mut gi = 0usize;
            for (slot_idx, slot) in pool.slots.iter_mut().enumerate() {
                if gi < groups.len() && groups[gi].slot as usize == slot_idx {
                    let g = groups[gi];
                    match slot.session.as_mut() {
                        Some(sess) => raw.push((g, slot.generation, sess)),
                        None => stale_group(jobs, order, g, |i, o| out[i] = o),
                    }
                    gi += 1;
                }
            }
            for &g in &groups[gi..] {
                // Slots beyond the slab (handles from another pool).
                stale_group(jobs, order, g, |i, o| out[i] = o);
            }
            // Same equal-trellis-length clustering as the single-threaded
            // walk: workers claim contiguous runs, so sorting here is what
            // makes a claimed bundle's frames lockstep-compatible.
            raw.sort_unstable_by_key(|u| bundle_key(payloads, jobs, order, u.0));
            let units: Vec<Unit<'_>> = raw.into_iter().map(|u| Mutex::new(Some(u))).collect();

            let next = AtomicUsize::new(0);
            let (payloads, controls, jobs, order) = (&*payloads, &*controls, &*jobs, &*order);
            let results: Vec<Vec<(usize, JobOutcome)>> = std::thread::scope(|scope| {
                let (units, next) = (&units, &next);
                let handles: Vec<_> = scratch[..workers]
                    .iter_mut()
                    .map(|ws| {
                        scope.spawn(move || {
                            let mut local = Vec::new();
                            loop {
                                // Claim a lockstep bundle of up to LANES
                                // units so this worker can decode its
                                // sessions' trellises LANES per instruction.
                                let base = next.fetch_add(LANES, Ordering::Relaxed);
                                if base >= units.len() {
                                    break;
                                }
                                let hi = (base + LANES).min(units.len());
                                let mut claimed: [Option<(Group, u32, &mut CosSession)>; LANES] =
                                    std::array::from_fn(|_| None);
                                let mut filled = 0usize;
                                for unit in &units[base..hi] {
                                    claimed[filled] = Some(
                                        unit.lock()
                                            .expect("engine unit lock")
                                            .take()
                                            .expect("each unit is claimed exactly once"),
                                    );
                                    filled += 1;
                                }
                                run_units_lockstep(
                                    payloads,
                                    controls,
                                    jobs,
                                    order,
                                    &mut claimed[..filled],
                                    ws,
                                    |i, o| local.push((i, o)),
                                );
                            }
                            local
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("engine worker panicked")).collect()
            });
            for (i, o) in results.into_iter().flatten() {
                out[i] = o;
            }
        }

        self.jobs.clear();
    }
}

/// Bundle-formation key: groups sort by their head job's payload length.
/// The staged trellis length is `2 × (SERVICE + 8 × psdu + TAIL)`
/// mother-code bits, a function of payload length alone (depuncturing
/// restores the mother code, so the rate never shows) — so equal payload
/// lengths mean Viterbi-lockstep-compatible frames for **every** job
/// kind. Resilient and adaptive frames stage the same trellis as a plain
/// frame of the same payload; only their sender-side tails differ. The
/// slot tie-break only pins a reproducible walk order; outcomes are
/// position-addressed either way.
fn bundle_key(payloads: &[Box<[u8]>], jobs: &[Job], order: &[u32], g: Group) -> (usize, u32) {
    let head = jobs[order[g.start as usize] as usize];
    (payloads[head.payload.0 as usize].len(), g.slot)
}

/// Runs up to [`LANES`] per-slot job groups in lockstep rounds. Each round
/// takes the next job of every group through the session's one frame
/// path, unit `k`'s frame in lane `k` of `ws`: [`CosSession::stage`]
/// (tx → air → rx, fused per session while the waveform is cache-hot),
/// the Viterbi
/// ([`ViterbiDecoder::decode_lockstep`], [`LANES`] frames per
/// instruction, when a full lane group staged), then
/// [`CosSession::finish`] (feedback loop, ARQ confirmation, controller
/// observation).
///
/// Per-session order stays submit order (a round advances each group by
/// exactly one job) and the per-frame path
/// ([`CosSession::send_packet_summary`] and its siblings) runs the same
/// three steps, so outcomes are byte-identical to running the groups one
/// at a time. Rounds with fewer than [`LANES`] staged frames (uneven
/// group lengths, stale handles, front-end failures) fall back to the
/// per-frame Viterbi — still SIMD across trellis states, just not across
/// sessions.
fn run_units_lockstep(
    payloads: &[Box<[u8]>],
    controls: &[Box<[u8]>],
    jobs: &[Job],
    order: &[u32],
    units: &mut [Option<(Group, u32, &mut CosSession)>],
    ws: &mut WorkerScratch,
    mut emit: impl FnMut(usize, JobOutcome),
) {
    debug_assert!(units.len() <= LANES);
    let WorkerScratch { batch, lanes } = ws;
    let mut cursors = [0usize; LANES];
    for (k, u) in units.iter().enumerate() {
        if let Some((g, _, _)) = u {
            cursors[k] = g.start as usize;
        }
    }
    loop {
        // Stage this round's job of every group; stale handles resolve
        // without touching the session.
        let mut staged: [Option<Staged>; LANES] = [None; LANES];
        let mut progressed = false;
        for (k, u) in units.iter_mut().enumerate() {
            let Some((g, generation, sess)) = u else { continue };
            if cursors[k] >= g.end as usize {
                continue;
            }
            progressed = true;
            let idx = order[cursors[k]] as usize;
            let job = jobs[idx];
            if job.session.generation != *generation {
                emit(idx, JobOutcome { session: job.session, result: JobResult::StaleSession });
                cursors[k] += 1;
                continue;
            }
            let src = match job.kind {
                JobKind::Plain(c) => ControlSource::Fixed(&controls[c.0 as usize]),
                JobKind::Resilient => ControlSource::Resilient,
                JobKind::Adaptive => ControlSource::Adaptive,
            };
            staged[k] = Some(sess.stage(&mut lanes[k], &payloads[job.payload.0 as usize], src));
        }
        if !progressed {
            break;
        }

        // Viterbi — lockstep when a full lane group staged.
        let ready = staged.iter().flatten().filter(|s| s.staged_ok().is_some()).count();
        if ready == LANES {
            let mut it = lanes
                .iter_mut()
                .zip(&staged)
                .filter_map(|(fs, s)| Some(fs.lane_frame(s.as_ref()?.staged_ok()?)));
            let mut frames: [_; LANES] =
                std::array::from_fn(|_| it.next().expect("LANES staged frames"));
            ViterbiDecoder::new().decode_lockstep(&mut frames, true, batch);
        } else {
            for (fs, s) in lanes.iter_mut().zip(&staged) {
                if let Some(s) = s {
                    fs.viterbi(s);
                }
            }
        }

        // Finish every staged frame.
        for (k, u) in units.iter_mut().enumerate() {
            let (Some((_, _, sess)), Some(s)) = (u.as_mut(), staged[k]) else { continue };
            let idx = order[cursors[k]] as usize;
            let result = sess.finish(&mut lanes[k], s);
            emit(idx, JobOutcome { session: jobs[idx].session, result });
            cursors[k] += 1;
        }
    }
}

/// Resolves every job of a group whose slot holds no live session (or
/// lies beyond the slab) as [`JobResult::StaleSession`].
fn stale_group(jobs: &[Job], order: &[u32], g: Group, mut emit: impl FnMut(usize, JobOutcome)) {
    for &idx in &order[g.start as usize..g.end as usize] {
        let job = jobs[idx as usize];
        emit(idx as usize, JobOutcome { session: job.session, result: JobResult::StaleSession });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(snr_db: f64) -> SessionConfig {
        SessionConfig { snr_db, ..Default::default() }
    }

    #[test]
    fn pool_create_get_release_roundtrip() {
        let mut pool = SessionPool::new();
        let a = pool.create(cfg(20.0), 1);
        let b = pool.create(cfg(22.0), 2);
        assert_eq!(pool.len(), 2);
        assert!(pool.contains(a));
        assert!(pool.get(b).is_some());
        assert!(pool.release(a));
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.spares(), 1);
        // The handle is stale now — and releasing it again is a no-op.
        assert!(!pool.contains(a));
        assert!(pool.get_mut(a).is_none());
        assert!(!pool.release(a));
        // The slot is reused with a fresh generation.
        let c = pool.create(cfg(18.0), 3);
        assert_eq!(c.index(), a.index());
        assert_ne!(c, a);
        assert_eq!(pool.spares(), 0);
        assert!(pool.contains(c));
        assert!(!pool.contains(a));
    }

    #[test]
    fn recycled_session_matches_fresh_session() {
        // A pool-recycled (dirty-buffer) session must be behaviourally
        // identical to a newly constructed one.
        let mut pool = SessionPool::new();
        let first = pool.create(cfg(21.0), 7);
        for i in 0..3 {
            pool.get_mut(first).unwrap().send_packet_summary(&[i as u8; 260], &[1, 0, 1, 0]);
        }
        pool.release(first);
        let recycled = pool.create(cfg(19.0), 11);

        let mut fresh = CosSession::new(cfg(19.0), 11);
        for i in 0..4 {
            let a = pool.get_mut(recycled).unwrap().send_packet_summary(&[0x5A; 300], &[0, 1, 1, 0]);
            let b = fresh.send_packet_summary(&[0x5A; 300], &[0, 1, 1, 0]);
            assert_eq!(a, b, "packet {i}");
        }
    }

    #[test]
    fn drain_outcomes_are_in_submit_order_and_thread_invariant() {
        let build = |threads: usize| {
            let mut pool = SessionPool::new();
            let ids: Vec<SessionId> =
                (0..5).map(|i| pool.create(cfg(18.0 + i as f64), 100 + i as u64)).collect();
            let mut engine = BatchEngine::new(EngineConfig { threads });
            let p = engine.add_payload(&[0xC3; 280]);
            let c = engine.add_control(&[1, 1, 0, 0, 1, 0, 0, 1]);
            for round in 0..4 {
                for (k, &id) in ids.iter().enumerate() {
                    if (round + k) % 3 == 0 {
                        engine.submit_resilient(id, p);
                    } else {
                        engine.submit(id, p, c);
                    }
                }
            }
            engine.drain(&mut pool)
        };
        let one = build(1);
        let four = build(4);
        let eight = build(8);
        assert_eq!(one.len(), 20);
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn drain_matches_sequential_session_loop() {
        let mut pool = SessionPool::new();
        let a = pool.create(cfg(24.0), 5);
        let b = pool.create(cfg(16.0), 6);
        let mut engine = BatchEngine::new(EngineConfig { threads: 3 });
        let p = engine.add_payload(&[0x11; 320]);
        let c = engine.add_control(&[0, 1, 0, 1]);
        for _ in 0..3 {
            engine.submit(a, p, c);
            engine.submit(b, p, c);
        }
        let engine_out = engine.drain(&mut pool);

        let mut sa = CosSession::new(cfg(24.0), 5);
        let mut sb = CosSession::new(cfg(16.0), 6);
        let mut reference = Vec::new();
        for _ in 0..3 {
            reference.push(sa.send_packet_summary(&[0x11; 320], &[0, 1, 0, 1]));
            reference.push(sb.send_packet_summary(&[0x11; 320], &[0, 1, 0, 1]));
        }
        for (k, (got, want)) in engine_out.iter().zip(&reference).enumerate() {
            assert_eq!(got.result, JobResult::Plain(*want), "job {k}");
        }
    }

    #[test]
    fn adaptive_jobs_are_thread_invariant_and_match_sequential() {
        let build = |threads: usize| {
            let mut pool = SessionPool::new();
            let ids: Vec<SessionId> =
                (0..4).map(|i| pool.create(cfg(14.0 + i as f64 * 3.0), 400 + i as u64)).collect();
            for &id in &ids {
                pool.get_mut(id).unwrap().queue_adaptive_control(vec![1, 0, 0, 1]);
            }
            let mut engine = BatchEngine::new(EngineConfig { threads });
            let p = engine.add_payload(&[0x42; 360]);
            for _ in 0..5 {
                for &id in &ids {
                    engine.submit_adaptive(id, p);
                }
            }
            engine.drain(&mut pool)
        };
        let one = build(1);
        assert_eq!(one, build(4));

        let mut sessions: Vec<CosSession> =
            (0..4).map(|i| CosSession::new(cfg(14.0 + i as f64 * 3.0), 400 + i as u64)).collect();
        for s in &mut sessions {
            s.queue_adaptive_control(vec![1, 0, 0, 1]);
        }
        let mut k = 0;
        for _ in 0..5 {
            for s in &mut sessions {
                let want = s.send_packet_adaptive_summary(&[0x42; 360]);
                assert_eq!(one[k].result, JobResult::Adaptive(want), "job {k}");
                k += 1;
            }
        }
    }

    #[test]
    fn stale_handles_resolve_without_running() {
        let mut pool = SessionPool::new();
        let a = pool.create(cfg(20.0), 1);
        let b = pool.create(cfg(20.0), 2);
        let mut engine = BatchEngine::new(EngineConfig { threads: 2 });
        let p = engine.add_payload(&[0; 200]);
        let c = engine.add_control(&[1, 0, 0, 0]);
        engine.submit(a, p, c);
        engine.submit(b, p, c);
        pool.release(a);
        let out = engine.drain(&mut pool);
        assert_eq!(out[0].result, JobResult::StaleSession);
        assert!(matches!(out[1].result, JobResult::Plain(_)));
        // The released slot's next occupant is untouched by the stale job.
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn empty_drain_is_a_noop() {
        let mut pool = SessionPool::new();
        let mut engine = BatchEngine::new(EngineConfig::default());
        let mut out = vec![];
        engine.drain_into(&mut pool, &mut out);
        assert!(out.is_empty());
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn run_indexed_is_ordered_and_thread_invariant() {
        let serial = run_indexed(25, 1, |i| i * 3);
        let parallel = run_indexed(25, 6, |i| i * 3);
        assert_eq!(serial, parallel);
        assert_eq!(serial, (0..25).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn configured_threads_prefers_override() {
        assert_eq!(configured_threads(3), 3);
        assert!(configured_threads(0) >= 1);
    }
}
