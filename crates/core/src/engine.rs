//! The batched multi-session engine: a [`SessionPool`] slab of
//! [`CosSession`]s plus a [`BatchEngine`] that shards frame jobs across
//! worker threads.
//!
//! A session holds only the state that persists between frames (link,
//! controller, detector, selection, ARQ/adaptation, metrics). The
//! frame-sized planes a frame runs through — waveforms, front end,
//! decoder scratch — belong to the engine: each worker owns one
//! `FrameScratch`, persistent across drains, and lends it to every
//! frame it runs. Workspaces carry no semantic state between frames, so
//! which worker runs a frame never shows in its outcome, and a drain over
//! many sessions touches one warm plane per worker instead of one cold
//! set of buffers per session. That turns "run N frames for M sessions"
//! into a pure orchestration problem: a drain checks each session with
//! work out of the pool and each worker claims whole per-session job
//! groups, so a session is only ever touched by one thread at a time and
//! no transform needs to know it is being batched.
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
//! [`BatchEngine::drain_into`] reuses its job/order/unit buffers,
//! its workers' outcome staging and the caller's outcome buffer; jobs
//! reference payload/control bytes by ID into tables registered up front
//! ([`BatchEngine::add_payload`] / [`BatchEngine::add_control`]); and each
//! frame runs the session's one frame path in one pass, whose hot path
//! performs no heap allocation. A warmed-up drain of plain, resilient
//! and adaptive jobs is allocation-free on one thread;
//! with more, the only per-drain cost is spawning the extra scoped worker
//! threads (the calling thread is worker 0), which does not grow with the
//! job count. `gate alloc` measures both and `scripts/check.sh` gates
//! them.

use crate::session::{
    AdaptiveSummary, ControlSource, CosSession, FrameScratch, PacketSummary, ResilientSummary,
    SessionConfig, BITS_PER_INTERVAL,
};
use cos_phy::frame::MAX_PAYLOAD_LEN;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Panics unless a payload of `len` bytes fits one frame: the check every
/// registration runs before anything is stored, so an oversize payload
/// fails where it enters, not in the middle of a drain.
pub(crate) fn check_payload_len(len: usize) {
    assert!(len <= MAX_PAYLOAD_LEN, "payload of {len} B exceeds the {MAX_PAYLOAD_LEN}-B frame limit");
}

/// The rule a control message breaks, if any: the interval codec carries
/// whole groups of [`BITS_PER_INTERVAL`] bits, each 0 or 1. Registration,
/// queueing and the journal reader all hold a message to it, so a bad one
/// fails where it enters, not in a later frame.
pub(crate) fn control_bits_fault(bits: &[u8]) -> Option<String> {
    if !bits.len().is_multiple_of(BITS_PER_INTERVAL) {
        return Some(format!(
            "control message length {} is not a multiple of k = {BITS_PER_INTERVAL}",
            bits.len()
        ));
    }
    bits.iter().find(|&&b| b > 1).map(|b| format!("control bits must be 0 or 1, got {b}"))
}

/// Panics, naming the rule, unless `bits` passes [`control_bits_fault`].
pub(crate) fn check_control_bits(bits: &[u8]) {
    if let Some(fault) = control_bits_fault(bits) {
        panic!("{fault}");
    }
}

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
/// threads and returns the results **in index order** — the
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
    let next = AtomicUsize::new(0);
    let mut locals: Vec<Vec<(usize, T)>> =
        (0..workers.clamp(1, n.max(1))).map(|_| Vec::new()).collect();
    fan_out(&mut locals, |local| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        local.push((i, job(i)));
    });
    let mut tagged: Vec<(usize, T)> = locals.into_iter().flatten().collect();
    tagged.sort_by_key(|&(i, _)| i);
    debug_assert!(tagged.iter().enumerate().all(|(k, &(i, _))| k == i));
    tagged.into_iter().map(|(_, t)| t).collect()
}

/// Runs `work` once per worker state, all at once: `states[0]` on the
/// calling thread and each other state on a scoped thread spawned for
/// this call, so one state runs inline and spawns nothing (and allocates
/// nothing — even an empty `std::thread::scope` allocates). The one
/// scope/spawn/join of the crate, shared by [`run_indexed`] and
/// [`BatchEngine::drain_into`].
///
/// # Panics
///
/// Propagates a panic from any `work` call once every thread has ended.
fn fan_out<S: Send>(states: &mut [S], work: impl Fn(&mut S) + Sync) {
    let Some((first, rest)) = states.split_first_mut() else { return };
    if rest.is_empty() {
        return work(first);
    }
    let work = &work;
    std::thread::scope(|scope| {
        for s in rest {
            scope.spawn(move || work(s));
        }
        work(first);
    });
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

/// A slab slot. A live slot's `session` is `None` only while a drain has
/// it checked out.
///
/// Sessions sit inline rather than boxed: a drain's check-out then moves
/// each session (~6 KB) out and back, but a pool stays one slab
/// allocation. Boxed sessions were measured to pin freed pools' memory in
/// the allocator's heap (a benchmark building 31 pools of 512 sessions
/// and dropping 30 kept ~105 MB resident, against ~16 MB with one slab).
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

/// Which path a job takes through its session, from admission (the
/// service re-exports it as `ServiceJobKind`) to outcome: one per
/// [`BatchEngine`] submit entry point and per [`JobResult`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// [`BatchEngine::submit`] with the given control message.
    Plain(ControlId),
    /// [`BatchEngine::submit_resilient`] (control bits from the session's
    /// ARQ queue).
    Resilient,
    /// [`BatchEngine::submit_adaptive`] (rate/budget from the session's
    /// adaptation policy, control bits from its ARQ queue).
    Adaptive,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    session: SessionId,
    payload: PayloadId,
    kind: JobKind,
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
    /// The live groups of one drain with their sessions checked out of
    /// the pool, in slot order — refilled per drain, empty between
    /// drains.
    units: Vec<Unit>,
    /// One scratch per worker, borrowed by index; grows to the largest
    /// worker count drained with and persists across drains.
    workers: Vec<WorkerScratch>,
}

/// One live per-slot job group checked out of the pool for a drain: the
/// slot, its jobs (a range of the drain's `order`), the slot's
/// generation and its session, which one worker owns until the drain
/// checks it back in.
#[derive(Debug)]
struct Unit {
    slot: u32,
    jobs: std::ops::Range<usize>,
    generation: u32,
    session: CosSession,
}

/// One worker's frame plane, lent to every frame the worker runs, plus
/// the worker's outcomes of the current drain, tagged by submit index.
#[derive(Debug, Default)]
struct WorkerScratch {
    frame: FrameScratch,
    outcomes: Vec<(usize, JobOutcome)>,
}

impl BatchEngine {
    /// An empty engine.
    pub fn new(cfg: EngineConfig) -> Self {
        BatchEngine { cfg, ..Default::default() }
    }

    /// Registers payload bytes once; jobs reference them by ID so
    /// [`submit`](Self::submit) never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than one frame carries
    /// ([`MAX_PAYLOAD_LEN`]).
    pub fn add_payload(&mut self, bytes: &[u8]) -> PayloadId {
        check_payload_len(bytes.len());
        self.payloads.push(bytes.into());
        PayloadId((self.payloads.len() - 1) as u32)
    }

    /// Registers a control message (bits, one per byte) once.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not a whole number of
    /// [`BITS_PER_INTERVAL`]-bit groups or holds a value other than 0/1.
    pub fn add_control(&mut self, bits: &[u8]) -> ControlId {
        check_control_bits(bits);
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
        self.push(session, payload, JobKind::Plain(control));
    }

    /// Queues one resilient-path frame
    /// ([`CosSession::send_packet_resilient_summary`]) for `session`; its
    /// control bits come from the session's ARQ queue.
    ///
    /// # Panics
    ///
    /// Panics if `payload` was not registered with this engine.
    pub fn submit_resilient(&mut self, session: SessionId, payload: PayloadId) {
        self.push(session, payload, JobKind::Resilient);
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
        self.push(session, payload, JobKind::Adaptive);
    }

    /// Queues one job of any kind: the one body behind the three submit
    /// entry points, and the service's dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `payload` (or a plain job's control) was not registered
    /// with this engine.
    pub(crate) fn push(&mut self, session: SessionId, payload: PayloadId, kind: JobKind) {
        assert!((payload.0 as usize) < self.payloads.len(), "unregistered payload id");
        if let JobKind::Plain(control) = kind {
            assert!((control.0 as usize) < self.controls.len(), "unregistered control id");
        }
        self.jobs.push(Job { session, payload, kind });
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
    ///
    /// One walk serves every worker count: each live per-slot group's
    /// session is checked out of its slot into the engine's units, the
    /// workers (the calling thread first) claim units one at a time, run
    /// each job of the group through the session's frame path on their
    /// frame plane and stage the outcomes, and the outcomes are scattered
    /// into `out` by submit index before every session is checked back
    /// in.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job. The sessions checked out for the
    /// drain are then not returned: their slots stay empty, so their
    /// handles resolve to no session.
    pub fn drain_into(&mut self, pool: &mut SessionPool, out: &mut Vec<JobOutcome>) {
        let n = self.jobs.len();
        out.clear();
        // Every job starts out stale; the frames that run overwrite
        // theirs, so a group with no live session (released, or beyond
        // the slab) and a stale handle into a live slot need no pass.
        let stale = |j: &Job| JobOutcome { session: j.session, result: JobResult::StaleSession };
        out.extend(self.jobs.iter().map(stale));

        // Per-session program order is submit order; cross-session order
        // is irrelevant (sessions are independent).
        let BatchEngine { payloads, controls, jobs, order, units, cfg, workers: scratch } = self;
        order.clear();
        order.extend(0..n as u32);
        order.sort_unstable_by_key(|&i| (jobs[i as usize].session.index, i));

        // One unit per contiguous per-slot run of `order` whose slot holds
        // a live session, checked out of the pool for the drain.
        units.clear();
        let mut start = 0;
        while start < n {
            let slot = jobs[order[start] as usize].session.index;
            let same_slot = |&&k: &&u32| jobs[k as usize].session.index == slot;
            let end = start + order[start..].iter().take_while(same_slot).count();
            if let Some(entry) = pool.slots.get_mut(slot as usize) {
                if let Some(session) = entry.session.take() {
                    let generation = entry.generation;
                    units.push(Unit { slot, jobs: start..end, generation, session });
                }
            }
            start = end;
        }

        let workers = configured_threads(cfg.threads).min(units.len());
        if scratch.len() < workers {
            scratch.resize_with(workers, WorkerScratch::default);
        }
        for ws in &mut scratch[..workers] {
            // Room for every job, so however the claims fall no worker's
            // staging grows mid-drain.
            ws.outcomes.reserve(n);
        }
        let claim = Mutex::new(units.iter_mut());
        let (payloads, controls, jobs, order) = (&*payloads, &*controls, &*jobs, &*order);
        fan_out(&mut scratch[..workers], |ws| loop {
            // The guard drops at the end of this statement, so the lock
            // is held per claim, not per unit run.
            let unit = claim.lock().expect("engine claim lock").next();
            let Some(unit) = unit else { break };
            run_unit(payloads, controls, jobs, order, unit, ws);
        });

        for ws in &mut scratch[..workers] {
            for (i, o) in ws.outcomes.drain(..) {
                out[i] = o;
            }
        }
        for u in units.drain(..) {
            pool.slots[u.slot as usize].session = Some(u.session);
        }
        self.jobs.clear();
    }
}

/// Runs one unit's jobs in submit order through the session's frame path
/// ([`CosSession::run_frame`]: tx → air → rx decode, then the feedback
/// loop, ARQ confirmation and controller observation) on the worker's
/// frame plane, staging each outcome in `ws.outcomes`. A stale
/// handle into a live slot keeps its stale outcome without touching the
/// session. The per-frame path ([`CosSession::send_packet_summary`] and
/// its siblings) runs the same function, so outcomes are byte-identical
/// to running the sessions one at a time.
fn run_unit(
    payloads: &[Box<[u8]>],
    controls: &[Box<[u8]>],
    jobs: &[Job],
    order: &[u32],
    unit: &mut Unit,
    ws: &mut WorkerScratch,
) {
    for &idx in &order[unit.jobs.clone()] {
        let job = jobs[idx as usize];
        if job.session.generation != unit.generation {
            continue;
        }
        let src = match job.kind {
            JobKind::Plain(c) => ControlSource::Fixed(&controls[c.0 as usize]),
            JobKind::Resilient => ControlSource::Resilient,
            JobKind::Adaptive => ControlSource::Adaptive,
        };
        let payload = &payloads[job.payload.0 as usize];
        let result = unit.session.run_frame(&mut ws.frame, payload, src);
        ws.outcomes.push((idx as usize, JobOutcome { session: job.session, result }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(snr_db: f64) -> SessionConfig {
        SessionConfig { snr_db, ..Default::default() }
    }

    /// A payload one byte past the frame limit used to register and then
    /// panic in the SIGNAL encoder in the middle of a drain.
    #[test]
    #[should_panic(expected = "payload of 4092 B exceeds the 4091-B frame limit")]
    fn add_payload_rejects_a_payload_longer_than_a_frame() {
        let mut engine = BatchEngine::new(EngineConfig { threads: 1 });
        engine.add_payload(&[0x11; MAX_PAYLOAD_LEN]);
        engine.add_payload(&[0x11; MAX_PAYLOAD_LEN + 1]);
    }

    /// A three-bit message used to register and then panic in the
    /// interval encoder inside a worker, mid-drain.
    #[test]
    #[should_panic(expected = "control message length 3 is not a multiple of k = 4")]
    fn add_control_rejects_a_message_the_codec_cannot_carry() {
        let mut engine = BatchEngine::new(EngineConfig { threads: 1 });
        engine.add_control(&[1, 0, 1, 1]);
        engine.add_control(&[1, 0, 1]);
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
                pool.get_mut(id).unwrap().queue_control(vec![1, 0, 0, 1]);
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
            s.queue_control(vec![1, 0, 0, 1]);
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
    fn pool_is_whole_after_drains_at_any_thread_count() {
        // Eleven slots: slot 4 released and left empty, slot 7 released
        // and re-occupied, so ten live sessions. Slots 0–6 send a short
        // payload and 7–10 a long one, so one drain mixes two trellis
        // lengths. Stale jobs: the empty slot's handle, slot 7's old
        // handle (a live slot) and a handle from a larger pool (beyond
        // this pool's slab).
        const SHORT: [u8; 100] = [0x5A; 100];
        const LONG: [u8; 300] = [0xA5; 300];
        const CONTROL: [u8; 4] = [1, 0, 1, 1];
        let config = |i: usize| cfg(16.0 + i as f64);
        let mut pool = SessionPool::new();
        let mut ids: Vec<SessionId> =
            (0..11).map(|i| pool.create(config(i), 300 + i as u64)).collect();
        let released = ids.remove(4);
        assert!(pool.release(released));
        let replaced = ids[6];
        assert!(pool.release(replaced));
        ids[6] = pool.create(config(7), 999);
        let foreign = {
            let mut larger = SessionPool::new();
            (0..16).map(|i| larger.create(cfg(20.0), i)).last().expect("16 sessions")
        };
        let (live, spares) = (pool.len(), pool.spares());
        assert_eq!((live, spares), (10, 1));

        // One schedule per drain: two rounds of every live session (plain
        // or resilient), plus the three stale handles.
        let schedule = |drain: usize| {
            let mut jobs = Vec::new();
            for round in 0..2 {
                for (k, &id) in ids.iter().enumerate() {
                    jobs.push((id, id.index() < 7, (k + round + drain).is_multiple_of(3)));
                }
            }
            jobs.extend([(released, true, false), (replaced, false, false), (foreign, true, true)]);
            jobs
        };
        let mut shadows: Vec<(SessionId, CosSession)> = ids
            .iter()
            .map(|&id| {
                let i = id.index();
                (id, CosSession::new(config(i), if i == 7 { 999 } else { 300 + i as u64 }))
            })
            .collect();
        let mut engines: Vec<(SessionPool, BatchEngine)> = [1, 2, 3, 4, 8]
            .iter()
            .map(|&threads| {
                let mut pool = SessionPool::new();
                let mut ids: Vec<SessionId> =
                    (0..11).map(|i| pool.create(config(i), 300 + i as u64)).collect();
                pool.release(ids.remove(4));
                pool.release(ids[6]);
                pool.create(config(7), 999);
                let mut engine = BatchEngine::new(EngineConfig { threads });
                engine.add_payload(&SHORT);
                engine.add_payload(&LONG);
                engine.add_control(&CONTROL);
                (pool, engine)
            })
            .collect();

        for drain in 0..3 {
            let jobs = schedule(drain);
            let want: Vec<JobResult> = jobs
                .iter()
                .map(|&(id, short, resilient)| {
                    let Some((_, s)) = shadows.iter_mut().find(|(sid, _)| *sid == id) else {
                        return JobResult::StaleSession;
                    };
                    let payload: &[u8] = if short { &SHORT } else { &LONG };
                    if resilient {
                        JobResult::Resilient(s.send_packet_resilient_summary(payload))
                    } else {
                        JobResult::Plain(s.send_packet_summary(payload, &CONTROL))
                    }
                })
                .collect();
            for (pool, engine) in &mut engines {
                for &(id, short, resilient) in &jobs {
                    let payload = PayloadId(if short { 0 } else { 1 });
                    if resilient {
                        engine.submit_resilient(id, payload);
                    } else {
                        engine.submit(id, payload, ControlId(0));
                    }
                }
                let out = engine.drain(pool);
                let got: Vec<JobResult> = out.iter().map(|o| o.result).collect();
                assert_eq!(got, want, "drain {drain}, {} threads", engine.cfg.threads);
                assert_eq!((pool.len(), pool.spares()), (live, spares));
                assert!(ids.iter().all(|&id| pool.get(id).is_some()), "a live handle went dead");
            }
        }
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
