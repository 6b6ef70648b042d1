//! The deterministic replay journal: record a live service run, replay
//! it bit-exactly offline.
//!
//! A live [`CosService`](super::CosService) run is nondeterministic in
//! exactly one way: *how the worker's pumps interleave with the callers'
//! admissions*. Everything below that line — engine sharding, session
//! simulation, fault classification — is already deterministic
//! (`docs/DETERMINISM.md`). So the journal does not try to make the live
//! run deterministic; it **records the interleaving that actually
//! happened** as an ordered event log:
//!
//! * table registrations ([`add_payload`](super::ServiceCore::add_payload)
//!   / [`add_control`](super::ServiceCore::add_control)),
//! * session lifecycle (create with config + seed, release) by creation
//!   ordinal,
//! * fault injections (poison / stall, keyed by admission ticket),
//! * admissions (session ordinal, payload ordinal, job kind),
//! * cancellations, pumps, and the drain transition.
//!
//! Replaying the log through a fresh tick-driven
//! [`ServiceCore`] applies the same events in the
//! same order, so every admitted ticket meets the same queue state, the
//! same fault schedule and the same session state — and resolves to the
//! same [`ServiceOutcome`]. Rejections replay
//! identically too (admission is a pure function of journaled state), so
//! rejected submissions simply do not appear in the log. The sealed
//! journal embeds the live run's final outcome digest;
//! [`ReplayJournal::replay`] recomputes the digest and compares. Because
//! the engine's outcomes are thread-invariant, the comparison holds at
//! **any** `COS_THREADS` — the storm gates 1/4/8.
//!
//! The byte format is a versioned little-endian tag-length-value stream
//! (`COSJNL2\n` magic; version 1 carried the config fields that are now
//! constants and is refused); `f64`s are stored as IEEE 754 bit patterns
//! so round-tripping is exact.

use super::{ServiceConfig, ServiceCore, ServiceOutcome, ServiceResult, Ticket};
use crate::engine::{control_bits_fault, ControlId, JobKind, JobResult, PayloadId, SessionId};
use crate::session::{Fnv, SessionConfig};
use cos_channel::ChannelConfig;
use cos_phy::frame::MAX_PAYLOAD_LEN;
use cos_phy::rates::DataRate;

const MAGIC: &[u8; 8] = b"COSJNL2\n";

/// Running FNV-1a digest over service outcomes ([`Fnv::standard`]),
/// shared by live runs and replays.
#[derive(Debug, Clone)]
pub struct OutcomeDigest(Fnv);

impl Default for OutcomeDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl OutcomeDigest {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        OutcomeDigest(Fnv::standard())
    }

    /// Folds one resolved outcome into the digest.
    pub fn outcome(&mut self, o: &ServiceOutcome) {
        let h = &mut self.0;
        h.u64(o.ticket.value());
        h.u64(o.session.index() as u64);
        h.u64(o.session.generation() as u64);
        match &o.result {
            ServiceResult::Completed(r) => {
                h.byte(0);
                match r {
                    JobResult::Plain(p) => {
                        h.byte(0);
                        h.packet(p);
                    }
                    JobResult::Resilient(s) => {
                        h.byte(1);
                        h.resilient(s);
                    }
                    JobResult::Adaptive(s) => {
                        h.byte(2);
                        h.adaptive(s);
                    }
                    JobResult::StaleSession => h.byte(3),
                }
            }
            ServiceResult::Expired => h.byte(1),
            ServiceResult::Quarantined(reason) => {
                h.byte(2);
                h.byte(*reason as u8);
            }
            ServiceResult::Cancelled => h.byte(3),
        }
    }

    /// The digest value so far.
    pub fn value(&self) -> u64 {
        self.0.value()
    }
}

/// One recorded state-changing call (crate-internal; the byte stream is
/// the public contract).
#[derive(Debug, Clone)]
pub(crate) enum JournalEvent {
    /// `add_payload` bytes.
    Payload(Box<[u8]>),
    /// `add_control` bits.
    Control(Box<[u8]>),
    /// `create_session` with config and seed (boxed to keep the enum
    /// small — this is the rare variant).
    CreateSession {
        config: Box<SessionConfig>,
        seed: u64,
    },
    /// `release_session`, by creation ordinal.
    ReleaseSession {
        ordinal: u32,
    },
    /// A successful `try_submit` (built by [`JournalEvent::admit`]).
    /// `kind`: 0 plain, 1 resilient, 2 adaptive; `control` is the
    /// control ordinal (plain) or `u32::MAX`.
    Admit {
        ordinal: u32,
        payload: u32,
        kind: u8,
        control: u32,
    },
    /// A successful `cancel`.
    Cancel {
        ticket: u64,
    },
    /// One `pump`.
    Pump,
    /// `begin_drain`.
    BeginDrain,
    /// `inject_poison`.
    Poison {
        ticket: u64,
    },
    /// `inject_stall`.
    Stall {
        ticket: u64,
        ticks: u32,
    },
}

impl JournalEvent {
    /// The admission of a `kind` job for the session created
    /// `ordinal`-th with the `payload`-th payload, in journal codes.
    pub(crate) fn admit(ordinal: u32, payload: u32, kind: JobKind) -> Self {
        let (kind, control) = match kind {
            JobKind::Plain(c) => (0, c.ordinal()),
            JobKind::Resilient => (1, u32::MAX),
            JobKind::Adaptive => (2, u32::MAX),
        };
        JournalEvent::Admit { ordinal, payload, kind, control }
    }
}

/// Why a journal byte stream failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalError {
    /// The stream ended mid-record.
    Truncated,
    /// The magic header did not match.
    BadMagic,
    /// An unknown event tag.
    BadTag(u8),
    /// A field held an out-of-domain value.
    BadValue(&'static str),
    /// A decoded journal that does not replay: an event names a session,
    /// payload or control ordinal never recorded, or a recorded release,
    /// admission or cancel fails on replay.
    Diverged(&'static str),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Truncated => write!(f, "journal truncated"),
            JournalError::BadMagic => write!(f, "journal magic mismatch"),
            JournalError::BadTag(t) => write!(f, "unknown journal event tag {t}"),
            JournalError::BadValue(what) => write!(f, "journal field out of domain: {what}"),
            JournalError::Diverged(what) => write!(f, "journal replay diverged: {what}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// The outcome of replaying a sealed journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// The live run's sealed digest (`None` when replaying an unsealed
    /// journal).
    pub live_digest: Option<u64>,
    /// The digest the replay produced.
    pub replay_digest: u64,
    /// Outcomes the replay resolved.
    pub outcomes: usize,
}

impl ReplayReport {
    /// Whether the replay reproduced the live run bit-exactly. `false`
    /// for unsealed journals.
    pub fn matches(&self) -> bool {
        self.live_digest == Some(self.replay_digest)
    }
}

/// The event log of one service run — see the module docs.
#[derive(Debug, Clone)]
pub struct ReplayJournal {
    config: ServiceConfig,
    events: Vec<JournalEvent>,
    final_digest: Option<u64>,
}

impl ReplayJournal {
    pub(crate) fn new(config: ServiceConfig) -> Self {
        ReplayJournal { config, events: Vec::new(), final_digest: None }
    }

    pub(crate) fn push(&mut self, event: JournalEvent) {
        self.events.push(event);
    }

    pub(crate) fn seal(&mut self, digest: u64) {
        self.final_digest = Some(digest);
    }

    /// Events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The live run's sealed outcome digest, once sealed.
    pub fn final_digest(&self) -> Option<u64> {
        self.final_digest
    }

    /// The recorded service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Serializes the journal to its versioned byte format.
    pub fn serialize(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(64 + self.events.len() * 4);
        w.extend_from_slice(MAGIC);
        write_service_config(&mut w, &self.config);
        match self.final_digest {
            Some(d) => {
                w.push(1);
                w_u64(&mut w, d);
            }
            None => w.push(0),
        }
        w_u64(&mut w, self.events.len() as u64);
        for ev in &self.events {
            write_event(&mut w, ev);
        }
        w
    }

    /// Decodes a journal from bytes produced by
    /// [`serialize`](Self::serialize).
    pub fn deserialize(bytes: &[u8]) -> Result<Self, JournalError> {
        let mut r = Reader { bytes, at: 0 };
        let magic = r.take(8)?;
        if magic != MAGIC {
            return Err(JournalError::BadMagic);
        }
        let config = read_service_config(&mut r)?;
        let final_digest = match r.u8()? {
            0 => None,
            1 => Some(r.u64()?),
            _ => return Err(JournalError::BadValue("digest flag")),
        };
        let n = r.u64()? as usize;
        if n > bytes.len() {
            // Each event costs at least one tag byte; a count beyond the
            // stream length is corruption, not a huge journal.
            return Err(JournalError::BadValue("event count"));
        }
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            events.push(read_event(&mut r)?);
        }
        if r.at != bytes.len() {
            return Err(JournalError::BadValue("trailing bytes"));
        }
        Ok(ReplayJournal { config, events, final_digest })
    }

    /// Replays the log through a fresh [`ServiceCore`] with `threads`
    /// engine workers (0 resolves like
    /// [`crate::engine::configured_threads`]) and compares outcome
    /// digests.
    ///
    /// # Errors
    ///
    /// [`JournalError::Diverged`] if the journal is internally
    /// inconsistent: an event refers to a session, payload or control
    /// ordinal that was never recorded, or a recorded release, admission
    /// or cancel fails on replay. Either means a corrupted or hand-edited
    /// log rather than a failed comparison.
    pub fn replay(&self, threads: usize) -> Result<ReplayReport, JournalError> {
        let mut cfg = self.config.clone();
        cfg.engine.threads = threads;
        let mut core = ServiceCore::new(cfg);
        let mut sessions: Vec<SessionId> = Vec::new();
        let mut payloads: Vec<PayloadId> = Vec::new();
        let mut controls: Vec<ControlId> = Vec::new();
        for ev in &self.events {
            match ev {
                JournalEvent::Payload(b) => payloads.push(core.add_payload(b)),
                JournalEvent::Control(b) => controls.push(core.add_control(b)),
                JournalEvent::CreateSession { config, seed } => {
                    sessions.push(core.create_session(config.as_ref().clone(), *seed));
                }
                JournalEvent::ReleaseSession { ordinal } => {
                    let id = recorded(&sessions, *ordinal, "session ordinal")?;
                    diverged_unless(core.release_session(id), "release")?;
                }
                JournalEvent::Admit { ordinal, payload, kind, control } => {
                    let k = match kind {
                        0 => JobKind::Plain(recorded(&controls, *control, "control ordinal")?),
                        1 => JobKind::Resilient,
                        2 => JobKind::Adaptive,
                        _ => unreachable!("kind validated at decode"),
                    };
                    let session = recorded(&sessions, *ordinal, "session ordinal")?;
                    let payload = recorded(&payloads, *payload, "payload ordinal")?;
                    diverged_unless(core.try_submit(session, payload, k).is_ok(), "admission")?;
                }
                JournalEvent::Cancel { ticket } => {
                    diverged_unless(core.cancel(Ticket(*ticket)), "cancel")?;
                }
                JournalEvent::Pump => {
                    core.pump();
                }
                JournalEvent::BeginDrain => core.begin_drain(),
                JournalEvent::Poison { ticket } => core.inject_poison(*ticket),
                JournalEvent::Stall { ticket, ticks } => core.inject_stall(*ticket, *ticks),
            }
        }
        Ok(ReplayReport {
            live_digest: self.final_digest,
            replay_digest: core.digest(),
            outcomes: core.outcomes().len(),
        })
    }
}

/// The `ordinal`-th recorded ID, or [`JournalError::Diverged`]`(what)`.
fn recorded<T: Copy>(ids: &[T], ordinal: u32, what: &'static str) -> Result<T, JournalError> {
    ids.get(ordinal as usize).copied().ok_or(JournalError::Diverged(what))
}

fn diverged_unless(ok: bool, what: &'static str) -> Result<(), JournalError> {
    if ok {
        Ok(())
    } else {
        Err(JournalError::Diverged(what))
    }
}

// --- byte-level writers/readers -----------------------------------------

fn w_u8(w: &mut Vec<u8>, v: u8) {
    w.push(v);
}

fn w_u32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn w_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn w_usize(w: &mut Vec<u8>, v: usize) {
    w_u64(w, v as u64);
}

fn w_f64(w: &mut Vec<u8>, v: f64) {
    w_u64(w, v.to_bits());
}

fn w_bytes(w: &mut Vec<u8>, v: &[u8]) {
    w_u64(w, v.len() as u64);
    w.extend_from_slice(v);
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], JournalError> {
        let end = self.at.checked_add(n).ok_or(JournalError::Truncated)?;
        if end > self.bytes.len() {
            return Err(JournalError::Truncated);
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, JournalError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, JournalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, JournalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn usize_(&mut self) -> Result<usize, JournalError> {
        usize::try_from(self.u64()?).map_err(|_| JournalError::BadValue("usize"))
    }

    fn f64(&mut self) -> Result<f64, JournalError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bytes_(&mut self) -> Result<Box<[u8]>, JournalError> {
        let n = self.u64()? as usize;
        if n > self.bytes.len() {
            return Err(JournalError::Truncated);
        }
        Ok(self.take(n)?.into())
    }
}

fn write_service_config(w: &mut Vec<u8>, c: &ServiceConfig) {
    w_usize(w, c.queue_capacity);
    w_usize(w, c.session_quota);
    w_usize(w, c.max_inflight);
    w_u64(w, c.deadline_ticks);
    w_u32(w, c.retry_budget);
    w_u64(w, c.retry_backoff_cap);
    w_u64(w, c.stall_ticks);
    w_usize(w, c.dead_letter_capacity);
    w_usize(w, c.batch_limit);
    w_usize(w, c.engine.threads);
}

/// Reads a service config and holds it to [`ServiceConfig::validate`],
/// so a config that would panic on replay is refused here.
fn read_service_config(r: &mut Reader<'_>) -> Result<ServiceConfig, JournalError> {
    let config = ServiceConfig {
        queue_capacity: r.usize_()?,
        session_quota: r.usize_()?,
        max_inflight: r.usize_()?,
        deadline_ticks: r.u64()?,
        retry_budget: r.u32()?,
        retry_backoff_cap: r.u64()?,
        stall_ticks: r.u64()?,
        dead_letter_capacity: r.usize_()?,
        batch_limit: r.usize_()?,
        engine: crate::engine::EngineConfig { threads: r.usize_()? },
    };
    config.validate().map_err(JournalError::BadValue)?;
    Ok(config)
}

fn write_session_config(w: &mut Vec<u8>, c: &SessionConfig) {
    w_usize(w, c.channel.n_taps);
    w_f64(w, c.channel.tap_decay);
    w_f64(w, c.channel.k_factor);
    w_f64(w, c.channel.doppler_hz);
    w_f64(w, c.snr_db);
    w_u8(w, c.rate.map_or(u8::MAX, |r| r as u8));
    w_usize(w, c.min_control_subcarriers);
    w_f64(w, c.packet_interval);
    w_u32(w, c.arq_max_retries);
    w_usize(w, c.max_budget);
}

/// Reads a session config and holds it to [`SessionConfig::validate`], so
/// a value that would panic on replay is refused here.
fn read_session_config(r: &mut Reader<'_>) -> Result<SessionConfig, JournalError> {
    let channel = ChannelConfig {
        n_taps: r.usize_()?,
        tap_decay: r.f64()?,
        k_factor: r.f64()?,
        doppler_hz: r.f64()?,
    };
    let snr_db = r.f64()?;
    let rate = match r.u8()? {
        u8::MAX => None,
        i if (i as usize) < DataRate::ALL.len() => Some(DataRate::ALL[i as usize]),
        _ => return Err(JournalError::BadValue("rate index")),
    };
    let config = SessionConfig {
        channel,
        snr_db,
        rate,
        min_control_subcarriers: r.usize_()?,
        packet_interval: r.f64()?,
        arq_max_retries: r.u32()?,
        max_budget: r.usize_()?,
    };
    config.validate().map_err(JournalError::BadValue)?;
    Ok(config)
}

fn write_event(w: &mut Vec<u8>, ev: &JournalEvent) {
    match ev {
        JournalEvent::Payload(b) => {
            w_u8(w, 1);
            w_bytes(w, b);
        }
        JournalEvent::Control(b) => {
            w_u8(w, 2);
            w_bytes(w, b);
        }
        JournalEvent::CreateSession { config, seed } => {
            w_u8(w, 3);
            write_session_config(w, config);
            w_u64(w, *seed);
        }
        JournalEvent::ReleaseSession { ordinal } => {
            w_u8(w, 4);
            w_u32(w, *ordinal);
        }
        JournalEvent::Admit { ordinal, payload, kind, control } => {
            w_u8(w, 5);
            w_u32(w, *ordinal);
            w_u32(w, *payload);
            w_u8(w, *kind);
            w_u32(w, *control);
        }
        JournalEvent::Cancel { ticket } => {
            w_u8(w, 6);
            w_u64(w, *ticket);
        }
        JournalEvent::Pump => w_u8(w, 7),
        JournalEvent::BeginDrain => w_u8(w, 8),
        JournalEvent::Poison { ticket } => {
            w_u8(w, 9);
            w_u64(w, *ticket);
        }
        JournalEvent::Stall { ticket, ticks } => {
            w_u8(w, 10);
            w_u64(w, *ticket);
            w_u32(w, *ticks);
        }
    }
}

fn read_event(r: &mut Reader<'_>) -> Result<JournalEvent, JournalError> {
    let tag = r.u8()?;
    Ok(match tag {
        1 => {
            let bytes = r.bytes_()?;
            if bytes.len() > MAX_PAYLOAD_LEN {
                return Err(JournalError::BadValue("payload"));
            }
            JournalEvent::Payload(bytes)
        }
        2 => {
            let bits = r.bytes_()?;
            if control_bits_fault(&bits).is_some() {
                return Err(JournalError::BadValue("control"));
            }
            JournalEvent::Control(bits)
        }
        3 => {
            let config = Box::new(read_session_config(r)?);
            let seed = r.u64()?;
            JournalEvent::CreateSession { config, seed }
        }
        4 => JournalEvent::ReleaseSession { ordinal: r.u32()? },
        5 => {
            let ordinal = r.u32()?;
            let payload = r.u32()?;
            let kind = r.u8()?;
            if kind > 2 {
                return Err(JournalError::BadValue("job kind"));
            }
            let control = r.u32()?;
            JournalEvent::Admit { ordinal, payload, kind, control }
        }
        6 => JournalEvent::Cancel { ticket: r.u64()? },
        7 => JournalEvent::Pump,
        8 => JournalEvent::BeginDrain,
        9 => JournalEvent::Poison { ticket: r.u64()? },
        10 => JournalEvent::Stall { ticket: r.u64()?, ticks: r.u32()? },
        t => return Err(JournalError::BadTag(t)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceCore;

    fn journaled_run() -> (ServiceCore, ReplayJournal) {
        let cfg = ServiceConfig {
            engine: crate::engine::EngineConfig { threads: 1 },
            retry_budget: 1,
            stall_ticks: 3,
            ..ServiceConfig::default()
        };
        let mut core = ServiceCore::with_journal(cfg);
        let plain = core.create_session(SessionConfig::default(), 11);
        let fancy = core.create_session(
            SessionConfig {
                snr_db: 21.0,
                rate: Some(DataRate::Mbps12),
                ..SessionConfig::default()
            },
            12,
        );
        let payload = core.add_payload(&[0xC3; 140]);
        let control = core.add_control(&[1, 0, 0, 1]);
        core.inject_poison(2);
        core.inject_stall(4, 2);
        let mut cancel_me = None;
        for i in 0..8 {
            let (s, k) = match i % 4 {
                0 => (plain, JobKind::Plain(control)),
                1 => (fancy, JobKind::Resilient),
                2 => (fancy, JobKind::Adaptive),
                _ => (plain, JobKind::Resilient),
            };
            let t = core.try_submit(s, payload, k).unwrap();
            if i == 6 {
                cancel_me = Some(t);
            }
            if i % 3 == 2 {
                core.pump();
            }
        }
        assert!(core.cancel(cancel_me.unwrap()));
        core.release_session(plain);
        core.begin_drain();
        core.run_to_drained();
        let journal = core.seal_journal().expect("journaling was on");
        (core, journal)
    }

    #[test]
    fn serialize_roundtrips_byte_exactly() {
        let (_, journal) = journaled_run();
        let bytes = journal.serialize();
        let decoded = ReplayJournal::deserialize(&bytes).expect("valid journal");
        assert_eq!(decoded.serialize(), bytes);
        assert_eq!(decoded.len(), journal.len());
        assert_eq!(decoded.final_digest(), journal.final_digest());
    }

    #[test]
    fn replay_reproduces_live_digest_at_any_thread_count() {
        let (core, journal) = journaled_run();
        let bytes = journal.serialize();
        let decoded = ReplayJournal::deserialize(&bytes).expect("valid journal");
        for threads in [1, 4, 8] {
            let report = decoded.replay(threads).expect("consistent journal");
            assert!(report.matches(), "replay diverged at {threads} threads");
            assert_eq!(report.outcomes, core.outcomes().len());
        }
    }

    #[test]
    fn unsealed_journal_never_matches() {
        let mut core = ServiceCore::with_journal(ServiceConfig::default());
        let s = core.create_session(SessionConfig::default(), 3);
        let p = core.add_payload(&[0x11; 100]);
        core.try_submit(s, p, JobKind::Resilient).unwrap();
        core.run_to_drained();
        // Take the journal WITHOUT sealing: clone the events via
        // serialize-before-seal semantics.
        let journal = {
            let j = core.seal_journal().unwrap();
            let mut unsealed = ReplayJournal::deserialize(&j.serialize()).unwrap();
            unsealed.final_digest = None;
            unsealed
        };
        let report = journal.replay(1).expect("consistent journal");
        assert!(!report.matches());
        assert_eq!(report.live_digest, None);
    }

    #[test]
    fn deserialize_rejects_corruption() {
        let (_, journal) = journaled_run();
        let bytes = journal.serialize();

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(ReplayJournal::deserialize(&bad_magic).unwrap_err(), JournalError::BadMagic);

        let truncated = &bytes[..bytes.len() - 3];
        assert!(ReplayJournal::deserialize(truncated).is_err());

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            ReplayJournal::deserialize(&trailing).unwrap_err(),
            JournalError::BadValue("trailing bytes")
        );

        assert!(ReplayJournal::deserialize(b"").is_err());
    }

    /// A version-1 journal carried the config fields that are now
    /// constants; its layout no longer decodes, so its magic is refused.
    #[test]
    fn deserialize_refuses_a_version_1_journal() {
        let (_, journal) = journaled_run();
        let mut v1 = journal.serialize();
        v1[..8].copy_from_slice(b"COSJNL1\n");
        assert_eq!(ReplayJournal::deserialize(&v1).unwrap_err(), JournalError::BadMagic);
    }

    /// The service config leads the journal, right after the magic; a
    /// zero capacity, quota, in-flight cap or batch limit is refused, as
    /// [`ServiceCore::new`] would panic on it.
    #[test]
    fn deserialize_rejects_out_of_range_service_config() {
        let (_, journal) = journaled_run();
        let bytes = journal.serialize();
        let fields = [
            ("queue_capacity", 8),
            ("session_quota", 16),
            ("max_inflight", 24),
            // deadline_ticks (8 bytes), retry_budget (4), retry_backoff_cap,
            // stall_ticks and dead_letter_capacity (8 each) come between.
            ("batch_limit", 68),
        ];
        for (field, at) in fields {
            assert_eq!(
                ReplayJournal::deserialize(&patched(&bytes, at, 0)).unwrap_err(),
                JournalError::BadValue(field),
                "{field} = 0"
            );
            assert!(ReplayJournal::deserialize(&patched(&bytes, at, 1)).is_ok(), "{field} = 1");
        }
    }

    /// A payload longer than one frame carries is refused on read, as
    /// [`ServiceCore::add_payload`] would panic on it.
    #[test]
    fn deserialize_rejects_an_oversize_payload() {
        for (len, fits) in [(MAX_PAYLOAD_LEN, true), (MAX_PAYLOAD_LEN + 1, false)] {
            let mut journal = ReplayJournal::new(ServiceConfig::default());
            journal.push(JournalEvent::Payload(vec![0x33; len].into()));
            let read = ReplayJournal::deserialize(&journal.serialize());
            if fits {
                assert_eq!(read.unwrap().len(), 1);
            } else {
                assert_eq!(read.unwrap_err(), JournalError::BadValue("payload"));
            }
        }
    }

    /// A control message the codec cannot carry is refused on read, as
    /// [`ServiceCore::add_control`] would panic on it.
    #[test]
    fn deserialize_rejects_a_control_message_the_codec_cannot_carry() {
        for (bits, fits) in [(&[1, 0, 0, 1][..], true), (&[1, 0, 1], false), (&[1, 0, 2, 1], false)] {
            let mut journal = ReplayJournal::new(ServiceConfig::default());
            journal.push(JournalEvent::Control(bits.into()));
            let read = ReplayJournal::deserialize(&journal.serialize());
            if fits {
                assert_eq!(read.unwrap().len(), 1);
            } else {
                assert_eq!(read.unwrap_err(), JournalError::BadValue("control"), "{bits:?}");
            }
        }
    }

    /// Events that decode but do not fit the run they claim to record
    /// are a typed divergence, not a panic.
    #[test]
    fn replay_reports_an_inconsistent_journal_as_diverged() {
        let cases = [
            (JournalEvent::ReleaseSession { ordinal: 0 }, "session ordinal"),
            (JournalEvent::admit(0, 0, JobKind::Resilient), "session ordinal"),
            (JournalEvent::Cancel { ticket: 3 }, "cancel"),
        ];
        for (event, what) in cases {
            let mut journal = ReplayJournal::new(ServiceConfig::default());
            journal.push(event);
            assert_eq!(journal.replay(1).unwrap_err(), JournalError::Diverged(what));
        }
        let mut journal = ReplayJournal::new(ServiceConfig::default());
        journal.push(JournalEvent::CreateSession { config: Box::default(), seed: 1 });
        journal.push(JournalEvent::admit(0, 0, JobKind::Resilient));
        assert_eq!(journal.replay(1).unwrap_err(), JournalError::Diverged("payload ordinal"));
    }

    /// Seeded bit flips, truncations and splices of a journaled run's
    /// bytes either fail to decode or replay to a report: neither the
    /// reader nor the replay panics on them.
    #[test]
    fn mutated_journals_never_panic_through_decode_and_replay() {
        let bytes = journaled_run().1.serialize();
        let other = distinctive_journal();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let (mut decoded, mut replayed) = (0, 0);
        for i in 0..MUTATIONS {
            let mutant = match i % 3 {
                0 => {
                    let mut m = bytes.clone();
                    for _ in 0..1 + next(3) {
                        let at = next(m.len());
                        m[at] ^= 1 << next(8);
                    }
                    m
                }
                1 => bytes[..next(bytes.len())].to_vec(),
                _ => {
                    let (a, b) = if i % 2 == 0 { (&bytes, &other) } else { (&other, &bytes) };
                    let mut m = a[..next(a.len())].to_vec();
                    m.extend_from_slice(&b[next(b.len())..]);
                    m
                }
            };
            if let Ok(journal) = ReplayJournal::deserialize(&mutant) {
                decoded += 1;
                replayed += usize::from(journal.replay(1).is_ok());
            }
        }
        // The loop must reach the replay, not only the reader's errors.
        assert!(replayed > 0, "{decoded} decoded, none replayed");
    }

    /// Mutants the loop above tries.
    const MUTATIONS: usize = 300;

    // Session-config values whose bit patterns occur once in the journal.
    const SNR_DB: f64 = 17.375;
    const TAP_DECAY: f64 = 0.3125;
    const PACKET_INTERVAL: f64 = 1.0625e-3;

    /// Journal bytes of one resilient and one adaptive job on a session
    /// whose config carries the distinctive values above, so each field
    /// under test can be found by its bit pattern (or by its distinctive
    /// neighbour's).
    fn distinctive_journal() -> Vec<u8> {
        let config = SessionConfig {
            channel: ChannelConfig { tap_decay: TAP_DECAY, ..ChannelConfig::default() },
            snr_db: SNR_DB,
            packet_interval: PACKET_INTERVAL,
            ..SessionConfig::default()
        };
        let mut core = ServiceCore::with_journal(ServiceConfig::default());
        let s = core.create_session(config, 5);
        let p = core.add_payload(&[0x5A; 60]);
        core.try_submit(s, p, JobKind::Resilient).unwrap();
        core.try_submit(s, p, JobKind::Adaptive).unwrap();
        core.run_to_drained();
        let bytes = core.seal_journal().expect("journaling was on").serialize();
        assert!(ReplayJournal::deserialize(&bytes).is_ok());
        bytes
    }

    /// Offset of the one occurrence of `v`'s bit pattern in `bytes`.
    fn locate(bytes: &[u8], v: f64) -> usize {
        let pattern = v.to_bits().to_le_bytes();
        let at: Vec<usize> =
            (0..=bytes.len() - 8).filter(|&i| bytes[i..i + 8] == pattern).collect();
        assert_eq!(at.len(), 1, "{v} must be locatable");
        at[0]
    }

    fn patched(bytes: &[u8], at: usize, word: u64) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[at..at + 8].copy_from_slice(&word.to_le_bytes());
        out
    }

    #[test]
    fn deserialize_rejects_non_finite_session_config() {
        let bytes = distinctive_journal();
        let at = locate(&bytes, SNR_DB);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                ReplayJournal::deserialize(&patched(&bytes, at, bad.to_bits())).unwrap_err(),
                JournalError::BadValue("snr_db"),
                "snr_db = {bad}"
            );
        }
    }

    #[test]
    fn deserialize_rejects_out_of_range_session_config() {
        let bytes = distinctive_journal();
        // n_taps is written just before tap_decay; min_control_subcarriers
        // just before packet_interval, then arq_max_retries (4 bytes) and
        // max_budget.
        let n_taps = locate(&bytes, TAP_DECAY) - 8;
        let interval = locate(&bytes, PACKET_INTERVAL);
        let cases: [(&str, usize, [u64; 2], [u64; 2]); 4] = [
            ("n_taps", n_taps, [0, 17], [1, 16]),
            // The bootstrap block 9..9+min must fit the 48 data subcarriers.
            ("min_control_subcarriers", interval - 8, [40, u64::MAX], [0, 39]),
            (
                "packet_interval",
                interval,
                [(-1.0f64).to_bits(), (-f64::MIN_POSITIVE).to_bits()],
                [0.0f64.to_bits(), (-0.0f64).to_bits()],
            ),
            // The probe ceiling is at least the base budget (2).
            ("max_budget", interval + 12, [0, 1], [2, 3]),
        ];
        for (field, at, rejected, accepted) in cases {
            for word in rejected {
                assert_eq!(
                    ReplayJournal::deserialize(&patched(&bytes, at, word)).unwrap_err(),
                    JournalError::BadValue(field),
                    "{field} = {word:#x}"
                );
            }
            // The edges of the domain still decode and replay without a
            // panic (the digest differs: the live run used other values).
            for word in accepted {
                let journal = ReplayJournal::deserialize(&patched(&bytes, at, word))
                    .unwrap_or_else(|e| panic!("{field} = {word:#x}: {e}"));
                assert_eq!(journal.replay(1).unwrap().outcomes, 2, "{field} = {word:#x}");
            }
        }
    }
}
