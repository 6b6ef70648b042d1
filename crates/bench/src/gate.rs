//! The shared harness of the `gate` entries: the counting allocator, the
//! [`Verdict`] every check reports into, the [`thread_invariant`] runner
//! with its smoke pins, the engine-outcome digest over `cos_core`'s
//! FNV-1a and the storm fixtures.
//!
//! The gates assert determinism and allocation contracts; they measure
//! no throughput (`cosbench` is the perf ledger). The digest byte stream
//! is frozen: every recorded storm digest depends on it, and
//! `digest_outcome_is_pinned` fails on any change to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};

use cos_core::engine::{BatchEngine, ControlId, JobOutcome, JobResult, PayloadId};
use cos_core::session::Fnv;

/// Forwards to the system allocator while counting every allocation
/// (alloc + realloc) and the bytes requested. The counters are relaxed
/// atomics, so an entry that never reads them pays two relaxed adds per
/// allocation.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Process-wide `(allocations, bytes requested)` so far.
pub fn counters() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// The pass/fail ledger of one gate entry: each check reports into it,
/// a failed one is printed as `<name> FAILED: <what>` when it happens,
/// and [`finish`](Self::finish) prints the entry's one verdict line.
pub struct Verdict {
    name: &'static str,
    failures: usize,
}

impl Verdict {
    /// An empty ledger for the entry `name`.
    pub fn new(name: &'static str) -> Self {
        Verdict { name, failures: 0 }
    }

    /// Records one check; prints `msg` as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl Display) {
        if !ok {
            eprintln!("{} FAILED: {msg}", self.name);
            self.failures += 1;
        }
    }

    /// Prints `<name> passed` or `<name> FAILED (n checks)`; whether every
    /// check held.
    pub fn finish(self) -> bool {
        if self.failures == 0 {
            eprintln!("{} passed", self.name);
        } else {
            eprintln!("{} FAILED ({} checks)", self.name, self.failures);
        }
        self.failures == 0
    }
}

/// Runs one fleet at each of [`THREAD_COUNTS`] worker threads and checks
/// that its digest does not depend on the count. `fleet(threads)` returns
/// the run's digest, the rest of its `threads=N: digest …, <detail>`
/// line, and whatever else the entry checks; the results come back in
/// [`THREAD_COUNTS`] order. `what` names the digest (`outcome`, `mesh`,
/// `scripted`). Under `--smoke`, `pin` holds the recorded smoke digest
/// the 1-thread run must equal (`smoke_pin_holds`).
pub fn thread_invariant<R>(
    v: &mut Verdict,
    what: &str,
    pin: Option<u64>,
    mut fleet: impl FnMut(usize) -> (u64, String, R),
) -> Vec<R> {
    let mut digests = Vec::new();
    let mut runs = Vec::new();
    for t in THREAD_COUNTS {
        let (digest, detail, run) = fleet(t);
        eprintln!("  threads={t}: digest {digest:016x}, {detail}");
        digests.push(digest);
        runs.push(run);
    }
    v.check(
        digests.iter().all(|&d| d == digests[0]),
        format_args!("{what} digests differ across thread counts"),
    );
    if let Some(pinned) = pin {
        smoke_pin_holds(v, what, digests[0], pinned);
    }
    runs
}

/// Digests every field of one engine outcome.
///
/// The variant tags are historical: `Plain` and `Adaptive` share tag 1
/// because the `session` fleet never sees adaptive jobs and the
/// `adaptation` fleet sees nothing else. Changing a tag changes every
/// recorded storm digest.
pub fn digest_outcome(h: &mut Fnv, o: &JobOutcome) {
    h.usize(o.session.index());
    match &o.result {
        JobResult::Plain(p) => {
            h.byte(1);
            h.packet(p);
        }
        JobResult::Resilient(r) => {
            h.byte(2);
            h.resilient(r);
            if let Some(kind) = r.phy_error {
                h.bytes(kind.as_bytes());
            }
        }
        JobResult::Adaptive(a) => {
            h.byte(1);
            h.adaptive(a);
        }
        JobResult::StaleSession => h.byte(3),
    }
}

/// Checks a storm's behavioural digest against the value pinned for its
/// `--smoke` run, printing the match or reporting the mismatch to `v`.
/// The cross-thread, cross-kernel and cross-build comparisons cannot see
/// a change that moves a digest everywhere alike; the pins can. They move
/// only with a declared epoch, which updates them on purpose.
fn smoke_pin_holds(v: &mut Verdict, what: &str, digest: u64, pinned: u64) {
    if digest == pinned {
        eprintln!("  pinned: {what} digest {digest:016x} equals the recorded smoke digest");
    }
    v.check(
        digest == pinned,
        format_args!(
            "{what} digest {digest:016x} differs from the recorded smoke digest {pinned:016x}"
        ),
    );
}

/// Worker-thread counts every storm runs at; digests must agree across
/// all of them.
pub const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

/// Payload lengths the storms cycle through.
pub const PAYLOAD_LENS: [usize; 4] = [96, 240, 504, 1020];

/// Control-message lengths (bits) the storms cycle through.
pub const CONTROL_LENS: [usize; 4] = [8, 12, 16, 24];

/// A deterministic `len`-byte payload.
pub fn payload_bytes(len: usize) -> Vec<u8> {
    (0..len as u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect()
}

/// A deterministic `len`-bit control message.
pub fn control_bits(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 5 + len).is_multiple_of(3) as u8).collect()
}

/// Registers one payload per [`PAYLOAD_LENS`] entry and one control
/// message per [`CONTROL_LENS`] entry with `engine`.
pub fn register_tables(engine: &mut BatchEngine) -> (Vec<PayloadId>, Vec<ControlId>) {
    let payloads = PAYLOAD_LENS.iter().map(|&l| engine.add_payload(&payload_bytes(l))).collect();
    let controls = CONTROL_LENS.iter().map(|&l| engine.add_control(&control_bits(l))).collect();
    (payloads, controls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cos_core::adaptation::{ProbeEvent, ProbeState, StaircaseEvent};
    use cos_core::energy_detector::DetectionAccuracy;
    use cos_core::engine::SessionPool;
    use cos_core::session::{AdaptiveSummary, PacketSummary, ResilientSummary, SessionConfig};
    use cos_core::LinkMode;
    use cos_phy::rates::DataRate;

    /// One outcome of each `JobResult` variant digests to the value the
    /// per-storm digest functions produced before they were merged here
    /// (`session_storm`'s for plain/resilient/stale, `adaptation_storm`'s
    /// for adaptive). A change here invalidates every recorded storm
    /// digest.
    #[test]
    fn digest_outcome_is_pinned() {
        let mut pool = SessionPool::with_capacity(4);
        let ids: Vec<_> = (0..4).map(|i| pool.create(SessionConfig::default(), i)).collect();
        let packet = PacketSummary {
            data_ok: true,
            control_present: true,
            control_ok: false,
            silences_sent: 7,
            detection: DetectionAccuracy {
                false_positives: 1,
                false_negatives: 2,
                actual_silences: 30,
                actual_normals: 400,
            },
            measured_snr_db: 21.5,
            rate: DataRate::Mbps36,
            selected_len: 6,
            selected_hash: 0x0123_4567_89ab_cdef,
            control_hash: 0xfedc_ba98_7654_3210,
        };
        let outcomes = [
            JobOutcome { session: ids[0], result: JobResult::Plain(packet) },
            JobOutcome {
                session: ids[1],
                result: JobResult::Resilient(ResilientSummary {
                    packet: PacketSummary { data_ok: false, rate: DataRate::Mbps6, ..packet },
                    mode: LinkMode::Probing,
                    mode_after: LinkMode::DataOnly,
                    control_attempted: true,
                    control_acked: false,
                    feedback_delivered: true,
                    phy_error: Some("crc"),
                }),
            },
            JobOutcome {
                session: ids[2],
                result: JobResult::Adaptive(AdaptiveSummary {
                    packet: PacketSummary { control_ok: true, measured_snr_db: -3.25, ..packet },
                    ewma_snr_db: 18.25,
                    budget: 3,
                    rate_after: DataRate::Mbps48,
                    budget_after: 5,
                    search_state: ProbeState::SearchComplete,
                    staircase_event: StaircaseEvent::Downgrade,
                    probe_event: ProbeEvent::BackedOff,
                    control_acked: true,
                    feedback_delivered: false,
                }),
            },
            JobOutcome { session: ids[3], result: JobResult::StaleSession },
        ];
        let mut h = Fnv::new();
        for o in &outcomes {
            digest_outcome(&mut h, o);
        }
        assert_eq!(h.value(), 0x4de0_d26e_b1ff_3b42);
    }

    /// The runner fails an entry whose digest moves with the thread
    /// count, or whose smoke digest left its pin, and passes it otherwise.
    #[test]
    fn thread_invariant_fails_a_thread_dependent_digest_or_a_moved_pin() {
        let failures = |pin, skewed_at: usize| {
            let mut v = Verdict::new("fleet");
            let runs = thread_invariant(&mut v, "outcome", pin, |t| {
                (7 ^ u64::from(t == skewed_at), String::new(), t)
            });
            assert_eq!(runs, THREAD_COUNTS, "one run per thread count, in order");
            v.failures
        };
        assert_eq!(failures(None, 0), 0);
        assert_eq!(failures(Some(7), 0), 0);
        assert_eq!(failures(None, 4), 1);
        assert_eq!(failures(Some(8), 0), 1);
    }
}
