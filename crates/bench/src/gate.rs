//! The shared harness of the gate binaries: the counting allocator, the
//! engine-outcome digest over `cos_core`'s FNV-1a, the storm fixtures and
//! the flag parser.
//!
//! The gates assert determinism and allocation contracts; they measure
//! no throughput (`cosbench` is the perf ledger). The digest byte stream
//! is frozen: every recorded storm digest depends on it, and
//! `digest_outcome_is_pinned` fails on any change to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cos_core::engine::{JobOutcome, JobResult};
use cos_core::session::Fnv;

/// Forwards to the system allocator while counting every allocation
/// (alloc + realloc) and the bytes requested. The counters are relaxed
/// atomics, so a binary that never reads them pays two relaxed adds per
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

/// Digests every field of one engine outcome.
///
/// The variant tags are historical: `Plain` and `Adaptive` share tag 1
/// because `session_storm` never sees adaptive jobs and
/// `adaptation_storm` sees nothing else. Changing a tag changes every
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
/// `--smoke` run, printing the verdict; `false` on a mismatch. The
/// cross-thread, cross-kernel and cross-build comparisons cannot see a
/// change that moves a digest everywhere alike; the pins can. They move
/// only with a declared epoch, which updates them on purpose.
pub fn smoke_pin_holds(storm: &str, what: &str, digest: u64, pinned: u64) -> bool {
    if digest == pinned {
        eprintln!("  pinned: {what} digest {digest:016x} equals the recorded smoke digest");
        true
    } else {
        eprintln!(
            "{storm} FAILED: {what} digest {digest:016x} differs from the recorded smoke \
             digest {pinned:016x}"
        );
        false
    }
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

/// The command line of a gate binary. The only flag is `--smoke`
/// (reduced scale); each binary names whether it takes it.
pub struct Flags {
    /// `--smoke` was given.
    pub smoke: bool,
}

impl Flags {
    /// Parses the process arguments, exiting with status 2 on any
    /// argument outside `allowed` (e.g. `&["--smoke"]`).
    pub fn parse(allowed: &[&str]) -> Flags {
        Self::parse_from(std::env::args().skip(1), allowed).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns the usage message for an argument outside `allowed`.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        allowed: &[&str],
    ) -> Result<Flags, String> {
        let mut flags = Flags { smoke: false };
        for arg in args {
            match arg.as_str() {
                "--smoke" if allowed.contains(&"--smoke") => flags.smoke = true,
                _ => {
                    return Err(format!("unknown argument {arg:?}; accepted flags are {allowed:?}"))
                }
            }
        }
        Ok(flags)
    }
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

    fn parse(args: &[&str], allowed: &[&str]) -> Result<Flags, String> {
        Flags::parse_from(args.iter().map(|s| s.to_string()), allowed)
    }

    #[test]
    fn flags_take_only_smoke() {
        let smoke = ["--smoke"];
        assert!(!parse(&[], &smoke).unwrap().smoke);
        assert!(parse(&["--smoke"], &smoke).unwrap().smoke);
        let bad: [&[&str]; 3] = [&["--smoke=1"], &["--sessions", "8"], &["--smoke", "lanes"]];
        for bad in bad {
            assert!(parse(bad, &smoke).is_err(), "{bad:?}");
        }
        assert!(parse(&["--smoke"], &[]).is_err());
    }
}
