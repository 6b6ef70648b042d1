//! The `service` entry: the injected-fault proof for `cos_core::service`.
//!
//! Three phases:
//!
//! 1. **Deterministic chaos** — an identical scripted schedule of
//!    submissions, cancellations, queue-overflow bursts, poison jobs,
//!    worker stalls (short ones that recover, long ones the watchdog
//!    quarantines), session release/recreate churn, and a drain-under-load
//!    finish, run through [`ServiceCore`] at 1, 4 and 8 engine threads.
//!    Gates: outcome digests byte-identical across thread counts, **zero
//!    lost or duplicated tickets**, the stats ledger balances, every
//!    rejection type was exercised, and memory stayed bounded (queue
//!    high-water ≤ capacity, dead-letter queue ≤ capacity).
//! 2. **Journal replay** — the same storm with journaling on; the sealed
//!    journal is serialized, deserialized, and replayed at 1/4/8 threads.
//!    Gates: byte-exact serialize→deserialize round-trip and replay
//!    digests equal to the live digest at every thread count.
//! 3. **Live async chaos** — a journaled [`CosService`] with concurrent
//!    producer threads racing admission against the worker's pumps
//!    (a genuinely nondeterministic interleaving), plus injected faults.
//!    Gates: every accepted ticket resolves exactly once, the ledger
//!    balances, graceful drain completes, and the journal replays the
//!    live run bit-exactly at 1/4/8 threads.
//!
//! `--smoke` runs a reduced schedule with the same gates, and its
//! scripted digest must also equal the recorded `SMOKE_DIGEST`.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::gate::{
    control_bits, payload_bytes, thread_invariant, Verdict, CONTROL_LENS, PAYLOAD_LENS,
    THREAD_COUNTS,
};
use cos_core::engine::EngineConfig;
use cos_core::service::journal::ReplayJournal;
use cos_core::service::{
    CosService, Rejected, ServiceConfig, ServiceCore, ServiceJobKind, ServiceStats, Ticket,
};
use cos_core::session::SessionConfig;
use cos_phy::rates::DataRate;

fn storm_session_config(i: usize) -> SessionConfig {
    SessionConfig {
        snr_db: 14.0 + (i % 12) as f64,
        rate: if i.is_multiple_of(4) { None } else { Some(DataRate::ALL[(i / 4 + i) % 8]) },
        ..Default::default()
    }
}

fn storm_service_config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        queue_capacity: 64,
        session_quota: 6,
        max_inflight: 256,
        deadline_ticks: 12,
        retry_budget: 2,
        retry_backoff_cap: 4,
        stall_ticks: 3,
        dead_letter_capacity: 32,
        batch_limit: 24,
        engine: EngineConfig { threads },
    }
}

struct StormOutput {
    digest: u64,
    admitted: Vec<Ticket>,
    resolved: Vec<Ticket>,
    stats: ServiceStats,
    dead_letters: usize,
    journal: Option<ReplayJournal>,
}

/// One scripted chaos storm. Every decision (fault injection, cancel,
/// pump cadence, churn) is a pure function of deterministic counters, so
/// two runs differing only in `threads` execute the identical event
/// sequence — which is exactly what the cross-thread digest gate needs.
fn run_scripted_storm(
    sessions: usize,
    rounds: usize,
    threads: usize,
    journaled: bool,
) -> StormOutput {
    let cfg = storm_service_config(threads);
    let mut core =
        if journaled { ServiceCore::with_journal(cfg) } else { ServiceCore::new(cfg) };

    let mut ids: Vec<_> = (0..sessions)
        .map(|i| core.create_session(storm_session_config(i), 0xC0DE + i as u64))
        .collect();
    let payloads: Vec<_> =
        PAYLOAD_LENS.iter().map(|&l| core.add_payload(&payload_bytes(l))).collect();
    let controls: Vec<_> =
        CONTROL_LENS.iter().map(|&l| core.add_control(&control_bits(l))).collect();

    let mut admitted: Vec<Ticket> = Vec::new();

    for r in 0..rounds {
        for k in 0..sessions {
            // Fault the *next* ticket before submitting it: poison every
            // 23rd admission, stall every 31st for 1–5 ticks (1–3 recover
            // inside the watchdog's patience of 3; 4–5 get quarantined).
            let next = core.stats().admitted;
            if next % 23 == 7 {
                core.inject_poison(next);
            }
            if next % 31 == 11 {
                core.inject_stall(next, 1 + (next % 5) as u32);
            }
            let kind = match (k + r) % 3 {
                0 => ServiceJobKind::Plain(controls[(k * 7 + r) % controls.len()]),
                1 => ServiceJobKind::Resilient,
                _ => ServiceJobKind::Adaptive,
            };
            if let Ok(t) = core.try_submit(ids[k], payloads[(k + r) % payloads.len()], kind) {
                if t.value() % 29 == 13 {
                    core.cancel(t);
                }
                admitted.push(t);
            }
            if (k + r).is_multiple_of(9) {
                core.pump();
            }
        }
        // Quota burst: hammer one session far past its in-flight cap so
        // SessionQuota rejections are exercised deterministically.
        let hot = ids[r % sessions];
        for _ in 0..10 {
            if let Ok(t) = core.try_submit(hot, payloads[0], ServiceJobKind::Resilient) {
                admitted.push(t);
            }
        }
        // Overflow flood: one job to every session with no pump in
        // between. The bounded queue fills at its capacity and the rest
        // get the typed QueueFull rejection — memory stays bounded no
        // matter how hard the callers push.
        for k in 0..sessions {
            if let Ok(t) =
                core.try_submit(ids[k], payloads[k % payloads.len()], ServiceJobKind::Adaptive)
            {
                admitted.push(t);
            }
        }
        // Churn: release one session (queued jobs resolve StaleSession)
        // and replace it — the service must keep accounting straight
        // across generations.
        let victim = r % sessions;
        core.release_session(ids[victim]);
        ids[victim] = core.create_session(storm_session_config(victim + rounds), 0xFEED + r as u64);
        core.pump();
    }

    // Drain under load: stop admission while work is still queued, prove
    // the typed rejection, then let everything finish.
    core.begin_drain();
    let refused = core.try_submit(ids[0], payloads[0], ServiceJobKind::Resilient);
    assert_eq!(refused, Err(Rejected::Draining));
    core.run_to_drained();

    let stats = core.stats();
    let resolved = core.outcomes().iter().map(|o| o.ticket).collect();
    StormOutput {
        digest: core.digest(),
        resolved,
        stats,
        dead_letters: core.dead_letters().count(),
        journal: core.seal_journal(),
        admitted,
    }
}

/// Exactly-once resolution: every admitted ticket resolved once, none
/// twice, none that was never admitted.
fn check_exactly_once(v: &mut Verdict, label: &str, admitted: &[Ticket], resolved: &[Ticket]) {
    let admitted: BTreeSet<u64> = admitted.iter().map(|t| t.value()).collect();
    let resolved_set: BTreeSet<u64> = resolved.iter().map(|t| t.value()).collect();
    v.check(
        resolved.len() == resolved_set.len(),
        format_args!("[{label}] {} duplicated outcomes", resolved.len() - resolved_set.len()),
    );
    v.check(
        resolved_set == admitted,
        format_args!(
            "[{label}] lost/phantom tickets: {} admitted vs {} resolved",
            admitted.len(),
            resolved_set.len()
        ),
    );
}

/// Every admitted job resolved one way or another.
fn ledger_balances(s: &ServiceStats) -> bool {
    s.admitted
        == s.completed + s.expired + s.cancelled + s.quarantined_poison + s.quarantined_stall
}

/// Gates shared by every scripted storm: exactly-once resolution, a
/// balanced ledger, exercised rejection paths, bounded memory.
fn check_storm(v: &mut Verdict, out: &StormOutput, label: &str) {
    check_exactly_once(v, label, &out.admitted, &out.resolved);
    let s = out.stats;
    v.check(ledger_balances(&s), format_args!("[{label}] stats ledger does not balance"));
    v.check(
        s.engine_jobs == s.completed,
        format_args!(
            "[{label}] engine capacity leak: {} engine jobs vs {} completed",
            s.engine_jobs, s.completed
        ),
    );
    v.check(
        s.quarantined_poison > 0 && s.retries > 0,
        format_args!("[{label}] poison path not exercised"),
    );
    v.check(
        s.stalls_injected > 0 && s.stall_recoveries > 0 && s.watchdog_trips > 0,
        format_args!("[{label}] stall/watchdog paths not exercised"),
    );
    v.check(s.cancelled > 0, format_args!("[{label}] cancel path not exercised"));
    v.check(
        s.rejected_queue_full > 0 && s.rejected_session_quota > 0 && s.rejected_draining > 0,
        format_args!(
            "[{label}] rejection paths not all exercised (queue_full {}, quota {}, draining {})",
            s.rejected_queue_full, s.rejected_session_quota, s.rejected_draining
        ),
    );
    v.check(
        s.max_queue_depth <= 64,
        format_args!("[{label}] queue exceeded its bound: high-water {}", s.max_queue_depth),
    );
    v.check(
        s.max_inflight <= 256,
        format_args!("[{label}] in-flight exceeded its bound: high-water {}", s.max_inflight),
    );
    v.check(
        out.dead_letters <= 32,
        format_args!("[{label}] dead-letter queue exceeded its bound: {}", out.dead_letters),
    );
}

/// Serializes `journal`, decodes the bytes and replays them at every
/// thread count: the decode must be byte-exact and every replay must
/// reproduce the sealed live digest.
fn replay_everywhere(v: &mut Verdict, label: &str, journal: &ReplayJournal) {
    let bytes = journal.serialize();
    let decoded = match ReplayJournal::deserialize(&bytes) {
        Ok(decoded) => decoded,
        Err(e) => {
            v.check(false, format_args!("{label} journal does not decode: {e}"));
            return;
        }
    };
    v.check(
        decoded.serialize() == bytes,
        format_args!("{label} journal serialize→deserialize not byte-exact"),
    );
    for t in THREAD_COUNTS {
        match decoded.replay(t) {
            Ok(report) => {
                eprintln!(
                    "  {label} journal replay threads={t}: {:016x} (live {:016x})",
                    report.replay_digest,
                    journal.final_digest().unwrap_or_default()
                );
                v.check(report.matches(), format_args!("{label} replay diverged at {t} threads"));
            }
            Err(e) => v.check(false, format_args!("{label} replay at {t} threads: {e}")),
        }
    }
}

struct LiveOutput {
    accepted: Vec<Ticket>,
    resolved: Vec<Ticket>,
    rejected_after_retries: usize,
    digest: u64,
    stats: ServiceStats,
    journal: ReplayJournal,
    wall_trips: u64,
}

/// Live async chaos: real producer threads race the worker's pump loop,
/// so the admission interleaving is genuinely nondeterministic — the
/// journal must capture it well enough to replay bit-exactly.
fn run_live_storm(producers: usize, per_producer: usize, threads: usize) -> LiveOutput {
    let svc = Arc::new(CosService::start_with_journal(storm_service_config(threads)));
    let (ids, payloads, controls) = svc.with_core(|core| {
        let ids: Vec<_> = (0..8)
            .map(|i| core.create_session(storm_session_config(i), 0x11FE + i as u64))
            .collect();
        let payloads: Vec<_> =
            PAYLOAD_LENS.iter().map(|&l| core.add_payload(&payload_bytes(l))).collect();
        let controls: Vec<_> =
            CONTROL_LENS.iter().map(|&l| core.add_control(&control_bits(l))).collect();
        // Faults land on whatever jobs happen to win those admission
        // slots — the journal records the tickets, so replay agrees.
        for t in [5, 17, 29, 41, 53] {
            core.inject_poison(t);
        }
        for (t, d) in [(8, 2), (19, 5), (33, 1)] {
            core.inject_stall(t, d);
        }
        (ids, payloads, controls)
    });

    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let svc = Arc::clone(&svc);
            let ids = ids.clone();
            let payloads = payloads.clone();
            let controls = controls.clone();
            std::thread::spawn(move || {
                let mut accepted = Vec::new();
                let mut gave_up = 0usize;
                for j in 0..per_producer {
                    let session = ids[(p * 31 + j) % ids.len()];
                    let kind = match (p + j) % 3 {
                        0 => ServiceJobKind::Plain(controls[j % controls.len()]),
                        1 => ServiceJobKind::Resilient,
                        _ => ServiceJobKind::Adaptive,
                    };
                    let payload = payloads[(p + j) % payloads.len()];
                    // The typed rejection IS the backpressure: the caller
                    // holds the job and retries with a yield.
                    let mut tries = 0;
                    loop {
                        match svc.submit(session, payload, kind) {
                            Ok(t) => {
                                if t.value() % 37 == 3 {
                                    svc.cancel(t);
                                }
                                accepted.push(t);
                                break;
                            }
                            Err(Rejected::Draining) => unreachable!("drain starts after join"),
                            Err(_) if tries < 50_000 => {
                                tries += 1;
                                std::thread::yield_now();
                            }
                            Err(_) => {
                                gave_up += 1;
                                break;
                            }
                        }
                    }
                }
                (accepted, gave_up)
            })
        })
        .collect();

    let mut accepted: Vec<Ticket> = Vec::new();
    let mut gave_up = 0usize;
    for h in handles {
        let (a, g) = h.join().expect("producer panicked");
        accepted.extend(a);
        gave_up += g;
    }

    let svc = Arc::try_unwrap(svc).ok().expect("producers joined");
    let wall_trips = svc.watchdog_wall_trips();
    let mut core = svc.drain();

    let resolved = core.outcomes().iter().map(|o| o.ticket).collect();
    LiveOutput {
        accepted,
        resolved,
        rejected_after_retries: gave_up,
        digest: core.digest(),
        stats: core.stats(),
        journal: core.seal_journal().expect("journaling was on"),
        wall_trips,
    }
}

/// The `--smoke` scripted-storm digest (since the decode epoch). The live
/// storm's digest depends on pump timing and is not pinned.
const SMOKE_DIGEST: u64 = 0x8f2d_a69e_6ff2_d246;

/// The `service` entry (see the module docs).
pub fn run(v: &mut Verdict, smoke: bool) {
    let (sessions, rounds) = if smoke { (96, 3) } else { (192, 5) };
    let (producers, per_producer) = if smoke { (3, 40) } else { (4, 150) };
    eprintln!("service: {sessions} sessions, {rounds} rounds");

    // Phase 1: deterministic chaos across thread counts.
    let storms = thread_invariant(v, "scripted", smoke.then_some(SMOKE_DIGEST), |t| {
        let s = run_scripted_storm(sessions, rounds, t, false);
        let detail = format!(
            "{} admitted, {} completed, {} expired, {} cancelled, {} poison-quarantined, \
             {} watchdog-quarantined",
            s.stats.admitted,
            s.stats.completed,
            s.stats.expired,
            s.stats.cancelled,
            s.stats.quarantined_poison,
            s.stats.quarantined_stall
        );
        (s.digest, detail, s)
    });
    for (t, s) in THREAD_COUNTS.iter().zip(&storms) {
        check_storm(v, s, &format!("threads={t}"));
    }

    // Phase 2: journal replay byte-identity for the scripted storm.
    let journaled = run_scripted_storm(sessions, rounds, 2, true);
    let journal = journaled.journal.as_ref().expect("journaling was on");
    replay_everywhere(v, "scripted", journal);
    // threads=2 journaled run vs threads=4 plain run: same script, so
    // same digest — journaling itself must not perturb outcomes.
    v.check(
        journaled.digest == storms[1].digest,
        "journaled run digest differs from plain run",
    );

    // Phase 3: live async chaos with replay.
    let live = run_live_storm(producers, per_producer, 2);
    check_exactly_once(v, "live", &live.accepted, &live.resolved);
    v.check(ledger_balances(&live.stats), "live stats ledger does not balance");
    eprintln!(
        "  live: {} accepted ({} gave up), digest {:016x}, {} pumps, {} wall trips",
        live.accepted.len(),
        live.rejected_after_retries,
        live.digest,
        live.stats.pumps,
        live.wall_trips
    );
    replay_everywhere(v, "live", &live.journal);
}
