//! Differential test for the batch engine: a mixed-rate, mixed-fault,
//! mixed-kind job list pushed through [`cos_core::BatchEngine`] at 1, 4
//! and 8 worker threads must be **byte-identical** (every `f64` compared
//! by bit pattern) to running the same per-session call sequence on plain
//! [`cos_core::CosSession`]s with no engine at all.
//!
//! This is the engine's whole contract in one test: sharding on the
//! session boundary, per-session program order = submit order, no
//! cross-session state bleeding through the pool or the workers, and the
//! frames a worker runs on its own frame plane bit-identical to the
//! per-frame send paths for every job kind. The per-frame paths share
//! their thread's frame plane across sessions, and that sharing must be
//! invisible too.

use cos_channel::{BurstInterference, FaultEngine, FeedbackLoss};
use cos_core::session::{
    AdaptiveSummary, CosSession, PacketSummary, ResilientSummary, SessionConfig,
};
use cos_core::{BatchEngine, EngineConfig, JobResult, SessionPool};
use cos_phy::rates::DataRate;

const N_SESSIONS: usize = 8;
const N_JOBS: usize = 200;

fn session_config(i: usize) -> SessionConfig {
    SessionConfig {
        snr_db: 15.0 + (i % 6) as f64 * 2.0,
        rate: if i.is_multiple_of(3) { None } else { Some(DataRate::ALL[(i * 3) % 8]) },
        ..Default::default()
    }
}

/// Faults are deterministic but must be constructed fresh for every run —
/// the engine's and the reference's sessions each get their own copy of
/// the same seeded impairments.
fn session_faults(i: usize) -> Option<FaultEngine> {
    match i % 4 {
        1 => Some(
            FaultEngine::new()
                .with(BurstInterference::new(0.5, 40, 0.3, 90 + i as u64))
                .with_window(3, 12),
        ),
        2 => Some(FaultEngine::new().with(FeedbackLoss::new(0.7, 7 + i as u64))),
        _ => None,
    }
}

fn seed(i: usize) -> u64 {
    0xD1FF + i as u64
}

#[derive(Clone, Copy)]
enum Kind {
    Plain { payload: usize, control: usize },
    Resilient { payload: usize },
    Adaptive { payload: usize },
}

/// The job schedule: session choice deliberately non-round-robin so
/// per-session sequences interleave unevenly across the batch, with all
/// three job kinds mixed on the same sessions.
fn schedule() -> Vec<(usize, Kind)> {
    (0..N_JOBS)
        .map(|k| {
            let s = (k * 3 + k / 9) % N_SESSIONS;
            let kind = if k % 4 == 0 {
                Kind::Resilient { payload: k % 3 }
            } else if k % 7 == 1 {
                Kind::Adaptive { payload: k % 3 }
            } else {
                Kind::Plain { payload: k % 3, control: k % 2 }
            };
            (s, kind)
        })
        .collect()
}

fn payloads() -> [Vec<u8>; 3] {
    [
        (0..128u32).map(|i| (i * 7 + 1) as u8).collect(),
        (0..512u32).map(|i| (i * 11 + 3) as u8).collect(),
        (0..960u32).map(|i| (i * 13 + 5) as u8).collect(),
    ]
}

fn controls() -> [Vec<u8>; 2] {
    [
        vec![1, 0, 1, 1, 0, 0, 1, 0],
        vec![0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0],
    ]
}

fn assert_packet_eq(a: &PacketSummary, b: &PacketSummary, ctx: &str) {
    assert_eq!(a.data_ok, b.data_ok, "{ctx}: data_ok");
    assert_eq!(a.control_present, b.control_present, "{ctx}: control_present");
    assert_eq!(a.control_ok, b.control_ok, "{ctx}: control_ok");
    assert_eq!(a.silences_sent, b.silences_sent, "{ctx}: silences_sent");
    assert_eq!(a.detection, b.detection, "{ctx}: detection");
    assert_eq!(
        a.measured_snr_db.to_bits(),
        b.measured_snr_db.to_bits(),
        "{ctx}: measured_snr_db bits"
    );
    assert_eq!(a.rate, b.rate, "{ctx}: rate");
    assert_eq!(a.selected_len, b.selected_len, "{ctx}: selected_len");
    assert_eq!(a.selected_hash, b.selected_hash, "{ctx}: selected_hash");
    assert_eq!(a.control_hash, b.control_hash, "{ctx}: control_hash");
}

fn assert_adaptive_eq(a: &AdaptiveSummary, b: &AdaptiveSummary, ctx: &str) {
    assert_packet_eq(&a.packet, &b.packet, ctx);
    assert_eq!(a.ewma_snr_db.to_bits(), b.ewma_snr_db.to_bits(), "{ctx}: ewma_snr_db bits");
    assert_eq!(a.budget, b.budget, "{ctx}: budget");
    assert_eq!(a.rate_after, b.rate_after, "{ctx}: rate_after");
    assert_eq!(a.budget_after, b.budget_after, "{ctx}: budget_after");
    assert_eq!(a.search_state, b.search_state, "{ctx}: search_state");
    assert_eq!(a.staircase_event, b.staircase_event, "{ctx}: staircase_event");
    assert_eq!(a.probe_event, b.probe_event, "{ctx}: probe_event");
    assert_eq!(a.control_acked, b.control_acked, "{ctx}: control_acked");
    assert_eq!(a.feedback_delivered, b.feedback_delivered, "{ctx}: feedback_delivered");
}

fn assert_resilient_eq(a: &ResilientSummary, b: &ResilientSummary, ctx: &str) {
    assert_packet_eq(&a.packet, &b.packet, ctx);
    assert_eq!(a.mode, b.mode, "{ctx}: mode");
    assert_eq!(a.mode_after, b.mode_after, "{ctx}: mode_after");
    assert_eq!(a.control_attempted, b.control_attempted, "{ctx}: control_attempted");
    assert_eq!(a.control_acked, b.control_acked, "{ctx}: control_acked");
    assert_eq!(a.feedback_delivered, b.feedback_delivered, "{ctx}: feedback_delivered");
    assert_eq!(a.phy_error, b.phy_error, "{ctx}: phy_error");
}

/// The reference: no pool, no engine — plain sessions called in submit
/// order, split at the same drain boundary as the engine runs.
fn sequential_reference() -> Vec<JobResult> {
    let payloads = payloads();
    let controls = controls();
    let mut sessions: Vec<CosSession> =
        (0..N_SESSIONS).map(|i| CosSession::new(session_config(i), seed(i))).collect();
    for (i, s) in sessions.iter_mut().enumerate() {
        if let Some(f) = session_faults(i) {
            s.set_faults(f);
        }
    }
    schedule()
        .iter()
        .map(|&(s, kind)| match kind {
            Kind::Plain { payload, control } => JobResult::Plain(
                sessions[s].send_packet_summary(&payloads[payload], &controls[control]),
            ),
            Kind::Resilient { payload } => {
                JobResult::Resilient(sessions[s].send_packet_resilient_summary(&payloads[payload]))
            }
            Kind::Adaptive { payload } => {
                JobResult::Adaptive(sessions[s].send_packet_adaptive_summary(&payloads[payload]))
            }
        })
        .collect()
}

fn engine_run(threads: usize) -> Vec<JobResult> {
    let payloads = payloads();
    let controls = controls();
    let mut pool = SessionPool::new();
    let ids: Vec<_> = (0..N_SESSIONS).map(|i| pool.create(session_config(i), seed(i))).collect();
    for (i, &id) in ids.iter().enumerate() {
        if let Some(f) = session_faults(i) {
            pool.get_mut(id).expect("live session").set_faults(f);
        }
    }

    let mut engine = BatchEngine::new(EngineConfig { threads });
    let pids: Vec<_> = payloads.iter().map(|p| engine.add_payload(p)).collect();
    let cids: Vec<_> = controls.iter().map(|c| engine.add_control(c)).collect();

    let mut results = Vec::new();
    let mut out = Vec::new();
    // Two drains, splitting the schedule mid-stream: outcomes must not
    // depend on where batch boundaries fall.
    for chunk in schedule().chunks(N_JOBS / 2) {
        for &(s, kind) in chunk {
            match kind {
                Kind::Plain { payload, control } => {
                    engine.submit(ids[s], pids[payload], cids[control])
                }
                Kind::Resilient { payload } => engine.submit_resilient(ids[s], pids[payload]),
                Kind::Adaptive { payload } => engine.submit_adaptive(ids[s], pids[payload]),
            }
        }
        engine.drain_into(&mut pool, &mut out);
        results.extend(out.iter().map(|o| o.result));
    }
    results
}

fn assert_results_eq(got: &[JobResult], want: &[JobResult], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: job count");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        let ctx = format!("{label}, job {k}");
        match (g, w) {
            (JobResult::Plain(a), JobResult::Plain(b)) => assert_packet_eq(a, b, &ctx),
            (JobResult::Resilient(a), JobResult::Resilient(b)) => assert_resilient_eq(a, b, &ctx),
            (JobResult::Adaptive(a), JobResult::Adaptive(b)) => assert_adaptive_eq(a, b, &ctx),
            (JobResult::StaleSession, JobResult::StaleSession) => {}
            _ => panic!("{ctx}: result kind mismatch"),
        }
    }
}

#[test]
fn batch_engine_matches_sequential_sessions_at_any_thread_count() {
    let reference = sequential_reference();
    assert_eq!(reference.len(), N_JOBS);
    for threads in [1, 4, 8] {
        let got = engine_run(threads);
        assert_results_eq(&got, &reference, &format!("threads={threads}"));
    }
}

/// Sessions of the dirty-lane run: 6 and 54 Mbps alternate, so every
/// worker lane is reused across rates and buffer sizes.
fn lane_config(i: usize) -> SessionConfig {
    SessionConfig {
        snr_db: 16.0 + (i % 4) as f64 * 4.0,
        rate: Some(if i.is_multiple_of(2) { DataRate::Mbps54 } else { DataRate::Mbps6 }),
        ..Default::default()
    }
}

const LANE_SESSIONS: usize = 12;
const LANE_ROUNDS: usize = 3;
const LANE_PAYLOADS: [usize; 2] = [96, 1020];
/// The session released (and a new one created in its slot) after the
/// first round.
const REPLACED: usize = 5;

/// Round `round`'s jobs as `(session, kind)`: two per session, all three
/// kinds; most sessions share a payload length per job, the rest use the
/// other one, so a worker's frame plane alternates between frame sizes.
fn lane_round(round: usize) -> Vec<(usize, Kind)> {
    let mut jobs = Vec::new();
    for j in 0..2 {
        for i in 0..LANE_SESSIONS {
            let payload = (round + j + usize::from(i % 5 == 4)) % 2;
            let kind = match (i + round + j) % 3 {
                0 => Kind::Plain { payload, control: (i + j) % 2 },
                1 => Kind::Resilient { payload },
                _ => Kind::Adaptive { payload },
            };
            jobs.push((i, kind));
        }
    }
    jobs
}

fn lane_payloads() -> Vec<Vec<u8>> {
    LANE_PAYLOADS.iter().map(|&n| (0..n).map(|i| (i * 29 + n) as u8).collect()).collect()
}

fn queue_lane_controls(s: &mut CosSession) {
    s.queue_control(vec![1, 0, 0, 1, 1, 0, 1, 0]);
    s.queue_control(vec![0, 1, 1, 1]);
}

/// The per-session reference of the dirty-lane run: plain sessions in
/// submit order; the replaced session restarts fresh after round 0, and
/// the stale handle's job (submitted first in every later round) never
/// runs.
fn lane_reference() -> Vec<JobResult> {
    let (payloads, controls) = (lane_payloads(), controls());
    let mut sessions: Vec<CosSession> = (0..LANE_SESSIONS)
        .map(|i| CosSession::new(lane_config(i), seed(i)))
        .collect();
    sessions.iter_mut().for_each(queue_lane_controls);
    let mut results = Vec::new();
    for round in 0..LANE_ROUNDS {
        if round == 1 {
            sessions[REPLACED] = CosSession::new(lane_config(LANE_SESSIONS), seed(LANE_SESSIONS));
            queue_lane_controls(&mut sessions[REPLACED]);
        }
        if round > 0 {
            results.push(JobResult::StaleSession);
        }
        for (i, kind) in lane_round(round) {
            let s = &mut sessions[i];
            results.push(match kind {
                Kind::Plain { payload, control } => {
                    JobResult::Plain(s.send_packet_summary(&payloads[payload], &controls[control]))
                }
                Kind::Resilient { payload } => {
                    JobResult::Resilient(s.send_packet_resilient_summary(&payloads[payload]))
                }
                Kind::Adaptive { payload } => {
                    JobResult::Adaptive(s.send_packet_adaptive_summary(&payloads[payload]))
                }
            });
        }
    }
    results
}

fn lane_engine_run(threads: usize) -> Vec<JobResult> {
    let (payloads, controls) = (lane_payloads(), controls());
    let mut pool = SessionPool::new();
    let mut ids: Vec<_> =
        (0..LANE_SESSIONS).map(|i| pool.create(lane_config(i), seed(i))).collect();
    for &id in &ids {
        queue_lane_controls(pool.get_mut(id).expect("live session"));
    }
    let mut engine = BatchEngine::new(EngineConfig { threads });
    let pids: Vec<_> = payloads.iter().map(|p| engine.add_payload(p)).collect();
    let cids: Vec<_> = controls.iter().map(|c| engine.add_control(c)).collect();
    let stale = ids[REPLACED];
    let mut results = Vec::new();
    for round in 0..LANE_ROUNDS {
        if round == 1 {
            assert!(pool.release(stale));
            ids[REPLACED] = pool.create(lane_config(LANE_SESSIONS), seed(LANE_SESSIONS));
            assert_eq!(ids[REPLACED].index(), stale.index(), "the released slot is reused");
            queue_lane_controls(pool.get_mut(ids[REPLACED]).expect("live session"));
        }
        if round > 0 {
            engine.submit(stale, pids[0], cids[0]);
        }
        for (i, kind) in lane_round(round) {
            match kind {
                Kind::Plain { payload, control } => {
                    engine.submit(ids[i], pids[payload], cids[control])
                }
                Kind::Resilient { payload } => engine.submit_resilient(ids[i], pids[payload]),
                Kind::Adaptive { payload } => engine.submit_adaptive(ids[i], pids[payload]),
            }
        }
        results.extend(engine.drain(&mut pool).iter().map(|o| o.result));
    }
    results
}

#[test]
fn dirty_worker_lanes_match_sequential_sessions() {
    // Worker lanes persist across drains and pass from session to session
    // (6 and 54 Mbps, 96- and 1020-byte payloads, every job kind, a
    // replaced session): no frame may see what an earlier one left there.
    let reference = lane_reference();
    assert!(reference.iter().any(|r| matches!(r, JobResult::Plain(p) if p.data_ok)));
    for threads in [1, 2] {
        let label = format!("dirty lanes, threads={threads}");
        assert_results_eq(&lane_engine_run(threads), &reference, &label);
    }
}

/// Sessions of the shared-plane runs, one shape each: 54 Mbps with a
/// long payload, 6 Mbps with a short one, 6 Mbps with a long one (the
/// largest plane), and an unpinned rate on a lossy reverse path.
const SHARED_SESSIONS: usize = 4;
const SHARED_FRAMES: usize = 9;
/// The shared-plane session on a `FeedbackLoss` reverse path.
const LOSSY: usize = 3;

fn shared_session(i: usize) -> CosSession {
    let (rate, snr_db) = match i {
        0 => (Some(DataRate::Mbps54), 24.0),
        1 | 2 => (Some(DataRate::Mbps6), 12.0),
        _ => (None, 18.0),
    };
    let mut s = CosSession::new(SessionConfig { snr_db, rate, ..Default::default() }, seed(i));
    if i == LOSSY {
        s.set_faults(FaultEngine::new().with(FeedbackLoss::new(0.5, 17)));
    }
    queue_lane_controls(&mut s);
    s
}

fn shared_payload(i: usize) -> Vec<u8> {
    let n = [1500, 40, 1020, 400][i];
    (0..n).map(|k| (k * 31 + i) as u8).collect()
}

/// Frame `frame` of shared-plane session `i`: every session cycles
/// through all three kinds, each starting at a different one.
fn shared_frame(s: &mut CosSession, i: usize, frame: usize) -> JobResult {
    let payload = shared_payload(i);
    match (i + frame) % 3 {
        0 => JobResult::Plain(s.send_packet_summary(&payload, &controls()[frame % 2])),
        1 => JobResult::Resilient(s.send_packet_resilient_summary(&payload)),
        _ => JobResult::Adaptive(s.send_packet_adaptive_summary(&payload)),
    }
}

/// Every frame of session `i`, run on one thread.
fn shared_alone(i: usize) -> Vec<JobResult> {
    let mut s = shared_session(i);
    (0..SHARED_FRAMES).map(|f| shared_frame(&mut s, i, f)).collect()
}

#[test]
fn a_shared_frame_plane_is_invisible() {
    // Each session alone on its own scoped thread, so on a fresh plane.
    let alone: Vec<Vec<JobResult>> = std::thread::scope(|scope| {
        let runs: Vec<_> =
            (0..SHARED_SESSIONS).map(|i| scope.spawn(move || shared_alone(i))).collect();
        runs.into_iter().map(|r| r.join().expect("session thread")).collect()
    });
    assert!(alone.iter().flatten().any(|r| matches!(r, JobResult::Plain(p) if p.data_ok)));
    // The same sessions interleaved frame by frame on this thread: every
    // frame runs on the plane the previous session's frame left behind.
    let mut sessions: Vec<CosSession> = (0..SHARED_SESSIONS).map(shared_session).collect();
    let mut shared: Vec<Vec<JobResult>> = vec![Vec::new(); SHARED_SESSIONS];
    for f in 0..SHARED_FRAMES {
        for (i, s) in sessions.iter_mut().enumerate() {
            shared[i].push(shared_frame(s, i, f));
        }
    }
    for (i, (got, want)) in shared.iter().zip(&alone).enumerate() {
        assert_results_eq(got, want, &format!("shared plane, session {i}"));
    }
}

#[test]
fn a_session_moving_between_threads_matches_one_thread() {
    // The lossy session's odd frames run on a second thread, its even
    // ones on this one: two planes, each a frame behind the session.
    let moved = std::thread::scope(|scope| {
        let (to_helper, jobs) = std::sync::mpsc::channel::<(CosSession, usize)>();
        let (to_main, done) = std::sync::mpsc::channel();
        scope.spawn(move || {
            for (mut s, f) in jobs {
                let r = shared_frame(&mut s, LOSSY, f);
                to_main.send((s, r)).expect("main thread waits");
            }
        });
        let mut s = shared_session(LOSSY);
        let mut results = Vec::new();
        for f in 0..SHARED_FRAMES {
            if f % 2 == 0 {
                results.push(shared_frame(&mut s, LOSSY, f));
            } else {
                to_helper.send((s, f)).expect("helper thread runs");
                let (back, r) = done.recv().expect("helper thread returns the session");
                s = back;
                results.push(r);
            }
        }
        results
    });
    assert_results_eq(&moved, &shared_alone(LOSSY), "two threads");
}
