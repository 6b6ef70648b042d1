//! Property test for the [`cos_core::service`] layer: arbitrary
//! interleavings of submit / cancel / pump / fault-injection / drain
//! never lose, duplicate, or (per session) reorder job outcomes — and
//! every engine-completed outcome is **byte-identical** to a shadow
//! sequential run of the same jobs on standalone [`CosSession`]s.
//! Rejected, cancelled, expired, and quarantined jobs must never consume
//! engine capacity, so the shadow run simply skips them.

use cos_core::service::{
    Rejected, ServiceConfig, ServiceCore, ServiceJobKind, ServiceResult, Ticket,
};
use cos_core::session::{CosSession, SessionConfig};
use cos_core::{EngineConfig, JobResult};
use cos_dsp::rng::{cases, Xoshiro256};

const PAYLOAD: [u8; 150] = [0x6B; 150];
const CONTROL: [u8; 8] = [1, 0, 1, 1, 0, 1, 0, 0];

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Submit a job: session selector, kind selector.
    Submit(u8, u8),
    /// Cancel the n-th admitted ticket (mod admitted count).
    Cancel(u8),
    /// One tick.
    Pump,
    /// Poison the next admitted ticket.
    PoisonNext,
    /// Stall the next admitted ticket for 1–4 ticks.
    StallNext(u8),
    /// Stop admission; admitted work must still finish.
    BeginDrain,
}

/// One op: one of nine arms uniformly, then its operands. Submit has
/// three arms and Pump two, which biases the mix toward real work.
fn op(rng: &mut Xoshiro256) -> Op {
    let mut below = |n: usize| rng.below(n) as u8;
    match below(9) {
        0 => Op::Submit(below(4), below(3)),
        1 => Op::Submit(4 + below(4), below(3)),
        2 => Op::Submit(below(8), 3 + below(3)),
        3 => Op::Cancel(below(8)),
        4 | 5 => Op::Pump,
        6 => Op::PoisonNext,
        7 => Op::StallNext(below(4)),
        _ => Op::BeginDrain,
    }
}

fn session_configs() -> [SessionConfig; 2] {
    [
        SessionConfig { snr_db: 22.0, ..SessionConfig::default() },
        SessionConfig { snr_db: 17.0, ..SessionConfig::default() },
    ]
}

#[test]
fn service_outcomes_match_shadow_sequential_run() {
    for mut rng in cases(10) {
        let ops: Vec<Op> = (0..1 + rng.below(17)).map(|_| op(&mut rng)).collect();
        let cfg = ServiceConfig {
            queue_capacity: 4,
            session_quota: 3,
            deadline_ticks: 6,
            retry_budget: 1,
            stall_ticks: 2,
            batch_limit: 3,
            engine: EngineConfig { threads: 2 },
            ..ServiceConfig::default()
        };
        let mut core = ServiceCore::new(cfg);
        let configs = session_configs();
        let ids = [
            core.create_session(configs[0].clone(), 0xA11CE),
            core.create_session(configs[1].clone(), 0xB0B),
        ];
        let payload = core.add_payload(&PAYLOAD);
        let control = core.add_control(&CONTROL);

        // Ledger of every admitted ticket: which session, which kind.
        let mut admitted: Vec<(Ticket, usize, ServiceJobKind)> = Vec::new();
        let mut rejections = 0u64;

        for op in ops {
            match op {
                Op::Submit(s, k) => {
                    let which = s as usize % 2;
                    let kind = match k % 3 {
                        0 => ServiceJobKind::Plain(control),
                        1 => ServiceJobKind::Resilient,
                        _ => ServiceJobKind::Adaptive,
                    };
                    match core.try_submit(ids[which], payload, kind) {
                        Ok(t) => admitted.push((t, which, kind)),
                        Err(Rejected::QueueFull { .. })
                        | Err(Rejected::SessionQuota { .. })
                        | Err(Rejected::Draining) => rejections += 1,
                    }
                }
                Op::Cancel(n) => {
                    if !admitted.is_empty() {
                        let t = admitted[n as usize % admitted.len()].0;
                        // May be a no-op if already dispatched/resolved —
                        // either way it must not panic or double-resolve.
                        core.cancel(t);
                    }
                }
                Op::Pump => {
                    core.pump();
                }
                Op::PoisonNext => core.inject_poison(core.stats().admitted),
                Op::StallNext(d) => {
                    core.inject_stall(core.stats().admitted, 1 + (d as u32 % 4));
                }
                Op::BeginDrain => core.begin_drain(),
            }
        }
        core.run_to_drained();

        // --- Exactly-once resolution: no lost, no duplicated tickets. ---
        let outcomes = core.outcomes().to_vec();
        let mut resolved: Vec<u64> = outcomes.iter().map(|o| o.ticket.value()).collect();
        resolved.sort_unstable();
        let mut expected: Vec<u64> = admitted.iter().map(|(t, _, _)| t.value()).collect();
        expected.sort_unstable();
        assert_eq!(&resolved, &expected, "tickets lost or duplicated");

        // --- The stats ledger balances. ---
        let s = core.stats();
        assert_eq!(s.admitted, admitted.len() as u64);
        assert_eq!(
            s.admitted,
            s.completed + s.expired + s.cancelled + s.quarantined_poison + s.quarantined_stall
        );
        assert_eq!(
            s.rejected_queue_full + s.rejected_session_quota + s.rejected_draining,
            rejections
        );
        // Rejected/cancelled/expired/quarantined jobs never consume engine
        // capacity.
        assert_eq!(s.engine_jobs, s.completed);
        assert_eq!(core.inflight(), 0);
        assert!(core.queue_depth() == 0);

        // --- Per-session order: completed outcomes preserve admission
        // order, and match a shadow sequential run byte-for-byte. ---
        let mut shadows =
            [CosSession::new(configs[0].clone(), 0xA11CE), CosSession::new(configs[1].clone(), 0xB0B)];
        let mut last_ticket = [None::<u64>, None::<u64>];
        for o in &outcomes {
            let ServiceResult::Completed(got) = o.result else { continue };
            let (_, which, kind) = *admitted
                .iter()
                .find(|(t, _, _)| *t == o.ticket)
                .expect("completed ticket was admitted");
            assert!(
                last_ticket[which].is_none_or(|prev| prev < o.ticket.value()),
                "session {} completed out of admission order", which
            );
            last_ticket[which] = Some(o.ticket.value());
            let want = match kind {
                ServiceJobKind::Plain(_) => {
                    JobResult::Plain(shadows[which].send_packet_summary(&PAYLOAD, &CONTROL))
                }
                ServiceJobKind::Resilient => {
                    JobResult::Resilient(shadows[which].send_packet_resilient_summary(&PAYLOAD))
                }
                ServiceJobKind::Adaptive => {
                    JobResult::Adaptive(shadows[which].send_packet_adaptive_summary(&PAYLOAD))
                }
            };
            assert_eq!(got, want, "ticket {} diverged from shadow", o.ticket.value());
        }
    }
}
