//! Property test for [`cos_core::SessionPool`] lifecycle: arbitrary
//! interleavings of create / send / release never panic, never resurrect
//! a released handle, and — the load-bearing property — a pooled session
//! behaves **exactly** like a standalone [`CosSession`] with the same
//! config and seed, however the pool reuses slots around it. Nothing of a
//! slot's last occupant may show in the session created into it.

use cos_channel::{FaultEngine, FeedbackLoss};
use cos_core::session::{CosSession, SessionConfig};
use cos_core::{LinkMode, SessionId, SessionPool};
use cos_dsp::rng::{cases, Xoshiro256};
use cos_phy::rates::DataRate;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Create a session with the given config variant.
    Create(u8),
    /// Send a packet on the n-th live session (mod live count).
    Send(u8),
    /// Send an adaptive-path packet on the n-th live session (mod live
    /// count) — adaptation state must follow the session through the
    /// pool and start fresh in a reused slot exactly like the rest.
    SendAdaptive(u8),
    /// Send a resilient-path packet on the n-th live session (mod live
    /// count) — the resilience guard must start fresh in a reused slot
    /// too.
    SendResilient(u8),
    /// Queue a control message (`n` intervals long) on the n-th live
    /// session (mod live count) — the one ARQ queue that resilient and
    /// adaptive packets both draw from must start empty in a reused slot.
    QueueControl(u8),
    /// Release the n-th live session (mod live count).
    Release(u8),
}

/// One op: the variant first, uniformly, then its operand.
fn op(rng: &mut Xoshiro256) -> Op {
    match rng.below(6) {
        0 => Op::Create(rng.below(6) as u8),
        1 => Op::Send(rng.below(8) as u8),
        2 => Op::SendAdaptive(rng.below(8) as u8),
        3 => Op::SendResilient(rng.below(8) as u8),
        4 => Op::QueueControl(rng.below(8) as u8),
        _ => Op::Release(rng.below(8) as u8),
    }
}

fn config(variant: u8) -> SessionConfig {
    SessionConfig {
        snr_db: 18.0 + (variant % 3) as f64 * 4.0,
        rate: if variant.is_multiple_of(2) {
            Some(DataRate::ALL[(variant as usize * 5) % 8])
        } else {
            None
        },
        ..Default::default()
    }
}

/// A pooled session and the standalone shadow it must stay identical to.
struct LiveSession {
    id: SessionId,
    shadow: CosSession,
    packets: usize,
}

#[test]
fn pooled_sessions_match_standalone_shadows() {
    for mut rng in cases(12) {
        let ops: Vec<Op> = (0..1 + rng.below(13)).map(|_| op(&mut rng)).collect();
        let payload = [0x5A_u8; 180];
        let control = [1u8, 0, 0, 1, 1, 0, 1, 0];
        let mut pool = SessionPool::new();
        let mut live: Vec<LiveSession> = Vec::new();
        let mut created = 0u64;
        let mut released: Vec<SessionId> = Vec::new();

        for op in ops {
            match op {
                Op::Create(variant) => {
                    let seed = 0xBEEF + created;
                    created += 1;
                    let id = pool.create(config(variant), seed);
                    let shadow = CosSession::new(config(variant), seed);
                    assert_fresh(pool.get(id).expect("fresh handle resolves"), &shadow);
                    live.push(LiveSession { id, shadow, packets: 0 });
                }
                Op::Send(n) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = n as usize % live.len();
                    let s = &mut live[idx];
                    let pooled = pool.get_mut(s.id).expect("live handle resolves");
                    let got = pooled.send_packet_summary(&payload, &control);
                    let want = s.shadow.send_packet_summary(&payload, &control);
                    s.packets += 1;
                    assert_eq!(got, want, "packet {} diverged", s.packets);
                }
                Op::SendAdaptive(n) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = n as usize % live.len();
                    let s = &mut live[idx];
                    let pooled = pool.get_mut(s.id).expect("live handle resolves");
                    let got = pooled.send_packet_adaptive_summary(&payload);
                    let want = s.shadow.send_packet_adaptive_summary(&payload);
                    s.packets += 1;
                    assert_eq!(got, want, "adaptive packet {} diverged", s.packets);
                }
                Op::SendResilient(n) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = n as usize % live.len();
                    let s = &mut live[idx];
                    let pooled = pool.get_mut(s.id).expect("live handle resolves");
                    let got = pooled.send_packet_resilient_summary(&payload);
                    let want = s.shadow.send_packet_resilient_summary(&payload);
                    s.packets += 1;
                    assert_eq!(got, want, "resilient packet {} diverged", s.packets);
                    assert_eq!(pooled.metrics(), s.shadow.metrics());
                }
                Op::QueueControl(n) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = n as usize % live.len();
                    let s = &mut live[idx];
                    let len = 4 * (1 + n as usize % 3);
                    let bits: Vec<u8> = (0..len).map(|i| (i % 3 == 0) as u8).collect();
                    let pooled = pool.get_mut(s.id).expect("live handle resolves");
                    pooled.queue_control(bits.clone());
                    s.shadow.queue_control(bits);
                    assert_eq!(pooled.arq_backlog(), s.shadow.arq_backlog());
                }
                Op::Release(n) => {
                    if live.is_empty() {
                        continue;
                    }
                    let s = live.remove(n as usize % live.len());
                    assert!(pool.release(s.id), "live handle releases");
                    released.push(s.id);
                }
            }
            // Stale handles stay dead whatever happened since.
            for id in &released {
                assert!(pool.get(*id).is_none(), "released handle resurrected");
                assert!(!pool.release(*id), "double release succeeded");
            }
            assert_eq!(pool.len(), live.len(), "pool live count drifted");
        }

        // Every case ends by reusing the slots it dirtied: each live
        // session queues a message and loses its reverse path for long
        // enough that the resilience guard degrades, then is released,
        // and the session created into its slot must match a fresh
        // shadow.
        for (k, s) in live.into_iter().enumerate() {
            let pooled = pool.get_mut(s.id).expect("live handle resolves");
            pooled.set_faults(FaultEngine::new().with(FeedbackLoss::new(1.0, 7)));
            pooled.queue_control(control.to_vec());
            let mut degraded = false;
            for _ in 0..6 {
                let r = pooled.send_packet_resilient_summary(&payload);
                degraded |= r.mode_after == LinkMode::DataOnly;
            }
            assert!(degraded, "the blackout never degraded the link");
            assert!(pool.release(s.id), "live handle releases");
            let seed = 0xF00D + k as u64;
            let id = pool.create(config(k as u8), seed);
            let mut shadow = CosSession::new(config(k as u8), seed);
            let pooled = pool.get_mut(id).expect("fresh handle resolves");
            assert_fresh(pooled, &shadow);
            for _ in 0..3 {
                let got = pooled.send_packet_resilient_summary(&payload);
                assert_eq!(got, shadow.send_packet_resilient_summary(&payload));
                let got = pooled.send_packet_adaptive_summary(&payload);
                assert_eq!(got, shadow.send_packet_adaptive_summary(&payload));
            }
        }
    }
}

/// A just-created pooled session's control plane reads like a fresh
/// session's, whatever the slot's last occupant did.
fn assert_fresh(pooled: &CosSession, shadow: &CosSession) {
    assert_eq!(pooled.metrics(), shadow.metrics());
    assert_eq!(pooled.arq_stats(), shadow.arq_stats());
    assert_eq!(pooled.arq_backlog(), shadow.arq_backlog());
    assert_eq!(pooled.mode(), shadow.mode());
    assert_eq!(pooled.detector_bias_db(), shadow.detector_bias_db());
}
