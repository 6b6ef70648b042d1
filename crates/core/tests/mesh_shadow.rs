//! Shadow replay: the mesh is only orchestration.
//!
//! The determinism story of `cos_core::mesh` rests on one claim — a
//! station inside a [`MeshNet`] behaves byte-identically to a
//! stand-alone [`CosSession`] fed the same seed, config, payloads and
//! event stream. The net records that stream per station (when built
//! with [`MeshNet::with_trace`]); these tests replay every station's two
//! sessions from scratch, outside the engine and the scheduler, and
//! demand summary-for-summary equality. Any divergence — a forgotten
//! fault attach, an out-of-order command apply, residue in a reused pool
//! slot —
//! fails here long before it would corrupt a digest comparison.

use cos_channel::{FaultEngine, OverlapComposer};
use cos_core::engine::EngineConfig;
use cos_core::mesh::{CtlEvent, DataEvent, MeshConfig, MeshNet, MeshTopology, StationTrace};
use cos_core::session::CosSession;
use cos_dsp::rng::cases;

/// Replays one station's recorded event streams on fresh stand-alone
/// sessions and asserts every frame summary matches the live run.
fn replay_station(trace: &StationTrace, cell: usize, station: usize) {
    let mut data = CosSession::new(trace.data_config.clone(), trace.data_seed);
    for (k, ev) in trace.data_events.iter().enumerate() {
        match ev {
            DataEvent::QueueControl(bits) => data.queue_control(bits.clone()),
            DataEvent::Send { overlaps, summary } => {
                let mut comp = OverlapComposer::new();
                for o in overlaps {
                    comp.push(*o);
                }
                data.set_faults(FaultEngine::new().with(comp));
                let shadow = data.send_packet_adaptive_summary(&trace.data_payload);
                assert_eq!(
                    &shadow, summary,
                    "cell {cell} station {station}: data frame diverged at event {k}"
                );
            }
            DataEvent::SetRateCap(cap) => data.adaptation_controller_mut().set_rate_cap(*cap),
            DataEvent::SetBudgetCeiling(b) => {
                data.adaptation_controller_mut().set_budget_ceiling(*b)
            }
        }
    }
    let mut ctl = CosSession::new(trace.ctl_config.clone(), trace.ctl_seed);
    for (k, ev) in trace.ctl_events.iter().enumerate() {
        match ev {
            CtlEvent::Queue(bits) => ctl.queue_control(bits.clone()),
            CtlEvent::Send { summary } => {
                let shadow = ctl.send_packet_resilient_summary(&trace.ctl_payload);
                assert_eq!(
                    &shadow, summary,
                    "cell {cell} station {station}: ctl frame diverged at event {k}"
                );
            }
        }
    }
}

fn replay_all(net: &MeshNet, n: usize) {
    for si in 0..n {
        let trace = net.trace(0, si).expect("net was built with tracing");
        replay_station(trace, 0, si);
    }
}

/// The core property: every station of a coordinated or uncoordinated
/// cell — contention, hidden terminals, beacons, commands, churn and all
/// — replays byte-identically stand-alone, and nobody starves. Each case
/// simulates a full cell with real PHY frames, so the case count is low
/// and the coverage per case high.
#[test]
fn mesh_stations_replay_byte_identically() {
    for mut rng in cases(6) {
        let seed = rng.next_u64();
        let n = 3 + rng.below(3);
        let clusters = 1 + rng.below(2);
        let coordinated = rng.next_u64() & 1 == 1;
        let churn = rng.next_u64() & 1 == 1;
        let cfg = MeshConfig { seed, coordinated, ..MeshConfig::default() };
        let topo = MeshTopology::hidden_clusters(n, clusters, 20.0);
        let mut net = MeshNet::with_trace(EngineConfig { threads: 4 });
        net.add_cell(topo, cfg);
        net.run(30);
        if churn {
            // Mid-run churn: the replaced station must replay from its
            // fresh seeds, and the survivors across the boundary.
            net.replace_station(0, n / 2);
        }
        net.run(60);
        replay_all(&net, n);

        // No-starvation: 90 ticks is plenty for every live station to
        // win the medium at least once, churned joiner included.
        let report = net.report(0);
        for st in &report.per_station {
            assert!(
                st.data.frames_tx > 0,
                "station {} never transmitted in {} ticks",
                st.station,
                report.ticks
            );
        }
    }
}

/// Deterministic spot-check of the textbook two-cluster hidden cell under
/// coordination, with churn.
#[test]
fn hidden_cell_with_churn_replays_byte_identically() {
    let mut net = MeshNet::with_trace(EngineConfig { threads: 2 });
    net.add_cell(MeshTopology::hidden_clusters(4, 2, 20.0), MeshConfig::default());
    net.run(50);
    net.replace_station(0, 1);
    net.run(70);
    let report = net.report(0);
    assert!(report.cmd_delivered > 0, "commands must have flowed");
    assert_eq!(report.churns, 1);
    replay_all(&net, 4);
}
