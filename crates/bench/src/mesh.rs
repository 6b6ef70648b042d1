//! The `mesh` entry: determinism and coordination quality gate for
//! `cos_core::mesh` at fleet scale.
//!
//! Two phases:
//!
//! 1. **Cross-thread determinism under churn** — builds the same fleet of
//!    cells (≥1024 stations, two sessions each: adaptive data uplink +
//!    resilient control subsession) once per thread count and runs the
//!    identical tick schedule through [`MeshNet`] at 1, 4 and 8 engine
//!    worker threads, replacing a striped set of stations between rounds
//!    (churn: released sessions recycle through the pool, joiners get the
//!    coordination policy's admission sequence). The net's running FNV
//!    digest — every frame outcome, command issue/apply and churn event —
//!    must be byte-identical across thread counts.
//! 2. **Coordination duel** — the `fig08_mesh` sweep from
//!    `cos_experiments::mesh`: hidden-cluster cells run CoS-coordinated
//!    vs uncoordinated on paired seeds. Coordinated cells must beat the
//!    CSMA baseline on aggregate goodput while delivering ≥99 % of their
//!    control plane (scheduling commands + uplink control messages).
//!
//! `--smoke` runs a reduced fleet (still ≥1024 stations) and the quick
//! duel config with the same gates, and its digest must also equal the
//! recorded `SMOKE_DIGEST`.

use crate::gate::{thread_invariant, Verdict};
use cos_core::engine::EngineConfig;
use cos_core::mesh::{MeshConfig, MeshNet, MeshTopology};
use cos_experiments::mesh as mesh_exp;

/// Stations per cell; cells × stations is the fleet size.
const STATIONS_PER_CELL: usize = 16;

/// Cell topology for cell `ci`: hidden clusters of varying split and a
/// per-cell SNR, so the fleet is heterogeneous but fully seeded.
fn storm_topology(ci: usize) -> MeshTopology {
    let clusters = 2 + ci % 3;
    let snr_db = 16.0 + (ci % 8) as f64;
    MeshTopology::hidden_clusters(STATIONS_PER_CELL, clusters, snr_db)
}

/// Cell config for cell `ci`: three quarters coordinated, one quarter
/// CSMA baseline (uncoordinated cells must stay deterministic too).
fn storm_config(ci: usize) -> MeshConfig {
    MeshConfig {
        seed: 0x4D45_5348u64.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(ci as u64),
        coordinated: ci % 4 != 3,
        ..MeshConfig::default()
    }
}

/// One full storm at a fixed worker-thread count: identical fleet,
/// identical tick schedule, identical churn stripes. Returns the net's
/// digest, its frames (beacons included) and its churns.
fn run_storm(cells: usize, rounds: usize, ticks_per_round: u64, threads: usize) -> (u64, u64, u64) {
    let mut net = MeshNet::new(EngineConfig { threads });
    for ci in 0..cells {
        net.add_cell(storm_topology(ci), storm_config(ci));
    }
    for r in 0..rounds {
        net.run(ticks_per_round);
        // Churn a stripe of the fleet: every 7th cell (phase-shifted per
        // round) replaces one station. Joiners in coordinated cells get
        // the policy's admission sequence (mute + TDMA + grant + unmute)
        // through the control plane.
        for ci in (r % 7..cells).step_by(7) {
            net.replace_station(ci, (r * 5 + ci) % STATIONS_PER_CELL);
        }
    }
    net.run(ticks_per_round);
    let mut frames = 0u64;
    let mut churns = 0u64;
    for ci in 0..cells {
        let r = net.report(ci);
        frames += r.frames + r.beacons;
        churns += r.churns;
    }
    (net.digest(), frames, churns)
}

/// The `--smoke` mesh digest (since the decode epoch).
const SMOKE_DIGEST: u64 = 0x3438_a6ff_e08e_db1a;

/// The `mesh` entry (see the module docs).
pub fn run(v: &mut Verdict, smoke: bool) {
    // ≥1024 stations in both modes: the bar the mesh subsystem is held to.
    let (cells, rounds, ticks_per_round) = if smoke { (64, 2, 4) } else { (96, 4, 8) };
    let stations = cells * STATIONS_PER_CELL;
    assert!(stations >= 1024, "the mesh fleet must cover at least 1024 stations, got {stations}");
    eprintln!(
        "mesh: {cells} cells x {STATIONS_PER_CELL} stations = {stations}, \
         {rounds}+1 rounds x {ticks_per_round} ticks"
    );
    let churns = thread_invariant(v, "mesh", smoke.then_some(SMOKE_DIGEST), |t| {
        let (digest, frames, churns) = run_storm(cells, rounds, ticks_per_round, t);
        (digest, format!("{frames} frames, {churns} churns"), churns)
    });
    v.check(churns[0] > 0, "the storm churned no station");

    let duel_cfg = if smoke { mesh_exp::Config::quick() } else { mesh_exp::Config::default() };
    let points = mesh_exp::run_sweep(&duel_cfg);
    let total = |coord: bool| {
        points.iter().filter(|p| p.coordinated == coord).map(|p| p.goodput_mbps).sum::<f64>()
    };
    let (coordinated, csma) = (total(true), total(false));
    let min_delivery = points
        .iter()
        .filter(|p| p.coordinated)
        .map(|p| p.control_delivery)
        .fold(f64::INFINITY, f64::min);
    eprintln!(
        "  duel: coordinated {coordinated:.4} Mbps vs csma {csma:.4} Mbps, \
         min control delivery {min_delivery:.4}"
    );
    v.check(
        coordinated > csma,
        format_args!("coordinated {coordinated:.4} Mbps <= csma {csma:.4} Mbps"),
    );
    v.check(
        min_delivery >= 0.99,
        format_args!("min control delivery {min_delivery:.4} < 0.99"),
    );
}
