//! The multi-node mesh experiment (`fig08_mesh`): N stations + AP on a
//! shared channel, CoS-coordinated vs uncoordinated.
//!
//! The paper motivates CoS with AP-driven coordination — scheduling
//! commands that cost *no* airtime because they ride data frames as
//! silence symbols (§I, §IV-A). This experiment puts that to work in the
//! scenario carrier sense handles worst: a cell split into two hidden
//! clusters, where stations of opposite clusters cannot defer to each
//! other and their frames collide at the AP. For each cell size the same
//! seeded cell runs twice:
//!
//! * **uncoordinated** — pure CSMA/CA ([`MediumScheduler`](cos_core::mesh::MediumScheduler) backoff with
//!   binary exponential contention windows), collisions and all;
//! * **coordinated** — the same cell plus the AP's
//!   [`CoordinationPolicy`](cos_core::mesh::CoordinationPolicy): once the collision rate trips it, TDMA
//!   grants, silence-budget grants and rate caps go out through the CoS
//!   control plane (12-bit commands as silence symbols, delivered by the
//!   control ARQ over beacon frames).
//!
//! Two tables come out: `fig08_mesh` (aggregate goodput, data PRR,
//! collision rate and control-plane delivery vs N, paired by seed) and
//! `fig08_mesh_stations` (per-station breakdown of the largest
//! coordinated cell: medium counters, adapted rate, granted TDMA slot).
//!
//! Determinism: trials run serially here; each trial's [`MeshNet`] uses
//! the harness-resolved worker count internally, and the mesh determinism
//! contract (`docs/MESH.md`) makes both CSVs byte-identical at any
//! `--threads` / `COS_THREADS` setting.

use crate::harness::threads;
use crate::table::{fmt, Table};
use cos_core::engine::EngineConfig;
use cos_core::mesh::{MeshConfig, MeshNet, MeshReport, MeshTopology};

/// Experiment dimensions.
#[derive(Debug, Clone)]
pub struct Config {
    /// Cell sizes to sweep.
    pub ns: Vec<usize>,
    /// Hidden clusters per cell (2 = the textbook hidden-terminal split).
    pub clusters: usize,
    /// Uplink SNR of every station, dB.
    pub snr_db: f64,
    /// Medium ticks per trial.
    pub ticks: u64,
    /// Seeded cell realisations per (N, scheme) point; schemes are
    /// paired on identical seeds.
    pub trials: usize,
    /// Base seed; per-trial cell seeds derive from it, N and the trial.
    pub seed: u64,
    /// Cell template (seed and coordination are overridden per trial).
    pub mesh: MeshConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            ns: vec![2, 4, 8, 12],
            clusters: 2,
            snr_db: 20.0,
            ticks: 160,
            trials: 2,
            seed: 0x0F08,
            mesh: MeshConfig::default(),
        }
    }
}

impl Config {
    /// A reduced run for module tests and smoke checks.
    pub fn quick() -> Self {
        Config { ns: vec![2, 4], ticks: 90, trials: 1, ..Default::default() }
    }
}

/// The cell seed for one `(n, trial)` point — shared by the coordinated
/// and uncoordinated schemes so the duel is paired.
fn cell_seed(cfg: &Config, n: usize, trial: usize) -> u64 {
    cfg.seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((n as u64) << 32 | trial as u64)
}

/// Runs one seeded cell to completion and returns its report.
pub fn run_trial(cfg: &Config, n: usize, trial: usize, coordinated: bool) -> MeshReport {
    let mesh = MeshConfig {
        seed: cell_seed(cfg, n, trial),
        coordination: if coordinated { cfg.mesh.coordination } else { None },
        ..cfg.mesh.clone()
    };
    let topo = MeshTopology::hidden_clusters(n, cfg.clusters.min(n).max(1), cfg.snr_db);
    let mut net = MeshNet::new(EngineConfig { threads: threads() });
    net.add_cell(topo, mesh);
    net.run(cfg.ticks);
    net.report(0)
}

/// One `(N, scheme)` row aggregated over its paired trials.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Cell size.
    pub n: usize,
    /// Coordinated or baseline.
    pub coordinated: bool,
    /// Aggregate goodput over all trials, Mbps.
    pub goodput_mbps: f64,
    /// Data-frame delivery ratio.
    pub data_prr: f64,
    /// Fraction of data frames that overlapped another at the AP.
    pub collision_rate: f64,
    /// Fraction of ticks in which nobody transmitted.
    pub idle_frac: f64,
    /// Control-plane delivery ratio (commands + uplink control).
    pub control_delivery: f64,
    /// Coordination commands delivered / issued over all trials.
    pub cmd_delivered: u64,
    /// Commands issued.
    pub cmd_issued: u64,
    /// Command-carrying beacon ticks.
    pub beacons: u64,
}

fn aggregate(n: usize, coordinated: bool, reports: &[MeshReport]) -> PointResult {
    let sum_u = |f: fn(&MeshReport) -> u64| reports.iter().map(f).sum::<u64>();
    let airtime: f64 = reports.iter().map(|r| r.airtime_us).sum();
    let frames = sum_u(|r| r.frames).max(1);
    let ticks = sum_u(|r| r.ticks).max(1);
    let resolved = sum_u(|r| r.cmd_delivered + r.cmd_failed + r.uplink_ctl_delivered + r.uplink_ctl_failed);
    let delivered = sum_u(|r| r.cmd_delivered + r.uplink_ctl_delivered);
    PointResult {
        n,
        coordinated,
        goodput_mbps: if airtime > 0.0 { sum_u(|r| r.delivered_bits) as f64 / airtime } else { 0.0 },
        data_prr: sum_u(|r| r.frames_ok) as f64 / frames as f64,
        collision_rate: sum_u(|r| r.collided_frames) as f64 / frames as f64,
        idle_frac: sum_u(|r| r.idle_ticks) as f64 / ticks as f64,
        control_delivery: if resolved > 0 { delivered as f64 / resolved as f64 } else { 1.0 },
        cmd_delivered: sum_u(|r| r.cmd_delivered),
        cmd_issued: sum_u(|r| r.cmd_issued),
        beacons: sum_u(|r| r.beacons),
    }
}

/// Runs the full sweep: every `(N, scheme, trial)` cell, serially, in
/// fixed order. Returns the aggregated points, uncoordinated and
/// coordinated interleaved per N (baseline first).
pub fn run_sweep(cfg: &Config) -> Vec<PointResult> {
    let mut points = Vec::with_capacity(cfg.ns.len() * 2);
    for &n in &cfg.ns {
        for coordinated in [false, true] {
            let reports: Vec<MeshReport> =
                (0..cfg.trials).map(|t| run_trial(cfg, n, t, coordinated)).collect();
            points.push(aggregate(n, coordinated, &reports));
        }
    }
    points
}

/// Renders the aggregate sweep as `fig08_mesh`.
pub fn sweep_table(cfg: &Config, points: &[PointResult]) -> Table {
    let mut table = Table::new(
        "fig08_mesh",
        format!(
            "goodput + control delivery vs N: {} hidden clusters, {} ticks x {} paired trials, {} dB",
            cfg.clusters, cfg.ticks, cfg.trials, cfg.snr_db
        ),
        &[
            "stations",
            "scheme",
            "goodput_mbps",
            "data_prr",
            "collision_rate",
            "idle_frac",
            "control_delivery",
            "cmd_issued",
            "cmd_delivered",
            "beacons",
        ],
    );
    for p in points {
        table.push_row(vec![
            p.n.to_string(),
            if p.coordinated { "coordinated" } else { "csma" }.to_string(),
            fmt(p.goodput_mbps, 4),
            fmt(p.data_prr, 4),
            fmt(p.collision_rate, 4),
            fmt(p.idle_frac, 4),
            fmt(p.control_delivery, 4),
            p.cmd_issued.to_string(),
            p.cmd_delivered.to_string(),
            p.beacons.to_string(),
        ]);
    }
    table
}

/// Renders the per-station breakdown of the largest coordinated cell
/// (trial 0) as `fig08_mesh_stations`.
pub fn stations_table(cfg: &Config) -> Table {
    let n = cfg.ns.iter().copied().max().unwrap_or(2);
    let report = run_trial(cfg, n, 0, true);
    let mut table = Table::new(
        "fig08_mesh_stations",
        format!(
            "per-station view of the coordinated {n}-station cell (trial 0, {} ticks)",
            cfg.ticks
        ),
        &[
            "station",
            "frames_tx",
            "frames_rx_ok",
            "attempts",
            "collisions",
            "defers",
            "rate_mbps",
            "silence_budget",
            "tdma_slot",
            "ctl_frames",
            "arq_retries",
        ],
    );
    for st in &report.per_station {
        table.push_row(vec![
            st.station.to_string(),
            st.data.frames_tx.to_string(),
            st.data.frames_rx_ok.to_string(),
            st.attempts.to_string(),
            st.collisions.to_string(),
            st.defers.to_string(),
            st.rate.mbps().to_string(),
            st.silence_budget.to_string(),
            st.tdma.map_or_else(|| "-".to_string(), |(p, q)| format!("{p}/{q}")),
            st.ctl.frames_tx.to_string(),
            (st.data.arq_retries + st.ctl.arq_retries).to_string(),
        ]);
    }
    table
}

/// Runs the whole experiment: aggregate sweep + per-station breakdown.
pub fn run(cfg: &Config) -> Vec<Table> {
    let points = run_sweep(cfg);
    vec![sweep_table(cfg, &points), stations_table(cfg)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::set_threads;

    #[test]
    fn coordination_wins_the_duel_with_control_delivered() {
        let cfg = Config::quick();
        let points = run_sweep(&cfg);
        assert_eq!(points.len(), cfg.ns.len() * 2);
        // Aggregate goodput across the sweep: coordinated must beat the
        // CSMA baseline, and its control plane must actually deliver.
        let total = |coord: bool| {
            points.iter().filter(|p| p.coordinated == coord).map(|p| p.goodput_mbps).sum::<f64>()
        };
        assert!(
            total(true) > total(false),
            "coordinated {:.4} Mbps <= csma {:.4} Mbps",
            total(true),
            total(false)
        );
        for p in points.iter().filter(|p| p.coordinated) {
            assert!(
                p.control_delivery >= 0.99,
                "N={}: control delivery {:.4} < 0.99",
                p.n,
                p.control_delivery
            );
            assert!(p.cmd_delivered > 0, "N={}: no commands delivered", p.n);
        }
        // Hidden clusters must actually hurt the baseline.
        let worst_csma =
            points.iter().filter(|p| !p.coordinated).map(|p| p.collision_rate).fold(0.0, f64::max);
        assert!(worst_csma > 0.2, "baseline collision rate only {worst_csma:.3}");
    }

    #[test]
    fn tables_are_thread_invariant() {
        let cfg = Config { ns: vec![3], ticks: 50, ..Config::quick() };
        set_threads(1);
        let serial = run(&cfg);
        set_threads(4);
        let parallel = run(&cfg);
        set_threads(0);
        assert_eq!(serial, parallel);
    }
}
