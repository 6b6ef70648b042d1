//! The four workloads' inputs, each a pure function of the seed. The
//! program under test sees only what these functions generate.

use cos_core::mesh::{MeshConfig, MeshTopology};
use cos_core::session::SessionConfig;
use cos_phy::rates::DataRate;

use crate::util::{pick, SplitMix};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Engine64qamBulk,
    EngineLowrateChurn,
    ServiceOpenLoop,
    MeshHiddenCells,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Engine64qamBulk,
        Workload::EngineLowrateChurn,
        Workload::ServiceOpenLoop,
        Workload::MeshHiddenCells,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Engine64qamBulk => "engine_64qam_bulk",
            Workload::EngineLowrateChurn => "engine_lowrate_churn",
            Workload::ServiceOpenLoop => "service_open_loop",
            Workload::MeshHiddenCells => "mesh_hidden_cells",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Which engine entry point a session's jobs take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    Plain,
    Resilient,
    Adaptive,
}

/// One session of a job mix: its config, channel seed and job kind.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    pub config: SessionConfig,
    pub seed: u64,
    pub kind: JobKind,
}

/// A closed-loop job mix: a session population, the payload and control
/// tables, and the per-(session, round) choice of payload and control.
/// Payloads and controls cycle through their tables, so every round
/// carries an even share of each.
#[derive(Debug, Clone)]
pub struct JobMix {
    pub seed: u64,
    pub sessions: Vec<SessionSpec>,
    pub payloads: Vec<Vec<u8>>,
    /// Plain-job control messages; resilient and adaptive sessions queue
    /// these on their ARQ.
    pub controls: Vec<Vec<u8>>,
    /// Every this many sessions, one is released and recreated per round
    /// (phase-shifted by the round); `None` disables churn.
    pub churn_stride: Option<usize>,
    /// A fixed payload per session, overriding the per-round choice.
    pub session_payload: Option<Vec<usize>>,
    generator: fn(&mut SplitMix) -> SessionSpec,
}

impl JobMix {
    /// A mix of fixed sessions, each with its own payload, and no churn.
    pub fn fixed(
        seed: u64,
        sessions: Vec<SessionSpec>,
        payloads: Vec<Vec<u8>>,
        session_payload: Vec<usize>,
        controls: Vec<Vec<u8>>,
    ) -> JobMix {
        JobMix {
            seed,
            sessions,
            payloads,
            controls,
            churn_stride: None,
            session_payload: Some(session_payload),
            generator: bulk_session,
        }
    }

    pub fn payload_for(&self, session: usize, round: usize) -> usize {
        if let Some(fixed) = &self.session_payload {
            return fixed[session];
        }
        (session + round + (self.seed % 1009) as usize) % self.payloads.len()
    }

    pub fn control_for(&self, session: usize, round: usize) -> usize {
        (session + 3 * round + (self.seed % 1013) as usize) % self.controls.len()
    }

    /// The session that replaces slot `slot` after round `round`.
    pub fn replacement(&self, slot: usize, round: usize) -> SessionSpec {
        (self.generator)(&mut SplitMix::new(pick(
            self.seed ^ 0xC4A2,
            slot as u64,
            round as u64,
        )))
    }

    /// Slots churned after round `round`.
    pub fn churned(&self, round: usize) -> impl Iterator<Item = usize> {
        let n = self.sessions.len();
        let stride = self.churn_stride.unwrap_or(usize::MAX);
        let start = if stride == usize::MAX {
            n
        } else {
            round % stride
        };
        (start..n).step_by(stride.min(n.max(1)))
    }
}

/// Sessions in the `engine_64qam_bulk` mix (a multiple of 8: every
/// lockstep bundle is full).
pub const BULK_SESSIONS: usize = 512;
/// Sessions in the `engine_lowrate_churn` mix.
pub const CHURN_SESSIONS: usize = 256;

/// Session populations are stratified, not drawn independently: every
/// seed gets the same share of each rate, kind and SNR band, and the seed
/// decides which session gets which (and the exact SNRs, channel seeds
/// and payload bytes). Throughput then depends on the code, not on how
/// lucky a seed's population mix was.
fn stratified_snr(rng: &mut SplitMix, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n)
        .map(|k| lo + (hi - lo) * (k as f64 + rng.unit()) / n as f64)
        .collect();
    shuffle(rng, &mut v);
    v
}

fn shuffle<T>(rng: &mut SplitMix, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

fn mix_of(
    seed: u64,
    rng: &mut SplitMix,
    mut specs: Vec<SessionSpec>,
    payloads: Vec<Vec<u8>>,
    controls: Vec<Vec<u8>>,
) -> JobMix {
    shuffle(rng, &mut specs);
    JobMix {
        seed,
        sessions: specs,
        payloads,
        controls,
        churn_stride: None,
        session_payload: None,
        generator: bulk_session,
    }
}

/// `engine_64qam_bulk`: 48/54 Mbps pinned in blocks of eight sessions
/// (half the blocks each), 28–34 dB, one 1020-byte payload, plain jobs
/// with 16-bit control.
pub fn bulk_mix(seed: u64, sessions: usize) -> JobMix {
    let mut rng = SplitMix::new(seed ^ 0xB01C);
    let payloads = vec![rng.bytes(1020)];
    let controls = (0..4).map(|_| rng.bits(16)).collect();
    let mut block_rates: Vec<DataRate> = (0..sessions.div_ceil(8))
        .map(|b| {
            if b % 2 == 0 {
                DataRate::Mbps48
            } else {
                DataRate::Mbps54
            }
        })
        .collect();
    shuffle(&mut rng, &mut block_rates);
    let snrs = stratified_snr(&mut rng, sessions, 28.0, 34.0);
    let specs = (0..sessions)
        .map(|i| SessionSpec {
            config: SessionConfig {
                snr_db: snrs[i],
                rate: Some(block_rates[i / 8]),
                ..Default::default()
            },
            seed: rng.next_u64(),
            kind: JobKind::Plain,
        })
        .collect();
    // Blocks stay in order: the engine bundles equal-shape jobs, and each
    // rate's session count is a multiple of eight either way.
    JobMix {
        seed,
        sessions: specs,
        payloads,
        controls,
        churn_stride: None,
        session_payload: None,
        generator: bulk_session,
    }
}

fn bulk_session(rng: &mut SplitMix) -> SessionSpec {
    SessionSpec {
        config: SessionConfig {
            snr_db: rng.range(28.0, 34.0),
            rate: Some(DataRate::Mbps54),
            ..Default::default()
        },
        seed: rng.next_u64(),
        kind: JobKind::Plain,
    }
}

const LOW: [DataRate; 4] = [
    DataRate::Mbps6,
    DataRate::Mbps9,
    DataRate::Mbps12,
    DataRate::Mbps18,
];

/// Kind and rate of low-rate churn session type `t` (a sixth adaptive,
/// the rest pinned at 6–18 Mbps, a third of those resilient).
fn churn_type(t: usize) -> (JobKind, Option<DataRate>) {
    match t % 6 {
        0 => (JobKind::Adaptive, None),
        k => (
            if k % 3 == 0 {
                JobKind::Resilient
            } else {
                JobKind::Plain
            },
            Some(LOW[(t / 6) % LOW.len()]),
        ),
    }
}

/// `engine_lowrate_churn`: 6–18 Mbps pinned for five sixths of the
/// sessions, the rest rate-adaptive; plain/resilient/adaptive jobs over
/// 96–1020-byte payloads at 10–24 dB, with a churned stripe every round.
pub fn churn_mix(seed: u64, sessions: usize) -> JobMix {
    let mut rng = SplitMix::new(seed ^ 0xC4C4);
    let payloads = [96, 240, 504, 1020].iter().map(|&n| rng.bytes(n)).collect();
    let controls = [8, 12, 16, 24].iter().map(|&n| rng.bits(n)).collect();
    let snrs = stratified_snr(&mut rng, sessions, 10.0, 24.0);
    let specs = (0..sessions)
        .map(|i| {
            let (kind, rate) = churn_type(i);
            SessionSpec {
                config: SessionConfig {
                    snr_db: snrs[i],
                    rate,
                    ..Default::default()
                },
                seed: rng.next_u64(),
                kind,
            }
        })
        .collect();
    let mut mix = mix_of(seed, &mut rng, specs, payloads, controls);
    mix.churn_stride = Some(17);
    mix.generator = churn_session;
    mix
}

fn churn_session(rng: &mut SplitMix) -> SessionSpec {
    let (kind, rate) = churn_type(rng.below(24));
    SessionSpec {
        config: SessionConfig {
            snr_db: rng.range(10.0, 24.0),
            rate,
            ..Default::default()
        },
        seed: rng.next_u64(),
        kind,
    }
}

/// Sessions behind the live service.
pub const SERVICE_SESSIONS: usize = 128;

const MID: [DataRate; 4] = [
    DataRate::Mbps12,
    DataRate::Mbps18,
    DataRate::Mbps24,
    DataRate::Mbps36,
];

/// Kind and rate of service session type `t`: three fifths plain, one
/// fifth resilient, one fifth adaptive, at 12–36 Mbps pinned.
fn service_type(t: usize) -> (JobKind, DataRate) {
    let kind = match t % 5 {
        0 => JobKind::Resilient,
        1 => JobKind::Adaptive,
        _ => JobKind::Plain,
    };
    (kind, MID[(t / 5) % MID.len()])
}

/// `service_open_loop`'s session population: 12–36 Mbps pinned, 18–30 dB,
/// mixed job kinds.
pub fn service_mix(seed: u64, sessions: usize) -> JobMix {
    let mut rng = SplitMix::new(seed ^ 0x5E4C);
    let payloads = [96, 240, 504, 1020].iter().map(|&n| rng.bytes(n)).collect();
    let controls = (0..4).map(|_| rng.bits(16)).collect();
    let snrs = stratified_snr(&mut rng, sessions, 18.0, 30.0);
    let specs = (0..sessions)
        .map(|i| {
            let (kind, rate) = service_type(i);
            SessionSpec {
                config: SessionConfig {
                    snr_db: snrs[i],
                    rate: Some(rate),
                    ..Default::default()
                },
                seed: rng.next_u64(),
                kind,
            }
        })
        .collect();
    mix_of(seed, &mut rng, specs, payloads, controls)
}

/// One open-loop arrival: when it is due (seconds from the schedule's
/// start) and what it asks for.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub due_s: f64,
    pub session: usize,
    pub payload: usize,
    pub control: usize,
}

/// Offered load of `service_open_loop`, in jobs per second. Calibrated
/// once to about 70 % of the sustained rate of one engine thread on the
/// reference host (see README.md) and never recomputed per run.
pub const SERVICE_RATE_HZ: f64 = 300.0;

/// A Poisson arrival schedule at `rate_hz` over `[0, duration_s)`.
pub fn poisson_schedule(mix: &JobMix, rate_hz: f64, duration_s: f64) -> Vec<Arrival> {
    let mut rng = SplitMix::new(mix.seed ^ 0xA771);
    let mut out = Vec::new();
    let mut t = rng.exp(1.0 / rate_hz);
    while t < duration_s {
        let i = out.len();
        out.push(Arrival {
            due_s: t,
            session: rng.below(mix.sessions.len()),
            payload: mix.payload_for(i, 0),
            control: mix.control_for(i, 0),
        });
        t += rng.exp(1.0 / rate_hz);
    }
    out
}

/// Cells in `mesh_hidden_cells`.
pub const MESH_CELLS: usize = 32;
/// Stations per mesh cell.
pub const MESH_STATIONS: usize = 16;
/// A stripe of cells replaces one station every this many ticks.
pub const MESH_CHURN_EVERY: u64 = 8;

/// `mesh_hidden_cells`: hidden-cluster cells (2–4 clusters in turn,
/// stratified 16–24 dB), coordination on.
pub fn mesh_cells(seed: u64, cells: usize) -> Vec<(MeshTopology, MeshConfig)> {
    let mut rng = SplitMix::new(seed ^ 0x3E54);
    let snrs = stratified_snr(&mut rng, cells, 16.0, 24.0);
    (0..cells)
        .map(|c| {
            let topo = MeshTopology::hidden_clusters(MESH_STATIONS, 2 + c % 3, snrs[c]);
            (
                topo,
                MeshConfig {
                    seed: rng.next_u64(),
                    ..MeshConfig::default()
                },
            )
        })
        .collect()
}

/// The (cell, station) pairs replaced after tick `tick` when it is a
/// churn tick.
pub fn mesh_churn(tick: u64, cells: usize) -> Vec<(usize, usize)> {
    if cells == 0 || !tick.is_multiple_of(MESH_CHURN_EVERY) {
        return Vec::new();
    }
    let round = (tick / MESH_CHURN_EVERY) as usize;
    (round % 5..cells)
        .step_by(5)
        .map(|ci| (ci, (round * 7 + ci) % MESH_STATIONS))
        .collect()
}
