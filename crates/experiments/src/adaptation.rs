//! The closed-loop link-adaptation experiment (`fig07_adaptation`): the
//! rate staircase + silence-budget probe search of
//! [`cos_core::adaptation`] exercised under coherence-time SNR drift.
//!
//! The paper's premise (§II-B, Fig. 2) is that stair-case rate adaptation
//! leaves an SNR gap wide enough to hide silence symbols in. This
//! experiment closes the loop the paper leaves open: a mobility-style
//! triangle SNR trajectory (`snr_hi → snr_lo → snr_hi`, the walking-user
//! coherence-time scenario) drives a live
//! [`cos_core::LinkAdaptationController`], and the closed-loop outcome is
//! duelled against every fixed `(rate, silence budget)` operating point
//! on the *same* seeded channel realisations.
//!
//! Two tables come out:
//!
//! * `fig07_adaptation_trace` — a serial single-session packet trace of
//!   the controller riding the drift: nominal SNR, EWMA estimate,
//!   staircase rate, probed budget, search state, and the per-packet
//!   staircase / probe events.
//! * `fig07_adaptation_compare` — adaptive vs the fixed grid: goodput
//!   (CRC-pass payload bits over airtime), data PRR and control delivery.
//!   Trials are paired by seed, so every contender faces identical
//!   channel realisations and the comparison is head-to-head.
//!
//! Determinism: per-trial seeds derive from the trial index alone, the
//! trace is strictly serial, and aggregation order is fixed, so both
//! CSVs are byte-identical at any `--threads` / `COS_THREADS` setting
//! (`docs/DETERMINISM.md`).

use crate::harness::{paper_payload, run_trials};
use crate::table::{fmt, Table};
use cos_core::adaptation::AdaptationConfig;
use cos_core::session::{CosSession, SessionConfig};
use cos_core::{IntervalCodec, ResilienceConfig};
use cos_phy::rates::DataRate;

/// Experiment dimensions.
#[derive(Debug, Clone)]
pub struct Config {
    /// SNR at the triangle's crests (dB).
    pub snr_hi_db: f64,
    /// SNR at the triangle's trough (dB).
    pub snr_lo_db: f64,
    /// Packets per trial.
    pub packets: usize,
    /// Packets per full hi → lo → hi triangle.
    pub period: usize,
    /// Channel realisations per contender (paired across contenders).
    pub trials: usize,
    /// Base seed; per-trial seeds derive from it and the trial index.
    pub seed: u64,
    /// Payload bytes per packet (≤ 1020, sliced from [`paper_payload`]).
    pub payload_len: usize,
    /// Fixed-rate contenders.
    pub fixed_rates: Vec<DataRate>,
    /// Fixed silence-budget contenders (crossed with `fixed_rates`).
    pub fixed_budgets: Vec<usize>,
    /// Bits per offered control message on the adaptive path.
    pub message_bits: usize,
    /// Offer a new control message every this many packets.
    pub enqueue_every: usize,
    /// Probe-search ceiling on the silence budget. The raw controller
    /// default (46) maximises control capacity; for a goodput duel a
    /// lower cap keeps the erasure load — and the all-bits-exact ACK
    /// rule — from eroding data PRR at the crests.
    pub max_budget: usize,
    /// ARQ retries per control message on the adaptive path. Generous,
    /// because the trough intentionally starves feedback for stretches.
    pub arq_max_retries: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            snr_hi_db: 26.0,
            snr_lo_db: 9.0,
            packets: 480,
            period: 240,
            trials: 3,
            seed: 0x0AD1,
            payload_len: 1020,
            fixed_rates: vec![
                DataRate::Mbps6,
                DataRate::Mbps12,
                DataRate::Mbps18,
                DataRate::Mbps24,
                DataRate::Mbps36,
                DataRate::Mbps54,
            ],
            fixed_budgets: vec![2, 12],
            message_bits: 8,
            enqueue_every: 4,
            max_budget: 12,
            arq_max_retries: 32,
        }
    }
}

impl Config {
    /// A reduced run for the module tests and smoke checks: one paired
    /// trial, one shallower triangle (the full 26 → 9 dB swing over only
    /// a few dozen packets would be a far faster fade than the paper's
    /// coherence-time scenario), a two-point fixed grid.
    pub fn quick() -> Self {
        Config {
            snr_lo_db: 14.0,
            packets: 48,
            period: 48,
            trials: 1,
            payload_len: 300,
            fixed_rates: vec![DataRate::Mbps12, DataRate::Mbps54],
            fixed_budgets: vec![2],
            ..Default::default()
        }
    }
}

/// Nominal link SNR of the triangle drift at `packet`: starts at
/// `snr_hi_db`, reaches `snr_lo_db` half a period later, and climbs back
/// — repeating for as many periods as the trial runs.
pub fn drift_snr_db(cfg: &Config, packet: usize) -> f64 {
    let period = cfg.period.max(2);
    let phase = packet % period;
    let half = period / 2;
    let frac = if phase <= half {
        phase as f64 / half as f64
    } else {
        (period - phase) as f64 / (period - half) as f64
    };
    cfg.snr_hi_db + (cfg.snr_lo_db - cfg.snr_hi_db) * frac
}

/// Deterministic control-message bits for one `(trial, packet)` slot.
fn message_bits(trial: usize, packet: usize, n: usize) -> Vec<u8> {
    let x = (trial as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(packet as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (0..n).map(|b| ((x >> (b % 48 + 13)) & 1) as u8).collect()
}

/// Trial seed: a pure function of the trial index, shared by every
/// contender so the duel is paired on identical channel realisations.
fn trial_seed(cfg: &Config, trial: usize) -> u64 {
    cfg.seed.wrapping_mul(104_729).wrapping_add(trial as u64 * 9_973)
}

fn payload(cfg: &Config) -> Vec<u8> {
    paper_payload()[..cfg.payload_len.min(1020)].to_vec()
}

/// Offer control messages only until here, so the ARQ backlog drains and
/// residual-backlog / delivery-rate numbers describe resolved messages.
fn enqueue_until(cfg: &Config) -> usize {
    cfg.packets - cfg.packets / 6
}

/// One contender of the comparison grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// The closed-loop controller: staircase rate + probed budget.
    Adaptive,
    /// A pinned operating point.
    Fixed {
        /// The pinned data rate.
        rate: DataRate,
        /// The pinned silence budget.
        budget: usize,
    },
}

/// The contender list: the adaptive controller first, then the full
/// fixed `(rate, budget)` grid.
pub fn contenders(cfg: &Config) -> Vec<Scheme> {
    let mut v = vec![Scheme::Adaptive];
    for &rate in &cfg.fixed_rates {
        for &budget in &cfg.fixed_budgets {
            v.push(Scheme::Fixed { rate, budget });
        }
    }
    v
}

/// Raw counters from one trial of one contender.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrialOutcome {
    /// Payload bits of CRC-pass packets.
    pub ok_bits: u64,
    /// Airtime spent, µs (failed packets burn airtime too).
    pub airtime_us: f64,
    /// CRC-pass packets.
    pub data_ok: u64,
    /// Packets sent.
    pub packets: u64,
    /// Sum of per-packet rates (Mbps), for the mean operating rate.
    pub rate_mbps_sum: u64,
    /// Sum of per-packet silence budgets, for the mean probed budget.
    pub budget_sum: u64,
    /// ARQ: messages offered (adaptive path only).
    pub enqueued: u64,
    /// ARQ: messages confirmed delivered.
    pub delivered: u64,
    /// ARQ: messages dropped after exhausting retries.
    pub failed: u64,
    /// Fixed path: packets that carried a control message.
    pub control_sent: u64,
    /// Fixed path: exact control decodes.
    pub control_ok: u64,
    /// Messages still queued when the trial ended (must drain to 0).
    pub backlog: u64,
}

/// The adaptive contender's session config: the tuned controller plus a
/// patient ARQ (`cfg.arq_max_retries`) on the session's control queue.
fn adaptive_session_config(cfg: &Config) -> SessionConfig {
    SessionConfig {
        snr_db: cfg.snr_hi_db,
        adaptation: AdaptationConfig { max_budget: cfg.max_budget, ..Default::default() },
        resilience: ResilienceConfig { arq_max_retries: cfg.arq_max_retries, ..Default::default() },
        ..Default::default()
    }
}

/// Runs one adaptive trial over the drift trajectory.
pub fn run_adaptive_trial(cfg: &Config, trial: usize) -> TrialOutcome {
    let mut s = CosSession::new(adaptive_session_config(cfg), trial_seed(cfg, trial));
    let payload = payload(cfg);
    let stop = enqueue_until(cfg);
    let mut out = TrialOutcome::default();
    for p in 0..cfg.packets {
        s.set_snr_db(drift_snr_db(cfg, p));
        // One message in flight at a time: a fresh offer waits for the
        // ARQ to resolve the previous one.
        if p < stop && p % cfg.enqueue_every == 0 && s.arq_backlog() == 0 {
            s.queue_control(message_bits(trial, p, cfg.message_bits));
        }
        let r = s.send_packet_adaptive_summary(&payload);
        out.packets += 1;
        out.airtime_us += r.packet.rate.frame_airtime_us(payload.len() + 4);
        out.rate_mbps_sum += r.packet.rate.mbps() as u64;
        out.budget_sum += r.budget as u64;
        if r.packet.data_ok {
            out.data_ok += 1;
            out.ok_bits += payload.len() as u64 * 8;
        }
    }
    let stats = s.arq_stats();
    out.enqueued = stats.enqueued;
    out.delivered = stats.delivered;
    out.failed = stats.failed;
    out.backlog = s.arq_backlog() as u64;
    out
}

/// Runs one fixed `(rate, budget)` trial over the same drift trajectory.
pub fn run_fixed_trial(cfg: &Config, rate: DataRate, budget: usize, trial: usize) -> TrialOutcome {
    let session_cfg =
        SessionConfig { snr_db: cfg.snr_hi_db, rate: Some(rate), ..Default::default() };
    let mut s = CosSession::new(session_cfg, trial_seed(cfg, trial));
    let payload = payload(cfg);
    let bits_per_msg = budget.saturating_sub(1) * IntervalCodec::default().bits_per_interval();
    let mut out = TrialOutcome::default();
    for p in 0..cfg.packets {
        s.set_snr_db(drift_snr_db(cfg, p));
        let bits = message_bits(trial, p, bits_per_msg);
        let r = s.send_packet_summary(&payload, &bits);
        out.packets += 1;
        out.airtime_us += rate.frame_airtime_us(payload.len() + 4);
        out.rate_mbps_sum += rate.mbps() as u64;
        out.budget_sum += budget as u64;
        out.control_sent += 1;
        out.control_ok += r.control_ok as u64;
        if r.data_ok {
            out.data_ok += 1;
            out.ok_bits += payload.len() as u64 * 8;
        }
    }
    out
}

/// One contender's aggregate over all paired trials.
#[derive(Debug, Clone, PartialEq)]
pub struct ContenderResult {
    /// Which contender.
    pub scheme: Scheme,
    /// Goodput: CRC-pass payload bits / total airtime (Mbps).
    pub throughput_mbps: f64,
    /// CRC-pass fraction.
    pub data_prr: f64,
    /// Control delivery: ARQ-resolved delivery rate for the adaptive
    /// contender, exact-decode fraction for fixed contenders.
    pub control_delivery: f64,
    /// Mean per-packet operating rate (Mbps).
    pub mean_rate_mbps: f64,
    /// Mean per-packet silence budget.
    pub mean_budget: f64,
    /// Messages still queued at trial end, summed over trials.
    pub backlog: u64,
}

fn aggregate(scheme: Scheme, trials: &[TrialOutcome]) -> ContenderResult {
    let sum_u = |f: fn(&TrialOutcome) -> u64| trials.iter().map(f).sum::<u64>();
    let packets = sum_u(|t| t.packets).max(1);
    let airtime: f64 = trials.iter().map(|t| t.airtime_us).sum();
    let delivered = sum_u(|t| t.delivered);
    let failed = sum_u(|t| t.failed);
    let resolved = delivered + failed;
    let control_sent = sum_u(|t| t.control_sent);
    let control_delivery = match scheme {
        Scheme::Adaptive => {
            if resolved == 0 {
                1.0
            } else {
                delivered as f64 / resolved as f64
            }
        }
        Scheme::Fixed { .. } => {
            if control_sent == 0 {
                1.0
            } else {
                sum_u(|t| t.control_ok) as f64 / control_sent as f64
            }
        }
    };
    ContenderResult {
        scheme,
        throughput_mbps: if airtime == 0.0 { 0.0 } else { sum_u(|t| t.ok_bits) as f64 / airtime },
        data_prr: sum_u(|t| t.data_ok) as f64 / packets as f64,
        control_delivery,
        mean_rate_mbps: sum_u(|t| t.rate_mbps_sum) as f64 / packets as f64,
        mean_budget: sum_u(|t| t.budget_sum) as f64 / packets as f64,
        backlog: sum_u(|t| t.backlog),
    }
}

/// Runs the full paired comparison: every contender over every trial
/// seed, parallel over `(contender, trial)` cells, aggregated in fixed
/// contender order. The adaptive contender is always row 0.
pub fn run_compare(cfg: &Config) -> Vec<ContenderResult> {
    let schemes = contenders(cfg);
    let cells = schemes.len() * cfg.trials;
    let outcomes = run_trials(cells, |i| {
        let trial = i % cfg.trials;
        match schemes[i / cfg.trials] {
            Scheme::Adaptive => run_adaptive_trial(cfg, trial),
            Scheme::Fixed { rate, budget } => run_fixed_trial(cfg, rate, budget, trial),
        }
    });
    schemes
        .iter()
        .enumerate()
        .map(|(c, &scheme)| aggregate(scheme, &outcomes[c * cfg.trials..(c + 1) * cfg.trials]))
        .collect()
}

/// Runs the serial single-session trace of the controller riding the
/// drift (trial seed 0) and renders it as `fig07_adaptation_trace`.
pub fn run_trace(cfg: &Config) -> Table {
    let mut s = CosSession::new(adaptive_session_config(cfg), trial_seed(cfg, 0));
    let payload = payload(cfg);
    let stop = enqueue_until(cfg);
    let mut table = Table::new(
        "fig07_adaptation_trace",
        format!(
            "closed-loop controller under triangle SNR drift {} -> {} -> {} dB over {} packets",
            cfg.snr_hi_db, cfg.snr_lo_db, cfg.snr_hi_db, cfg.period
        ),
        &[
            "packet",
            "snr_nominal_db",
            "ewma_snr_db",
            "rate_mbps",
            "budget",
            "budget_next",
            "search",
            "staircase_event",
            "probe_event",
            "acked",
            "data_ok",
        ],
    );
    for p in 0..cfg.packets {
        s.set_snr_db(drift_snr_db(cfg, p));
        if p < stop && p % cfg.enqueue_every == 0 && s.arq_backlog() == 0 {
            s.queue_control(message_bits(0, p, cfg.message_bits));
        }
        let r = s.send_packet_adaptive_summary(&payload);
        table.push_row(vec![
            p.to_string(),
            fmt(drift_snr_db(cfg, p), 2),
            if r.ewma_snr_db == f64::NEG_INFINITY { "-".into() } else { fmt(r.ewma_snr_db, 2) },
            r.packet.rate.mbps().to_string(),
            r.budget.to_string(),
            r.budget_after.to_string(),
            r.search_state.label().to_string(),
            format!("{:?}", r.staircase_event),
            format!("{:?}", r.probe_event),
            (r.control_acked as u8).to_string(),
            (r.packet.data_ok as u8).to_string(),
        ]);
    }
    table
}

/// Renders the comparison grid as `fig07_adaptation_compare`.
pub fn compare_table(cfg: &Config, results: &[ContenderResult]) -> Table {
    let mut table = Table::new(
        "fig07_adaptation_compare",
        format!(
            "adaptive vs fixed (rate, budget) grid: {} paired trials x {} packets, drift {} <-> {} dB",
            cfg.trials, cfg.packets, cfg.snr_hi_db, cfg.snr_lo_db
        ),
        &[
            "scheme",
            "rate_mbps",
            "budget",
            "throughput_mbps",
            "data_prr",
            "control_delivery",
            "mean_rate_mbps",
            "mean_budget",
            "residual_backlog",
        ],
    );
    for r in results {
        let (scheme, rate, budget) = match r.scheme {
            Scheme::Adaptive => ("adaptive".to_string(), "auto".to_string(), "auto".to_string()),
            Scheme::Fixed { rate, budget } => {
                ("fixed".to_string(), rate.mbps().to_string(), budget.to_string())
            }
        };
        table.push_row(vec![
            scheme,
            rate,
            budget,
            fmt(r.throughput_mbps, 3),
            fmt(r.data_prr, 4),
            fmt(r.control_delivery, 4),
            fmt(r.mean_rate_mbps, 2),
            fmt(r.mean_budget, 2),
            r.backlog.to_string(),
        ]);
    }
    table
}

/// Runs the whole experiment: trace + paired comparison.
pub fn run(cfg: &Config) -> Vec<Table> {
    let trace = run_trace(cfg);
    let results = run_compare(cfg);
    vec![trace, compare_table(cfg, &results)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::set_threads;

    #[test]
    fn triangle_hits_its_endpoints() {
        let cfg = Config { period: 40, ..Config::quick() };
        assert_eq!(drift_snr_db(&cfg, 0).to_bits(), cfg.snr_hi_db.to_bits());
        assert_eq!(drift_snr_db(&cfg, 20).to_bits(), cfg.snr_lo_db.to_bits());
        assert_eq!(drift_snr_db(&cfg, 40).to_bits(), cfg.snr_hi_db.to_bits());
        assert!(drift_snr_db(&cfg, 10) < cfg.snr_hi_db);
        assert!(drift_snr_db(&cfg, 10) > cfg.snr_lo_db);
    }

    #[test]
    fn trace_rides_the_triangle() {
        let cfg = Config::quick();
        let trace = run_trace(&cfg);
        assert_eq!(trace.rows.len(), cfg.packets);
        let events: Vec<&str> = trace.rows.iter().map(|r| r[7].as_str()).collect();
        assert!(events.contains(&"Acquire"), "controller never acquired: {events:?}");
        // The trough must push the staircase down — via an EWMA-driven
        // downgrade, or (under fast fades, where failed frames deliver no
        // feedback to average) the feedback-starvation fallback.
        assert!(
            events.contains(&"Downgrade") || events.contains(&"Fallback"),
            "trough never forced the staircase down: {events:?}"
        );
        assert!(events.contains(&"Upgrade"), "recovery never upgraded: {events:?}");
        // The search probes past the base budget somewhere along the run.
        assert!(
            trace.rows.iter().any(|r| r[4].parse::<usize>().unwrap() > 2),
            "probe search never raised the budget"
        );
    }

    #[test]
    fn adaptive_beats_the_quick_fixed_grid_with_full_delivery() {
        let cfg = Config::quick();
        let results = run_compare(&cfg);
        let adaptive = &results[0];
        assert_eq!(adaptive.scheme, Scheme::Adaptive);
        let best_fixed = results[1..]
            .iter()
            .map(|r| r.throughput_mbps)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            adaptive.throughput_mbps >= best_fixed,
            "adaptive {:.3} Mbps < best fixed {:.3} Mbps",
            adaptive.throughput_mbps,
            best_fixed
        );
        assert_eq!(adaptive.control_delivery, 1.0, "{adaptive:?}");
        assert_eq!(adaptive.backlog, 0, "{adaptive:?}");
    }

    #[test]
    fn compare_is_thread_invariant() {
        let cfg = Config::quick();
        set_threads(1);
        let serial = run_compare(&cfg);
        set_threads(4);
        let parallel = run_compare(&cfg);
        set_threads(0);
        assert_eq!(serial, parallel);
    }
}
