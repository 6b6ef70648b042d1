//! The robustness soak: every fault scenario the link must survive.
//!
//! Each scenario attaches one configuration of the fault-injection engine
//! ([`cos_channel::impairment`]) to a resilient [`CosSession`]
//! and runs a fixed-seed packet stream through it. Transient scenarios
//! gate the faults to a mid-run packet window, so the soak observes the
//! complete arc: healthy CoS operation, degradation under fire, and
//! recovery once the fault clears. One scenario (a permanent reverse-path
//! blackout) is *expected* to park the link in data-only mode instead.
//!
//! Per scenario the soak verifies (see `docs/ROBUSTNESS.md`):
//!
//! * **zero panics** — every trial runs under `catch_unwind`,
//! * **control delivery ≥ 99 %** after ARQ retries, on scenarios that
//!   offer control traffic (the parked scenario deliberately offers none:
//!   a degraded link does not promise a control channel),
//! * **recovery** — on recovering scenarios, every trial is back in
//!   [`LinkMode::Cos`] within [`RECOVERY_BOUND_PKTS`] packets after the
//!   fault window closes (a later degrade on a healthy link, too late in
//!   the trial for the re-probe backoff to undo, does not fail it); the
//!   blackout instead ends every trial parked in [`LinkMode::DataOnly`].
//!
//! Determinism: every trial derives its session seed, fault seeds and
//! message bits purely from its `(scenario, trial)` index, so
//! `results/robustness_soak.csv` and `BENCH_pr2.json` are byte-identical
//! at any `--threads` setting (`docs/DETERMINISM.md`).

use crate::harness::run_trials;
use crate::table::{fmt, Table};
use cos_channel::{
    AgcTransient, BurstInterference, CfoDrift, CollisionOverlap, FaultEngine, FeedbackCorruption,
    FeedbackLoss, FeedbackStaleness, MidFrameTruncation,
};
use cos_core::budget::LinkMode;
use cos_core::resilience::ArqHistograms;
use cos_core::session::{CosSession, SessionConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Average link SNR in dB.
const SNR_DB: f64 = 22.0;

/// Soak dimensions.
#[derive(Debug, Clone)]
pub struct Config {
    /// Independent channel realisations per scenario.
    pub trials: usize,
    /// Packets per trial.
    pub packets: usize,
    /// Stop offering new control messages after this packet, so the ARQ
    /// backlog drains before the trial ends.
    pub enqueue_until: usize,
    /// Transient faults strike for packets in `[window.0, window.1)`.
    pub window: (u64, u64),
}

impl Default for Config {
    fn default() -> Self {
        Config { trials: 6, packets: 80, enqueue_until: 60, window: (10, 30) }
    }
}

/// Packets after the fault window closes (`Config::window.1`) within
/// which a [`Expectation::RecoverToCos`] trial must send a packet in CoS
/// mode: twice the re-probe backoff's clamp
/// (`budget::REPROBE_BACKOFF_MAX`, 16 packets). A
/// parked link probes at least once per clamp, and one probe may fail on
/// a healthy link: the committed soak's slowest trial
/// (`collision_overlap`) is back 15 packets after the close.
pub const RECOVERY_BOUND_PKTS: u64 = 32;

/// What a scenario's link is expected to do once its faults stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The fault clears; every trial must be back in CoS mode within
    /// [`RECOVERY_BOUND_PKTS`] packets after the fault window closes.
    RecoverToCos,
    /// The fault is permanent; the link must park in data-only mode.
    ParkInDataOnly,
}

/// One fault scenario of the soak matrix.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// CSV row name.
    pub name: &'static str,
    /// Expected terminal mode.
    pub expect: Expectation,
    /// Whether the soak offers control traffic. The parked scenario does
    /// not: a link that (correctly) refuses CoS mode also refuses control
    /// messages, and counting those refusals as delivery failures would
    /// punish the right behaviour.
    pub offer_control: bool,
    /// Whether the faults are gated to the transient window.
    pub windowed: bool,
    /// Builds the fault engine from a per-trial seed (`None` = clean).
    pub build: fn(u64) -> Option<FaultEngine>,
}

/// The full soak matrix: one clean control row plus every impairment,
/// alone and composed.
pub fn scenarios() -> Vec<Scenario> {
    fn clean(_: u64) -> Option<FaultEngine> {
        None
    }
    fn burst(seed: u64) -> Option<FaultEngine> {
        Some(FaultEngine::new().with(BurstInterference::new(0.2, 800, 0.7, seed)))
    }
    fn impulse(seed: u64) -> Option<FaultEngine> {
        Some(FaultEngine::new().with(BurstInterference::new(1.0, 60, 0.9, seed)))
    }
    fn collision(seed: u64) -> Option<FaultEngine> {
        Some(FaultEngine::new().with(CollisionOverlap::new(0.05, 0.5, seed)))
    }
    fn cfo(_: u64) -> Option<FaultEngine> {
        Some(FaultEngine::new().with(CfoDrift::new(2e6, 8e3)))
    }
    fn agc(seed: u64) -> Option<FaultEngine> {
        Some(FaultEngine::new().with(AgcTransient::new(0.6, -9.0, 300, seed)))
    }
    fn truncation(seed: u64) -> Option<FaultEngine> {
        Some(FaultEngine::new().with(MidFrameTruncation::new(0.5, 0.5, seed)))
    }
    fn fb_loss(seed: u64) -> Option<FaultEngine> {
        Some(FaultEngine::new().with(FeedbackLoss::new(0.9, seed)))
    }
    fn fb_blackout(seed: u64) -> Option<FaultEngine> {
        Some(FaultEngine::new().with(FeedbackLoss::new(1.0, seed)))
    }
    fn fb_stale(_: u64) -> Option<FaultEngine> {
        Some(FaultEngine::new().with(FeedbackStaleness::new(6)))
    }
    fn fb_corrupt(seed: u64) -> Option<FaultEngine> {
        Some(FaultEngine::new().with(FeedbackCorruption::new(0.8, 12, seed)))
    }
    fn kitchen_sink(seed: u64) -> Option<FaultEngine> {
        Some(
            FaultEngine::new()
                .with(BurstInterference::new(0.2, 400, 0.5, seed))
                .with(FeedbackLoss::new(0.4, seed.wrapping_add(1)))
                .with(FeedbackCorruption::new(0.3, 6, seed.wrapping_add(2))),
        )
    }
    let recover = |name, build| Scenario {
        name,
        expect: Expectation::RecoverToCos,
        offer_control: true,
        windowed: true,
        build,
    };
    vec![
        Scenario {
            name: "clean",
            expect: Expectation::RecoverToCos,
            offer_control: true,
            windowed: false,
            build: clean,
        },
        recover("burst_interference", burst as fn(u64) -> Option<FaultEngine>),
        recover("impulse_interference", impulse),
        recover("collision_overlap", collision),
        recover("cfo_drift", cfo),
        recover("agc_transient", agc),
        recover("mid_frame_truncation", truncation),
        recover("feedback_loss", fb_loss),
        recover("feedback_staleness", fb_stale),
        recover("feedback_corruption", fb_corrupt),
        recover("kitchen_sink", kitchen_sink),
        Scenario {
            name: "feedback_blackout",
            expect: Expectation::ParkInDataOnly,
            offer_control: false,
            windowed: false,
            build: fb_blackout,
        },
    ]
}

/// What one trial produced.
#[derive(Debug, Clone, Default)]
pub struct TrialResult {
    /// The trial closure panicked (always a soak failure).
    pub panicked: bool,
    /// ARQ counters at the end of the trial.
    pub enqueued: u64,
    /// Messages confirmed delivered.
    pub delivered: u64,
    /// Messages dropped after exhausting retries.
    pub failed: u64,
    /// Transmission attempts across all messages.
    pub attempts: u64,
    /// Sum of per-message delivery latencies (packets).
    pub latency_sum: u64,
    /// CRC-pass packets.
    pub data_ok: u64,
    /// Cos→DataOnly degradations.
    pub degrades: u64,
    /// ProbeRecovered transitions back to Cos.
    pub recoveries: u64,
    /// Packets from each degradation to its recovery.
    pub recovery_sum: u64,
    /// Mode at the end of the trial.
    pub final_mode: Option<LinkMode>,
    /// Packets from the fault window's close to the first packet at or
    /// after it sent in CoS mode (`None`: none before the trial ended).
    pub cos_after_close: Option<u64>,
    /// Resilient frames whose summary reports a receive-chain failure.
    pub phy_errors: u64,
    /// Messages still queued when the trial ended.
    pub residual_backlog: u64,
    /// Per-message retry/backoff histograms (attempts per delivered and
    /// per failed message, delivery latency in packets).
    pub histograms: ArqHistograms,
}

/// Deterministic 8-bit control message for one (trial, packet) slot.
fn message_bits(trial: usize, packet: usize) -> Vec<u8> {
    let x = (trial as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(packet as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (0..8).map(|b| ((x >> (b + 17)) & 1) as u8).collect()
}

/// Runs one trial of one scenario; never propagates a panic.
pub fn run_trial(scenario: &Scenario, cfg: &Config, trial: usize) -> TrialResult {
    let seed = 0xC0DE_0000 + trial as u64 * 131;
    let session_cfg = SessionConfig { snr_db: SNR_DB, ..Default::default() };
    let packets = cfg.packets;
    let enqueue_until = cfg.enqueue_until;
    let window = cfg.window;
    let scenario = scenario.clone();
    let run = move || {
        let mut s = CosSession::new(session_cfg, seed);
        if let Some(engine) = (scenario.build)(seed ^ 0x5EED) {
            let engine = if scenario.windowed {
                engine.with_window(window.0, window.1)
            } else {
                engine
            };
            s.set_faults(engine);
        }
        let payload = vec![0xA7u8; 600];
        let mut data_ok = 0u64;
        let mut phy_errors = 0u64;
        let close = window.1;
        let mut cos_after_close = None;
        // Recovery latency: each Cos→DataOnly degradation paired with the
        // next BASE probe confirmed back to Cos (`ProbeRecovered`, the
        // only way the guard re-enters Cos), read off the summaries.
        let mut degrades = 0u64;
        let mut recoveries = 0u64;
        let mut recovery_sum = 0u64;
        let mut open: Option<u64> = None;
        for p in 0..packets {
            let at = p as u64;
            if at >= close && cos_after_close.is_none() && s.mode() == LinkMode::Cos {
                cos_after_close = Some(at - close);
            }
            if scenario.offer_control
                && p < enqueue_until
                && s.mode() == LinkMode::Cos
                && s.arq_backlog() == 0
            {
                s.queue_control(message_bits(trial, p));
            }
            let r = s.send_packet_resilient_summary(&payload);
            data_ok += r.packet.data_ok as u64;
            phy_errors += r.phy_error.is_some() as u64;
            match (r.mode, r.mode_after) {
                (LinkMode::Cos, LinkMode::DataOnly) => {
                    degrades += 1;
                    open.get_or_insert(at);
                }
                (LinkMode::Probing, LinkMode::Cos) => {
                    if let Some(start) = open.take() {
                        recoveries += 1;
                        recovery_sum += at - start;
                    }
                }
                _ => {}
            }
        }
        let stats = s.arq_stats();
        TrialResult {
            panicked: false,
            enqueued: stats.enqueued,
            delivered: stats.delivered,
            failed: stats.failed,
            attempts: stats.attempts,
            latency_sum: stats.total_delivery_latency,
            data_ok,
            degrades,
            recoveries,
            recovery_sum,
            final_mode: Some(s.mode()),
            cos_after_close,
            phy_errors,
            residual_backlog: s.arq_backlog() as u64,
            histograms: s.arq_histograms(),
        }
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(result) => result,
        Err(_) => TrialResult { panicked: true, ..Default::default() },
    }
}

/// One scenario's aggregated soak outcome.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: &'static str,
    /// Messages accepted / delivered / dropped across all trials.
    pub enqueued: u64,
    /// Confirmed deliveries.
    pub delivered: u64,
    /// Messages dropped after exhausting retries.
    pub failed: u64,
    /// Delivered fraction of resolved messages (1.0 when none resolved).
    pub delivery_rate: f64,
    /// Mean transmission attempts per resolved message.
    pub mean_attempts: f64,
    /// Mean packets from enqueue to confirmed delivery.
    pub mean_delivery_latency: f64,
    /// Cos→DataOnly degradations across all trials.
    pub degrades: u64,
    /// Recoveries back to Cos.
    pub recoveries: u64,
    /// Mean packets from degradation to recovery.
    pub mean_recovery: f64,
    /// Trials that ended in CoS mode.
    pub ended_cos: usize,
    /// Trials that ended parked in data-only mode.
    pub ended_data_only: usize,
    /// CRC-pass fraction across all packets of all trials.
    pub data_prr: f64,
    /// Receive-chain failures (typed, counted — not panics).
    pub phy_errors: u64,
    /// Trials that panicked (must be zero).
    pub panics: usize,
    /// Did the scenario meet its acceptance criteria?
    pub pass: bool,
    /// Retry/backoff histograms merged across all live trials.
    pub histograms: ArqHistograms,
    /// Smallest attempt count covering 50 % of delivered messages.
    pub attempts_p50: Option<usize>,
    /// Smallest attempt count covering 99 % of delivered messages.
    pub attempts_p99: Option<usize>,
}

/// Runs every trial of one scenario and aggregates.
pub fn run_scenario(scenario: &Scenario, cfg: &Config) -> ScenarioResult {
    let trials: Vec<TrialResult> =
        run_trials(cfg.trials, |i| run_trial(scenario, cfg, i));
    let panics = trials.iter().filter(|t| t.panicked).count();
    let live: Vec<&TrialResult> = trials.iter().filter(|t| !t.panicked).collect();
    let sum = |f: fn(&TrialResult) -> u64| live.iter().map(|t| f(t)).sum::<u64>();
    let enqueued = sum(|t| t.enqueued);
    let delivered = sum(|t| t.delivered);
    let failed = sum(|t| t.failed);
    let attempts = sum(|t| t.attempts);
    let resolved = delivered + failed;
    let delivery_rate = if resolved == 0 { 1.0 } else { delivered as f64 / resolved as f64 };
    let degrades = sum(|t| t.degrades);
    let recoveries = sum(|t| t.recoveries);
    let ended_cos = live.iter().filter(|t| t.final_mode == Some(LinkMode::Cos)).count();
    let ended_data_only =
        live.iter().filter(|t| t.final_mode == Some(LinkMode::DataOnly)).count();
    let total_packets = (live.len() * cfg.packets) as f64;
    let expectation_met = match scenario.expect {
        Expectation::RecoverToCos => live.iter().all(|t| recovered_in_time(t)),
        Expectation::ParkInDataOnly => ended_data_only == live.len(),
    };
    let delivery_ok = !scenario.offer_control || delivery_rate >= 0.99;
    let mut histograms = ArqHistograms::default();
    for t in &live {
        histograms.merge(&t.histograms);
    }
    ScenarioResult {
        name: scenario.name,
        enqueued,
        delivered,
        failed,
        delivery_rate,
        mean_attempts: if resolved == 0 { 0.0 } else { attempts as f64 / resolved as f64 },
        mean_delivery_latency: if delivered == 0 {
            0.0
        } else {
            sum(|t| t.latency_sum) as f64 / delivered as f64
        },
        degrades,
        recoveries,
        mean_recovery: if recoveries == 0 {
            0.0
        } else {
            sum(|t| t.recovery_sum) as f64 / recoveries as f64
        },
        ended_cos,
        ended_data_only,
        data_prr: if total_packets == 0.0 { 0.0 } else { sum(|t| t.data_ok) as f64 / total_packets },
        phy_errors: sum(|t| t.phy_errors),
        panics,
        pass: panics == 0 && expectation_met && delivery_ok,
        attempts_p50: histograms.attempts_quantile(0.5),
        attempts_p99: histograms.attempts_quantile(0.99),
        histograms,
    }
}

/// Was the trial's link back in CoS mode within [`RECOVERY_BOUND_PKTS`]
/// packets after the fault window closed?
fn recovered_in_time(trial: &TrialResult) -> bool {
    trial.cos_after_close.is_some_and(|late| late <= RECOVERY_BOUND_PKTS)
}

/// Runs the whole matrix and renders the soak table.
pub fn run_soak(cfg: &Config) -> (Vec<ScenarioResult>, Table) {
    let results: Vec<ScenarioResult> =
        scenarios().iter().map(|sc| run_scenario(sc, cfg)).collect();
    let mut table = Table::new(
        "robustness_soak",
        format!(
            "fault-injection soak: {} trials x {} packets, faults in packets [{}, {}), {} dB",
            cfg.trials, cfg.packets, cfg.window.0, cfg.window.1, SNR_DB
        ),
        &[
            "scenario",
            "enqueued",
            "delivered",
            "failed",
            "delivery_rate",
            "mean_attempts",
            "attempts_p50",
            "attempts_p99",
            "mean_latency_pkts",
            "degrades",
            "recoveries",
            "mean_recovery_pkts",
            "ended_cos",
            "ended_data_only",
            "data_prr",
            "phy_errors",
            "panics",
            "pass",
        ],
    );
    for r in &results {
        table.push_row(vec![
            r.name.to_string(),
            r.enqueued.to_string(),
            r.delivered.to_string(),
            r.failed.to_string(),
            fmt(r.delivery_rate, 4),
            fmt(r.mean_attempts, 2),
            r.attempts_p50.map_or_else(|| "-".to_string(), |q| q.to_string()),
            r.attempts_p99.map_or_else(|| "-".to_string(), |q| q.to_string()),
            fmt(r.mean_delivery_latency, 2),
            r.degrades.to_string(),
            r.recoveries.to_string(),
            fmt(r.mean_recovery, 2),
            r.ended_cos.to_string(),
            r.ended_data_only.to_string(),
            fmt(r.data_prr, 4),
            r.phy_errors.to_string(),
            r.panics.to_string(),
            if r.pass { "yes" } else { "NO" }.to_string(),
        ]);
    }
    (results, table)
}

/// Serialises the soak results as the PR's benchmark artefact
/// (`BENCH_pr2.json`), with deterministic key order and formatting.
pub fn to_bench_json(results: &[ScenarioResult], cfg: &Config) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"methodology\": \"Fault-injection soak: {} seeded channel realisations x {} packets \
         per scenario at {} dB average SNR, transient faults gated to packets [{}, {}). Every \
         trial runs the full resilient CoS session (ARQ + threshold recalibration + degraded-mode \
         state machine) under catch_unwind; delivery rate counts ARQ-resolved control messages; \
         recovery latency is packets from Cos->DataOnly degradation to the ProbeRecovered \
         transition. Retry/backoff histograms bucket per-message attempts (delivered and \
         failed separately; bucket k = k attempts, last bucket 10+) and enqueue-to-confirmation \
         latency in packets (1,1,1,2,4,8,16,33+ bucket widths), merged across trials. \
         Deterministic at any --threads setting.\",\n",
        cfg.trials, cfg.packets, SNR_DB, cfg.window.0, cfg.window.1
    ));
    out.push_str("  \"scenarios\": {\n");
    let list = |xs: &[u64]| {
        xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ")
    };
    let quantile = |q: Option<usize>| q.map_or_else(|| "null".to_string(), |v| v.to_string());
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\n      \"delivery_rate\": {:.4},\n      \"delivered\": {},\n      \
             \"failed\": {},\n      \"mean_delivery_latency_pkts\": {:.2},\n      \
             \"degrades\": {},\n      \"recoveries\": {},\n      \
             \"mean_recovery_pkts\": {:.2},\n      \"ended_cos\": {},\n      \
             \"ended_data_only\": {},\n      \"data_prr\": {:.4},\n      \
             \"phy_errors\": {},\n      \"panics\": {},\n      \"pass\": {},\n      \
             \"attempts_p50\": {},\n      \"attempts_p99\": {},\n      \
             \"delivered_attempts_hist\": [{}],\n      \
             \"failed_attempts_hist\": [{}],\n      \
             \"delivery_latency_hist\": [{}]\n    }}{}\n",
            r.name,
            r.delivery_rate,
            r.delivered,
            r.failed,
            r.mean_delivery_latency,
            r.degrades,
            r.recoveries,
            r.mean_recovery,
            r.ended_cos,
            r.ended_data_only,
            r.data_prr,
            r.phy_errors,
            r.panics,
            r.pass,
            quantile(r.attempts_p50),
            quantile(r.attempts_p99),
            list(&r.histograms.delivered_attempts),
            list(&r.histograms.failed_attempts),
            list(&r.histograms.delivery_latency),
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One 30-packet trial with faults over packets 8..20: the soak's
    /// shape, small enough for a unit test.
    fn cfg(enqueue_until: usize) -> Config {
        Config { trials: 1, packets: 30, enqueue_until, window: (8, 20) }
    }

    #[test]
    fn clean_scenario_passes() {
        let cfg = cfg(20);
        let sc = &scenarios()[0];
        assert_eq!(sc.name, "clean");
        let r = run_scenario(sc, &cfg);
        assert_eq!(r.panics, 0);
        assert!(r.pass, "{r:?}");
        assert!(r.delivered > 0);
    }

    #[test]
    fn blackout_parks_in_data_only() {
        let cfg = cfg(0);
        let sc = scenarios().into_iter().find(|s| s.name == "feedback_blackout").expect("exists");
        let r = run_scenario(&sc, &cfg);
        assert_eq!(r.panics, 0);
        assert_eq!(r.ended_data_only, 1, "{r:?}");
    }

    #[test]
    fn a_link_that_never_recovers_fails_a_recovering_scenario() {
        // The blackout parks the link for good; judged as a recovering
        // scenario, it must fail however the trial ends.
        let cfg = cfg(0);
        let mut sc = scenarios().into_iter().find(|s| s.name == "feedback_blackout").expect("exists");
        sc.expect = Expectation::RecoverToCos;
        let r = run_scenario(&sc, &cfg);
        assert_eq!(r.ended_cos, 0, "{r:?}");
        assert!(!r.pass, "{r:?}");
    }

    #[test]
    fn recovery_is_judged_against_the_stated_bound() {
        let trial = |late| TrialResult { cos_after_close: late, ..Default::default() };
        assert!(recovered_in_time(&trial(Some(0))));
        assert!(recovered_in_time(&trial(Some(RECOVERY_BOUND_PKTS))));
        assert!(!recovered_in_time(&trial(Some(RECOVERY_BOUND_PKTS + 1))));
        assert!(!recovered_in_time(&trial(None)));
    }

    #[test]
    fn matrix_covers_every_impairment() {
        let names: Vec<&str> = scenarios().iter().map(|s| s.name).collect();
        for expected in [
            "burst_interference",
            "impulse_interference",
            "collision_overlap",
            "cfo_drift",
            "agc_transient",
            "mid_frame_truncation",
            "feedback_loss",
            "feedback_staleness",
            "feedback_corruption",
            "kitchen_sink",
            "feedback_blackout",
        ] {
            assert!(names.contains(&expected), "missing scenario {expected}");
        }
    }

    #[test]
    fn message_bits_are_deterministic_binary() {
        assert_eq!(message_bits(3, 7), message_bits(3, 7));
        assert!(message_bits(1, 2).iter().all(|&b| b <= 1));
        assert_eq!(message_bits(0, 0).len(), 8);
    }
}
