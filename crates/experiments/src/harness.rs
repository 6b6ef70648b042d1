//! Shared machinery for the experiment binaries: channel probing,
//! packet trials with silence insertion, PRR measurement, the
//! binary-search for the maximum silence rate (the paper's `Rm`), and the
//! parallel Monte-Carlo trial runner ([`run_trials`]) the figure sweeps
//! are built on.
//!
//! # Determinism
//!
//! [`run_trials`] distributes *independent* trial closures over a scoped
//! thread pool. Every trial derives its randomness from its own index
//! (each figure builds a per-cell seed, and each cell constructs its own
//! [`Link`] and RNG from it), and results are returned in index order, so
//! a run with `COS_THREADS=1` and a run with `COS_THREADS=32` produce
//! byte-identical `results/*.csv` files — see `docs/DETERMINISM.md`.

use cos_channel::{ChannelConfig, Link};
use cos_core::energy_detector::{Detection, DetectionAccuracy, EnergyDetector};
use cos_core::interval::IntervalCodec;
use cos_core::power_controller::{EmbedError, PowerController};
use cos_core::subcarrier_select::{
    detect_floor_db, select_control_subcarriers, SelectionPolicy,
};
use cos_dsp::rng::Xoshiro256;
use cos_phy::evm::per_subcarrier_evm;
use cos_phy::rates::DataRate;
use cos_phy::rx::Receiver;
use cos_phy::subcarriers::NUM_DATA;
use cos_phy::tx::Transmitter;
use cos_phy::PhyWorkspace;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-worker-thread zero-copy scratch for the packet trial loops: one
/// PHY workspace plus detector scratch, reused across every trial the
/// thread claims. Each [`run_trials`] worker gets its own copy via
/// thread-local storage, so trials stay independent and the determinism
/// contract is untouched — every `*_into` stage fully overwrites its
/// outputs, making a dirty workspace indistinguishable from a fresh one.
#[derive(Debug, Default)]
struct HarnessWorkspace {
    phy: PhyWorkspace,
    det: Detection,
    thresholds: Vec<f64>,
}

thread_local! {
    static WORKSPACE: RefCell<HarnessWorkspace> = RefCell::new(HarnessWorkspace::default());
}

/// The paper's packet-reception-rate target for measuring `Rm`.
pub const TARGET_PRR: f64 = 0.993;

/// Worker-count override set by `--threads` / [`set_threads`]; 0 = unset.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the worker-thread count for [`run_trials`] (0 clears the
/// override). The experiment binaries call this when given `--threads N`.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker-thread count [`run_trials`] will use, resolved in priority
/// order: [`set_threads`] (the binaries' `--threads N` flag), then the
/// `COS_THREADS` environment variable, then the machine's available
/// parallelism (the resolution rule lives in
/// [`cos_core::engine::configured_threads`], shared with the batch
/// engine).
pub fn threads() -> usize {
    cos_core::engine::configured_threads(THREAD_OVERRIDE.load(Ordering::Relaxed))
}

/// Splits the `--threads N` (or `--threads=N`) flag out of a command line
/// (program name excluded): returns the worker count it names, if any
/// (the last one wins), and the other arguments in order.
///
/// # Errors
///
/// A `--threads` with no value, or with a value that is not a positive
/// integer.
fn parse_threads(args: &[String]) -> Result<(Option<usize>, Vec<String>), String> {
    let mut threads = None;
    let mut rest = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let value = if let Some(v) = arg.strip_prefix("--threads=") {
            v
        } else if arg == "--threads" {
            args.next().ok_or("--threads requires a value")?
        } else {
            rest.push(arg.clone());
            continue;
        };
        match value.parse() {
            Ok(n) if n > 0 => threads = Some(n),
            _ => return Err(format!("--threads takes a positive integer, got `{value}`")),
        }
    }
    Ok((threads, rest))
}

/// Applies the process's `--threads` flag (`parse_threads`) via
/// [`set_threads`] and returns the other arguments. Every experiment
/// binary calls this first thing in `main`; a bad flag exits with
/// status 2.
pub fn init_threads_from_args() -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_threads(&args) {
        Ok((threads, rest)) => {
            if let Some(n) = threads {
                set_threads(n);
            }
            rest
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// [`init_threads_from_args`] for a binary whose only flag is
/// `--threads N`: any other argument exits with status 2 before anything
/// runs, so a mistyped flag cannot start a run that rewrites committed
/// outputs.
pub fn init_threads_only() {
    if let Some(arg) = init_threads_from_args().first() {
        eprintln!("unexpected argument `{arg}`; the only flag is --threads N");
        std::process::exit(2);
    }
}

/// One named entry of a binary's registry: `run_all`'s experiments and
/// the `gate` binary's checks, picked from the command line by [`select`].
pub struct Entry<R> {
    /// The name the command line selects it by.
    pub name: &'static str,
    /// What it runs, in one line (listed when a name is unknown).
    pub what: &'static str,
    /// Its body.
    pub run: R,
}

/// The entries of `registry` that `names` pick, in the order given;
/// every entry, in registry order, when `names` is empty.
///
/// # Errors
///
/// The first name no entry has, with the list of valid names.
pub fn select<'a, R>(
    registry: &'a [Entry<R>],
    names: &[String],
) -> Result<Vec<&'a Entry<R>>, String> {
    if names.is_empty() {
        return Ok(registry.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            registry.iter().find(|e| e.name == name).ok_or_else(|| {
                let valid: Vec<String> =
                    registry.iter().map(|e| format!("  {:<22} {}", e.name, e.what)).collect();
                format!("unknown name `{name}`; valid names:\n{}", valid.join("\n"))
            })
        })
        .collect()
}

/// Runs `n` independent trials, `job(0) .. job(n-1)`, across [`threads`]
/// scoped worker threads and returns the results **in index order**.
///
/// Thin wrapper over [`cos_core::engine::run_indexed`] with the
/// harness-resolved thread count: work is claimed from a shared atomic
/// counter, so threads load-balance over trials of uneven cost; because
/// every job derives its state purely from its index, the output is
/// identical at any thread count (the repository's determinism contract,
/// `docs/DETERMINISM.md`).
///
/// # Panics
///
/// Propagates a panic from any trial.
///
/// # Examples
///
/// ```
/// use cos_experiments::harness::run_trials;
///
/// let squares = run_trials(5, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn run_trials<T, F>(n: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    cos_core::engine::run_indexed(n, threads(), job)
}

/// Generates `n` random control bits.
pub fn random_bits(n: usize, rng: &mut Xoshiro256) -> Vec<u8> {
    (0..n).map(|_| rng.below(2) as u8).collect()
}

/// A canonical 1020-byte payload (1024-byte PSDU with the FCS), the
/// paper's fixed packet.
pub fn paper_payload() -> Vec<u8> {
    (0..1020u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect()
}

/// What the receiver learned from a probe packet over a link.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Per-subcarrier EVM of the probe frame.
    pub evm: [f64; NUM_DATA],
    /// Per-subcarrier SNR estimate in dB.
    pub snr_db: [f64; NUM_DATA],
    /// NIC-style measured SNR in dB.
    pub measured_snr_db: f64,
    /// Rate the adaptation scheme selects for this measured SNR.
    pub selected_rate: DataRate,
}

/// Sends one silence-free probe packet and measures the channel. Uses a
/// robust low rate so the probe itself decodes in any operating region.
///
/// # Panics
///
/// Panics if even the probe's front end fails (sample stream shorter than
/// a preamble — cannot happen with a well-formed link).
pub fn probe_channel(link: &mut Link) -> Probe {
    WORKSPACE.with(|cell| {
        let ws = &mut *cell.borrow_mut();
        let PhyWorkspace { tx: txws, rx: rxws } = &mut ws.phy;
        let rate = DataRate::Mbps6;
        Transmitter::new().build_frame_into(&paper_payload()[..200], rate, 0x5D, txws);
        txws.render();
        link.transmit_into(&txws.samples, &mut rxws.samples);
        // The harness knows the probe's rate/length, so channels too poor
        // to carry the SIGNAL field can still be characterised.
        Receiver::new()
            .front_end_known_into(&rxws.samples, rate, txws.frame.psdu_len, &mut rxws.fe)
            .expect("probe framing is well-formed");
        // EVM against the known transmitted points (the experiment harness
        // is entitled to ground truth; a deployed receiver reconstructs
        // after a CRC pass, which `CosSession` exercises).
        let evm = per_subcarrier_evm(
            &rxws.fe.equalized,
            &txws.frame.mapped_points,
            rate.modulation(),
            None,
        );
        let snrs = rxws.fe.per_subcarrier_snr();
        let mut snr_db = [0.0f64; NUM_DATA];
        for (slot, &s) in snr_db.iter_mut().zip(snrs.iter()) {
            *slot = cos_dsp::linear_to_db(s.max(1e-12));
        }
        let measured = rxws.fe.measured_snr_db();
        Probe {
            evm,
            snr_db,
            measured_snr_db: measured,
            selected_rate: DataRate::select(measured),
        }
    })
}

/// Placement policies for the capacity experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// The paper's scheme: weak-but-detectable subcarriers by EVM.
    Weak,
    /// The paper's §II-D ideal: the truly weakest subcarriers with *no*
    /// detectability floor — only usable with genie detection, which is
    /// exactly what the placement ablation uses to isolate the coding
    /// benefit of erasing would-be-erroneous symbols.
    WeakNoFloor,
    /// Uniformly random subcarriers (placement ablation baseline).
    Random,
    /// A contiguous block starting at subcarrier 9 (Fig. 10a layout).
    Contiguous,
}

/// Configuration for a batch of packet trials at one operating point.
#[derive(Debug, Clone)]
pub struct TrialConfig {
    /// Payload bytes per packet.
    pub payload: Vec<u8>,
    /// Data rate (fixed per batch; the sweep sets it from the probe).
    pub rate: DataRate,
    /// Silence symbols to insert per packet (0 = plain 802.11a).
    pub silences: usize,
    /// Subcarrier placement policy.
    pub placement: Placement,
    /// Use ground-truth silence positions at the receiver instead of
    /// energy detection (isolates coding effects from detection effects).
    pub genie_detection: bool,
    /// Decode with erasures (EVD) or treat silences as errors.
    pub use_erasures: bool,
}

impl TrialConfig {
    /// The paper's default: 1024-byte PSDU, energy detection, EVD.
    pub fn paper(rate: DataRate, silences: usize) -> Self {
        TrialConfig {
            payload: paper_payload(),
            rate,
            silences,
            placement: Placement::Weak,
            genie_detection: false,
            use_erasures: true,
        }
    }
}

/// Outcome of one packet trial.
#[derive(Debug, Clone)]
pub struct PacketOutcome {
    /// CRC pass.
    pub data_ok: bool,
    /// Control message decoded exactly.
    pub control_ok: bool,
    /// Detection accuracy (zeros under genie detection).
    pub accuracy: DetectionAccuracy,
}

/// Chooses control subcarriers for a trial from probe feedback, sized so
/// the message span fits the frame.
pub fn choose_subcarriers(
    probe: &Probe,
    cfg: &TrialConfig,
    n_symbols: usize,
    codec: &IntervalCodec,
    seed: u64,
) -> Vec<usize> {
    let bits = cfg.silences.saturating_sub(1) * codec.bits_per_interval();
    let span = codec.expected_span(bits) * 1.4 + 2.0;
    let n_needed = ((span / n_symbols as f64).ceil() as usize).clamp(1, NUM_DATA);
    let n = n_needed.clamp(6, NUM_DATA);
    match cfg.placement {
        Placement::Weak => select_control_subcarriers(
            &probe.evm,
            &probe.snr_db,
            SelectionPolicy::WeakestN {
                n,
                detect_floor_db: detect_floor_db(cfg.rate.modulation()),
            },
        ),
        Placement::WeakNoFloor => select_control_subcarriers(
            &probe.evm,
            &probe.snr_db,
            SelectionPolicy::WeakestN { n, detect_floor_db: f64::NEG_INFINITY },
        ),
        Placement::Random => select_control_subcarriers(
            &probe.evm,
            &probe.snr_db,
            SelectionPolicy::Random { n, seed },
        ),
        Placement::Contiguous => select_control_subcarriers(
            &probe.evm,
            &probe.snr_db,
            SelectionPolicy::Contiguous { start: 9, n: n.min(NUM_DATA - 9) },
        ),
    }
}

/// Runs one packet through the full CoS pipeline at a fixed operating
/// point.
pub fn run_packet(
    link: &mut Link,
    cfg: &TrialConfig,
    selected: &[usize],
    rng: &mut Xoshiro256,
) -> PacketOutcome {
    WORKSPACE.with(|cell| {
        let ws = &mut *cell.borrow_mut();
        let HarnessWorkspace { phy, det, thresholds } = ws;
        let PhyWorkspace { tx: txws, rx: rxws } = phy;
        let codec = IntervalCodec::default();
        let controller = PowerController::new(codec);
        let detector = EnergyDetector::default();
        let scrambler_seed = 1 + rng.below(127) as u8;
        Transmitter::new().build_frame_into(&cfg.payload, cfg.rate, scrambler_seed, txws);

        let bits = if cfg.silences == 0 {
            Vec::new()
        } else {
            random_bits((cfg.silences - 1) * codec.bits_per_interval(), rng)
        };
        let truth = if cfg.silences == 0 {
            Vec::new()
        } else {
            match controller.embed(&mut txws.frame, selected, &bits) {
                Ok(positions) => positions,
                Err(EmbedError::MessageTooLong { .. }) => {
                    // Rare long random message: retry with a fresh draw of
                    // all-zero-biased bits that pack densely.
                    let dense = vec![0u8; bits.len()];
                    controller.embed(&mut txws.frame, selected, &dense).expect("dense message fits")
                }
                Err(e) => panic!("{e}"),
            }
        };

        txws.render();
        link.transmit_into(&txws.samples, &mut rxws.samples);
        let receiver = Receiver::new();
        if receiver.front_end_into(&rxws.samples, &mut rxws.fe).is_err() {
            return PacketOutcome {
                data_ok: false,
                control_ok: false,
                accuracy: DetectionAccuracy::default(),
            };
        }

        let (erasures, accuracy, control_ok) = if cfg.silences == 0 {
            (None, DetectionAccuracy::default(), true)
        } else if cfg.genie_detection {
            (Some(txws.frame.silence_mask.as_slice()), DetectionAccuracy::default(), true)
        } else {
            detector.detect_into(&rxws.fe, selected, thresholds, det);
            let total = rxws.fe.raw_symbols.len() * selected.len();
            let acc = DetectionAccuracy::evaluate(&det.positions, &truth, total);
            let control_ok = det.control_bits(&codec).as_deref() == Some(&bits[..]);
            (Some(det.erasures.as_slice()), acc, control_ok)
        };

        let erasures = if cfg.use_erasures { erasures } else { None };
        receiver.decode_into(&rxws.fe, erasures, &mut rxws.scratch, &mut rxws.out);

        PacketOutcome { data_ok: rxws.out.crc_ok, control_ok, accuracy }
    })
}

/// Measures the packet reception rate at a fixed silence count.
pub fn measure_prr(
    link: &mut Link,
    cfg: &TrialConfig,
    selected: &[usize],
    packets: usize,
    rng: &mut Xoshiro256,
) -> f64 {
    let mut ok = 0usize;
    for _ in 0..packets {
        ok += run_packet(link, cfg, selected, rng).data_ok as usize;
        link.channel_mut().advance(1e-3);
    }
    ok as f64 / packets as f64
}

/// The result of a maximum-silence-rate search.
#[derive(Debug, Clone, Copy)]
pub struct CapacityPoint {
    /// Silence symbols per packet at the PRR target.
    pub silences_per_packet: usize,
    /// Silence symbols per second (the paper's `Rm`).
    pub rm_per_second: f64,
    /// The measured SNR of the probe.
    pub measured_snr_db: f64,
    /// The data rate in force.
    pub rate: DataRate,
    /// Fraction of packets whose control message decoded exactly at the
    /// found rate (the paper defines `Rm` by PRR alone; this column makes
    /// the usability of those silences visible).
    pub control_ok_rate: f64,
}

/// Binary-searches the maximum silences per packet keeping PRR ≥
/// [`TARGET_PRR`] — the paper's Fig. 9 procedure.
pub fn max_silence_rate(
    link: &mut Link,
    base: &TrialConfig,
    packets: usize,
    seed: u64,
) -> CapacityPoint {
    let mut rng = Xoshiro256::new(seed);
    let probe = probe_channel(link);
    let codec = IntervalCodec::default();
    let n_symbols = base.rate.data_symbol_count(base.payload.len() + 4);

    let eval = |link: &mut Link, rng: &mut Xoshiro256, silences: usize| -> f64 {
        let cfg = TrialConfig { silences, ..base.clone() };
        let selected = choose_subcarriers(&probe, &cfg, n_symbols, &codec, seed);
        measure_prr(link, &cfg, &selected, packets, rng)
    };

    // Upper bound: all 48 subcarriers, densest packing.
    let max_possible = (n_symbols * NUM_DATA).saturating_sub(1);
    let mut lo = 0usize;
    let mut hi = (max_possible / 10).max(8);
    // Grow hi until PRR drops below target (or the frame is saturated).
    while hi < max_possible && eval(link, &mut rng, hi) >= TARGET_PRR {
        lo = hi;
        hi = (hi * 2).min(max_possible);
        if hi == lo {
            break;
        }
    }
    // Binary search in (lo, hi].
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if eval(link, &mut rng, mid) >= TARGET_PRR {
            lo = mid;
        } else {
            hi = mid;
        }
    }

    // Measure control accuracy at the found rate.
    let control_ok_rate = if lo == 0 {
        1.0
    } else {
        let cfg = TrialConfig { silences: lo, ..base.clone() };
        let selected = choose_subcarriers(&probe, &cfg, n_symbols, &codec, seed);
        let mut ok = 0usize;
        let trials = packets.min(60);
        for _ in 0..trials {
            ok += run_packet(link, &cfg, &selected, &mut rng).control_ok as usize;
            link.channel_mut().advance(1e-3);
        }
        ok as f64 / trials as f64
    };

    let airtime_s = base.rate.frame_airtime_us(base.payload.len() + 4) * 1e-6;
    CapacityPoint {
        silences_per_packet: lo,
        rm_per_second: lo as f64 / airtime_s,
        measured_snr_db: probe.measured_snr_db,
        rate: base.rate,
        control_ok_rate,
    }
}

/// A default indoor channel for the experiments (the DESIGN.md baseline).
pub fn paper_channel() -> ChannelConfig {
    ChannelConfig::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reports_sane_values() {
        let mut link = Link::new(paper_channel(), 18.0, 3);
        let p = probe_channel(&mut link);
        assert!(p.measured_snr_db > 10.0 && p.measured_snr_db < 30.0);
        // Deeply faded subcarriers amplify equalised noise, so EVM has a
        // heavy tail; sanity-check non-negativity and a loose ceiling.
        assert!(p.evm.iter().all(|&e| (0.0..50.0).contains(&e)));
    }

    #[test]
    fn zero_silence_packets_pass_at_high_snr() {
        let mut link = Link::new(paper_channel(), 25.0, 5);
        let cfg = TrialConfig::paper(DataRate::Mbps12, 0);
        let mut rng = Xoshiro256::new(1);
        let prr = measure_prr(&mut link, &cfg, &[0], 20, &mut rng);
        assert_eq!(prr, 1.0);
    }

    #[test]
    fn moderate_silences_survive_with_evd() {
        let mut link = Link::new(paper_channel(), 20.0, 7);
        let probe = probe_channel(&mut link);
        let cfg = TrialConfig::paper(DataRate::Mbps12, 20);
        let codec = IntervalCodec::default();
        let n_sym = DataRate::Mbps12.data_symbol_count(1024);
        let selected = choose_subcarriers(&probe, &cfg, n_sym, &codec, 9);
        let mut rng = Xoshiro256::new(2);
        let prr = measure_prr(&mut link, &cfg, &selected, 20, &mut rng);
        assert!(prr >= 0.9, "PRR {prr}");
    }

    #[test]
    fn capacity_search_finds_positive_rm_quick() {
        let mut link = Link::new(paper_channel(), 16.0, 11);
        let base = TrialConfig {
            payload: paper_payload()[..300].to_vec(),
            ..TrialConfig::paper(DataRate::Mbps12, 0)
        };
        let point = max_silence_rate(&mut link, &base, 10, 13);
        assert!(point.silences_per_packet > 0, "Rm must be positive at 16 dB");
        assert!(point.rm_per_second > 0.0);
    }

    #[test]
    fn parallel_matches_serial_per_trial_outcomes() {
        // The determinism contract: the same trials produce identical
        // outcomes at any thread count (docs/DETERMINISM.md).
        let job = |i: usize| {
            let mut link = Link::new(paper_channel(), 14.0 + (i % 5) as f64, 1000 + i as u64);
            let probe = probe_channel(&mut link);
            let cfg = TrialConfig::paper(DataRate::Mbps12, 8);
            let codec = IntervalCodec::default();
            let n_sym = DataRate::Mbps12.data_symbol_count(1024);
            let selected = choose_subcarriers(&probe, &cfg, n_sym, &codec, i as u64);
            let mut rng = Xoshiro256::new(77 ^ i as u64);
            let out = run_packet(&mut link, &cfg, &selected, &mut rng);
            (out.data_ok, out.control_ok, selected)
        };
        set_threads(1);
        let serial = run_trials(10, job);
        set_threads(4);
        let parallel = run_trials(10, job);
        set_threads(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn threads_flag_parses_both_spellings_and_rejects_zero_or_missing() {
        let args = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_threads(&args(&["fig02_snr_gap", "--threads", "3", "fig05_evm_positions"])),
            Ok((Some(3), args(&["fig02_snr_gap", "fig05_evm_positions"])))
        );
        assert_eq!(parse_threads(&args(&["--threads=5", "--quick"])), Ok((Some(5), args(&["--quick"]))));
        assert_eq!(parse_threads(&args(&["--quick"])), Ok((None, args(&["--quick"]))));
        for bad in [&["--threads", "0"][..], &["--threads=0"], &["--threads"], &["--threads=x"]] {
            assert!(parse_threads(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }

    const REGISTRY: [Entry<()>; 3] = [
        Entry { name: "a", what: "first", run: () },
        Entry { name: "b", what: "second", run: () },
        Entry { name: "c", what: "third", run: () },
    ];

    fn selected(names: &[&str]) -> Result<Vec<&'static str>, String> {
        let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        select(&REGISTRY, &names).map(|es| es.iter().map(|e| e.name).collect())
    }

    #[test]
    fn no_names_select_every_entry_in_order_and_names_select_those() {
        assert_eq!(selected(&[]).unwrap(), ["a", "b", "c"]);
        assert_eq!(selected(&["c", "a"]).unwrap(), ["c", "a"]);
    }

    #[test]
    fn an_unknown_name_is_rejected_with_the_valid_ones() {
        let err = selected(&["a", "d"]).unwrap_err();
        assert!(err.contains("`d`"), "{err}");
        assert!(REGISTRY.iter().all(|e| err.contains(e.name) && err.contains(e.what)), "{err}");
    }

    #[test]
    fn run_trials_preserves_index_order_under_uneven_load() {
        set_threads(8);
        let out = run_trials(100, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i
        });
        set_threads(0);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn subcarrier_choice_scales_with_message() {
        let probe = Probe {
            evm: [0.1; NUM_DATA],
            snr_db: [20.0; NUM_DATA],
            measured_snr_db: 20.0,
            selected_rate: DataRate::Mbps36,
        };
        let codec = IntervalCodec::default();
        let small = choose_subcarriers(
            &probe,
            &TrialConfig::paper(DataRate::Mbps12, 4),
            170,
            &codec,
            1,
        );
        let large = choose_subcarriers(
            &probe,
            &TrialConfig::paper(DataRate::Mbps12, 120),
            170,
            &codec,
            1,
        );
        assert!(large.len() >= small.len());
    }
}
