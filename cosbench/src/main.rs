//! `cosbench`: the CoS frame-pipeline benchmark.
//!
//! ```text
//! cargo run --release --manifest-path cosbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs one workload against the public front doors
//! of `cos_core` (`BatchEngine`, `ServiceCore`, `MeshNet`) for `--seconds`
//! and prints every end-to-end metric; with `--trace 1` it times the
//! calls into each layer's public functions from this crate and prints
//! the per-layer metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed output
//! check makes the exit code non-zero. See README.md for the workloads.

mod drive;
mod e2e;
mod host;
mod report;
mod trace;
mod util;
mod workload;

use host::Host;
use report::{END_TO_END, PER_LAYER};
use workload::Workload;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Tiny inputs: the self-test's few-frame runs.
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        quick,
    })
}

/// Input sizes of one run.
pub struct Scale {
    pub bulk_sessions: usize,
    pub churn_sessions: usize,
    pub service_sessions: usize,
    pub mesh_cells: usize,
    /// Engine rounds covered by the simulated metrics and digest.
    pub sim_rounds: usize,
    pub warm_rounds: usize,
    pub service_warm_s: f64,
    pub mesh_sim_ticks: u64,
    pub mesh_warm_ticks: u64,
}

impl Scale {
    fn new(quick: bool) -> Scale {
        if quick {
            Scale {
                bulk_sessions: 16,
                churn_sessions: 24,
                service_sessions: 16,
                mesh_cells: 2,
                sim_rounds: 1,
                warm_rounds: 1,
                service_warm_s: 0.1,
                mesh_sim_ticks: 8,
                mesh_warm_ticks: 2,
            }
        } else {
            Scale {
                bulk_sessions: workload::BULK_SESSIONS,
                churn_sessions: workload::CHURN_SESSIONS,
                service_sessions: workload::SERVICE_SESSIONS,
                mesh_cells: workload::MESH_CELLS,
                sim_rounds: 4,
                warm_rounds: 3,
                service_warm_s: 1.0,
                mesh_sim_ticks: 200,
                mesh_warm_ticks: 16,
            }
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cosbench: {e}");
            eprintln!("usage: cosbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]");
            std::process::exit(2);
        }
    };
    let host = Host::probe();
    let scale = Scale::new(args.quick);
    let threads = match args.workload {
        Workload::ServiceOpenLoop => 1,
        _ => host.nproc,
    };
    let (mut result, table) = if args.trace {
        (
            trace::run(args.workload, args.seed, args.seconds, threads, &scale),
            &PER_LAYER[..],
        )
    } else {
        (
            timed(args.workload, args.seed, args.seconds, threads, &scale),
            &END_TO_END[..],
        )
    };
    report::finalize(&mut result, table);
    report::emit(
        args.workload.name(),
        args.trace,
        &host.to_json(threads, args.seed),
        &result,
        table,
    );
    if !result.correct {
        std::process::exit(1);
    }
}

fn timed(w: Workload, seed: u64, seconds: f64, threads: usize, s: &Scale) -> report::RunResult {
    let mut result = match w {
        Workload::Engine64qamBulk => e2e::engine(
            &workload::bulk_mix(seed, s.bulk_sessions),
            seconds,
            threads,
            s.sim_rounds,
            s.warm_rounds,
        ),
        Workload::EngineLowrateChurn => e2e::engine(
            &workload::churn_mix(seed, s.churn_sessions),
            seconds,
            threads,
            s.sim_rounds,
            s.warm_rounds,
        ),
        Workload::ServiceOpenLoop => e2e::service(
            &workload::service_mix(seed, s.service_sessions),
            seconds,
            s.service_warm_s,
            workload::SERVICE_RATE_HZ,
        ),
        Workload::MeshHiddenCells => e2e::mesh(
            &workload::mesh_cells(seed, s.mesh_cells),
            seconds,
            threads,
            s.mesh_sim_ticks,
            s.mesh_warm_ticks,
        ),
    };
    e2e::finish(&mut result);
    result
}
