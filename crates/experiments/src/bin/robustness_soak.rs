//! Runs the fault-injection soak matrix over the resilient CoS session
//! and emits `results/robustness_soak.csv` + `BENCH_pr2.json`.
//!
//! Flags: `--quick` (reduced matrix for the check.sh smoke test; writes
//! nothing), `--threads N` (worker count; output is byte-identical at
//! any value). Exits non-zero if any scenario misses its acceptance
//! criteria or an output cannot be written.

use cos_experiments::robustness::{run_soak, to_bench_json, Config};
use cos_experiments::table;
use std::io;

fn main() {
    let quick = cos_experiments::harness::init_threads_from_args().iter().any(|a| a == "--quick");
    let cfg = if quick { Config::quick() } else { Config::default() };
    let (results, table) = run_soak(&cfg);

    if quick {
        println!("{}", table.render());
    } else {
        let json = to_bench_json(&results, &cfg);
        let written = table::emit(&[table]).and_then(|()| {
            std::fs::write("BENCH_pr2.json", json).map_err(|e| {
                io::Error::new(e.kind(), format!("failed to write BENCH_pr2.json: {e}"))
            })
        });
        if let Err(e) = written {
            eprintln!("[write] {e}");
            std::process::exit(1);
        }
        println!("[json] BENCH_pr2.json");
    }

    let failures: Vec<&str> =
        results.iter().filter(|r| !r.pass).map(|r| r.name).collect();
    if failures.is_empty() {
        println!("\nsoak PASS: all {} scenarios met their criteria", results.len());
    } else {
        println!("\nsoak FAIL: {}", failures.join(", "));
        std::process::exit(1);
    }
}
