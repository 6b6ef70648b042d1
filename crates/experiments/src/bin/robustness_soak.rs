//! Runs the fault-injection soak matrix over the resilient CoS session
//! and emits `results/robustness_soak.csv` + `BENCH_pr2.json`.
//!
//! The only flag is `--threads N` (worker count; output is
//! byte-identical at any value); any other argument exits with status 2
//! before anything runs. Exits non-zero if any scenario misses its
//! acceptance criteria or an output cannot be written.

use cos_experiments::robustness::{run_soak, to_bench_json, Config};
use cos_experiments::table;
use std::io;

fn main() {
    cos_experiments::harness::init_threads_only();
    let cfg = Config::default();
    let (results, table) = run_soak(&cfg);

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

    let failures: Vec<&str> =
        results.iter().filter(|r| !r.pass).map(|r| r.name).collect();
    let verdict = if failures.is_empty() {
        format!("soak PASS: all {} scenarios met their criteria", results.len())
    } else {
        format!("soak FAIL: {}", failures.join(", "))
    };
    // A closed stdout only ends the printing; the verdict is the exit code.
    let _ = table::print(&mut io::stdout().lock(), &format!("[json] BENCH_pr2.json\n\n{verdict}\n"));
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
