//! Self-test of the benchmark: runs every workload for a few frames
//! (`--quick`), with tracing off and on, and checks that each run is
//! correct and prints every metric `BENCHMARK.json` names, with its unit.
//!
//! ```text
//! cargo test --release --manifest-path cosbench/Cargo.toml
//! ```

use std::process::Command;

/// The value of `"key": "…"` on a one-line JSON object.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// `(name, unit)` of every entry in one section of `BENCHMARK.json`,
/// which lists one entry per line.
fn section(spec: &str, key: &str) -> Vec<(String, String)> {
    let start = spec
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    spec[start..]
        .lines()
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with(']'))
        .filter_map(|l| {
            Some((
                field(l, "name")?.to_string(),
                field(l, "unit").unwrap_or("").to_string(),
            ))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let spec =
        std::fs::read_to_string(format!("{root}/BENCHMARK.json")).expect("read BENCHMARK.json");
    // `service_open_loop` and `mesh_hidden_cells` run but are not in
    // `BENCHMARK.json` (see README.md).
    let workloads = [
        "engine_64qam_bulk",
        "engine_lowrate_churn",
        "service_open_loop",
        "mesh_hidden_cells",
    ];
    for (name, _) in section(&spec, "workloads") {
        assert!(
            workloads.contains(&name.as_str()),
            "unknown workload {name}"
        );
    }
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = section(&spec, key);
        assert!(!metrics.is_empty(), "{key} lists metrics");
        for workload in workloads {
            let out = Command::new(env!("CARGO_BIN_EXE_cosbench"))
                .current_dir(root)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--quick",
                ])
                .output()
                .expect("run cosbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stdout}"
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload}: {last}"
            );
            for (name, unit) in &metrics {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: no {name}"));
                let rest = &last[at + entry.len()..];
                let close = rest.find('}').expect("metric object closes");
                assert!(
                    rest[..close].ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{workload}: {name} lacks unit {unit}: {}",
                    &rest[..close]
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--seed", "1"],
        &["--workload", "mesh_hidden_cells", "--seed", "x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cosbench"))
            .args(args)
            .output()
            .expect("run cosbench");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
