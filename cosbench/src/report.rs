//! Metric names, the result record and its output: a readable summary
//! and a last stdout line of JSON, plus a copy of the record in the
//! benchmark's untracked `out/` directory.

use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off: (name, unit).
pub const END_TO_END: [(&str, &str); 9] = [
    ("frames_per_s", "frames/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("completed_frac", "ratio"),
    ("data_prr", "ratio"),
    ("control_delivery", "ratio"),
    ("goodput_mbps", "Mbps"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, measured by the traced run: (name, unit). Both
/// tables match `BENCHMARK.json`; the self-test checks that they do.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("phy.tx.build_us", "us"),
    ("phy.tx.render_us", "us"),
    ("channel.transmit_ns_per_sample", "ns"),
    ("dsp.rng.gauss_ns_per_draw", "ns"),
    ("channel.overlap_us", "us"),
    ("phy.rx.front_end_us", "us"),
    ("phy.rx.demap_ns_per_point", "ns"),
    ("phy.rx.demap_us", "us"),
    ("fec.stage_us", "us"),
    ("fec.viterbi_ns_per_step", "ns"),
    ("fec.viterbi_lockstep_ns_per_step", "ns"),
    ("phy.rx.finish_us", "us"),
    ("core.energy_detector.detect_us", "us"),
    ("core.validation.validate_us", "us"),
    ("core.session.send_us", "us"),
    ("core.session.self_us", "us"),
    ("core.energy_detector.fp_rate", "ratio"),
    ("core.energy_detector.fn_rate", "ratio"),
    ("core.resilience.arq_retries", "count"),
    ("core.engine.drain_ms", "ms"),
    ("core.engine.frames_per_drain", "frames"),
    ("core.engine.pool_create_us", "us"),
    ("core.engine.allocs_per_frame", "allocs/frame"),
    ("core.service.submit_us", "us"),
    ("core.service.pump_ms", "ms"),
    ("core.service.wait_ticks_p99", "ticks"),
    ("core.service.queue_depth_p99", "jobs"),
    ("core.service.rejected", "count"),
    ("core.service.expired", "count"),
    ("bench.gen_late_ms_p99", "ms"),
    ("core.mesh.step_ms", "ms"),
    ("core.mesh.frames_per_tick", "frames"),
    ("core.mesh.collision_rate", "ratio"),
    ("core.mesh.idle_tick_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.traced_frames_per_s", "frames/s"),
];

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Jobs (frames) attempted.
    pub attempted: u64,
    /// Attempted jobs that did not complete.
    pub failed: u64,
    /// Metric values by name; units come from the tables above.
    pub metrics: Vec<(&'static str, f64)>,
    /// Outcome digest of the run's simulated prefix.
    pub digest: u64,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// Extra figures for the record only (layer shares and the like).
    pub notes: Vec<(String, f64)>,
}

impl RunResult {
    pub fn new() -> Self {
        RunResult {
            correct: true,
            ..Default::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a failed output check.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        if self.failures.len() < 16 {
            self.failures.push(why);
        }
    }

    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The metrics object of the result line, in table order, for `table`.
fn metrics_json(result: &RunResult, table: &[(&'static str, &'static str)]) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = result.get(name).unwrap_or(f64::NAN);
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Makes sure every metric of `table` is present and finite; a missing or
/// non-finite value is a failed check (and reads 0 in the output).
pub fn finalize(result: &mut RunResult, table: &[(&'static str, &'static str)]) {
    for &(name, _) in table {
        match result.get(name) {
            Some(v) if v.is_finite() => {}
            Some(v) => {
                result.fail(format!("metric {name} is not finite ({v})"));
                result.metrics.retain(|(n, _)| *n != name);
                result.set(name, 0.0);
            }
            None => {
                result.fail(format!("metric {name} was not measured"));
                result.set(name, 0.0);
            }
        }
    }
}

/// Prints the summary and the result line, and writes the record.
pub fn emit(
    workload: &str,
    trace: bool,
    host_json: &str,
    result: &RunResult,
    table: &[(&'static str, &'static str)],
) {
    let metrics = metrics_json(result, table);
    let mut summary = String::new();
    let _ = writeln!(summary, "workload {workload} (trace {})", trace as u8);
    let _ = writeln!(summary, "host {host_json}");
    for &(name, unit) in table {
        let _ = writeln!(
            summary,
            "  {name:<36} {:>16.6} {unit}",
            result.get(name).unwrap_or(0.0)
        );
    }
    for (name, v) in &result.notes {
        let _ = writeln!(summary, "  note {name:<31} {v:>16.6}");
    }
    let _ = writeln!(summary, "outcome digest {:016x}", result.digest);
    for f in &result.failures {
        let _ = writeln!(summary, "CHECK FAILED: {f}");
    }
    print!("{summary}");

    let notes: Vec<String> = result
        .notes
        .iter()
        .map(|(n, v)| format!("{}: {v}", json_str(n)))
        .collect();
    let failures: Vec<String> = result.failures.iter().map(|f| json_str(f)).collect();
    let record = format!(
        "{{\"workload\": {}, \"trace\": {}, \"host\": {host_json}, \"digest\": \"{:016x}\", \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}, \
         \"notes\": {{{}}}, \"failures\": [{}]}}\n",
        json_str(workload),
        trace as u8,
        result.digest,
        result.correct,
        result.attempted,
        result.failed,
        notes.join(", "),
        failures.join(", "),
    );
    write_record(workload, trace, &record);

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        result.correct, result.attempted, result.failed
    );
}

/// Results go under the benchmark's own `out/` directory, which is
/// git-ignored: a run never touches a tracked file.
fn write_record(workload: &str, trace: bool, record: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}-trace{}.json", trace as u8));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, record)) {
        eprintln!("cosbench: could not write {}: {e}", path.display());
    }
}

/// Process high-water resident memory (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
