//! The host and build a result was measured on. Numbers from different
//! hosts or builds must not be compared silently, so every result
//! carries this record.

use crate::report::json_str;

/// CPU flags worth naming beside a number: the vector extensions the
/// lane kernels compile to.
const FLAGS_OF_NOTE: [&str; 8] = [
    "sse4_2", "avx", "avx2", "fma", "avx512f", "avx512dq", "avx512vl", "avx512bw",
];

pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub cpu_flags: Vec<String>,
    pub rustc: &'static str,
    pub rustflags: &'static str,
    pub kernels: &'static str,
}

impl Host {
    pub fn probe() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
                .unwrap_or_default()
        };
        let flags = field("flags");
        let have: Vec<&str> = flags.split_whitespace().collect();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: field("model name"),
            cpu_flags: FLAGS_OF_NOTE
                .iter()
                .filter(|f| have.contains(f))
                .map(|f| f.to_string())
                .collect(),
            rustc: env!("COSBENCH_RUSTC"),
            rustflags: env!("COSBENCH_RUSTFLAGS"),
            kernels: match cos_dsp::kernel_mode() {
                cos_dsp::KernelMode::Scalar => "scalar",
                cos_dsp::KernelMode::Lanes => "lanes",
            },
        }
    }

    /// Target features the benchmark binary was compiled with.
    pub fn target_features() -> Vec<&'static str> {
        env!("COSBENCH_TARGET_FEATURES")
            .split(',')
            .filter(|f| f.starts_with("avx") || *f == "fma")
            .collect()
    }

    /// The record as a JSON object.
    pub fn to_json(&self, threads: usize, seed: u64) -> String {
        let list = |v: &[&str]| v.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", ");
        let flags: Vec<&str> = self.cpu_flags.iter().map(String::as_str).collect();
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"cpu_flags\": [{}], \"rustc\": {}, \
             \"rustflags\": {}, \"target_features\": [{}], \"cos_kernels\": {}, \
             \"engine_threads\": {threads}, \"seed\": {seed}}}",
            self.nproc,
            json_str(&self.cpu_model),
            list(&flags),
            json_str(self.rustc),
            json_str(self.rustflags),
            list(&Self::target_features()),
            json_str(self.kernels),
        )
    }
}
