//! Provenance carried by every run record, and the guards that keep a
//! slow configuration from being mistaken for a baseline.

use mdl_obs::json::Json;
use mdl_tensor::kernel;
use std::process::Command;

/// The machine and build a record came from.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Logical cores available to the process.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Tier `kernel::int8` dispatches to (`avx512bw`, ..., `scalar`).
    pub simd_level: &'static str,
    /// `MDL_THREADS` as set in the environment, if at all.
    pub mdl_threads: Option<String>,
    /// `MDL_FORCE_SCALAR` as set in the environment, if at all.
    pub mdl_force_scalar: Option<String>,
    /// GEMM kernel threads the benchmark pins (always 1: the serving
    /// workers are the parallelism, and the box has two cores).
    pub kernel_threads: usize,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// `true` for an unoptimised build.
    pub debug_build: bool,
    /// Commit of the checkout, `unknown` outside a git repository.
    pub git_sha: String,
}

impl Provenance {
    /// Reads the current process's environment.
    pub fn capture() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            simd_level: kernel::int8::simd_level(),
            mdl_threads: std::env::var("MDL_THREADS").ok(),
            mdl_force_scalar: std::env::var("MDL_FORCE_SCALAR").ok(),
            kernel_threads: kernel::threads(),
            rustc: env!("MDL_BENCH_RUSTC"),
            debug_build: cfg!(debug_assertions),
            git_sha: git_sha(),
        }
    }

    /// Why this configuration must not produce baseline numbers, if it
    /// must not: a pinned scalar tier or an unoptimised build.
    pub fn slow_reason(&self) -> Option<String> {
        if self.debug_build {
            Some("this is a debug build; run with --release".into())
        } else if kernel::int8::force_scalar() {
            Some("MDL_FORCE_SCALAR pins the scalar int8 tier".into())
        } else {
            None
        }
    }

    /// The `env` block of a run record.
    pub fn to_json(&self, seed: u64, seconds: f64) -> Json {
        let opt = |v: &Option<String>| v.as_ref().map_or(Json::Null, Json::str);
        Json::Obj(vec![
            ("nproc".into(), Json::u64(self.nproc as u64)),
            ("cpu_model".into(), Json::str(&*self.cpu_model)),
            ("simd_level".into(), Json::str(self.simd_level)),
            ("MDL_THREADS".into(), opt(&self.mdl_threads)),
            ("MDL_FORCE_SCALAR".into(), opt(&self.mdl_force_scalar)),
            ("kernel_threads".into(), Json::u64(self.kernel_threads as u64)),
            ("rustc".into(), Json::str(self.rustc)),
            ("debug_build".into(), Json::Bool(self.debug_build)),
            ("git_sha".into(), Json::str(&*self.git_sha)),
            ("seed".into(), Json::u64(seed)),
            ("seconds".into(), Json::Num(seconds)),
        ])
    }

    /// One line for the human report.
    pub fn banner(&self) -> String {
        format!(
            "machine: nproc={} cpu=\"{}\" simd={} MDL_THREADS={} MDL_FORCE_SCALAR={} \
             kernel_threads={} {} git={}",
            self.nproc,
            self.cpu_model,
            self.simd_level,
            self.mdl_threads.as_deref().unwrap_or("unset"),
            self.mdl_force_scalar.as_deref().unwrap_or("unset"),
            self.kernel_threads,
            self.rustc,
            self.git_sha
        )
    }
}

/// `git rev-parse` of the working directory when it is the root of a
/// git checkout; never searches parent directories (the driver's
/// checkout is not a repository and must not pick up an outer one).
fn git_sha() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
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
