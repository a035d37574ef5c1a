//! The normative tables — workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics — and the run record printed
//! for every workload. `BENCHMARK.json` at the repo root repeats these
//! tables for the driver; `tests/smoke.rs` keeps the two in step.

use mdl_obs::json::Json;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, waste).
    Lower,
    /// Larger is better (rates, shares met).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named metric with its unit and direction; `bound` is the share of
/// the baseline median by which an end-to-end metric may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: None }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: None }
}

/// Workload names (normative) and why each exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    ("serve_f32_steady", "open loop 300 rps f32: batching window + skinny f32 GEMM; int8 and scheduler-order work must not move it"),
    ("serve_int8_mixed", "open loop 800 rps int8, 20/30/50 SLO mix: queueing, per-class batching and shedding dominate; f32 kernel work must not move it"),
    ("serve_f32_closed", "closed loop, 16 outstanding, f32: server at capacity with full batches; shows latency-for-throughput trades the open loops hide"),
    ("device_infer", "on-device calls, no queue: tiny GEMMs, per-call overhead and the dynamic eval path; serving-scheduler work must not move it"),
    ("train_local", "DeepMood BPTT + wide-MLP epochs: blocked GEMM and the backward products; shows inference-only changes that cost training"),
    ("fed_population", "5-round FedAvg over 100k simulated clients: sim event loop, net fabric, sharded aggregator; kernel and serving work must not move it"),
];

/// The five end-to-end metrics, reported by every workload. The bounds
/// on latency and throughput are what this shared two-core VM can
/// resolve, not what one would wish for: the host alternates between a
/// quiet and a contended regime that each last minutes, and the
/// memory-bound f32 serving path and the thread-spawning population
/// engine differ by 15-25 % between the two (README, "Run-to-run spread").
pub const END_TO_END: [MetricDef; 5] = [
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("slo_met_share", "share", Better::Higher, 0.05),
    e2e("throughput_per_s", "1/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// Per-layer metrics of the traced run; the prefix is the crate measured.
pub const PER_LAYER: &[MetricDef] = &[
    lo("tensor.gemm_f32_m1_us", "us"),
    lo("tensor.gemm_f32_m8_us", "us"),
    lo("tensor.gemm_f32_m8_row_ratio", "ratio"),
    hi("tensor.gemm_f32_256_gflops", "gflop/s"),
    hi("tensor.gemm_f32_tn_256_gflops", "gflop/s"),
    hi("tensor.gemm_f32_nt_256_gflops", "gflop/s"),
    lo("tensor.gemm_i8_m1_us", "us"),
    lo("tensor.gemm_i8_m8_us", "us"),
    hi("tensor.gemm_i8_256_gops", "gop/s"),
    lo("tensor.quantize_row_us", "us"),
    lo("tensor.gemm_flops_per_req", "count"),
    lo("tensor.gemm_bytes_per_req", "bytes"),
    lo("nn.plan_run_f32_b1_us", "us"),
    lo("nn.plan_run_f32_b8_us", "us"),
    lo("nn.plan_run_int8_b1_us", "us"),
    lo("nn.plan_run_int8_b8_us", "us"),
    lo("nn.plan_compile_f32_us", "us"),
    lo("nn.plan_compile_int8_us", "us"),
    lo("nn.forward_eval_f32_b1_us", "us"),
    lo("nn.gru_predict_f32_us", "us"),
    lo("nn.gru_predict_int8_us", "us"),
    lo("nn.fit_epoch_mlp_ms", "ms"),
    lo("nn.quantize_model_ms", "ms"),
    lo("nn.load_model_ms", "ms"),
    lo("nn.plan_steady_allocs", "count"),
    lo("nn.model_bytes_f32", "bytes"),
    lo("nn.model_bytes_int8", "bytes"),
    lo("serve.route_decide_ns", "ns"),
    lo("serve.submit_us", "us"),
    lo("serve.idle_roundtrip_us", "us"),
    lo("serve.overhead_us", "us"),
    lo("serve.batches", "count"),
    hi("serve.batch_rows_mean", "rows"),
    hi("serve.plan_cache_hit_share", "share"),
    lo("serve.wait_ms_p50", "ms"),
    lo("serve.worker_busy_share", "share"),
    lo("serve.shed_share_interactive", "share"),
    lo("serve.shed_share_standard", "share"),
    lo("serve.shed_share_best_effort", "share"),
    lo("serve.latency_p95_ms", "ms"),
    lo("serve.latency_p99_ms", "ms"),
    hi("serve.latency_samples", "count"),
    lo("sim.population_new_ms", "ms"),
    lo("sim.eligible_scan_ms", "ms"),
    lo("sim.sample_cohort_us", "us"),
    lo("sim.aggregate_update_ns", "ns"),
    lo("sim.events_per_round", "count"),
    lo("sim.self_ms_per_round", "ms"),
    lo("net.send_us", "us"),
    hi("net.delivered_bytes_per_round", "bytes"),
    lo("net.wasted_bytes_per_round", "bytes"),
    lo("net.retries_per_round", "count"),
    lo("federated.client_train_us", "us"),
    lo("federated.round_ms_p50", "ms"),
    lo("deepmood.epoch_ms", "ms"),
    lo("deepmood.predict_us", "us"),
    lo("split.arden_infer_us", "us"),
    lo("data.biaffect_generate_ms", "ms"),
    lo("obs.hist_record_ns", "ns"),
    lo("bench.gen_late_ms_p99", "ms"),
    hi("bench.trace_spans", "count"),
    lo("bench.trace_overhead_share", "share"),
];

/// The command `BENCHMARK.json` names; the driver appends `--workload`,
/// `--seed`, `--seconds` and `--trace` and runs it from the repo root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// Measured seconds the driver asks for.
pub const RUN_SECONDS: u64 = 20;

/// The text of `BENCHMARK.json`, generated from the tables above so the
/// two cannot drift (`tests/smoke.rs` compares them).
pub fn manifest() -> String {
    let quote = |s: &str| Json::str(s).to_string();
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let metric = |d: &MetricDef| {
        let mut fields = format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}",
            quote(d.name),
            quote(d.unit),
            quote(d.better.label())
        );
        if let Some(bound) = d.bound {
            fields.push_str(&format!(", \"bound\": {bound}"));
        }
        fields + "}"
    };
    let command: Vec<String> = COMMAND.iter().map(|c| quote(c)).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        list(WORKLOADS
            .iter()
            .map(|(name, why)| format!("{{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
            .collect()),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

/// Metric values keyed by name. Setting a name the tables do not list
/// is a bug in the benchmark and panics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Stores `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the benchmark's tables"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    /// The stored value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output check passed and no operation failed unexpectedly.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (refused, errored, wrong answer).
    pub failed: u64,
    /// The open-loop generator ran late (`bench.gen_late_ms_p99` > 5 ms):
    /// the run is kept apart by `--runs` / `--compare`.
    pub late: bool,
    /// The metrics of `table`.
    pub metrics: Metrics,
    /// Human-readable notes: sample counts, check outcomes.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The `{"name": {"value": .., "unit": ..}}` object over `table`.
    ///
    /// # Panics
    ///
    /// Panics if a metric of `table` was never set — every run prints
    /// every metric of its table, by contract.
    pub fn metrics_json(&self, table: &[MetricDef]) -> Json {
        Json::Obj(
            table
                .iter()
                .map(|d| {
                    let value = self
                        .metrics
                        .get(d.name)
                        .unwrap_or_else(|| panic!("metric {} was never measured", d.name));
                    let entry = Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::str(d.unit)),
                    ]);
                    (d.name.to_string(), entry)
                })
                .collect(),
        )
    }

    /// The four members the driver reads — `correct`, `attempted`,
    /// `failed`, `metrics` — which the full run record repeats.
    pub fn driver_fields(&self, table: &[MetricDef]) -> Vec<(String, Json)> {
        vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::u64(self.attempted)),
            ("failed".into(), Json::u64(self.failed)),
            ("metrics".into(), self.metrics_json(table)),
        ]
    }

    /// Prints every metric of `table` by name with its unit.
    pub fn print_human(&self, workload: &str, table: &[MetricDef]) {
        for d in table {
            if let Some(v) = self.metrics.get(d.name) {
                println!("  {workload:<17} {:<34} {v:>16.4} {}", d.name, d.unit);
            }
        }
        for note in &self.notes {
            println!("  {workload:<17} note: {note}");
        }
        println!(
            "  {workload:<17} attempted {} failed {} correct {}{}",
            self.attempted,
            self.failed,
            self.correct,
            if self.late { "  [generator late: run set aside]" } else { "" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_respect_the_contract_limits() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        };
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name));
        assert!(names.iter().all(|n| ok(n)), "bad name");
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "names are used once");
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}
