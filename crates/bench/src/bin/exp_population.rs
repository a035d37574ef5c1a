//! E13 — population-scale federated simulation: the `mdl-sim` event
//! engine drives FedAvg over 1k → 10k → 100k synthetic mobile clients on
//! a faulty LTE-era mix. Per-client availability chains gate eligibility,
//! cohorts are sampled by keyed hash, updates stream through the sharded
//! aggregator, and every link carries the fault plan keyed by stable
//! client id. Prints the scaling table, checks bit-reproducibility
//! (including across kernel thread counts), enforces the wall-clock
//! ceiling, and writes `BENCH_population.json`.
//!
//! Pass explicit sizes to override the sweep (CI runs `-- 10000`): the
//! table and every assert still run, but the committed artifact is the
//! default sweep's and is left alone.

use mdl_bench::{fmt_bytes, print_table};
use mdl_core::prelude::*;
use mdl_core::tensor::kernel::{set_threads, threads};
use std::fmt::Write as _;
use std::time::Instant;

const ROUNDS: usize = 5;
const SEED: u64 = 0xF1EE7;
/// Per-round wall-clock ceiling at every size — a 100k-client round must
/// stay in single-digit seconds on a laptop-class machine.
const ROUND_CEILING_S: f64 = 10.0;

/// Faulty-LTE engine settings: ambient loss and jitter on every link plus
/// dropouts, stragglers and flaky radios keyed by stable client id.
fn sim_config(population: u64) -> SimConfig {
    SimConfig {
        rounds: ROUNDS,
        cohort: CohortSpec {
            fraction: 0.01,
            min_size: 32,
            max_size: (population as usize / 10).max(32),
        },
        faults: FaultPlan {
            dropout_prob: 0.1,
            straggler_prob: 0.1,
            straggler_slowdown: 2.0,
            flaky_prob: 0.05,
            flaky_loss: 0.25,
            partitions: Vec::new(),
        },
        loss_prob: 0.02,
        jitter_frac: 0.1,
        quorum_fraction: 0.5,
        seed: SEED,
        ..SimConfig::default()
    }
}

struct Sweep {
    population: u64,
    report: PopulationReport,
    accuracy: f64,
    wall_s: f64,
}

fn run(population: u64) -> (PopulationReport, f64) {
    let task = PopulationTask::blobs(SEED);
    let mut pop = Population::new(PopulationSpec::mobile_mix(population, SEED));
    run_population_fedavg(&sim_config(population), &mut pop, &task, None)
        .expect("a 50% quorum is reachable under this fault plan")
}

fn main() {
    let cli: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("sizes must be unsigned integers"))
        .collect();
    let default_sweep = cli.is_empty();
    let sizes = if default_sweep { vec![1_000, 10_000, 100_000] } else { cli };

    // --- bit-reproducibility: same seeds, then different kernel threads ---
    let (base, base_acc) = run(sizes[0]);
    let (replay, replay_acc) = run(sizes[0]);
    assert_eq!(base, replay, "same seeds must reproduce the report bit-for-bit");
    assert_eq!(base_acc.to_bits(), replay_acc.to_bits(), "accuracy must replay bit-for-bit");
    let default_threads = threads();
    set_threads(1);
    let single = run(sizes[0]);
    set_threads(4);
    let multi = run(sizes[0]);
    set_threads(default_threads);
    assert_eq!(single.0, multi.0, "kernel thread count must not change any bit");
    assert_eq!(single.1.to_bits(), multi.1.to_bits());

    // --- the scaling sweep ---
    let mut sweeps = Vec::new();
    for &population in &sizes {
        let start = Instant::now();
        let (report, accuracy) = run(population);
        let wall_s = start.elapsed().as_secs_f64();
        sweeps.push(Sweep { population, report, accuracy, wall_s });
    }

    let rows: Vec<Vec<String>> = sweeps
        .iter()
        .map(|s| {
            let r = &s.report;
            let quorum = r.rounds.iter().filter(|x| x.quorum_met).count();
            let cohort: usize = r.rounds.iter().map(|x| x.cohort).sum();
            let delivered: usize = r.rounds.iter().map(|x| x.delivered).sum();
            vec![
                format!("{}", s.population),
                format!("{:.2}%", 100.0 * s.accuracy),
                format!("{quorum}/{ROUNDS}"),
                format!("{cohort}"),
                format!("{delivered}"),
                format!("{}", r.events),
                fmt_bytes(r.transport.bytes_up + r.transport.bytes_down),
                format!("{:.1} s", r.sim_clock_s),
                format!("{:.0} ms", 1000.0 * s.wall_s / ROUNDS as f64),
            ]
        })
        .collect();
    print_table(
        "population-scale FedAvg over mdl-sim (faulty LTE mix, 1% cohorts, 50% quorum)",
        &[
            "clients",
            "accuracy",
            "quorum",
            "sampled",
            "delivered",
            "events",
            "bytes",
            "sim clock",
            "wall/round",
        ],
        &rows,
    );

    for s in &sweeps {
        let per_round = s.wall_s / ROUNDS as f64;
        assert!(
            per_round < ROUND_CEILING_S,
            "{} clients: {per_round:.1} s per round breaches the {ROUND_CEILING_S} s ceiling",
            s.population
        );
        let quorum = s.report.rounds.iter().filter(|x| x.quorum_met).count();
        assert!(quorum > 0, "{} clients: no round met quorum", s.population);
    }
    println!(
        "\nevery size stays under the {ROUND_CEILING_S:.0} s/round ceiling; \
         memory is O(cohort + workers), never O(population)"
    );

    // --- JSON artifact: the default sweep only, so a CI-sized run
    // cannot replace the committed three rows with its one ---
    if !default_sweep {
        return;
    }
    let mut json = String::from("{\n  \"benchmark\": \"population\",\n");
    let _ = writeln!(json, "  \"rounds\": {ROUNDS},");
    let _ = writeln!(json, "  \"round_ceiling_s\": {ROUND_CEILING_S},");
    let _ = writeln!(json, "  \"bit_reproducible\": true,");
    let _ = writeln!(json, "  \"thread_invariant\": true,");
    json.push_str("  \"sweep\": [\n");
    for (i, s) in sweeps.iter().enumerate() {
        let r = &s.report;
        let quorum = r.rounds.iter().filter(|x| x.quorum_met).count();
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"clients\": {},", s.population);
        let _ = writeln!(json, "      \"accuracy\": {:.4},", s.accuracy);
        let _ = writeln!(json, "      \"quorum_rounds\": {quorum},");
        let _ = writeln!(json, "      \"events\": {},", r.events);
        let _ = writeln!(json, "      \"bytes_up\": {},", r.transport.bytes_up);
        let _ = writeln!(json, "      \"bytes_down\": {},", r.transport.bytes_down);
        let _ = writeln!(json, "      \"wasted_bytes\": {},", r.transport.wasted_bytes);
        let _ = writeln!(json, "      \"sim_clock_s\": {:.3},", r.sim_clock_s);
        let _ = writeln!(json, "      \"wall_s\": {:.3}", s.wall_s);
        json.push_str(if i + 1 == sweeps.len() { "    }\n" } else { "    },\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_population.json", &json).expect("write BENCH_population.json");
    println!("wrote BENCH_population.json");
}
