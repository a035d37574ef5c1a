//! E11 — serving-tier behaviour under load: the `mdl-serve` runtime
//! (work-conserving micro-batching + placement routing + early-exit shedding)
//! driven by a deterministic open-loop Poisson load at three offered
//! rates. Prints the latency/throughput/shed table and writes the same
//! numbers to `BENCH_serving.json` so the perf trajectory is tracked
//! across commits, then demonstrates a hot model swap under load.
//!
//! The sweep runs each offered rate twice — once against the f32 model
//! and once against its int8 quantization served through the same
//! registry — so the table doubles as an accuracy-vs-latency comparison:
//! the argmax agreement between the two precisions is asserted up front,
//! and the final swap demo hot-swaps f32 → int8 under load.
//!
//! A second, virtual-time sweep drives the sharded SLO-classed fleet
//! engine at 800 and 10,000 offered rps with a 20/30/50
//! interactive/standard/best-effort mix. Those numbers are deterministic
//! (virtual clock, seeded arrivals) but *modelled* — the clock prices a
//! batch from `FleetConfig::macs_per_sec` — so none of them is a perf
//! floor; the run asserts the SLO contract outright instead: a repeat run
//! has the same digest, at 10k rps every shed lands on best-effort, and
//! interactive p99 stays within 1.5× its 800 rps value.

use mdl_bench::print_table;
use mdl_core::prelude::*;
use mdl_serve::{
    request_stream, run_load, FleetConfig, FleetEngine, InferenceServer, LoadGenConfig, LoadMode,
    ServeConfig, SloClass,
};
use std::fmt::Write as _;
use std::time::Duration;

/// ~9.6M MACs per example — a wearable on Wi-Fi offloads this to the
/// cloud path, which is where batching and shedding live.
fn model(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Sequential::new();
    net.push(Dense::new(32, 3072, Activation::Relu, &mut rng));
    net.push(Dense::new(3072, 3072, Activation::Relu, &mut rng));
    net.push(Dense::new(3072, 10, Activation::Identity, &mut rng));
    net
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 4,
        max_batch: 8,
        queue_capacity: 256,
        shed_queue_depth: 32,
        ..ServeConfig::default()
    }
}

struct Level {
    offered_rps: f64,
    precision: &'static str,
    report: mdl_serve::LoadReport,
}

/// The on-device early-exit head used for shedding.
fn fallback() -> Sequential {
    let mut rng = StdRng::seed_from_u64(1007);
    let mut net = Sequential::new();
    net.push(Dense::new(32, 10, Activation::Identity, &mut rng));
    net
}

/// The int8 quantization of `model(seed)`, built the way `mdl-serve`
/// builds it when loading a compression artifact.
fn quantized(seed: u64) -> QuantizedModel {
    QuantizedModel::from_model(&model(seed)).expect("all-Dense model quantizes")
}

fn main() {
    let inputs = Matrix::from_fn(128, 32, |r, c| ((r * 32 + c) as f32 * 0.37).sin());

    // precision sanity up front: the two snapshots the sweep serves must
    // agree on nearly every argmax before latency numbers mean anything
    let f32_model = model(42);
    let int8_model = quantized(42);
    let agree = f32_model
        .predict(&inputs)
        .iter()
        .zip(int8_model.predict(&inputs))
        .filter(|&(&a, b)| a == b)
        .count() as f64
        / inputs.rows() as f64;
    println!("f32 vs int8 argmax agreement on the load-gen inputs: {:.1}%", agree * 100.0);
    assert!(agree >= 0.95, "int8 serving must agree with f32 on >=95% of argmaxes, got {agree}");

    // --- open-loop sweep: offered load vs latency/throughput/shedding ---
    // All clients are wearables on Wi-Fi, so every request is cloud-bound
    // and the sweep isolates the queue/batch/shed machinery. (Local and
    // split routing are exercised by the pipeline smoke test and the
    // integration suite.) Each rate runs at both precisions.
    let offered = [200.0, 800.0, 3200.0];
    let requests = 480;
    let mut levels = Vec::new();
    for precision in ["f32", "int8"] {
        for (i, &rps) in offered.iter().enumerate() {
            // fresh server per level so the histograms don't mix
            let server = match precision {
                "int8" => InferenceServer::start(quantized(42), Some(fallback()), serve_config()),
                _ => InferenceServer::start(model(42), Some(fallback()), serve_config()),
            };
            let client = server.client();
            let report = run_load(
                &client,
                &inputs,
                &LoadGenConfig {
                    seed: 500 + i as u64,
                    requests,
                    mode: LoadMode::Open { rps },
                    profiles: vec![ClientProfile {
                        device: DeviceClass::Wearable,
                        network: NetworkClass::Wifi,
                    }],
                    classes: vec![],
                },
            );
            drop(client);
            server.shutdown();
            levels.push(Level { offered_rps: rps, precision, report });
        }
    }

    let rows: Vec<Vec<String>> = levels
        .iter()
        .map(|l| {
            let r = &l.report;
            vec![
                format!("{:.0}", l.offered_rps),
                l.precision.to_string(),
                format!("{}", r.completed),
                format!("{:.0}", r.throughput_rps()),
                format!("{:.2}", r.percentile(50.0).as_secs_f64() * 1e3),
                format!("{:.2}", r.percentile(95.0).as_secs_f64() * 1e3),
                format!("{:.2}", r.percentile(99.0).as_secs_f64() * 1e3),
                format!("{:.1}", r.mean_batch_size),
                format!("{:.1}%", r.shed_rate() * 100.0),
                format!("{:.2}", r.gen_late_p50.as_secs_f64() * 1e3),
                format!("{:.2}", r.gen_late_p99.as_secs_f64() * 1e3),
            ]
        })
        .collect();
    print_table(
        "serving under open-loop Poisson load (4 workers pulling batches of <= 8; \
         latency from each request's due instant)",
        &[
            "offered rps",
            "precision",
            "done",
            "rps",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "mean batch",
            "shed",
            "gen late p50 ms",
            "gen late p99 ms",
        ],
        &rows,
    );
    println!(
        "\nexpected shape: while a worker is idle a request starts at once (batch ~1);\n\
         once the pool saturates arrivals pile up behind it, batches grow toward\n\
         max_batch, and excess cloud-bound requests shed to the on-device early exit.\n\
         'gen late' is how far behind its schedule the load generator submitted."
    );

    // --- virtual-time fleet sweep: SLO classes at 800 and 10,000 rps ---
    // 4 replicas × 2 workers, 10 ms admission windows, budget 80/window
    // (≈ 8k rps admitted): at 800 rps everything fits; at 10k rps the
    // best-effort half of the mix absorbs every shed while interactive
    // and standard ride through untouched.
    let fleet_model = model(42);
    let mix = [
        SloClass::Interactive,
        SloClass::Interactive,
        SloClass::Standard,
        SloClass::Standard,
        SloClass::Standard,
        SloClass::BestEffort,
        SloClass::BestEffort,
        SloClass::BestEffort,
        SloClass::BestEffort,
        SloClass::BestEffort,
    ];
    let fleet_config = FleetConfig {
        replicas: 4,
        workers_per_replica: 2,
        max_batch: 8,
        admit_window_ns: 10_000_000,
        admit_budget: 80,
        ..FleetConfig::default()
    };
    let engine = FleetEngine::new(&fleet_model, &inputs, fleet_config.clone());
    let fleet_levels: Vec<(f64, mdl_serve::FleetReport)> = [(800.0, 800usize), (10_000.0, 3000)]
        .iter()
        .map(|&(rps, n)| {
            let stream = request_stream(0xf1ee7, rps, n, &mix, inputs.rows());
            let report = engine.run(&stream);
            // the whole point of the virtual clock: a repeat run is
            // bit-identical
            assert_eq!(
                report.result_digest(),
                engine.run(&stream).result_digest(),
                "fleet run must be bit-reproducible at {rps} rps"
            );
            (rps, report)
        })
        .collect();

    let fleet_rows: Vec<Vec<String>> = fleet_levels
        .iter()
        .flat_map(|(rps, report)| {
            SloClass::ALL.into_iter().map(move |class| {
                let s = report.class(class);
                vec![
                    format!("{rps:.0}"),
                    class.label().to_string(),
                    format!("{}", s.offered),
                    format!("{}", s.served),
                    format!("{}", s.shed),
                    format!("{:.2}", s.percentile_ns(50.0) as f64 / 1e6),
                    format!("{:.2}", s.percentile_ns(99.0) as f64 / 1e6),
                ]
            })
        })
        .collect();
    print_table(
        "SLO-classed fleet, virtual time (4 replicas x 2 workers, 10ms windows, budget 80)",
        &["offered rps", "class", "offered", "served", "shed", "p50 ms", "p99 ms"],
        &fleet_rows,
    );
    for (rps, report) in &fleet_levels {
        println!(
            "  {rps:.0} rps: {} batches (mean {:.1} rows), {} steals, plan {}h/{}m, digest {}",
            report.batches,
            report.mean_batch_rows,
            report.steals,
            report.plan_hits,
            report.plan_misses,
            report.result_digest()
        );
    }

    // the SLO contract, asserted on the deterministic numbers
    let at = |rps: f64| &fleet_levels.iter().find(|(r, _)| *r == rps).expect("level ran").1;
    let (low, high) = (at(800.0), at(10_000.0));
    for report in [low, high] {
        assert_eq!(report.class(SloClass::Interactive).shed, 0, "interactive never sheds");
        assert_eq!(report.class(SloClass::Standard).shed, 0, "standard never sheds");
    }
    assert!(high.class(SloClass::BestEffort).shed > 0, "10k rps must overload the budget");
    let p99_int_800 = low.class(SloClass::Interactive).percentile_ns(99.0);
    let p99_int_10k = high.class(SloClass::Interactive).percentile_ns(99.0);
    assert!(
        p99_int_10k as f64 <= 1.5 * p99_int_800 as f64,
        "interactive p99 at 10k rps ({p99_int_10k} ns) must stay within 1.5x \
         its 800 rps value ({p99_int_800} ns)"
    );
    println!(
        "\nSLO contract holds: sheds confined to best-effort \
         ({} of {} at 10k rps), interactive p99 {:.2} ms -> {:.2} ms (<= 1.5x)",
        high.class(SloClass::BestEffort).shed,
        high.class(SloClass::BestEffort).offered,
        p99_int_800 as f64 / 1e6,
        p99_int_10k as f64 / 1e6,
    );

    // --- JSON artifact ---
    let mut json = String::from("{\n  \"benchmark\": \"serving\",\n  \"levels\": [\n");
    for (i, l) in levels.iter().enumerate() {
        let r = &l.report;
        let _ = writeln!(
            json,
            "    {{\"offered_rps\": {:.1}, \"precision\": \"{}\", \"requests\": {}, \
             \"completed\": {}, \
             \"throughput_rps\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
             \"mean_batch_size\": {:.2}, \"shed_rate\": {:.4}, \"gen_late_p99_us\": {}}}{}",
            l.offered_rps,
            l.precision,
            requests,
            r.completed,
            r.throughput_rps(),
            r.percentile(50.0).as_micros(),
            r.percentile(95.0).as_micros(),
            r.percentile(99.0).as_micros(),
            r.mean_batch_size,
            r.shed_rate(),
            r.gen_late_p99.as_micros(),
            if i + 1 < levels.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n  \"fleet\": [\n");
    for (i, (rps, report)) in fleet_levels.iter().enumerate() {
        for (j, class) in SloClass::ALL.into_iter().enumerate() {
            let s = report.class(class);
            let _ = writeln!(
                json,
                "    {{\"offered_rps\": {:.1}, \"class\": \"{}\", \"offered\": {}, \
                 \"served\": {}, \"shed\": {}, \"p50_us\": {}, \"p99_us\": {}}}{}",
                rps,
                class.label(),
                s.offered,
                s.served,
                s.shed,
                s.percentile_ns(50.0) / 1_000,
                s.percentile_ns(99.0) / 1_000,
                if i + 1 < fleet_levels.len() || j + 1 < SloClass::COUNT { "," } else { "" },
            );
        }
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"serving_p99_interactive_10k\": {},", p99_int_10k / 1_000);
    let _ = writeln!(
        json,
        "  \"fleet_shed_best_effort_10k\": {},",
        high.class(SloClass::BestEffort).shed
    );
    let _ = writeln!(json, "  \"fleet_digest_10k\": {},", high.result_digest());
    let p99_at = |rps: f64, precision: &str| {
        levels
            .iter()
            .find(|l| l.offered_rps == rps && l.precision == precision)
            .map(|l| l.report.percentile(99.0).as_micros())
            .unwrap_or(0)
    };
    let _ = writeln!(json, "  \"p99_us_800rps\": {},", p99_at(800.0, "f32"));
    let _ = writeln!(json, "  \"p99_us_800rps_int8\": {},", p99_at(800.0, "int8"));
    let _ = writeln!(json, "  \"int8_argmax_agreement\": {agree:.4}");
    json.push_str("}\n");
    std::fs::write("BENCH_serving.json", &json).expect("write BENCH_serving.json");
    println!("\nwrote BENCH_serving.json");

    // --- hot swap under load ---
    let server = InferenceServer::start(model(42), None, serve_config());
    let client = server.client();
    let profile = ClientProfile { device: DeviceClass::Wearable, network: NetworkClass::Wifi };
    let loader = {
        let client = client.clone();
        let inputs = inputs.clone();
        std::thread::spawn(move || {
            run_load(
                &client,
                &inputs,
                &LoadGenConfig {
                    seed: 900,
                    requests: 240,
                    mode: LoadMode::Closed { concurrency: 6 },
                    profiles: vec![profile],
                    classes: vec![],
                },
            )
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    let v2 = server.swap_model(model(43));
    std::thread::sleep(Duration::from_millis(20));
    // precision swap mid-run: same lifecycle, 4x smaller weights
    let v3 = server.swap_model(quantized(43));
    let report = loader.join().expect("load thread");
    println!(
        "\nhot swap under load: swapped to v{v2} (f32) then v{v3} (int8) mid-run; \
         {} / 240 requests answered, {} swaps recorded, final served version {} ({})",
        report.completed,
        server.swap_count(),
        server.version(),
        server.precision()
    );
    assert_eq!(server.precision(), "int8", "final snapshot must be the quantized swap");
    drop(client);
    server.shutdown();
}
