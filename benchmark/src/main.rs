//! `mdl-benchmark` — the repo's one performance yardstick.
//!
//! ```text
//! mdl-benchmark                                   every workload, untraced then traced
//! mdl-benchmark --workload W --seed N --seconds S --trace 0|1     one run (the driver's form)
//! mdl-benchmark --runs K [--out FILE]             append K alternating untraced runs per workload
//! mdl-benchmark --compare a.jsonl b.jsonl         judge two sets of runs by the bounds
//! mdl-benchmark --manifest                        print BENCHMARK.json from the metric tables
//! options: --quick (≈2 s per workload, not for comparison)  --allow-slow
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric means.

mod alloc;
mod compare;
mod env;
mod models;
mod openloop;
mod probes;
mod quiet;
mod report;
mod stats;
mod trace;
mod workloads;

use env::Provenance;
use mdl_obs::json::Json;
use report::{MetricDef, RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;
use workloads::serve::{Precision, Serve, Shape, MIXED};
use workloads::RunArgs;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Measured seconds per run when `--seconds` is not given (the value
/// `BENCHMARK.json` passes).
const DEFAULT_SECONDS: f64 = report::RUN_SECONDS as f64;
/// Line prefix of the full run record (provenance and lateness flag
/// included) that precedes the driver's result line.
const RECORD_PREFIX: &str = "record ";

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    allow_slow: bool,
    runs: Option<usize>,
    out: String,
    compare: Option<(String, String)>,
    manifest: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        allow_slow: false,
        runs: None,
        out: concat!(env!("CARGO_MANIFEST_DIR"), "/out/runs.jsonl").into(),
        compare: None,
        manifest: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<f64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                cli.seed =
                    v.parse().map_err(|_| format!("--seed: not an unsigned integer: {v}"))?;
            }
            "--seconds" => cli.seconds = Some(number(value()?)?).filter(|s| *s > 0.0),
            "--trace" => cli.trace = number(value()?)? != 0.0,
            "--runs" => cli.runs = Some(number(value()?)? as usize),
            "--out" => cli.out = value()?,
            "--compare" => cli.compare = Some((value()?, value()?)),
            "--manifest" => cli.manifest = true,
            "--quick" => cli.quick = true,
            "--allow-slow" => cli.allow_slow = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.workload.as_ref().is_some_and(|w| WORKLOADS.iter().all(|(name, _)| name != w)) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("unknown workload; choose one of {}", names.join(", ")));
    }
    Ok(cli)
}

impl Cli {
    fn run_args(&self) -> RunArgs {
        let seconds = self.seconds.unwrap_or(if self.quick { 2.0 } else { DEFAULT_SECONDS });
        RunArgs { seed: self.seed, seconds, warm_s: if self.quick { 0.5 } else { 1.0 } }
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("mdl-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.manifest {
        print!("{}", report::manifest());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &cli.compare {
        return match compare::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("mdl-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }

    // one GEMM thread everywhere: the serving workers are the parallelism
    mdl_tensor::kernel::set_threads(1);
    let provenance = Provenance::capture();
    if let Some(reason) = provenance.slow_reason().filter(|_| !cli.allow_slow) {
        eprintln!(
            "mdl-benchmark: {reason}; numbers from this configuration must not be mistaken \
             for a baseline. Pass --allow-slow to run anyway."
        );
        return ExitCode::from(2);
    }
    let outcome = match &cli.workload {
        Some(name) => run_one(name, &cli, &provenance),
        None => run_children(&cli, &provenance),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mdl-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn banner(cli: &Cli, provenance: &Provenance) {
    println!("{}", provenance.banner());
    if cli.quick {
        println!(
            "QUICK MODE: shrunk workloads — checks are enforced, numbers are NOT for comparison"
        );
    }
}

/// Runs one workload in this process and prints its record; the last
/// line of standard output is the driver's result object.
fn run_one(name: &str, cli: &Cli, provenance: &Provenance) -> Result<bool, String> {
    let args = cli.run_args();
    let open_loop = matches!(name, "serve_f32_steady" | "serve_int8_mixed");
    if open_loop && provenance.nproc < 2 {
        return Err(format!(
            "{name} is an open loop: its generator and the server need a core each, and this \
             machine offers {}. Refusing to report latencies the generator itself would distort.",
            provenance.nproc
        ));
    }
    banner(cli, provenance);
    println!(
        "workload {name}: seed {} measured {} s after {} s warm-up, trace {}",
        args.seed,
        args.seconds,
        args.warm_s,
        u8::from(cli.trace)
    );

    let mut tracer = Tracer::new(cli.trace);
    let probe = cli.trace.then(|| probes::run(&mut tracer));
    let probe = probe.as_ref();
    let mut result = match name {
        "serve_f32_steady" => {
            let mix = &[mdl_serve::SloClass::Standard];
            let w = Serve::new(Precision::F32, Shape::Open { rps: 300.0, mix }, 15.0);
            workloads::run(&w, &args, &mut tracer, probe)
        }
        "serve_int8_mixed" => {
            let w = Serve::new(Precision::Int8, Shape::Open { rps: 800.0, mix: MIXED }, 7.0);
            workloads::run(&w, &args, &mut tracer, probe)
        }
        "serve_f32_closed" => {
            let w = Serve::new(Precision::F32, Shape::Closed { outstanding: 16 }, 16.0);
            workloads::run(&w, &args, &mut tracer, probe)
        }
        "device_infer" => {
            workloads::run(&workloads::device::Device::new(), &args, &mut tracer, probe)
        }
        "train_local" => workloads::run(&workloads::train::Train, &args, &mut tracer, probe),
        "fed_population" => workloads::run(&workloads::fed::Fed, &args, &mut tracer, probe),
        other => unreachable!("parse_cli admits only listed workloads, got {other}"),
    };

    let table: &[MetricDef] = if cli.trace { PER_LAYER } else { &END_TO_END };
    if let Some(probe) = probe {
        result.notes.extend(probe.notes.iter().cloned());
        // a layer this workload's load never touches has nothing to report
        let mut idle = Vec::new();
        for d in table {
            if result.metrics.get(d.name).is_none() {
                result.metrics.set(d.name, 0.0);
                idle.push(d.name);
            }
        }
        if !idle.is_empty() {
            result
                .notes
                .push(format!("not on this workload's path, reported 0: {}", idle.join(" ")));
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{name}.trace.json"));
        match tracer.write_json(&path, name) {
            Ok(()) => {
                result.notes.push(format!("{} spans written to {}", tracer.len(), path.display()))
            }
            Err(e) => result.notes.push(format!("trace not written to {}: {e}", path.display())),
        }
        for (span, t) in tracer.summary() {
            result.notes.push(format!(
                "span {span}: n={} total {:.3} ms self {:.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
    }
    if result.late {
        eprintln!(
            "mdl-benchmark: {name}: the generator ran more than {} ms late at p99; \
             this run is flagged and --runs/--compare set it aside",
            workloads::LATE_LIMIT_MS
        );
    }
    result.print_human(name, table);
    println!("{RECORD_PREFIX}{}", record(name, &args, provenance, &result, table));
    println!("{}", Json::Obj(result.driver_fields(table)));
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    Ok(result.correct)
}

/// The full run record: the driver's four keys plus workload, lateness
/// and the provenance block.
fn record(
    name: &str,
    args: &RunArgs,
    provenance: &Provenance,
    result: &RunResult,
    table: &[MetricDef],
) -> Json {
    let mut fields = vec![
        ("workload".into(), Json::str(name)),
        ("env".into(), provenance.to_json(args.seed, args.seconds)),
        ("late".into(), Json::Bool(result.late)),
    ];
    fields.extend(result.driver_fields(table));
    Json::Obj(fields)
}

/// Runs `name` in a child process (so `peak_rss_mb` is per workload),
/// relays its report and returns its record line and whether it passed.
fn child(name: &str, cli: &Cli, seed: u64, trace: bool) -> Result<(Option<String>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = cli.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if cli.quick {
        cmd.arg("--quick");
    }
    if cli.allow_slow {
        cmd.arg("--allow-slow");
    }
    let out =
        cmd.stdout(Stdio::piped()).stderr(Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut record = None;
    for line in text.lines() {
        match line.strip_prefix(RECORD_PREFIX) {
            Some(json) => record = Some(json.to_string()),
            // the driver's result line repeats the record: not relayed
            None if line.starts_with('{') => {}
            // one machine banner per session is enough
            None if line.starts_with("machine:") || line.starts_with("QUICK MODE") => {}
            None => println!("{line}"),
        }
    }
    Ok((record, out.status.success()))
}

/// No `--workload`: every workload, each in its own child process —
/// untraced then traced, or `--runs` alternating untraced runs appended
/// to the `--out` file.
fn run_children(cli: &Cli, provenance: &Provenance) -> Result<bool, String> {
    banner(cli, provenance);
    let mut all_ok = true;
    match cli.runs {
        None => {
            for (name, why) in WORKLOADS {
                println!("\n== {name}: {why}");
                for trace in [false, true] {
                    let (_, ok) = child(name, cli, cli.seed, trace)?;
                    all_ok &= ok;
                }
            }
        }
        Some(k) => {
            if let Some(dir) = std::path::Path::new(&cli.out).parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&cli.out)
                .map_err(|e| format!("{}: {e}", cli.out))?;
            // workloads alternate within a round, so drift over the
            // session spreads over all of them instead of biasing one
            for round in 0..k as u64 {
                for (name, _) in WORKLOADS {
                    println!("\n== run {} of {k}: {name}", round + 1);
                    let (record, ok) = child(name, cli, cli.seed + round, false)?;
                    all_ok &= ok;
                    if let Some(record) = record {
                        writeln!(file, "{record}").map_err(|e| e.to_string())?;
                    }
                }
            }
            println!("\nappended {} records to {}", k * WORKLOADS.len(), cli.out);
        }
    }
    println!("\n{}", if all_ok { "all checks passed" } else { "SOME CHECKS FAILED" });
    Ok(all_ok)
}
