//! Runs the whole benchmark in `--quick` mode and holds its output to the
//! contract: `BENCHMARK.json` is what the metric tables generate, every
//! name in it is printed exactly once per workload with its unit, names
//! and counts stay inside the driver's limits, and every check passes.

use mdl_obs::json::Json;
use std::collections::BTreeMap;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_mdl-benchmark");

fn manifest_file() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root")
}

/// `(name, unit)` of every entry of `key` in the manifest.
fn names_and_units(manifest: &Json, key: &str) -> Vec<(String, String)> {
    let text = |entry: &Json, field: &str| {
        entry
            .get(field)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key}: no {field}"))
            .to_string()
    };
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("manifest has no {key}"))
        .iter()
        .map(|e| {
            (text(e, "name"), if key == "workloads" { String::new() } else { text(e, "unit") })
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_is_generated_from_the_metric_tables() {
    let out = Command::new(BIN).arg("--manifest").output().expect("benchmark binary runs");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        manifest_file(),
        "BENCHMARK.json is stale: regenerate it with `mdl-benchmark --manifest`"
    );
}

#[test]
fn manifest_stays_inside_the_driver_limits() {
    let manifest = Json::parse(&manifest_file()).expect("BENCHMARK.json parses");
    let Json::Obj(members) = &manifest else { panic!("manifest is not an object") };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let workloads = names_and_units(&manifest, "workloads");
    let end_to_end = names_and_units(&manifest, "end_to_end");
    let per_layer = names_and_units(&manifest, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut seen = std::collections::BTreeSet::new();
    for (name, _) in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(well_formed(name), "bad name {name}");
        assert!(seen.insert(name.clone()), "{name} is used twice");
    }
    assert!(end_to_end.contains(&("setup_s".to_string(), "s".to_string())));
    let seconds = manifest.get("run_seconds").and_then(Json::as_u64).expect("run_seconds");
    assert!((1..=60).contains(&seconds));
}

#[test]
fn quick_run_prints_every_metric_once_with_its_unit_and_passes_every_check() {
    let out = Command::new(BIN)
        .args(["--quick", "--allow-slow", "--seed", "7"])
        .output()
        .expect("benchmark binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "quick run failed:\n{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("QUICK MODE"), "quick runs carry the not-for-comparison banner");
    assert!(text.contains("all checks passed"));

    // metric lines read `  <workload> <name> <value> <unit>`
    let mut printed: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [workload, name, value, unit] = fields[..] {
            if value.parse::<f64>().is_ok() {
                printed.entry((workload.into(), name.into())).or_default().push(unit.into());
            }
        }
    }
    let manifest = Json::parse(&manifest_file()).expect("BENCHMARK.json parses");
    for (workload, _) in names_and_units(&manifest, "workloads") {
        for key in ["end_to_end", "per_layer"] {
            for (name, unit) in names_and_units(&manifest, key) {
                let units = printed.get(&(workload.clone(), name.clone()));
                assert_eq!(
                    units,
                    Some(&vec![unit.clone()]),
                    "{workload}: {name} must be printed exactly once, in {unit}"
                );
            }
        }
    }
}
