//! Bench-regression gate: compares freshly written `BENCH_*.json`
//! artifacts against the committed floors in `tests/bench_floors.json`
//! and exits non-zero if any tracked metric regressed more than 15%
//! beyond its floor. Run it right after `exp_kernels` / `exp_serving`
//! in the same directory:
//!
//! ```text
//! cargo run --release --bin exp_kernels
//! cargo run --release --bin exp_serving
//! cargo run --release --bin exp_gate            # tests/bench_floors.json
//! cargo run --release --bin exp_gate -- custom_floors.json
//! ```
//!
//! The floors file is a flat list, read with the workspace's one JSON
//! parser (`mdl_core::obs::json`):
//!
//! ```json
//! {
//!   "floors": [
//!     {"file": "BENCH_kernels.json", "key": "blocked_256_t1_gflops", "floor": 17.686, "better": "higher"},
//!     {"file": "BENCH_serving.json", "key": "p99_us_800rps", "floor": 2000, "better": "lower"}
//!   ]
//! }
//! ```
//!
//! `better: "higher"` fails when `fresh < floor * 0.85`;
//! `better: "lower"` fails when `fresh > floor * 1.15`. Every `key`
//! must be a *unique* top-level number in its bench artifact, so
//! repeated per-row keys (like the per-`n` GEMM entries, which live in
//! nested rows) cannot be gated directly.

use mdl_core::obs::json::Json;
use std::process::ExitCode;

const SLACK: f64 = 0.15;

#[derive(Debug)]
struct Floor {
    file: String,
    key: String,
    floor: f64,
    higher_is_better: bool,
}

fn parse_floors(text: &str) -> Vec<Floor> {
    let doc = Json::parse(text).unwrap_or_else(|e| panic!("floors file: {e}"));
    let entries =
        doc.get("floors").and_then(Json::as_arr).expect("floors file needs a \"floors\" array");
    fn field<'a>(entry: &'a Json, name: &str) -> &'a Json {
        entry.get(name).unwrap_or_else(|| panic!("floor entry missing {name:?}"))
    }
    fn string(entry: &Json, name: &str) -> String {
        let v = field(entry, name).as_str();
        v.unwrap_or_else(|| panic!("floor entry {name:?} must be a string")).to_string()
    }
    entries
        .iter()
        .map(|entry| Floor {
            file: string(entry, "file"),
            key: string(entry, "key"),
            floor: field(entry, "floor").as_f64().expect("floor entry \"floor\" must be a number"),
            higher_is_better: match string(entry, "better").as_str() {
                "higher" => true,
                "lower" => false,
                other => panic!("\"better\" must be \"higher\" or \"lower\", got {other:?}"),
            },
        })
        .collect()
}

/// Looks up a unique top-level `"key": <number>` in a bench artifact.
fn lookup(artifact: &Json, key: &str) -> Option<f64> {
    let Json::Obj(members) = artifact else { panic!("bench artifact must be a JSON object") };
    let mut hits = members.iter().filter(|(k, _)| k == key);
    let (_, value) = hits.next()?;
    assert!(
        hits.next().is_none(),
        "key {key:?} appears more than once in the artifact; gate keys must be unique"
    );
    value.as_f64()
}

fn main() -> ExitCode {
    let floors_path =
        std::env::args().nth(1).unwrap_or_else(|| "tests/bench_floors.json".to_string());
    let text =
        std::fs::read_to_string(&floors_path).unwrap_or_else(|e| panic!("read {floors_path}: {e}"));
    let floors = parse_floors(&text);
    assert!(!floors.is_empty(), "{floors_path} defines no floors");

    let mut failures = 0;
    let mut cache: std::collections::HashMap<String, Json> = Default::default();
    for f in &floors {
        let artifact = cache.entry(f.file.clone()).or_insert_with(|| {
            let text = std::fs::read_to_string(&f.file)
                .unwrap_or_else(|e| panic!("read {} (run the bench bins first): {e}", f.file));
            Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", f.file))
        });
        let fresh = lookup(artifact, &f.key)
            .unwrap_or_else(|| panic!("{}: key {:?} not found", f.file, f.key));
        let (ok, bound) = if f.higher_is_better {
            (fresh >= f.floor * (1.0 - SLACK), f.floor * (1.0 - SLACK))
        } else {
            (fresh <= f.floor * (1.0 + SLACK), f.floor * (1.0 + SLACK))
        };
        let verdict = if ok { "ok  " } else { "FAIL" };
        println!(
            "{verdict} {}:{} = {fresh:.3} (floor {:.3}, {} is better, limit {bound:.3})",
            f.file,
            f.key,
            f.floor,
            if f.higher_is_better { "higher" } else { "lower" },
        );
        failures += usize::from(!ok);
    }

    if failures > 0 {
        eprintln!(
            "\nbench gate: {failures} metric(s) regressed >{:.0}% past their floor",
            SLACK * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!(
        "\nbench gate: all {} metrics within {:.0}% of their floors",
        floors.len(),
        SLACK * 100.0
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_floor_entries() {
        let text = r#"{
  "floors": [
    {"file": "A.json", "key": "x_gflops", "floor": 17.686, "better": "higher"},
    {"file": "B.json", "key": "p99_us", "floor": 2000, "better": "lower"}
  ]
}"#;
        let floors = parse_floors(text);
        assert_eq!(floors.len(), 2);
        assert_eq!(floors[0].file, "A.json");
        assert_eq!(floors[0].key, "x_gflops");
        assert!(floors[0].higher_is_better);
        assert!((floors[0].floor - 17.686).abs() < 1e-9);
        assert!(!floors[1].higher_is_better);
    }

    #[test]
    fn looks_up_exact_keys_without_prefix_collisions() {
        let artifact = Json::parse(
            "{\n  \"p99_us_800rps_int8\": 1500,\n  \"rows\": [{\"nested\": 7}],\n  \"p99_us_800rps\": 1200\n}\n",
        )
        .unwrap();
        assert_eq!(lookup(&artifact, "p99_us_800rps"), Some(1200.0));
        assert_eq!(lookup(&artifact, "p99_us_800rps_int8"), Some(1500.0));
        assert_eq!(lookup(&artifact, "missing"), None);
        assert_eq!(lookup(&artifact, "nested"), None, "per-row keys are not top-level");
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn rejects_repeated_keys() {
        let artifact = Json::parse("{\"n\": 1, \"rows\": [], \"n\": 2}").unwrap();
        let _ = lookup(&artifact, "n");
    }
}
