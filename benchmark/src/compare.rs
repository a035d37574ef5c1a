//! `--runs` and `--compare`: collecting run records and judging two
//! sets of them by the benchmark's own bounds.

use crate::report::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};
use mdl_obs::json::Json;
use std::collections::BTreeMap;

/// Values of one end-to-end metric on one workload, one per kept run.
type Samples = BTreeMap<(String, &'static str), Vec<f64>>;

/// One side of a comparison.
struct RunSet {
    samples: Samples,
    /// Records dropped because their generator ran late.
    late: usize,
    /// Records dropped because a check failed.
    incorrect: usize,
}

/// Reads a `runs.jsonl`: one run record per line.
fn read_runs(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet { samples: Samples::new(), late: 0, incorrect: 0 };
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let record = Json::parse(line).map_err(|e| bad(&format!("{e:?}")))?;
        let workload =
            record.get("workload").and_then(Json::as_str).ok_or_else(|| bad("no workload"))?;
        if record.get("late") == Some(&Json::Bool(true)) {
            set.late += 1;
            continue;
        }
        if record.get("correct") != Some(&Json::Bool(true)) {
            set.incorrect += 1;
            continue;
        }
        for d in &END_TO_END {
            let value = record
                .get("metrics")
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(&format!("no value for {}", d.name)))?;
            set.samples.entry((workload.to_string(), d.name)).or_default().push(value);
        }
    }
    Ok(set)
}

/// How `b` stands against `a` on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, and the runs of
    /// `b` are not all better than all runs of `a`: nothing can be said.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn spread(v: &[f64]) -> f64 {
    let m = median(v).abs().max(f64::MIN_POSITIVE);
    quartiles(v).map_or(0.0, |(q1, q3)| (q3 - q1) / m)
}

/// Judges `b` against baseline `a` by `d`'s direction and bound.
pub fn judge(d: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = d.bound.expect("end-to-end metrics carry a bound");
    let (ma, mb) = (median(a), median(b));
    let worse_by = match d.better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    let all_better = match d.better {
        Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
        Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
    };
    if spread(a).max(spread(b)) > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints the comparison table; `true` when nothing is `worse`.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (read_runs(path_a)?, read_runs(path_b)?);
    println!("compare: a = {path_a} (baseline), b = {path_b}; every ratio is b / a");
    for (name, set) in [("a", &a), ("b", &b)] {
        if set.late + set.incorrect > 0 {
            println!(
                "  {name}: set aside {} late and {} incorrect records",
                set.late, set.incorrect
            );
        }
    }
    println!(
        "{:<17} {:<17} {:>4} {:>12} {:>25} {:>12} {:>25} {:>22} {:>6}  verdict",
        "workload",
        "metric",
        "n",
        "a median",
        "a [q1, q3]",
        "b median",
        "b [q1, q3]",
        "ratio (base)",
        "bound"
    );
    let mut clean = true;
    for (workload, _) in WORKLOADS {
        for d in &END_TO_END {
            let key = (workload.to_string(), d.name);
            let (Some(va), Some(vb)) = (a.samples.get(&key), b.samples.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let quart = |v: &[f64]| {
                quartiles(v).map_or("[n/a]".to_string(), |(q1, q3)| format!("[{q1:.4}, {q3:.4}]"))
            };
            let verdict = judge(d, va, vb);
            clean &= verdict != Verdict::Worse;
            println!(
                "{workload:<17} {:<17} {:>4} {ma:>12.4} {:>25} {mb:>12.4} {:>25} {:>22} {:>6}  {}",
                d.name,
                format!("{}/{}", va.len(), vb.len()),
                quart(va),
                quart(vb),
                format!("{:.4} (a={ma:.4} {})", mb / ma, d.unit),
                format!("{:.0}%", d.bound.unwrap_or(0.0) * 100.0),
                verdict.label(),
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The verdict rules, on bounds of the test's own.
    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef { name: "m", unit: "u", better, bound: Some(bound) }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let latency = &def(Better::Lower, 0.10);
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // 5 % slower: inside the 10 % bound
        assert_eq!(judge(latency, &a, &[10.5, 10.6, 10.4, 10.5, 10.55]), Verdict::Ok);
        // 20 % slower: outside it
        assert_eq!(judge(latency, &a, &[12.0, 12.1, 11.9, 12.0, 12.05]), Verdict::Worse);
        // a spread wider than the bound says nothing...
        assert_eq!(judge(latency, &a, &[8.0, 12.0, 10.0, 14.0, 9.0]), Verdict::Unresolved);
        // ...unless every run of b beats every run of a
        assert_eq!(judge(latency, &a, &[5.0, 8.0, 6.0, 9.0, 4.0]), Verdict::Ok);
        // higher-is-better metrics worsen downwards
        let share = &def(Better::Higher, 0.05);
        assert_eq!(judge(share, &[0.99, 0.98, 0.99], &[0.90, 0.91, 0.90]), Verdict::Worse);
        assert_eq!(judge(share, &[0.99, 0.98, 0.99], &[0.97, 0.98, 0.97]), Verdict::Ok);
    }
}
