//! Property tests that keep the serving-fleet scheduler honest.
//!
//! The deterministic virtual-time fleet engine (`mdl_serve::fleet`) makes
//! scheduler behaviour a pure function of the offered stream and config,
//! so its invariants can be stated as properties instead of sampled from
//! thread timing:
//!
//! * **Class-ordered shedding** — within an admission window, a request
//!   is only shed if every request of a lower class in that window was
//!   shed too; `Interactive` never sheds while an admitted `BestEffort`
//!   from the same window gets served.
//! * **Conservation** — served + shed == offered, per class and in
//!   total, across work stealing and requeueing; nothing is lost or
//!   answered twice.
//! * **Result determinism** — per-class counters and every response's
//!   argmax are bit-identical across replica counts, worker counts and
//!   kernel thread counts. Only latencies may move.
//! * **One pick rule** — a 1 × 1 fleet forms exactly the batches the
//!   threaded server forms from the same backlog (`tests/serving.rs`).
//! * **Loadgen purity** — the open-loop arrival schedule depends only on
//!   `(seed, rps, count)`, never on consumer speed, and per-class
//!   request tagging round-trips through the `RequestRecord` wire form.

use mdl_core::prelude::*;
use mdl_serve::{request_stream, RequestRecord};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn model() -> Sequential {
    let mut rng = StdRng::seed_from_u64(21);
    let mut net = Sequential::new();
    net.push(Dense::new(8, 32, Activation::Relu, &mut rng));
    net.push(Dense::new(32, 4, Activation::Identity, &mut rng));
    net
}

fn inputs() -> Matrix {
    Matrix::from_fn(24, 8, |r, c| ((r * 8 + c) as f32 * 0.29).sin())
}

fn class_mix(selector: u8) -> Vec<SloClass> {
    match selector % 3 {
        0 => vec![SloClass::Interactive, SloClass::Standard, SloClass::BestEffort],
        1 => vec![
            SloClass::Interactive,
            SloClass::BestEffort,
            SloClass::BestEffort,
            SloClass::Standard,
        ],
        _ => vec![SloClass::Standard, SloClass::BestEffort],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Shedding is strictly class-ordered within every admission window,
    /// and no request is ever lost or double-counted.
    #[test]
    fn shedding_is_class_ordered_and_conserving(
        seed in 0u64..1000,
        rps in 4_000f64..24_000.0,
        budget in 4usize..24,
        mix_sel in 0u8..3,
    ) {
        let (model, inputs) = (model(), inputs());
        let stream = request_stream(seed, rps, 200, &class_mix(mix_sel), inputs.rows());
        let config = FleetConfig { admit_budget: budget, ..FleetConfig::default() };
        let window = config.admit_window_ns;
        let report = FleetEngine::new(&model, &inputs, config).run(&stream);

        // conservation: every offered request resolves exactly once
        prop_assert_eq!(report.outcomes.len(), stream.len());
        for class in SloClass::ALL {
            let s = report.class(class);
            prop_assert_eq!(s.offered, s.served + s.shed, "class {} leaks requests", class);
            prop_assert_eq!(s.served, s.latency_ns.len());
            prop_assert_eq!(s.shed, s.shed_latency_ns.len());
        }
        let offered: usize = report.classes.iter().map(|c| c.offered).sum();
        prop_assert_eq!(offered, stream.len());

        // class order: a shed request implies every lower-class request
        // in the same admission window was shed too
        let mut windows: BTreeMap<u64, Vec<&mdl_serve::RequestOutcome>> = BTreeMap::new();
        for o in &report.outcomes {
            windows.entry(stream[o.index as usize].arrival_ns / window).or_default().push(o);
        }
        for (w, outcomes) in windows {
            let best_shed = outcomes.iter().filter(|o| !o.served).map(|o| o.class).min();
            if let Some(best_shed) = best_shed {
                for o in &outcomes {
                    if o.class > best_shed {
                        prop_assert!(
                            !o.served,
                            "window {}: {} shed while lower-class {} (request {}) was served",
                            w, best_shed, o.class, o.index
                        );
                    }
                }
            }
        }
    }

    /// Per-class counters and every argmax are bit-identical across
    /// fleet shapes and kernel thread counts.
    #[test]
    fn results_are_invariant_across_fleet_and_thread_shapes(
        seed in 0u64..1000,
        rps in 2_000f64..16_000.0,
        budget in 6usize..20,
    ) {
        let (model, inputs) = (model(), inputs());
        let stream = request_stream(seed, rps, 160, &class_mix(0), inputs.rows());
        let base = FleetConfig { admit_budget: budget, ..FleetConfig::default() };
        let run = |cfg: FleetConfig| FleetEngine::new(&model, &inputs, cfg).run(&stream);

        let reference = run(base.clone());
        let ref_digest = reference.result_digest();

        let saved_threads = mdl_tensor::kernel::threads();
        for threads in [1usize, 4] {
            mdl_tensor::kernel::set_threads(threads);
            for replicas in [1usize, 2, 4] {
                let cfg = FleetConfig { replicas, ..base.clone() };
                let report = run(cfg);
                prop_assert_eq!(
                    report.result_digest(), ref_digest,
                    "replicas={} threads={}", replicas, threads
                );
                // spot-check beyond the digest: identical per-class counters
                for class in SloClass::ALL {
                    prop_assert_eq!(report.class(class).served, reference.class(class).served);
                    prop_assert_eq!(report.class(class).shed, reference.class(class).shed);
                }
            }
        }
        mdl_tensor::kernel::set_threads(saved_threads);
    }

    /// The arrival schedule is a pure function of (seed, rps, count):
    /// same inputs, same offsets — and a longer run only appends.
    #[test]
    fn arrival_schedule_is_pure(
        seed in 0u64..5000,
        rps in 100f64..50_000.0,
        n in 1usize..300,
    ) {
        let a = mdl_serve::arrival_schedule(seed, rps, n);
        let b = mdl_serve::arrival_schedule(seed, rps, n);
        prop_assert_eq!(&a, &b, "schedule must not depend on anything but its arguments");
        prop_assert_eq!(a.len(), n);
        prop_assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets must be non-decreasing");
        let longer = mdl_serve::arrival_schedule(seed, rps, n + 50);
        prop_assert_eq!(&longer[..n], &a[..], "consuming more never rewrites the prefix");
    }

    /// Class tagging survives the RequestRecord wire format.
    #[test]
    fn request_records_round_trip(
        seed in 0u64..5000,
        rps in 500f64..20_000.0,
        n in 1usize..120,
        mix_sel in 0u8..3,
        rows in 1usize..40,
    ) {
        let mix = class_mix(mix_sel);
        let stream = request_stream(seed, rps, n, &mix, rows);
        prop_assert_eq!(stream.len(), n);
        for (i, rec) in stream.iter().enumerate() {
            prop_assert_eq!(rec.index as usize, i);
            prop_assert_eq!(rec.class, mix[i % mix.len()], "classes cycle by index");
            prop_assert_eq!(rec.row as usize, i % rows);
            let back = RequestRecord::from_bytes(&rec.to_bytes());
            prop_assert_eq!(back, Some(*rec), "wire round-trip must be lossless");
        }
    }
}

/// `tests/serving.rs::a_backlog_coalesces_in_class_order`'s backlog — 3
/// best-effort, 5 standard, 6 interactive, lowest class first, `max_batch`
/// 4 — as one admission window through one replica with one worker: the
/// fleet dispatches the batches the threaded server does, `I4 I2 S4 S1 B3`.
#[test]
fn one_replica_forms_the_threaded_servers_batches() {
    let (model, inputs) = (model(), inputs());
    let backlog = [(SloClass::BestEffort, 3), (SloClass::Standard, 5), (SloClass::Interactive, 6)];
    let stream: Vec<RequestRecord> = backlog
        .iter()
        .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
        .enumerate()
        .map(|(i, class)| RequestRecord { index: i as u32, arrival_ns: 1, class, row: 0 })
        .collect();
    let config =
        FleetConfig { replicas: 1, workers_per_replica: 1, max_batch: 4, ..FleetConfig::default() };
    let report = FleetEngine::new(&model, &inputs, config).run(&stream);
    assert_eq!(report.batches, 5);

    // one worker and one arrival instant: latency order is dispatch order
    let mut dispatched: Vec<_> = report.outcomes.iter().collect();
    dispatched.sort_by_key(|o| (o.latency_ns, o.index));
    let got: Vec<_> = dispatched.iter().map(|o| (o.class, o.batch_rows)).collect();
    let expected: Vec<_> = [
        (SloClass::Interactive, 4),
        (SloClass::Interactive, 2),
        (SloClass::Standard, 4),
        (SloClass::Standard, 1),
        (SloClass::BestEffort, 3),
    ]
    .into_iter()
    .flat_map(|batch| std::iter::repeat_n(batch, batch.1))
    .collect();
    assert_eq!(got, expected);
}
