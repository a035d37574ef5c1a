//! E-plan — planned graph executor: one-shot `forward_eval` vs a
//! compiled plan's steady-state `Plan::run`, f32 and int8, batch 1/8/32.
//!
//! `forward_eval` allocates per call: for both precisions it compiles a
//! plan for the input's shape and runs it once (`dynamic_us` is that
//! one-shot compile + run). A kept [`Plan`] pays the compile once — every
//! intermediate in one shared arena, eval-mode dropout elided — so
//! steady-state runs are allocation-free. Both sides run the same fused
//! Dense ops (f32 bias+activation in the GEMM drain, int8
//! bias-fold+dequant+activation in one accumulator pass); the columns
//! differ by what a caller saves by keeping the plan. The model
//! is a DeepMood-style dense classifier (the paper's mobile-tier shape):
//! a stack of narrow hidden layers with dropout regularization between
//! them; the int8 variant quantizes the dropout-stripped stack, exactly
//! what a mobile export pipeline ships.
//!
//! The two are timed interleaved (alternating measurement slices,
//! best-of each) so clock drift on shared hardware cancels out of the
//! ratio. The bench asserts the f32 plan is bit-identical to an explicit
//! per-layer fold of `Layer::forward_eval` (so the check is not plan vs
//! plan) and the int8 plan to `forward_eval` (whose naive reference lives
//! in `tests/plan.rs`), asserts **zero heap allocations** in steady state
//! via a counting global allocator, and hard-asserts that the f32 plan
//! never loses to `forward_eval` at batch 8. `tests/bench_floors.json` gates
//! `plan_speedup_f32_b8` and the absolute `plan_int8_b8_us`.

use mdl_bench::print_table;
use mdl_core::nn::Dropout;
use mdl_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const SEED: u64 = 0x91a2;
const IN_DIM: usize = 16;
const HIDDEN: usize = 12;
const DEPTH: usize = 8;
const BATCHES: [usize; 3] = [1, 8, 32];
/// Regression guard: the kept f32 plan must never lose to `forward_eval`
/// (both are kernel-bound at mobile widths; the kept plan saves the
/// per-call compile and its allocations).
const F32_SPEEDUP_FLOOR_B8: f64 = 0.95;

/// DeepMood-style dense classifier; `dropout` controls whether the
/// regularization layers are still in the stack (the shipped f32 model)
/// or stripped (what the int8 export quantizes).
fn model(dropout: bool) -> Sequential {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut net = Sequential::new();
    net.push(Dense::new(IN_DIM, HIDDEN, Activation::Relu, &mut rng));
    for i in 0..DEPTH {
        if dropout {
            net.push(Dropout::new(HIDDEN, 0.25, i as u64));
        }
        net.push(Dense::new(HIDDEN, HIDDEN, Activation::Relu, &mut rng));
    }
    if dropout {
        net.push(Dropout::new(HIDDEN, 0.25, 0xD0));
    }
    net.push(Dense::new(HIDDEN, 4, Activation::Identity, &mut rng));
    net
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One timing slice: seconds/call over `iters` calls.
fn slice_secs(iters: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

struct Row {
    precision: &'static str,
    rows: usize,
    /// One-shot `forward_eval`: compile + one run, either precision.
    dynamic_us: f64,
    /// Steady-state `Plan::run`.
    fused_us: f64,
    steady_allocs: usize,
}

fn bench_variant(model: PlanModel<'_>, rows: usize, precision: &'static str) -> Row {
    let x = Matrix::from_fn(rows, IN_DIM, |r, c| ((r * IN_DIM + c) as f32 * 0.29).sin());
    let iters = 2048 / rows.max(1);
    let reps = 9;

    let forward_eval = |x: &Matrix| match model {
        PlanModel::F32(net) => net.forward_eval(x),
        PlanModel::Int8(qm) => qm.forward_eval(x),
    };
    let reference = match model {
        PlanModel::F32(net) => net.layers().iter().fold(x.clone(), |cur, l| l.forward_eval(&cur)),
        PlanModel::Int8(qm) => qm.forward_eval(&x),
    };

    let mut plan =
        Plan::compile(model, rows, IN_DIM, PlanOptions::default()).expect("bench model plans");
    let mut out = Matrix::default();
    plan.run(model, &x, &mut out); // warm-up
    assert_eq!(bits(&out), bits(&reference), "plan must match the reference");

    // Interleaved best-of: one forward_eval and one plan slice per rep,
    // so slow drift hits both alike and divides out.
    let (mut dynamic_us, mut fused_us) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        dynamic_us = dynamic_us.min(slice_secs(iters, || {
            std::hint::black_box(forward_eval(&x));
        }));
        fused_us = fused_us.min(slice_secs(iters, || {
            plan.run(model, &x, &mut out);
            std::hint::black_box(&out);
        }));
    }

    // count allocations across a steady-state burst
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..8 {
        plan.run(model, &x, &mut out);
    }
    ARMED.store(false, Ordering::SeqCst);
    let steady_allocs = ALLOCS.load(Ordering::SeqCst);

    Row { precision, rows, dynamic_us: dynamic_us * 1e6, fused_us: fused_us * 1e6, steady_allocs }
}

fn main() {
    // Single kernel thread: the zero-alloc contract covers the
    // single-threaded path, and mobile-tier batches never cross the
    // parallel GEMM threshold anyway.
    mdl_core::tensor::kernel::set_threads(1);

    let net = model(true);
    let stripped = model(false);
    let qm = QuantizedModel::from_model(&stripped).expect("stripped bench model quantizes");

    let mut rows = Vec::new();
    for &b in &BATCHES {
        rows.push(bench_variant(PlanModel::F32(&net), b, "f32"));
    }
    for &b in &BATCHES {
        rows.push(bench_variant(PlanModel::Int8(&qm), b, "int8"));
    }

    print_table(
        "planned executor: steady-state µs/batch (interleaved best of 9)",
        &["precision", "batch", "forward_eval", "Plan::run", "speedup", "allocs"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.precision.to_string(),
                    r.rows.to_string(),
                    format!("{:.1}", r.dynamic_us),
                    format!("{:.1}", r.fused_us),
                    format!("{:.2}x", r.dynamic_us / r.fused_us),
                    r.steady_allocs.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    for r in &rows {
        assert_eq!(
            r.steady_allocs, 0,
            "{} batch {} plan allocated in steady state",
            r.precision, r.rows
        );
    }
    let b8 = |precision: &str| {
        rows.iter().find(|r| r.precision == precision && r.rows == 8).expect("benched combination")
    };
    let f32_b8 = b8("f32").dynamic_us / b8("f32").fused_us;
    let int8_b8_us = b8("int8").fused_us;
    assert!(
        f32_b8 >= F32_SPEEDUP_FLOOR_B8,
        "f32 plan at batch 8 is {f32_b8:.2}x forward_eval — the plan must never lose to it"
    );

    // --- JSON artifact ---
    let mut json = String::from("{\n  \"benchmark\": \"plan\",\n  \"batches\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"precision\": \"{}\", \"batch\": {}, \"dynamic_us\": {:.2}, \
             \"fused_us\": {:.2}, \"steady_allocs\": {}}}",
            r.precision, r.rows, r.dynamic_us, r.fused_us, r.steady_allocs
        );
        let _ = writeln!(json, "{}", if i + 1 < rows.len() { "," } else { "" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"plan_speedup_f32_b8\": {f32_b8:.3},");
    let _ = writeln!(json, "  \"plan_int8_b8_us\": {int8_b8_us:.2},");
    let _ = writeln!(json, "  \"plan_bit_identical_to_dynamic\": true,");
    let _ = writeln!(json, "  \"plan_zero_alloc_steady_state\": true");
    json.push_str("}\n");
    std::fs::write("BENCH_plan.json", &json).expect("write BENCH_plan.json");
    println!("\nwrote BENCH_plan.json");
}
