//! Steady-state planned execution performs **zero heap allocation**, and
//! so does the single-worker blocked GEMM a training step runs.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up run (which may grow thread-local kernel pack buffers and the
//! caller's output matrix to capacity), repeated `Plan::run` calls on
//! both precisions must allocate nothing — and a plan that holds a generic
//! op allocates exactly what that one layer's own `forward_eval` does, so
//! the arena ops around it stay allocation-free. This file is its own test
//! binary because a global allocator is process-wide, and it holds a
//! single `#[test]` so no unrelated test-harness allocation races the
//! counting window.

use mdl_core::nn::{BiGru, Lstm};
use mdl_core::prelude::*;
use mdl_core::tensor::kernel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Counts allocations (and reallocations) while armed.
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

/// Runs `plan` once armed and returns how many allocations it made.
fn count_allocs(mut run: impl FnMut()) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    run();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn planned_execution_is_zero_alloc_in_steady_state() {
    // Threaded GEMM workers allocate their own pack buffers per call;
    // the zero-alloc guarantee is for the single-threaded kernel path
    // (thread-local packs are grown once during warm-up and reused).
    kernel::set_threads(1);

    // 64·64·64 takes the blocked, packed path on one worker: the parallel
    // helper spawns nothing and the pack buffers are the thread's own
    let (a, b) = (vec![0.5f32; 64 * 64], vec![-0.25f32; 64 * 64]);
    let mut c = vec![0.0f32; 64 * 64];
    let mut product =
        || kernel::gemm(kernel::Trans::N, kernel::Trans::N, 64, 64, 64, &a, &b, &mut c, false);
    product(); // warm-up
    let n = count_allocs(|| {
        for _ in 0..4 {
            product();
        }
    });
    assert_eq!(n, 0, "blocked GEMM allocated {n} times in steady state");

    let mut rng = StdRng::seed_from_u64(0xA110C);
    let mut net = Sequential::new();
    net.push(Gru::new(12, 16, &mut rng));
    net.push(Lstm::new(16, 14, &mut rng));
    net.push(Dense::new(14, 24, Activation::Relu, &mut rng));
    net.push(Dense::new(24, 5, Activation::Identity, &mut rng));
    let rows = 6;
    let x = Matrix::from_fn(rows, 12, |r, c| ((r * 12 + c) as f32 * 0.23).sin());

    let mut plan =
        Plan::compile(PlanModel::F32(&net), rows, 12, PlanOptions::default()).expect("plans");
    let mut out = Matrix::default();
    plan.run(PlanModel::F32(&net), &x, &mut out); // warm-up
    let n = count_allocs(|| {
        for _ in 0..4 {
            plan.run(PlanModel::F32(&net), &x, &mut out);
        }
    });
    assert_eq!(n, 0, "f32 plan allocated {n} times in steady state");

    let qm = QuantizedModel::from_model(&mut net).expect("stack quantizes");
    let mut plan =
        Plan::compile(PlanModel::Int8(&qm), rows, 12, PlanOptions::default()).expect("plans");
    plan.run(PlanModel::Int8(&qm), &x, &mut out); // warm-up
    let n = count_allocs(|| {
        for _ in 0..4 {
            plan.run(PlanModel::Int8(&qm), &x, &mut out);
        }
    });
    assert_eq!(n, 0, "int8 plan allocated {n} times in steady state");

    // Dense → generic (BiGru has no arena op) → Dense: every allocation of a
    // steady-state run is the BiGru's own `forward_eval`, none the plan's
    let mut mixed = Sequential::new();
    mixed.push(Dense::new(12, 10, Activation::Relu, &mut rng));
    mixed.push(BiGru::new(10, 4, &mut rng));
    mixed.push(Dense::new(8, 5, Activation::Identity, &mut rng));
    let bigru = &mixed.layers()[1];
    let staged = mixed.layers()[0].forward_eval(&x);
    let _ = bigru.forward_eval(&staged); // warm-up
    let own = count_allocs(|| {
        let _ = bigru.forward_eval(&staged);
    });
    assert!(own > 0, "the generic layer's forward_eval allocates");
    let mut plan =
        Plan::compile(PlanModel::F32(&mixed), rows, 12, PlanOptions::default()).expect("plans");
    plan.run(PlanModel::F32(&mixed), &x, &mut out); // warm-up
    let n = count_allocs(|| {
        for _ in 0..4 {
            plan.run(PlanModel::F32(&mixed), &x, &mut out);
        }
    });
    assert_eq!(n, 4 * own, "a generic op's plan allocated beyond its layer's own {own} per run");

    // sanity: the counter itself works — a one-shot forward_eval allocates
    let n = count_allocs(|| {
        let _ = qm.forward_eval(&x);
    });
    assert!(n > 0, "forward_eval should allocate; counting allocator may be broken");
}
