//! E13 — kernel layer: blocked/threaded GEMM throughput and the
//! bit-determinism contract.
//!
//! Measures GFLOP/s of the reference triple loop (`matmul_naive`) against
//! the cache-blocked kernel at 1, 2 and 4 worker threads for square GEMMs
//! up to 256³, times one DeepMood training epoch on the kernel-backed hot
//! path, and *hard-asserts* the determinism contract: blocked output is
//! bit-identical to naive, across every thread count, and a fixed-seed
//! training run produces byte-identical weights at 1 and 4 threads.
//! Throughput floors (≥1.5× naive single-threaded, ≥3× at 4 threads at
//! 256³) are asserted with wide margin: packing and register tiling alone
//! clear both even when the machine exposes a single core, so the checks
//! stay robust on shared CI runners.
//!
//! The f32 tier sweep times the blocked kernel on its dispatched SIMD tier
//! and again with the portable tier pinned — at 256³ (fits L2) and at the
//! wide-MLP training shape 128×1024×1024 in all three transpose forms a
//! backward pass uses (the 4 MiB packed weight does not fit L2, which is
//! where the loop nest, not the microkernel, decides the number) — asserts
//! the two tiers bit-identical, and emits their same-run ratio
//! `blocked_256_simd_over_portable`, the host-independent figure the gate
//! floors.
//!
//! The f32 skinny sweep times the row kernel behind every product under
//! 32 rows: ReLU-sparse `m × 3072` activations (m ∈ {1, 2, 4, 8}) against
//! a 3072 × 3072 weight, in two regimes (asserted bit-identical to each
//! other; the row kernel has one tier). L3-resident reuses one 36 MiB
//! weight, so on a host whose last-level cache holds it every call after
//! the first streams it from that cache; DRAM-resident rotates through at
//! least 512 MiB of copies, so every call streams its weight from memory —
//! the regime of a host whose L3 cannot hold the serving model. A probe
//! that reuses one weight sees only the first regime on a host with a
//! large L3.
//!
//! The int8 sweep measures the quantized microkernel (`kernel::int8`) at
//! the same square shapes: dispatched (best available SIMD tier) and the
//! pinned scalar path, each asserted bit-identical to the naive i32
//! reference, with a ≥2× throughput floor over the *portable* f32 blocked
//! tier at 256³ whenever a SIMD tier is available.

use mdl_bench::print_table;
use mdl_core::prelude::*;
use mdl_core::tensor::kernel;
use std::fmt::Write as _;
use std::time::Instant;

const SEED: u64 = 77;
const SIZES: [usize; 3] = [64, 128, 256];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Best-of-`reps` wall time for `f`, in seconds.
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn gflops(n: usize, secs: f64) -> f64 {
    (2.0 * (n * n * n) as f64) / secs / 1e9
}

struct SizeResult {
    n: usize,
    naive: f64,
    blocked: Vec<(usize, f64)>, // (threads, gflops)
}

fn bench_gemms(rng: &mut StdRng) -> Vec<SizeResult> {
    let mut results = Vec::new();
    for &n in &SIZES {
        let a = Init::Xavier.sample(n, n, rng);
        let b = Init::Xavier.sample(n, n, rng);
        let reps = if n <= 128 { 7 } else { 5 };

        let reference = a.matmul_naive(&b);
        let mut out = Matrix::zeros(n, n);
        let t_ref = time_best(reps, || {
            std::hint::black_box(a.matmul_naive(&b));
        });

        let mut blocked = Vec::new();
        for &t in &THREAD_COUNTS {
            kernel::set_threads(t);
            let secs = time_best(reps, || {
                a.matmul_into(&b, &mut out);
                std::hint::black_box(&out);
            });
            // determinism contract: bit-identical to the naive reference at
            // every thread count
            assert_eq!(
                out.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "blocked GEMM at {t} threads must be bit-identical to naive (n={n})"
            );
            blocked.push((t, gflops(n, secs)));
        }
        kernel::set_threads(1);
        results.push(SizeResult { n, naive: gflops(n, t_ref), blocked });
    }
    results
}

/// The tier `gemm_blocked` dispatches to right now — the same rule as
/// its own, which is private.
fn f32_simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if !kernel::int8::force_scalar() && is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// One blocked product timed on the dispatched and the pinned-portable
/// tier (GFLOP/s each), asserted bit-identical between the two.
struct TierResult {
    label: String,
    simd: f64,
    portable: f64,
}

/// `op(A)·op(B)` for an `m × n × k` product through the `Matrix` entry the
/// training loop uses for that transpose pair.
fn bench_tiers(form: &str, m: usize, n: usize, k: usize, rng: &mut StdRng) -> TierResult {
    type Product = fn(&Matrix, &Matrix, &mut Matrix);
    let (a_shape, b_shape, product): (_, _, Product) = match form {
        "nn" => ((m, k), (k, n), Matrix::matmul_into),
        "tn" => ((k, m), (k, n), Matrix::matmul_tn_into),
        "nt" => ((m, k), (n, k), Matrix::matmul_nt_into),
        _ => unreachable!("unknown transpose form {form}"),
    };
    let a = Init::Xavier.sample(a_shape.0, a_shape.1, rng);
    let b = Init::Xavier.sample(b_shape.0, b_shape.1, rng);
    let mut out = Matrix::zeros(m, n);
    let run = |out: &mut Matrix| {
        let secs = time_best(7, || {
            product(&a, &b, out);
            std::hint::black_box(&*out);
        });
        2.0 * (m * n * k) as f64 / secs / 1e9
    };
    let pinned = kernel::int8::force_scalar();
    let simd = run(&mut out);
    let bits: Vec<u32> = out.as_slice().iter().map(|v| v.to_bits()).collect();
    kernel::int8::set_force_scalar(true);
    let portable = run(&mut out);
    kernel::int8::set_force_scalar(pinned);
    assert!(
        out.as_slice().iter().zip(&bits).all(|(v, &b)| v.to_bits() == b),
        "f32 SIMD and portable tiers must agree bit for bit ({form} {m}x{n}x{k})"
    );
    TierResult { label: format!("{form} {m}x{n}x{k}"), simd, portable }
}

/// Width and depth of the skinny sweep's weight: the serving model's
/// hidden layer.
const SKINNY_DIM: usize = 3072;
/// Bytes of weight copies the DRAM-resident regime rotates through.
const SKINNY_DRAM_BYTES: usize = 512 << 20;

/// One skinny row count: µs per product in each regime.
struct SkinnyResult {
    m: usize,
    l3: f64,
    dram: f64,
}

/// The f32 skinny sweep (see the module docs); returns the rows and the
/// MiB the DRAM-resident regime rotated through.
fn bench_skinny(rng: &mut StdRng) -> (Vec<SkinnyResult>, usize) {
    let d = SKINNY_DIM;
    let copies = SKINNY_DRAM_BYTES.div_ceil(d * d * 4);
    let weights = vec![Init::Xavier.sample(d, d, rng); copies];
    let reps = 2 * copies;
    let mut results = Vec::new();
    for m in [1, 2, 4, 8] {
        let mut x = Init::Xavier.sample(m, d, rng);
        x.map_mut(|v| v.max(0.0));
        let mut out = Matrix::zeros(m, d);
        // best-of-`reps` µs per product over `pick(rep)`'s weights, and the
        // output bits of the last one
        let mut run = |pick: &dyn Fn(usize) -> usize| {
            x.matmul_into(&weights[pick(0)], &mut out);
            let mut best = f64::INFINITY;
            for rep in 0..reps {
                let w = &weights[pick(rep)];
                let t0 = Instant::now();
                x.matmul_into(w, &mut out);
                best = best.min(t0.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(&out);
            }
            (best, out.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>())
        };
        let (l3, l3_bits) = run(&|_| 0);
        let (dram, dram_bits) = run(&|rep| (rep + 1) % copies);
        assert_eq!(l3_bits, dram_bits, "weight copies must give one answer (m={m})");
        results.push(SkinnyResult { m, l3, dram });
    }
    (results, (copies * d * d * 4) >> 20)
}

struct Int8Result {
    n: usize,
    scalar_gops: f64,
    simd_gops: f64,
}

/// Deterministic i8 fill (the vendored rand has no `Distribution<i8>`).
fn fill_i8(buf: &mut [i8], seed: u64) {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    for v in buf {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *v = (state >> 56) as i8;
    }
}

/// Int8 GEMM sweep over dense `n × n` activations and an input-major
/// `n × n` weight: times the dispatched kernel and the pinned scalar
/// path at each size and hard-asserts both bit-identical to the naive
/// i32 reference.
fn bench_int8() -> Vec<Int8Result> {
    use mdl_core::tensor::kernel::int8;
    let mut results = Vec::new();
    for &n in &SIZES {
        let mut a = vec![0i8; n * n];
        let mut w = vec![0i8; n * n];
        fill_i8(&mut a, n as u64);
        fill_i8(&mut w, n as u64 + 1);
        let mut reference = vec![0i32; n * n];
        int8::gemm_i8_ref(n, n, n, &a, &w, &mut reference, false);
        let reps = if n <= 128 { 7 } else { 5 };

        let mut out = vec![0i32; n * n];
        let secs_simd = time_best(reps, || {
            int8::gemm_i8(n, n, n, &a, &w, &mut out, false);
            std::hint::black_box(&out);
        });
        assert_eq!(out, reference, "dispatched int8 GEMM must match the i32 reference (n={n})");

        let secs_scalar = time_best(reps, || {
            int8::gemm_i8_scalar(n, n, n, &a, &w, &mut out, false);
            std::hint::black_box(&out);
        });
        assert_eq!(out, reference, "scalar int8 GEMM must match the i32 reference (n={n})");

        results.push(Int8Result {
            n,
            scalar_gops: gflops(n, secs_scalar),
            simd_gops: gflops(n, secs_simd),
        });
    }
    results
}

/// One DeepMood epoch (GRU encoders + fusion head) on the kernel-backed
/// hot path, in seconds.
fn deepmood_epoch_seconds() -> f64 {
    use mdl_core::deepmood::train_and_evaluate;
    let mut rng = StdRng::seed_from_u64(SEED);
    let cohort = BiAffectDataset::generate(
        &BiAffectConfig { participants: 10, sessions_per_participant: 12, ..Default::default() },
        &mut rng,
    );
    let (train, test) = cohort.split(0.75, &mut rng);
    let epochs = 2;
    let config = DeepMoodConfig {
        fusion: FusionKind::FullyConnected { hidden: 16 },
        epochs,
        ..Default::default()
    };
    let t0 = Instant::now();
    let eval = train_and_evaluate(&train, &test, &config, &mut rng);
    let secs = t0.elapsed().as_secs_f64() / epochs as f64;
    assert!(eval.accuracy >= 0.0);
    secs
}

/// Trains a small MLP with the given kernel thread count; returns the
/// final parameter bytes.
fn train_param_bytes(threads: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let data = mdl_core::data::synthetic::gaussian_blobs(300, 3, 0.5, &mut rng);
    let mut model = Sequential::new();
    let mut net_rng = StdRng::seed_from_u64(SEED + 1);
    model.push(Dense::new(2, 48, Activation::Relu, &mut net_rng));
    model.push(Dense::new(48, 3, Activation::Identity, &mut net_rng));
    let mut opt = Adam::new(0.01);
    let mut fit_rng = StdRng::seed_from_u64(SEED + 2);
    let _ = fit_classifier(
        &mut model,
        &mut opt,
        &data.x,
        &data.y,
        &TrainConfig {
            epochs: 3,
            batch_size: 16,
            kernel_threads: Some(threads),
            ..Default::default()
        },
        &mut fit_rng,
    );
    model.param_vector().iter().map(|v| v.to_bits()).collect()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(SEED);

    let results = bench_gemms(&mut rng);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let best = r.blocked.iter().map(|&(_, g)| g).fold(0.0f64, f64::max);
            let mut row = vec![format!("{0}x{0}x{0}", r.n), format!("{:.2}", r.naive)];
            for &(_, g) in &r.blocked {
                row.push(format!("{g:.2}"));
            }
            row.push(format!("{:.2}x", best / r.naive));
            row
        })
        .collect();
    print_table(
        "f32 GEMM throughput, GFLOP/s (bit-identical across all variants)",
        &["shape", "naive", "blocked t=1", "blocked t=2", "blocked t=4", "best/naive"],
        &rows,
    );

    // f32 tier sweep: 256³ and the wide-MLP training shape, one thread
    let f32_level = f32_simd_level();
    let mut tiers = vec![bench_tiers("nn", 256, 256, 256, &mut rng)];
    for form in ["nn", "tn", "nt"] {
        tiers.push(bench_tiers(form, 128, 1024, 1024, &mut rng));
    }
    let tier_rows: Vec<Vec<String>> = tiers
        .iter()
        .map(|t| {
            vec![
                t.label.clone(),
                format!("{:.2}", t.portable),
                format!("{:.2}", t.simd),
                format!("{:.2}x", t.simd / t.portable),
            ]
        })
        .collect();
    print_table(
        &format!("f32 blocked GEMM by tier, GFLOP/s, t=1 (dispatch: {f32_level}; bit-identical)"),
        &["product", "portable", "dispatched", "ratio"],
        &tier_rows,
    );

    // f32 skinny sweep: the row kernel, cache- and memory-resident weights
    let (skinny, skinny_mib) = bench_skinny(&mut rng);
    let skinny_rows: Vec<Vec<String>> = skinny
        .iter()
        .map(|r| {
            vec![
                format!("{}x{SKINNY_DIM}x{SKINNY_DIM}", r.m),
                format!("{:.0}", r.l3),
                format!("{:.0}", r.dram),
                format!("{:.2}x", r.dram / r.l3),
            ]
        })
        .collect();
    print_table(
        &format!(
            "f32 skinny GEMM, ReLU-sparse rows, µs per product, t=1 \
             (DRAM = {skinny_mib} MiB of rotated weights; bit-identical)"
        ),
        &["product", "L3-resident", "DRAM-resident", "DRAM/L3"],
        &skinny_rows,
    );

    // int8 microkernel sweep vs the f32 blocked kernel
    let simd_level = mdl_core::tensor::kernel::int8::simd_level();
    let int8 = bench_int8();
    let int8_rows: Vec<Vec<String>> = int8
        .iter()
        .map(|r| {
            let f32_t1 = results
                .iter()
                .find(|g| g.n == r.n)
                .and_then(|g| g.blocked.iter().find(|&&(t, _)| t == 1).map(|&(_, g)| g))
                .unwrap_or(0.0);
            vec![
                format!("{0}x{0}x{0}", r.n),
                format!("{f32_t1:.2}"),
                format!("{:.2}", r.scalar_gops),
                format!("{:.2}", r.simd_gops),
                format!("{:.2}x", r.simd_gops / f32_t1),
            ]
        })
        .collect();
    print_table(
        &format!(
            "int8 GEMM throughput, GOPS (dispatch: {simd_level}; bit-identical to i32 reference)"
        ),
        &["shape", "f32 blocked t=1", "int8 scalar", "int8 dispatch", "int8/f32"],
        &int8_rows,
    );

    // training determinism across kernel thread counts
    let bytes_1 = train_param_bytes(1);
    let bytes_4 = train_param_bytes(4);
    assert_eq!(
        bytes_1, bytes_4,
        "fixed-seed training must produce byte-identical weights at 1 and 4 kernel threads"
    );
    println!("\ntraining determinism: weights byte-identical at 1 vs 4 kernel threads ✓");

    kernel::set_threads(1);
    let epoch_secs = deepmood_epoch_seconds();
    println!("DeepMood epoch (10×12 cohort, GRU hot path): {:.3} s", epoch_secs);

    let r256 = results.iter().find(|r| r.n == 256).expect("256 is benchmarked");
    let single = r256.blocked.iter().find(|&&(t, _)| t == 1).map(|&(_, g)| g).unwrap_or(0.0);
    let best = r256.blocked.iter().map(|&(_, g)| g).fold(0.0f64, f64::max);
    println!(
        "256³ speedup vs naive: {:.2}x single-threaded, {:.2}x best \
         (threaded wins require >1 physical core)",
        single / r256.naive,
        best / r256.naive
    );
    assert!(
        single / r256.naive >= 1.5,
        "blocked kernel must beat naive by >=1.5x single-threaded at 256³"
    );
    let t4 = r256.blocked.iter().find(|&&(t, _)| t == 4).map(|&(_, g)| g).unwrap_or(0.0);
    assert!(
        t4 / r256.naive >= 3.0,
        "kernel at 4 threads must beat naive by >=3x at 256³ (blocking alone clears this even on one core)"
    );

    let i256 = int8.iter().find(|r| r.n == 256).expect("256 is benchmarked");
    println!(
        "int8 256³: {:.2} GOPS dispatched ({simd_level}), {:.2} GOPS scalar, {:.2}x f32 blocked t=1",
        i256.simd_gops,
        i256.scalar_gops,
        i256.simd_gops / single
    );
    if simd_level != "scalar" {
        // against the portable f32 tier — the kernel this floor was set
        // on; the dispatched f32 tier is now within ~1.5× of int8 at 256³
        let portable = tiers[0].portable;
        assert!(
            i256.simd_gops >= 2.0 * portable,
            "int8 SIMD GEMM must be >=2x the portable f32 blocked kernel at 256³ \
             ({:.2} GOPS vs {portable:.2} GFLOP/s)",
            i256.simd_gops
        );
    }

    // --- JSON artifact ---
    let mut json = String::from("{\n  \"benchmark\": \"kernels\",\n  \"gemm\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(json, "    {{\"n\": {}, \"naive_gflops\": {:.3}", r.n, r.naive);
        for &(t, g) in &r.blocked {
            let _ = write!(json, ", \"blocked_t{t}_gflops\": {g:.3}");
        }
        let _ = writeln!(json, "}}{}", if i + 1 < results.len() { "," } else { "" });
    }
    json.push_str("  ],\n  \"int8\": [\n");
    for (i, r) in int8.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"scalar_gops\": {:.3}, \"simd_gops\": {:.3}}}",
            r.n, r.scalar_gops, r.simd_gops
        );
        let _ = writeln!(json, "{}", if i + 1 < int8.len() { "," } else { "" });
    }
    json.push_str("  ],\n  \"f32_tiers\": [\n");
    for (i, t) in tiers.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"product\": \"{}\", \"portable_gflops\": {:.3}, \"simd_gflops\": {:.3}}}",
            t.label, t.portable, t.simd
        );
        let _ = writeln!(json, "{}", if i + 1 < tiers.len() { "," } else { "" });
    }
    json.push_str("  ],\n  \"f32_skinny\": [\n");
    for (i, r) in skinny.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"m\": {}, \"l3_us\": {:.1}, \"dram_us\": {:.1}}}",
            r.m, r.l3, r.dram
        );
        let _ = writeln!(json, "{}", if i + 1 < skinny.len() { "," } else { "" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"f32_skinny_dram_mib\": {skinny_mib},");
    let _ = writeln!(json, "  \"f32_simd_level\": \"{f32_level}\",");
    let _ = writeln!(
        json,
        "  \"blocked_256_simd_over_portable\": {:.3},",
        tiers[0].simd / tiers[0].portable
    );
    let _ = writeln!(json, "  \"blocked_256_t1_gflops\": {single:.3},");
    let _ = writeln!(json, "  \"int8_256_gops\": {:.3},", i256.simd_gops);
    let _ = writeln!(json, "  \"int8_256_scalar_gops\": {:.3},", i256.scalar_gops);
    let _ = writeln!(json, "  \"int8_simd_level\": \"{simd_level}\",");
    let _ = writeln!(json, "  \"int8_bit_identical_simd_vs_scalar\": true,");
    let _ = writeln!(json, "  \"speedup_256_single_thread\": {:.3},", single / r256.naive);
    let _ = writeln!(json, "  \"speedup_256_best\": {:.3},", best / r256.naive);
    let _ = writeln!(json, "  \"deepmood_epoch_s\": {epoch_secs:.4},");
    let _ = writeln!(json, "  \"gemm_bit_identical_across_threads\": true,");
    let _ = writeln!(json, "  \"training_bytes_identical_1_vs_4_threads\": true");
    json.push_str("}\n");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("\nwrote BENCH_kernels.json");
}
