//! The GEMM kernel layer: cache-blocked, panel-packed, register-tiled
//! `f32` matrix multiplication, parallelized over output row panels.
//!
//! Every matrix product in the workspace — `Matrix::matmul`, the `_tn`/
//! `_nt` transpose variants and all `_into`/`_acc` forms — funnels through
//! [`gemm`], the single dispatch point of this module.
//!
//! # Blocking scheme
//!
//! The kernel follows the classic panel-packing decomposition:
//!
//! - **B packing**: the right-hand operand is repacked once per call into
//!   column panels of [`NR`] contiguous lanes, grouped by k-blocks of
//!   [`KC`] so the microkernel streams it linearly.
//! - **A packing**: each [`MR`]-row panel of the left operand is packed
//!   k-major (`MR` values per k) so one panel stays L1-resident while the
//!   microkernel sweeps all column panels.
//! - **Microkernel**: an `MR × NR` register tile accumulates over one
//!   k-block, then spills to the output; the next k-block reloads the
//!   partial sums and continues.
//!
//! Transposition is handled at *pack time* — the packed panel layout is
//! identical for all four `op(A)·op(B)` combinations, so the blocked loop
//! nest and microkernel are shared by `matmul`, `matmul_tn` and
//! `matmul_nt`.
//!
//! # Determinism contract
//!
//! For every output element, partial products are accumulated in strictly
//! ascending `k` order into a single accumulator (the register tile is
//! reloaded from the output between k-blocks, which is associatively
//! identical to one uninterrupted loop). Work is partitioned over output
//! row panels only, and the arithmetic performed for a panel is a pure
//! function of the operand shapes and values — never of the thread count
//! or partition. Results are therefore **bit-identical** for any
//! `threads ∈ {1, 2, …}` and bit-identical to the naive reference kernel
//! [`gemm_naive`]. The `exp_faults` bit-reproducibility assertions and the
//! fabric tests rely on this.
//!
//! One carve-out: the small path skips multiplications by exactly-zero A
//! elements (the ReLU-sparsity shortcut inherited from the pre-kernel
//! loops). A skipped contribution is exactly `+0.0`, so this is
//! bit-transparent for finite operands except signed-zero accumulators;
//! the path taken depends only on the operand *shapes*, so any given call
//! site remains bit-reproducible run to run and across thread counts.
//!
//! # Threading model
//!
//! Row panels are split into contiguous chunks, one per worker, spawned
//! on `std::thread::scope` threads. The worker count comes from
//! [`threads`] (the `MDL_THREADS` environment variable, defaulting to the
//! machine's available parallelism) and can be overridden at runtime with
//! [`set_threads`]. Products smaller than a fixed flop threshold, and all
//! skinny products below `SMALL_M` rows — gemv RNN timesteps and
//! micro-batched inference, where packing B would dominate — stay on the
//! calling thread with no packing and no heap allocation.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

#[path = "kernel_i8.rs"]
pub mod int8;
#[path = "kernel_profile.rs"]
pub mod profile;

/// Microkernel row tile: output rows computed together per panel.
pub const MR: usize = 4;
/// Microkernel column tile: contiguous output lanes per panel.
pub const NR: usize = 16;
/// k-block size: one `MR × KC` A-panel (4 KiB) stays L1-resident while
/// the microkernel sweeps the column panels of the same k-block.
const KC: usize = 256;

/// Products with fewer multiply–accumulates than this run on the calling
/// thread without packing (the gemv/small-matrix fast path).
const SMALL_MACS: usize = 8 * 1024;
/// Products with fewer rows than this also take the small path: packing
/// all of B costs `k·n` writes amortized over only `m / MR` panel sweeps,
/// which measures slower than streaming B until roughly this many rows
/// (micro-batched inference is the m ≤ 8 extreme of this regime).
const SMALL_M: usize = 32;
/// Products with fewer multiply–accumulates than this are never threaded;
/// below it, spawn overhead dominates any speedup.
const PAR_MIN_MACS: usize = 1 << 20;

/// A concretely-typed `None` for the generic `epi` parameter of
/// [`gemm_bias_act`]: unfused call sites pass this so type inference has
/// an epilogue type to name (the function pointer is never called).
pub const NO_EPI: Option<&fn(f32) -> f32> = None;

/// Whether an operand participates as itself or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    N,
    /// Use the operand transposed (handled at pack time, never
    /// materialised).
    T,
}

static THREADS: AtomicUsize = AtomicUsize::new(0);

/// The kernel's worker-thread count.
///
/// Resolved once from the `MDL_THREADS` environment variable (values `< 1`
/// are ignored), falling back to the machine's available parallelism;
/// afterwards it is whatever the last [`set_threads`] call installed.
pub fn threads() -> usize {
    let t = THREADS.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let resolved = std::env::var("MDL_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Overrides the worker-thread count (clamped to at least 1).
///
/// Changing the count never changes results — see the determinism
/// contract in the module docs — only how row panels are partitioned.
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

thread_local! {
    /// Reused packing buffers (B panels, A panel) so steady-state calls
    /// from a training loop allocate nothing.
    static PACK: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

#[inline(always)]
fn a_at(a: &[f32], ta: Trans, m: usize, k: usize, i: usize, kk: usize) -> f32 {
    match ta {
        Trans::N => {
            debug_assert!(i < m);
            a[i * k + kk]
        }
        Trans::T => {
            let _ = m;
            a[kk * m + i]
        }
    }
}

#[inline(always)]
fn b_at(b: &[f32], tb: Trans, k: usize, n: usize, kk: usize, j: usize) -> f32 {
    match tb {
        Trans::N => {
            let _ = k;
            b[kk * n + j]
        }
        Trans::T => b[j * k + kk],
    }
}

/// Computes `out = op(A)·op(B)` (or `out += …` when `acc` is true) where
/// `op(A)` is `m × k` and `op(B)` is `k × n`, all row-major slices.
///
/// `A` is stored `m × k` for [`Trans::N`] and `k × m` for [`Trans::T`];
/// `B` is stored `k × n` for [`Trans::N`] and `n × k` for [`Trans::T`].
/// This is the single dispatch point behind every `Matrix` product.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
#[allow(clippy::too_many_arguments)] // BLAS-style signature: the arity is the interface
pub fn gemm(
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    acc: bool,
) {
    assert_eq!(a.len(), m * k, "A buffer length mismatch");
    assert_eq!(b.len(), k * n, "B buffer length mismatch");
    assert_eq!(out.len(), m * n, "output buffer length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !acc {
            out.fill(0.0);
        }
        return;
    }
    let profiling = profile::is_enabled();
    let t0 = if profiling { profile::clock_now_ns() } else { 0 };
    let macs = m * n * k;
    if macs <= SMALL_MACS || m < SMALL_M {
        gemm_small(ta, tb, m, n, k, a, b, out, acc, NO_EPI);
    } else {
        gemm_blocked(ta, tb, m, n, k, a, b, out, acc, NO_EPI);
    }
    if profiling {
        profile::tally(ta, tb, m, n, k, profile::clock_now_ns().saturating_sub(t0));
    }
}

/// Fused `out = epi(A·B + bias)` for row-major `A (m × k)`, `B (k × n)`
/// and a per-column `bias` broadcast over rows.
///
/// The bias *seeds* each output row before accumulation — the exact
/// protocol of `Matrix::matmul_bias_into` — and the optional epilogue
/// (the activation) is applied to each row right after its accumulation
/// completes, replacing a separate `map_mut` sweep. Both choices keep
/// the result **bit-identical** to the unfused `matmul_bias_into` +
/// elementwise-activation sequence: the dispatch
/// between the small and blocked paths depends only on the shapes (the
/// same rule as [`gemm`]), the accumulation order per element is
/// unchanged, and the epilogue touches each element exactly once after
/// its final partial product.
///
/// The epilogue is a generic bound, not a trait object, so each call
/// site monomorphizes to a direct (inlinable, vectorizable) call — an
/// indirect call per output element would cost more than the saved
/// memory pass. Unfused callers pass [`NO_EPI`].
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
#[allow(clippy::too_many_arguments)] // BLAS-style signature, mirrors `gemm`
pub fn gemm_bias_act<E: Fn(f32) -> f32 + Sync>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    epi: Option<&E>,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "A buffer length mismatch");
    assert_eq!(b.len(), k * n, "B buffer length mismatch");
    assert_eq!(bias.len(), n, "bias length mismatch");
    assert_eq!(out.len(), m * n, "output buffer length mismatch");
    for row in out.chunks_exact_mut(n.max(1)) {
        row.copy_from_slice(bias);
    }
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if let Some(f) = epi {
            for v in out.iter_mut() {
                *v = f(*v);
            }
        }
        return;
    }
    let profiling = profile::is_enabled();
    let t0 = if profiling { profile::clock_now_ns() } else { 0 };
    let macs = m * n * k;
    if macs <= SMALL_MACS || m < SMALL_M {
        gemm_small(Trans::N, Trans::N, m, n, k, a, b, out, true, epi);
    } else {
        gemm_blocked(Trans::N, Trans::N, m, n, k, a, b, out, true, epi);
    }
    if profiling {
        profile::tally(Trans::N, Trans::N, m, n, k, profile::clock_now_ns().saturating_sub(t0));
    }
}

/// The naive reference kernel: a plain triple loop with a single
/// accumulator per output element, ascending in `k`.
///
/// Property tests and the `exp_kernels` experiment compare the blocked
/// kernel against this; it intentionally mirrors the pre-kernel-layer
/// `Matrix::matmul` loops.
#[allow(clippy::too_many_arguments)] // mirrors `gemm` so the two are drop-in comparable
pub fn gemm_naive(
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    acc: bool,
) {
    assert_eq!(a.len(), m * k, "A buffer length mismatch");
    assert_eq!(b.len(), k * n, "B buffer length mismatch");
    assert_eq!(out.len(), m * n, "output buffer length mismatch");
    for i in 0..m {
        for j in 0..n {
            let mut s = if acc { out[i * n + j] } else { 0.0 };
            for kk in 0..k {
                s += a_at(a, ta, m, k, i, kk) * b_at(b, tb, k, n, kk, j);
            }
            out[i * n + j] = s;
        }
    }
}

/// Allocation-free path for single rows and tiny products: row-major
/// traversal with the same ascending-k accumulation order as the blocked
/// kernel, so the dispatch choice never changes results. A fused
/// epilogue, when given, runs on each row as soon as it completes.
#[allow(clippy::too_many_arguments)]
fn gemm_small<E: Fn(f32) -> f32 + Sync>(
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    acc: bool,
    epi: Option<&E>,
) {
    if !acc {
        out.fill(0.0);
    }
    if tb == Trans::N {
        // axpy form: the inner loop is contiguous in both B and out.
        // Zero A elements are skipped — on ReLU-sparse activations (the
        // micro-batched inference hot path) this roughly halves the work.
        // A zero contribution is exactly `+0.0` per lane, so the skip is
        // bit-transparent except for non-finite B or signed-zero
        // accumulators (`-0.0 + 0.0` would round to `+0.0`).
        for i in 0..m {
            let out_row = &mut out[i * n..(i + 1) * n];
            for kk in 0..k {
                let av = a_at(a, ta, m, k, i, kk);
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += av * bv;
                }
            }
        }
        if let Some(f) = epi {
            for v in out[..m * n].iter_mut() {
                *v = f(*v);
            }
        }
    } else {
        // B transposed: dot products over contiguous B rows.
        for i in 0..m {
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                let mut s = out[i * n + j];
                match ta {
                    Trans::N => {
                        let a_row = &a[i * k..(i + 1) * k];
                        for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                            s += av * bv;
                        }
                    }
                    Trans::T => {
                        for (kk, &bv) in b_row.iter().enumerate() {
                            s += a[kk * m + i] * bv;
                        }
                    }
                }
                out[i * n + j] = s;
            }
        }
        if let Some(f) = epi {
            for v in out[..m * n].iter_mut() {
                *v = f(*v);
            }
        }
    }
}

/// Packs `op(B)` into `[k-block][column panel][k][NR]` order, zero-padding
/// the last panel to `NR` lanes.
fn pack_b(tb: Trans, k: usize, n: usize, b: &[f32], pb: &mut Vec<f32>) {
    let npan = n.div_ceil(NR);
    pb.clear();
    pb.resize(k * npan * NR, 0.0);
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        let block_base = pc * npan * NR;
        for jp in 0..npan {
            let j0 = jp * NR;
            let lanes = NR.min(n - j0);
            let panel = &mut pb[block_base + jp * kc * NR..block_base + (jp + 1) * kc * NR];
            for kk in 0..kc {
                let dst = &mut panel[kk * NR..kk * NR + NR];
                for (jj, d) in dst.iter_mut().enumerate().take(lanes) {
                    *d = b_at(b, tb, k, n, pc + kk, j0 + jj);
                }
            }
        }
        pc += kc;
    }
}

/// Packs one `MR`-row panel of `op(A)` k-major (`MR` values per k),
/// zero-padding missing rows.
fn pack_a_panel(ta: Trans, m: usize, k: usize, a: &[f32], i0: usize, ap: &mut [f32]) {
    let rows = MR.min(m - i0);
    for kk in 0..k {
        let dst = &mut ap[kk * MR..kk * MR + MR];
        for (ii, d) in dst.iter_mut().enumerate() {
            *d = if ii < rows { a_at(a, ta, m, k, i0 + ii, kk) } else { 0.0 };
        }
    }
}

/// Register-tiled inner kernel: accumulates one `MR × NR` tile over `kc`
/// steps, loading prior partial sums from `c` unless `first` clears them.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn microkernel(
    ap: &[f32],
    bp: &[f32],
    kc: usize,
    c: &mut [f32],
    n: usize,
    j0: usize,
    rows: usize,
    cols: usize,
    first: bool,
) {
    let mut tile = [[0.0f32; NR]; MR];
    if !first {
        for (r, row) in tile.iter_mut().enumerate().take(rows) {
            let src = &c[r * n + j0..r * n + j0 + cols];
            row[..cols].copy_from_slice(src);
        }
    }
    for kk in 0..kc {
        let av = &ap[kk * MR..kk * MR + MR];
        let bv = &bp[kk * NR..kk * NR + NR];
        for (r, row) in tile.iter_mut().enumerate() {
            let ar = av[r];
            for (t, &bb) in row.iter_mut().zip(bv.iter()) {
                *t += ar * bb;
            }
        }
    }
    for (r, row) in tile.iter().enumerate().take(rows) {
        let dst = &mut c[r * n + j0..r * n + j0 + cols];
        dst.copy_from_slice(&row[..cols]);
    }
}

/// Runs the blocked loop nest for row panels `[p_lo, p_hi)` of the output,
/// where `c` starts at row `p_lo * MR` of the full output matrix. A fused
/// epilogue, when given, runs on each row panel right after its last
/// k-block spills — while the panel is still cache-hot.
#[allow(clippy::too_many_arguments)]
fn run_row_panels<E: Fn(f32) -> f32 + Sync>(
    ta: Trans,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    pb: &[f32],
    c: &mut [f32],
    p_lo: usize,
    p_hi: usize,
    acc: bool,
    ap: &mut Vec<f32>,
    epi: Option<&E>,
) {
    let npan = n.div_ceil(NR);
    ap.clear();
    ap.resize(k * MR, 0.0);
    for p in p_lo..p_hi {
        let i0 = p * MR;
        let rows = MR.min(m - i0);
        pack_a_panel(ta, m, k, a, i0, ap);
        let c_panel = &mut c[(i0 - p_lo * MR) * n..];
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            let block_base = pc * npan * NR;
            for jp in 0..npan {
                let j0 = jp * NR;
                let cols = NR.min(n - j0);
                microkernel(
                    &ap[pc * MR..(pc + kc) * MR],
                    &pb[block_base + jp * kc * NR..block_base + (jp + 1) * kc * NR],
                    kc,
                    c_panel,
                    n,
                    j0,
                    rows,
                    cols,
                    pc == 0 && !acc,
                );
            }
            pc += kc;
        }
        if let Some(f) = epi {
            for v in c_panel[..rows * n].iter_mut() {
                *v = f(*v);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn gemm_blocked<E: Fn(f32) -> f32 + Sync>(
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    acc: bool,
    epi: Option<&E>,
) {
    let panels = m.div_ceil(MR);
    let nt = if m * n * k < PAR_MIN_MACS { 1 } else { threads().min(panels) };
    PACK.with(|bufs| {
        let (pb, ap) = &mut *bufs.borrow_mut();
        pack_b(tb, k, n, b, pb);
        if nt <= 1 {
            run_row_panels(ta, m, n, k, a, pb, out, 0, panels, acc, ap, epi);
            return;
        }
        // Contiguous panel chunks -> contiguous, disjoint row ranges of
        // the output; the chunk boundaries never influence the arithmetic
        // performed for a panel, so any split gives identical bits.
        let per = panels.div_ceil(nt);
        let pb_ref: &[f32] = pb;
        std::thread::scope(|scope| {
            let mut rest: &mut [f32] = out;
            let mut row0 = 0usize;
            for t in 0..nt {
                let p_lo = t * per;
                let p_hi = ((t + 1) * per).min(panels);
                if p_lo >= p_hi {
                    break;
                }
                let rows_end = (p_hi * MR).min(m);
                let (mine, tail) = rest.split_at_mut((rows_end - row0) * n);
                rest = tail;
                row0 = rows_end;
                scope.spawn(move || {
                    let mut ap = Vec::new();
                    run_row_panels(ta, m, n, k, a, pb_ref, mine, p_lo, p_hi, acc, &mut ap, epi);
                });
            }
        });
    });
}

#[cfg(test)]
pub(crate) static TEST_THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(m: usize, n: usize, seed: u64) -> Vec<f32> {
        // deterministic, sign-varied, non-trivial mantissas
        (0..m * n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
                ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    fn check_all_variants(m: usize, n: usize, k: usize) {
        let a_n = fill(m, k, 1);
        let b_n = fill(k, n, 2);
        let a_t = fill(k, m, 3); // stored k×m, used transposed
        let b_t = fill(n, k, 4); // stored n×k, used transposed
        for (ta, tb, a, b) in [
            (Trans::N, Trans::N, &a_n, &b_n),
            (Trans::T, Trans::N, &a_t, &b_n),
            (Trans::N, Trans::T, &a_n, &b_t),
            (Trans::T, Trans::T, &a_t, &b_t),
        ] {
            let mut fast = vec![f32::NAN; m * n];
            let mut slow = vec![f32::NAN; m * n];
            gemm(ta, tb, m, n, k, a, b, &mut fast, false);
            gemm_naive(ta, tb, m, n, k, a, b, &mut slow, false);
            assert_eq!(
                fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "blocked != naive for {m}x{n}x{k} ta={ta:?} tb={tb:?}"
            );
            // accumulate mode continues from prior contents
            let mut acc_fast = fill(m, n, 9);
            let mut acc_slow = acc_fast.clone();
            gemm(ta, tb, m, n, k, a, b, &mut acc_fast, true);
            gemm_naive(ta, tb, m, n, k, a, b, &mut acc_slow, true);
            assert_eq!(
                acc_fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                acc_slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "acc blocked != naive for {m}x{n}x{k} ta={ta:?} tb={tb:?}"
            );
        }
    }

    #[test]
    fn matches_naive_on_odd_shapes() {
        // 1×1, row/col vectors, tile boundaries ±1 and ragged interiors
        for (m, n, k) in [
            (1, 1, 1),
            (1, 7, 5),
            (9, 1, 3),
            (1, 1, 64),
            (MR, NR, 8),
            (MR + 1, NR + 1, 9),
            (MR - 1, NR - 1, 7),
            (2 * MR, 2 * NR, 33),
            (17, 33, 29),
            (40, 24, 64),
            (SMALL_M - 1, 40, 40),
            (SMALL_M, 40, 40),
            (65, 47, 101),
        ] {
            check_all_variants(m, n, k);
        }
    }

    /// The small path's zero-skip must stay bit-transparent on
    /// ReLU-style sparse inputs (exact `+0.0` activations).
    #[test]
    fn zero_skip_matches_naive_on_sparse_inputs() {
        let (m, n, k) = (8, 96, 96);
        let a: Vec<f32> = fill(m, k, 21).iter().map(|&v| v.max(0.0)).collect();
        let b = fill(k, n, 22);
        let mut fast = vec![f32::NAN; m * n];
        let mut slow = vec![f32::NAN; m * n];
        gemm(Trans::N, Trans::N, m, n, k, &a, &b, &mut fast, false);
        gemm_naive(Trans::N, Trans::N, m, n, k, &a, &b, &mut slow, false);
        assert_eq!(
            fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    /// The fused bias-seed + epilogue entry must be bit-identical to the
    /// unfused three-step sequence (seed bias rows, accumulate, map) on
    /// both the small and the blocked/threaded dispatch paths.
    #[test]
    fn fused_bias_act_matches_unfused_bitwise() {
        let relu = |v: f32| v.max(0.0);
        for (m, n, k) in [(1, 5, 3), (8, 96, 96), (31, 48, 64), (130, 70, 130)] {
            let a = fill(m, k, 31);
            let b = fill(k, n, 32);
            let bias = fill(1, n, 33);
            let mut unfused = vec![0.0f32; m * n];
            for row in unfused.chunks_exact_mut(n) {
                row.copy_from_slice(&bias);
            }
            gemm(Trans::N, Trans::N, m, n, k, &a, &b, &mut unfused, true);
            for v in unfused.iter_mut() {
                *v = relu(*v);
            }
            let mut fused = vec![f32::NAN; m * n];
            gemm_bias_act(m, n, k, &a, &b, &bias, Some(&relu), &mut fused);
            assert_eq!(
                fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                unfused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "fused != unfused at {m}x{n}x{k}"
            );
            // without an epilogue it is exactly matmul_bias_into
            let mut plain = vec![0.0f32; m * n];
            for row in plain.chunks_exact_mut(n) {
                row.copy_from_slice(&bias);
            }
            gemm(Trans::N, Trans::N, m, n, k, &a, &b, &mut plain, true);
            let mut fused_plain = vec![f32::NAN; m * n];
            gemm_bias_act(m, n, k, &a, &b, &bias, NO_EPI, &mut fused_plain);
            assert_eq!(
                fused_plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn fused_bias_act_handles_degenerate_k() {
        let bias = [1.0f32, -2.0];
        let mut out = [f32::NAN; 4];
        gemm_bias_act(2, 2, 0, &[], &[], &bias, Some(&|v: f32| v.max(0.0)), &mut out);
        assert_eq!(out, [1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn k_zero_clears_or_preserves() {
        let a: Vec<f32> = vec![];
        let b: Vec<f32> = vec![];
        let mut out = vec![3.0f32; 6];
        gemm(Trans::N, Trans::N, 2, 3, 0, &a, &b, &mut out, false);
        assert_eq!(out, vec![0.0; 6]);
        let mut out = vec![3.0f32; 6];
        gemm(Trans::N, Trans::N, 2, 3, 0, &a, &b, &mut out, true);
        assert_eq!(out, vec![3.0; 6]);
    }

    #[test]
    fn empty_output_is_a_noop() {
        let a = vec![1.0f32; 4];
        let b: Vec<f32> = vec![];
        let mut out: Vec<f32> = vec![];
        gemm(Trans::N, Trans::N, 0, 3, 0, &[], &b, &mut out, false);
        gemm(Trans::N, Trans::N, 2, 0, 2, &a, &[], &mut out, false);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let _guard = TEST_THREADS_LOCK.lock().unwrap();
        let before = threads();
        // large enough to cross PAR_MIN_MACS and actually spawn workers
        let (m, n, k) = (130, 70, 130);
        let a = fill(m, k, 11);
        let b = fill(k, n, 12);
        let mut reference = vec![0.0f32; m * n];
        set_threads(1);
        gemm(Trans::N, Trans::N, m, n, k, &a, &b, &mut reference, false);
        for nt in [2, 3, 8] {
            set_threads(nt);
            let mut out = vec![0.0f32; m * n];
            gemm(Trans::N, Trans::N, m, n, k, &a, &b, &mut out, false);
            assert_eq!(
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={nt} diverged from threads=1"
            );
        }
        set_threads(before);
    }

    #[test]
    fn threads_defaults_to_at_least_one() {
        assert!(threads() >= 1);
    }
}
