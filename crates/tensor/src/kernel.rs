//! The GEMM kernel layer: cache-blocked, panel-packed, register-tiled
//! `f32` matrix multiplication, parallelized over output row panels.
//!
//! Every matrix product in the workspace — `Matrix::matmul`, the `_tn`/
//! `_nt` transpose variants and all `_into`/`_acc` forms — funnels through
//! [`gemm`], the single dispatch point of this module.
//!
//! # Blocking scheme
//!
//! Three levels of blocking, each sized for one level of cache:
//!
//! - **B packing** (streamed from L2/L3): the right-hand operand is
//!   repacked once per call into column panels of [`NR`] contiguous lanes,
//!   grouped by k-blocks of `KC`. One `KC × NR` micro-panel is 16 KiB and
//!   stays **L1**-resident while it is multiplied against a whole A block.
//! - **A packing** (`MC`-row blocks, **L2**): `MC = 128` rows of the left
//!   operand are packed once, k-major in [`MR`]-row panels; the `MC × KC`
//!   slice in use during one k-block is 128 KiB and is re-read from L2 for
//!   every B micro-panel. The loop nest is `row block → k-block → B
//!   micro-panel → row panel`, so packed B is streamed once per *row
//!   block*, not once per 4-row panel.
//! - **Microkernel** (**registers**): an `MR × NR` tile accumulates over
//!   one k-block, then spills to the output; the next k-block reloads the
//!   partial sums and continues.
//!
//! Transposition is handled at *pack time* — the packed panel layout is
//! identical for all four `op(A)·op(B)` combinations, so the blocked loop
//! nest and microkernel are shared by `matmul`, `matmul_tn` and
//! `matmul_nt`.
//!
//! # SIMD tier
//!
//! The microkernel has two tiers fed by the same packed layouts: an
//! explicit AVX2 one (eight `ymm` accumulators, x86_64 only, chosen when
//! `is_x86_feature_detected!("avx2")` holds) and the portable loop the
//! compiler vectorizes for the build target. `MDL_FORCE_SCALAR` /
//! [`int8::set_force_scalar`] pins the portable tier, the same switch that
//! pins the int8 kernel's scalar path. Ragged edge tiles are staged
//! through a full-size stack tile, so both tiers only ever compute the
//! full `MR × NR` shape.
//!
//! # Determinism contract
//!
//! For every output element, partial products are accumulated in strictly
//! ascending `k` order into a single accumulator (the register tile is
//! reloaded from the output between k-blocks, which is associatively
//! identical to one uninterrupted loop). Work is partitioned over output
//! row panels only, and the arithmetic performed for a panel is a pure
//! function of the operand shapes and values — never of the thread count,
//! the partition or the SIMD tier. Results are therefore **bit-identical**
//! for any `threads ∈ {1, 2, …}`, on either tier, and bit-identical to the
//! naive reference kernel [`gemm_naive`]. The `exp_faults`
//! bit-reproducibility assertions and the fabric tests rely on this.
//!
//! The AVX2 tier multiplies **then** adds (`_mm256_mul_ps`,
//! `_mm256_add_ps`) — never FMA. A fused multiply-add rounds once where
//! `acc + a * b` rounds twice, so an FMA tier would differ from
//! `gemm_naive` in the last bit and every pinned f32 hash, golden trace
//! and fleet digest in `tests/` would have to be re-pinned, with the
//! portable tier and the reference rewritten around `f32::mul_add` (a
//! libm call where the target has no FMA) to follow it.
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
//! Row panels are split into contiguous chunks, one per worker of a
//! [`par::for_each_claimed`] call; each blocks its chunk by `MC` in its
//! thread's packed-A buffer and shares the packed B. The worker count is
//! [`threads`] (`MDL_THREADS`, defaulting to the available parallelism;
//! [`set_threads`] overrides it), and one inside another call's worker or
//! below a fixed flop threshold: one worker spawns nothing. Those and all
//! skinny products below `SMALL_M` rows — gemv RNN timesteps and
//! micro-batched inference, where packing B would dominate — allocate
//! nothing.

use crate::par;
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
/// k-block size: one `KC × NR` B micro-panel (16 KiB) stays L1-resident
/// while the microkernel sweeps the row panels of an A block.
const KC: usize = 256;
/// Row-block size: `MC` rows of A are packed once (`MC × KC` = 128 KiB of
/// them live per k-block, L2-resident) and reused against every B
/// micro-panel.
const MC: usize = 128;

/// Products with fewer multiply–accumulates than this run on the calling
/// thread without packing (the gemv/small-matrix fast path).
const SMALL_MACS: usize = 8 * 1024;
/// Products with fewer rows than this also take the small path: packing
/// all of B costs `k·n` writes amortized over only `m / MR` panel sweeps,
/// which measures slower than streaming B until roughly this many rows
/// (micro-batched inference is the m ≤ 8 extreme of this regime).
const SMALL_M: usize = 32;
/// Products with fewer multiply–accumulates than this run on one worker;
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
    /// Reused packing buffers (the caller's B panels, each worker's A
    /// block) so steady-state calls from a training loop allocate nothing.
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
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
        let op = profile::Op::F32(ta, tb);
        profile::tally(op, m, n, k, profile::clock_now_ns().saturating_sub(t0));
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
        let op = profile::Op::F32(Trans::N, Trans::N);
        profile::tally(op, m, n, k, profile::clock_now_ns().saturating_sub(t0));
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

/// Makes a reused packing buffer at least `len` long. It never shrinks: a
/// training loop alternates shapes, and re-growing would zero-fill the
/// whole difference on every large call.
fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Packs `op(B)` into `[k-block][column panel][k][NR]` order. Rows are
/// copied whole and only the pad lanes of a ragged last panel are zeroed,
/// so the reused buffer is never cleared.
fn pack_b(tb: Trans, k: usize, n: usize, b: &[f32], pb: &mut Vec<f32>) {
    let npan = n.div_ceil(NR);
    grow(pb, k * npan * NR);
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        for jp in 0..npan {
            let j0 = jp * NR;
            let lanes = NR.min(n - j0);
            let panel = &mut pb[pc * npan * NR + jp * kc * NR..][..kc * NR];
            match tb {
                Trans::N => {
                    for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
                        dst[..lanes].copy_from_slice(&b[(pc + kk) * n + j0..][..lanes]);
                    }
                }
                // stored n×k: read each row contiguously, scatter it down
                // one lane of the panel
                Trans::T => {
                    for jj in 0..lanes {
                        let src = &b[(j0 + jj) * k + pc..][..kc];
                        for (dst, &v) in panel.chunks_exact_mut(NR).zip(src) {
                            dst[jj] = v;
                        }
                    }
                }
            }
            if lanes < NR {
                panel.chunks_exact_mut(NR).for_each(|dst| dst[lanes..].fill(0.0));
            }
        }
    }
}

/// Packs one `MR`-row panel of `op(A)` k-major (`MR` values per k),
/// zero-padding missing rows.
fn pack_a_panel(ta: Trans, m: usize, k: usize, a: &[f32], i0: usize, ap: &mut [f32]) {
    let rows = MR.min(m - i0);
    if rows < MR {
        ap.fill(0.0);
    }
    match ta {
        // stored k×m: each k holds the panel's rows contiguously
        Trans::T => {
            for (kk, dst) in ap.chunks_exact_mut(MR).enumerate() {
                dst[..rows].copy_from_slice(&a[kk * m + i0..][..rows]);
            }
        }
        // stored m×k: read each row contiguously, scatter it down one lane
        Trans::N => {
            for ii in 0..rows {
                let src = &a[(i0 + ii) * k..][..k];
                for (dst, &v) in ap.chunks_exact_mut(MR).zip(src) {
                    dst[ii] = v;
                }
            }
        }
    }
}

/// The AVX2 tier of [`tile_portable`]: eight `ymm` accumulators hold the
/// tile; each k does one `mul` then one `add` per accumulator — two
/// roundings, exactly what the portable tier's `*t += a * b` does.
///
/// # Safety
///
/// The CPU must support AVX2, `ap.len() >= kc * MR`, `bp.len() >= kc * NR`
/// and `c.len() >= (MR - 1) * ldc + NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2(ap: &[f32], bp: &[f32], kc: usize, c: &mut [f32], ldc: usize, first: bool) {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_setzero_ps(); 2 * MR];
    if !first {
        for (r, pair) in acc.chunks_exact_mut(2).enumerate() {
            let row = c[r * ldc..].as_ptr();
            // SAFETY: r < MR, so `row` has at least NR = 16 readable floats
            // by the caller's bound on `c.len()`.
            unsafe {
                pair[0] = _mm256_loadu_ps(row);
                pair[1] = _mm256_loadu_ps(row.add(8));
            }
        }
    }
    for (av, bv) in ap[..kc * MR].chunks_exact(MR).zip(bp[..kc * NR].chunks_exact(NR)) {
        // SAFETY: `bv` is a chunk of exactly NR = 16 floats.
        let (b0, b1) =
            unsafe { (_mm256_loadu_ps(bv.as_ptr()), _mm256_loadu_ps(bv.as_ptr().add(8))) };
        for (pair, &ar) in acc.chunks_exact_mut(2).zip(av) {
            let a = _mm256_set1_ps(ar);
            pair[0] = _mm256_add_ps(pair[0], _mm256_mul_ps(a, b0));
            pair[1] = _mm256_add_ps(pair[1], _mm256_mul_ps(a, b1));
        }
    }
    for (r, pair) in acc.chunks_exact(2).enumerate() {
        let row = c[r * ldc..].as_mut_ptr();
        // SAFETY: as for the loads — 16 writable floats from `row`.
        unsafe {
            _mm256_storeu_ps(row, pair[0]);
            _mm256_storeu_ps(row.add(8), pair[1]);
        }
    }
}

/// Accumulates `kc` steps into the full `MR × NR` tile stored in `c` at
/// row stride `ldc`; `first` starts from zero instead of `c`'s contents.
#[inline(always)]
fn tile_portable(ap: &[f32], bp: &[f32], kc: usize, c: &mut [f32], ldc: usize, first: bool) {
    let mut tile = [[0.0f32; NR]; MR];
    if !first {
        for (r, row) in tile.iter_mut().enumerate() {
            row.copy_from_slice(&c[r * ldc..r * ldc + NR]);
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
    for (r, row) in tile.iter().enumerate() {
        c[r * ldc..r * ldc + NR].copy_from_slice(row);
    }
}

/// Register-tiled inner kernel: accumulates one `MR × NR` tile over `kc`
/// steps, loading prior partial sums from `c` unless `first` clears them.
/// A full tile is updated in place; a ragged one is staged through a
/// zeroed stack tile, so both tiers only ever compute the full shape.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn microkernel(
    simd: bool,
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
    let full = rows == MR && cols == NR;
    let mut stage = [0.0f32; MR * NR];
    if !full && !first {
        for r in 0..rows {
            stage[r * NR..r * NR + cols].copy_from_slice(&c[r * n + j0..r * n + j0 + cols]);
        }
    }
    let (t, ldc, first) = if full { (&mut c[j0..], n, first) } else { (&mut stage[..], NR, false) };
    assert!(ap.len() >= kc * MR && bp.len() >= kc * NR && t.len() >= (MR - 1) * ldc + NR);
    if simd {
        // SAFETY: `simd` is only set after AVX2 was detected (see
        // `gemm_blocked`); the assert above is the length contract.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            tile_avx2(ap, bp, kc, t, ldc, first)
        };
    } else {
        tile_portable(ap, bp, kc, t, ldc, first);
    }
    if !full {
        for r in 0..rows {
            c[r * n + j0..r * n + j0 + cols].copy_from_slice(&stage[r * NR..r * NR + cols]);
        }
    }
}

/// Runs the blocked loop nest for row panels `[p_lo, p_hi)` of the output,
/// where `c` starts at row `p_lo * MR` of the full output matrix: pack an
/// `MC`-row block of A, then for each k-block and each B micro-panel sweep
/// the block's row panels. A fused epilogue, when given, runs on each row
/// block right after its last k-block spills.
#[allow(clippy::too_many_arguments)]
fn run_row_panels<E: Fn(f32) -> f32 + Sync>(
    simd: bool,
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
    ap: &mut [f32],
    epi: Option<&E>,
) {
    let npan = n.div_ceil(NR);
    for b_lo in (p_lo..p_hi).step_by(MC / MR) {
        let b_hi = (b_lo + MC / MR).min(p_hi);
        for (p, panel) in (b_lo..b_hi).zip(ap.chunks_exact_mut(k * MR)) {
            pack_a_panel(ta, m, k, a, p * MR, panel);
        }
        let rows_end = (b_hi * MR).min(m);
        let c_block = &mut c[(b_lo - p_lo) * MR * n..(rows_end - p_lo * MR) * n];
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            for jp in 0..npan {
                let j0 = jp * NR;
                let bp = &pb[pc * npan * NR + jp * kc * NR..][..kc * NR];
                for p in b_lo..b_hi {
                    let at = (p - b_lo) * k * MR + pc * MR;
                    microkernel(
                        simd,
                        &ap[at..at + kc * MR],
                        bp,
                        kc,
                        &mut c_block[(p - b_lo) * MR * n..],
                        n,
                        j0,
                        MR.min(m - p * MR),
                        NR.min(n - j0),
                        pc == 0 && !acc,
                    );
                }
            }
        }
        if let Some(f) = epi {
            for v in c_block.iter_mut() {
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
    // the AVX2 tier, unless the portable one is pinned (`MDL_FORCE_SCALAR`)
    #[cfg(target_arch = "x86_64")]
    let simd = is_x86_feature_detected!("avx2") && !int8::force_scalar();
    #[cfg(not(target_arch = "x86_64"))]
    let simd = false;
    PACK_B.with_borrow_mut(|pb| {
        pack_b(tb, k, n, b, pb);
        let pb: &[f32] = pb;
        // Contiguous panel chunks -> contiguous, disjoint row ranges of
        // the output; the chunk boundaries never influence the arithmetic
        // performed for a panel, so any split gives identical bits.
        let per = panels.div_ceil(nt);
        par::for_each_claimed(
            nt,
            out.chunks_mut(per * MR * n).enumerate(),
            || (),
            |(t, rows), ()| {
                let (p_lo, p_hi) = (t * per, ((t + 1) * per).min(panels));
                PACK_A.with_borrow_mut(|ap| {
                    // one packed A block: at most `MC` rows, fewer when the chunk has fewer
                    grow(ap, (p_hi - p_lo).min(MC / MR) * k * MR);
                    run_row_panels(simd, ta, m, n, k, a, pb, rows, p_lo, p_hi, acc, ap, epi);
                });
            },
            |(), ()| (),
        );
    });
}

#[cfg(test)]
pub(crate) static TEST_THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `f` on the dispatched tier, then again with the portable tier
/// pinned, and restores the pin. The caller holds [`TEST_THREADS_LOCK`].
#[cfg(test)]
pub(crate) fn on_both_tiers<T>(f: impl Fn() -> T) -> (T, T) {
    let pinned = int8::force_scalar();
    let dispatched = f();
    int8::set_force_scalar(true);
    let portable = f();
    int8::set_force_scalar(pinned);
    (dispatched, portable)
}

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

    /// One transpose pair × `acc` of an `m × n × k` product, three ways:
    /// dispatched tier, pinned-portable tier, naive reference.
    fn check_variant(m: usize, n: usize, k: usize, ta: Trans, tb: Trans, acc: bool) {
        let a = fill(m, k, 1 + ta as u64); // same length stored m×k or k×m
        let b = fill(k, n, 3 + tb as u64);
        let init = if acc { fill(m, n, 9) } else { vec![f32::NAN; m * n] };
        let mut slow = init.clone();
        gemm_naive(ta, tb, m, n, k, &a, &b, &mut slow, acc);
        let (fast, portable) = on_both_tiers(|| {
            let mut out = init.clone();
            gemm(ta, tb, m, n, k, &a, &b, &mut out, acc);
            bits(&out)
        });
        let what = format!("{m}x{n}x{k} ta={ta:?} tb={tb:?} acc={acc}");
        assert_eq!(fast, bits(&slow), "dispatched != naive for {what}");
        assert_eq!(portable, bits(&slow), "portable != naive for {what}");
    }

    const VARIANTS: [(Trans, Trans, bool); 8] = [
        (Trans::N, Trans::N, false),
        (Trans::T, Trans::N, true),
        (Trans::N, Trans::T, false),
        (Trans::T, Trans::T, true),
        (Trans::N, Trans::N, true),
        (Trans::T, Trans::N, false),
        (Trans::N, Trans::T, true),
        (Trans::T, Trans::T, false),
    ];

    #[test]
    fn matches_naive_on_odd_shapes() {
        let _guard = TEST_THREADS_LOCK.lock().unwrap();
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
            for (ta, tb, acc) in VARIANTS {
                check_variant(m, n, k, ta, tb, acc);
            }
        }
        // the blocking edges: MC ±1 and two row blocks, NR ±1 and a wide
        // B, KC ±1 and two k-blocks. One variant per shape, in rotation —
        // the small shapes above already cross every variant with every
        // kind of ragged tile.
        for (mi, m) in [MC - 1, MC, MC + 1, 2 * MC + 1].into_iter().enumerate() {
            for (ni, n) in [NR - 1, NR, NR + 1, 1024].into_iter().enumerate() {
                for (ki, k) in [KC - 1, KC, KC + 1, 2 * KC + 1].into_iter().enumerate() {
                    let (ta, tb, acc) = VARIANTS[(5 * mi + 3 * ni + ki) % VARIANTS.len()];
                    check_variant(m, n, k, ta, tb, acc);
                }
            }
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
        let _guard = TEST_THREADS_LOCK.lock().unwrap();
        let relu = |v: f32| v.max(0.0);
        for (m, n, k) in [(1, 5, 3), (8, 96, 96), (31, 48, 64), (130, 70, 130), (257, 40, 300)] {
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
            let (fused, fused_portable) = on_both_tiers(|| {
                let mut fused = vec![f32::NAN; m * n];
                gemm_bias_act(m, n, k, &a, &b, &bias, Some(&relu), &mut fused);
                bits(&fused)
            });
            assert_eq!(fused, bits(&unfused), "fused != unfused at {m}x{n}x{k}");
            assert_eq!(fused_portable, fused, "portable fused != dispatched at {m}x{n}x{k}");
            // without an epilogue it is exactly matmul_bias_into
            let mut plain = vec![0.0f32; m * n];
            for row in plain.chunks_exact_mut(n) {
                row.copy_from_slice(&bias);
            }
            gemm(Trans::N, Trans::N, m, n, k, &a, &b, &mut plain, true);
            let mut fused_plain = vec![f32::NAN; m * n];
            gemm_bias_act(m, n, k, &a, &b, &bias, NO_EPI, &mut fused_plain);
            assert_eq!(bits(&fused_plain), bits(&plain));
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
        gemm_naive(Trans::N, Trans::N, m, n, k, &a, &b, &mut reference, false);
        for nt in [1, 2, 3, 8] {
            set_threads(nt);
            let (fast, portable) = on_both_tiers(|| {
                let mut out = vec![0.0f32; m * n];
                gemm(Trans::N, Trans::N, m, n, k, &a, &b, &mut out, false);
                bits(&out)
            });
            assert_eq!(fast, bits(&reference), "threads={nt} diverged from naive");
            assert_eq!(portable, bits(&reference), "threads={nt} portable diverged from naive");
        }
        set_threads(before);
    }

    #[test]
    fn threads_defaults_to_at_least_one() {
        assert!(threads() >= 1);
    }
}
