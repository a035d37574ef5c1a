//! Int8 GEMM microkernel: explicit `std::arch` x86_64 SIMD with a
//! pure-scalar fallback that is **bit-identical** to every SIMD path.
//!
//! # Layout contract
//!
//! [`gemm_i8`] computes `out[i][j] = Σ_t a[i][t] · bt[j][t]` with `a` an
//! `m × k` row-major `i8` matrix and `bt` the **transposed** right-hand
//! operand (`n × k` row-major, one row per output channel). Storing the
//! weights transposed makes every output element a dot product of two
//! contiguous byte rows, which is the whole kernel: no packing, no
//! strided loads, just streaming dot products. Accumulation is `i32`.
//!
//! # Determinism contract
//!
//! Every path — scalar, SSE2, AVX2, AVX-512 — produces bit-identical
//! output unconditionally. `i8 × i8` products are exact in `i16`/`i32`,
//! and the `i32` accumulation can never overflow for any `k` up to
//! [`MAX_K`] (asserted), so addition is performed on exact integers where
//! it is fully associative and commutative: the SIMD lane split and
//! horizontal reduction are mathematically — hence bitwise — equal to the
//! scalar ascending-`k` loop. This mirrors the f32 kernel's determinism
//! discipline (see [`super`]) without needing its ordering carve-outs.
//!
//! # Dispatch rules
//!
//! The widest available instruction set wins, detected once per call via
//! `is_x86_feature_detected!`: AVX-512BW → AVX2 → SSE2 (the x86_64
//! baseline) → scalar (non-x86_64). Setting the `MDL_FORCE_SCALAR`
//! environment variable (any value other than empty or `0`), or calling
//! [`set_force_scalar`], pins the scalar path so the fallback can be
//! exercised on SIMD-capable hosts — CI runs the whole suite both ways.

use std::sync::atomic::{AtomicU8, Ordering};

/// Largest supported reduction depth: beyond this an all-`±127` dot
/// product could overflow the `i32` accumulator.
pub const MAX_K: usize = (i32::MAX / (127 * 127)) as usize;

/// 0 = unresolved, 1 = SIMD allowed, 2 = scalar pinned.
static FORCE_SCALAR: AtomicU8 = AtomicU8::new(0);

/// Whether the scalar fallback is pinned.
///
/// Resolved once from the `MDL_FORCE_SCALAR` environment variable (set
/// and not `0` ⇒ pinned); afterwards it is whatever the last
/// [`set_force_scalar`] call installed. Pinning never changes results —
/// see the module's determinism contract — only which instructions run.
pub fn force_scalar() -> bool {
    match FORCE_SCALAR.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = std::env::var("MDL_FORCE_SCALAR")
                .map(|v| !v.trim().is_empty() && v.trim() != "0")
                .unwrap_or(false);
            FORCE_SCALAR.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Overrides the `MDL_FORCE_SCALAR` resolution at runtime (used by the
/// property tests to exercise both paths in one process).
pub fn set_force_scalar(on: bool) {
    FORCE_SCALAR.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// The instruction set [`gemm_i8`] dispatches to right now:
/// `"avx512bw"`, `"avx2"`, `"sse2"` or `"scalar"`.
pub fn simd_level() -> &'static str {
    if force_scalar() {
        return "scalar";
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512bw") {
            "avx512bw"
        } else if is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

fn check_shapes(m: usize, n: usize, k: usize, a: &[i8], bt: &[i8], out: &[i32]) {
    assert!(k <= MAX_K, "int8 GEMM depth {k} could overflow i32 (max {MAX_K})");
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(bt.len(), n * k, "Bᵀ must be n×k");
    assert_eq!(out.len(), m * n, "out must be m×n");
}

/// Int8 GEMM against a transposed right-hand side:
/// `out[i·n + j] {=, +=} Σ_t a[i·k + t] · bt[j·k + t]` in `i32`.
///
/// `acc = false` overwrites `out`, `acc = true` accumulates into it.
/// Dispatches to the widest SIMD path the host supports unless the
/// scalar fallback is pinned (see [`force_scalar`]); all paths are
/// bit-identical.
///
/// # Panics
///
/// Panics on slice/shape mismatches or `k >` [`MAX_K`].
pub fn gemm_i8(m: usize, n: usize, k: usize, a: &[i8], bt: &[i8], out: &mut [i32], acc: bool) {
    check_shapes(m, n, k, a, bt, out);
    if force_scalar() {
        return scalar_loop(m, n, k, a, bt, out, acc);
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512bw") {
            // SAFETY: AVX-512BW (which implies AVX-512F) was just detected;
            // `check_shapes` above is the slice-length contract.
            return unsafe { gemm_avx512(m, n, k, a, bt, out, acc) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was just detected; shapes checked above.
            return unsafe { gemm_avx2(m, n, k, a, bt, out, acc) };
        }
        // SAFETY: SSE2 is part of the x86_64 baseline; shapes checked above.
        unsafe { gemm_sse2(m, n, k, a, bt, out, acc) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar_loop(m, n, k, a, bt, out, acc)
}

/// The pinned scalar path: identical shape contract to [`gemm_i8`],
/// guaranteed to use no SIMD dispatch. Public so the equality tests (and
/// the CI `quantized` job) can compare it against the dispatched path
/// without touching process-global state.
///
/// # Panics
///
/// Panics on slice/shape mismatches or `k >` [`MAX_K`].
pub fn gemm_i8_scalar(
    m: usize,
    n: usize,
    k: usize,
    a: &[i8],
    bt: &[i8],
    out: &mut [i32],
    acc: bool,
) {
    check_shapes(m, n, k, a, bt, out);
    scalar_loop(m, n, k, a, bt, out, acc);
}

/// Naive triple-loop i32 reference, the ground truth the property tests
/// pin both the scalar and SIMD paths against.
///
/// # Panics
///
/// Panics on slice/shape mismatches or `k >` [`MAX_K`].
pub fn gemm_i8_ref(m: usize, n: usize, k: usize, a: &[i8], bt: &[i8], out: &mut [i32], acc: bool) {
    check_shapes(m, n, k, a, bt, out);
    for i in 0..m {
        for j in 0..n {
            let mut sum = 0i32;
            for t in 0..k {
                sum += a[i * k + t] as i32 * bt[j * k + t] as i32;
            }
            let slot = &mut out[i * n + j];
            *slot = if acc { *slot + sum } else { sum };
        }
    }
}

fn scalar_loop(m: usize, n: usize, k: usize, a: &[i8], bt: &[i8], out: &mut [i32], acc: bool) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (j, slot) in out_row.iter_mut().enumerate() {
            let b_row = &bt[j * k..(j + 1) * k];
            let sum: i32 = a_row.iter().zip(b_row).map(|(&x, &y)| x as i32 * y as i32).sum::<i32>();
            *slot = if acc { *slot + sum } else { sum };
        }
    }
}

/// Column-tile width: one A chunk is sign-extended once and reused
/// against this many Bᵀ rows.
#[cfg(target_arch = "x86_64")]
const JT: usize = 4;

/// Shared SIMD driver: `dot4` produces the four dot products of one A row
/// against a 4-row Bᵀ tile, `dot1` handles the `n % 4` tail rows.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)] // mirrors the gemm signature plus the two dot kernels
fn simd_loop(
    m: usize,
    n: usize,
    k: usize,
    a: &[i8],
    bt: &[i8],
    out: &mut [i32],
    acc: bool,
    dot4: impl Fn(&[i8], [&[i8]; JT]) -> [i32; JT],
    dot1: impl Fn(&[i8], &[i8]) -> i32,
) {
    let n_tiles = n / JT;
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for jt in 0..n_tiles {
            let j = jt * JT;
            let tile = [
                &bt[j * k..(j + 1) * k],
                &bt[(j + 1) * k..(j + 2) * k],
                &bt[(j + 2) * k..(j + 3) * k],
                &bt[(j + 3) * k..(j + 4) * k],
            ];
            let sums = dot4(a_row, tile);
            for (slot, sum) in out_row[j..j + JT].iter_mut().zip(sums) {
                *slot = if acc { *slot + sum } else { sum };
            }
        }
        for j in n_tiles * JT..n {
            let sum = dot1(a_row, &bt[j * k..(j + 1) * k]);
            let slot = &mut out_row[j];
            *slot = if acc { *slot + sum } else { sum };
        }
    }
}

/// Scalar tail shared by every SIMD path: the last `k % W` elements.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn tail_dot(a: &[i8], b: &[i8], from: usize) -> i32 {
    a[from..].iter().zip(&b[from..]).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// # Safety
///
/// The CPU must support SSE2 and the slices must satisfy [`check_shapes`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn gemm_sse2(m: usize, n: usize, k: usize, a: &[i8], bt: &[i8], out: &mut [i32], acc: bool) {
    use std::arch::x86_64::*;
    /// Sign-extends the low/high halves of 16 packed `i8` to two `i16×8`
    /// vectors via the interleave-with-self + arithmetic-shift idiom
    /// (SSE2 has no `cvtepi8`).
    #[target_feature(enable = "sse2")]
    fn widen(v: __m128i) -> (__m128i, __m128i) {
        (_mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8), _mm_srai_epi16(_mm_unpackhi_epi8(v, v), 8))
    }
    #[target_feature(enable = "sse2")]
    fn sum4(v: __m128i) -> i32 {
        let hi = _mm_add_epi32(v, _mm_shuffle_epi32(v, 0b00_00_11_10));
        let s = _mm_add_epi32(hi, _mm_shuffle_epi32(hi, 0b00_00_00_01));
        _mm_cvtsi128_si32(s)
    }
    let dot4 = |a_row: &[i8], tile: [&[i8]; JT]| -> [i32; JT] {
        let chunks = k / 16;
        let mut accv = [_mm_setzero_si128(); JT];
        // SAFETY: `simd_loop` hands in rows of exactly `k` bytes and
        // `c < k / 16`, so every 16-byte load ends inside its row;
        // `loadu` has no alignment requirement.
        unsafe {
            for c in 0..chunks {
                let av = _mm_loadu_si128(a_row.as_ptr().add(c * 16) as *const __m128i);
                let (a_lo, a_hi) = widen(av);
                for (accl, b_row) in accv.iter_mut().zip(tile) {
                    let bv = _mm_loadu_si128(b_row.as_ptr().add(c * 16) as *const __m128i);
                    let (b_lo, b_hi) = widen(bv);
                    let p = _mm_add_epi32(_mm_madd_epi16(a_lo, b_lo), _mm_madd_epi16(a_hi, b_hi));
                    *accl = _mm_add_epi32(*accl, p);
                }
            }
        }
        let mut sums = [0i32; JT];
        for ((s, accl), b_row) in sums.iter_mut().zip(accv).zip(tile) {
            *s = sum4(accl) + tail_dot(a_row, b_row, chunks * 16);
        }
        sums
    };
    let dot1 = |a_row: &[i8], b_row: &[i8]| -> i32 {
        let chunks = k / 16;
        let mut accv = _mm_setzero_si128();
        // SAFETY: `simd_loop` hands in rows of exactly `k` bytes and
        // `c < k / 16`, so every 16-byte load ends inside its row;
        // `loadu` has no alignment requirement.
        unsafe {
            for c in 0..chunks {
                let av = _mm_loadu_si128(a_row.as_ptr().add(c * 16) as *const __m128i);
                let bv = _mm_loadu_si128(b_row.as_ptr().add(c * 16) as *const __m128i);
                let (a_lo, a_hi) = widen(av);
                let (b_lo, b_hi) = widen(bv);
                let p = _mm_add_epi32(_mm_madd_epi16(a_lo, b_lo), _mm_madd_epi16(a_hi, b_hi));
                accv = _mm_add_epi32(accv, p);
            }
        }
        sum4(accv) + tail_dot(a_row, b_row, chunks * 16)
    };
    simd_loop(m, n, k, a, bt, out, acc, dot4, dot1);
}

/// # Safety
///
/// The CPU must support AVX2 and the slices must satisfy
/// [`check_shapes`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2(m: usize, n: usize, k: usize, a: &[i8], bt: &[i8], out: &mut [i32], acc: bool) {
    use std::arch::x86_64::*;
    /// Sign-extends 32 packed `i8` to two `i16×16` vectors.
    #[target_feature(enable = "avx2")]
    fn widen(v: __m256i) -> (__m256i, __m256i) {
        (
            _mm256_cvtepi8_epi16(_mm256_castsi256_si128(v)),
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(v, 1)),
        )
    }
    #[target_feature(enable = "avx2")]
    fn sum8(v: __m256i) -> i32 {
        let q = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
        let hi = _mm_add_epi32(q, _mm_shuffle_epi32(q, 0b00_00_11_10));
        let s = _mm_add_epi32(hi, _mm_shuffle_epi32(hi, 0b00_00_00_01));
        _mm_cvtsi128_si32(s)
    }
    let dot4 = |a_row: &[i8], tile: [&[i8]; JT]| -> [i32; JT] {
        let chunks = k / 32;
        let mut accv = [_mm256_setzero_si256(); JT];
        // SAFETY: `simd_loop` hands in rows of exactly `k` bytes and
        // `c < k / 32`, so every 32-byte load ends inside its row;
        // `loadu` has no alignment requirement.
        unsafe {
            for c in 0..chunks {
                let av = _mm256_loadu_si256(a_row.as_ptr().add(c * 32) as *const __m256i);
                let (a_lo, a_hi) = widen(av);
                for (accl, b_row) in accv.iter_mut().zip(tile) {
                    let bv = _mm256_loadu_si256(b_row.as_ptr().add(c * 32) as *const __m256i);
                    let (b_lo, b_hi) = widen(bv);
                    let p = _mm256_add_epi32(
                        _mm256_madd_epi16(a_lo, b_lo),
                        _mm256_madd_epi16(a_hi, b_hi),
                    );
                    *accl = _mm256_add_epi32(*accl, p);
                }
            }
        }
        let mut sums = [0i32; JT];
        for ((s, accl), b_row) in sums.iter_mut().zip(accv).zip(tile) {
            *s = sum8(accl) + tail_dot(a_row, b_row, chunks * 32);
        }
        sums
    };
    let dot1 = |a_row: &[i8], b_row: &[i8]| -> i32 {
        let chunks = k / 32;
        let mut accv = _mm256_setzero_si256();
        // SAFETY: `simd_loop` hands in rows of exactly `k` bytes and
        // `c < k / 32`, so every 32-byte load ends inside its row;
        // `loadu` has no alignment requirement.
        unsafe {
            for c in 0..chunks {
                let av = _mm256_loadu_si256(a_row.as_ptr().add(c * 32) as *const __m256i);
                let bv = _mm256_loadu_si256(b_row.as_ptr().add(c * 32) as *const __m256i);
                let (a_lo, a_hi) = widen(av);
                let (b_lo, b_hi) = widen(bv);
                let p =
                    _mm256_add_epi32(_mm256_madd_epi16(a_lo, b_lo), _mm256_madd_epi16(a_hi, b_hi));
                accv = _mm256_add_epi32(accv, p);
            }
        }
        sum8(accv) + tail_dot(a_row, b_row, chunks * 32)
    };
    simd_loop(m, n, k, a, bt, out, acc, dot4, dot1);
}

/// # Safety
///
/// The CPU must support AVX-512F and AVX-512BW and the slices must satisfy
/// [`check_shapes`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn gemm_avx512(
    m: usize,
    n: usize,
    k: usize,
    a: &[i8],
    bt: &[i8],
    out: &mut [i32],
    acc: bool,
) {
    use std::arch::x86_64::*;
    /// Sign-extends 64 packed `i8` to two `i16×32` vectors.
    #[target_feature(enable = "avx512f,avx512bw")]
    fn widen(v: __m512i) -> (__m512i, __m512i) {
        (
            _mm512_cvtepi8_epi16(_mm512_castsi512_si256(v)),
            _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64(v, 1)),
        )
    }
    let dot4 = |a_row: &[i8], tile: [&[i8]; JT]| -> [i32; JT] {
        let chunks = k / 64;
        let mut accv = [_mm512_setzero_si512(); JT];
        // SAFETY: `simd_loop` hands in rows of exactly `k` bytes and
        // `c < k / 64`, so every 64-byte load ends inside its row;
        // `loadu` has no alignment requirement.
        unsafe {
            for c in 0..chunks {
                let av = _mm512_loadu_si512(a_row.as_ptr().add(c * 64) as *const __m512i);
                let (a_lo, a_hi) = widen(av);
                for (accl, b_row) in accv.iter_mut().zip(tile) {
                    let bv = _mm512_loadu_si512(b_row.as_ptr().add(c * 64) as *const __m512i);
                    let (b_lo, b_hi) = widen(bv);
                    let p = _mm512_add_epi32(
                        _mm512_madd_epi16(a_lo, b_lo),
                        _mm512_madd_epi16(a_hi, b_hi),
                    );
                    *accl = _mm512_add_epi32(*accl, p);
                }
            }
        }
        let mut sums = [0i32; JT];
        for ((s, accl), b_row) in sums.iter_mut().zip(accv).zip(tile) {
            *s = _mm512_reduce_add_epi32(accl) + tail_dot(a_row, b_row, chunks * 64);
        }
        sums
    };
    let dot1 = |a_row: &[i8], b_row: &[i8]| -> i32 {
        let chunks = k / 64;
        let mut accv = _mm512_setzero_si512();
        // SAFETY: `simd_loop` hands in rows of exactly `k` bytes and
        // `c < k / 64`, so every 64-byte load ends inside its row;
        // `loadu` has no alignment requirement.
        unsafe {
            for c in 0..chunks {
                let av = _mm512_loadu_si512(a_row.as_ptr().add(c * 64) as *const __m512i);
                let bv = _mm512_loadu_si512(b_row.as_ptr().add(c * 64) as *const __m512i);
                let (a_lo, a_hi) = widen(av);
                let (b_lo, b_hi) = widen(bv);
                let p =
                    _mm512_add_epi32(_mm512_madd_epi16(a_lo, b_lo), _mm512_madd_epi16(a_hi, b_hi));
                accv = _mm512_add_epi32(accv, p);
            }
        }
        _mm512_reduce_add_epi32(accv) + tail_dot(a_row, b_row, chunks * 64)
    };
    simd_loop(m, n, k, a, bt, out, acc, dot4, dot1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u64) -> Vec<i8> {
        // simple LCG keeps the test free of RNG plumbing
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as i8
            })
            .collect()
    }

    #[test]
    fn dispatched_matches_reference_on_odd_shapes() {
        for &(m, n, k) in
            &[(1, 1, 0), (1, 1, 1), (3, 5, 7), (4, 16, 33), (2, 9, 130), (5, 4, 256), (7, 13, 65)]
        {
            let a = fill(m * k, 11 + k as u64);
            let bt = fill(n * k, 97 + m as u64);
            let mut fast = vec![1i32; m * n];
            let mut slow = vec![2i32; m * n];
            gemm_i8(m, n, k, &a, &bt, &mut fast, false);
            gemm_i8_ref(m, n, k, &a, &bt, &mut slow, false);
            assert_eq!(fast, slow, "dispatched != ref at {m}x{n}x{k}");

            let mut fast_acc = fast.clone();
            let mut slow_acc = slow.clone();
            gemm_i8(m, n, k, &a, &bt, &mut fast_acc, true);
            gemm_i8_ref(m, n, k, &a, &bt, &mut slow_acc, true);
            assert_eq!(fast_acc, slow_acc, "acc mode diverged at {m}x{n}x{k}");
        }
    }

    #[test]
    fn scalar_path_matches_reference() {
        let (m, n, k) = (6, 10, 100);
        let a = fill(m * k, 3);
        let bt = fill(n * k, 4);
        let mut scalar = vec![0i32; m * n];
        let mut reference = vec![0i32; m * n];
        gemm_i8_scalar(m, n, k, &a, &bt, &mut scalar, false);
        gemm_i8_ref(m, n, k, &a, &bt, &mut reference, false);
        assert_eq!(scalar, reference);
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        // k rows of ±127 — the worst case the MAX_K bound is sized for
        let k = 1024;
        let a = vec![127i8; k];
        let bt = vec![-127i8; 2 * k];
        let mut out = vec![0i32; 2];
        gemm_i8(1, 2, k, &a, &bt, &mut out, false);
        assert_eq!(out, vec![-127 * 127 * k as i32; 2]);
    }

    #[test]
    fn simd_level_reports_a_known_name() {
        assert!(["avx512bw", "avx2", "sse2", "scalar"].contains(&simd_level()));
    }
}
