//! Int8 GEMM microkernel: explicit `std::arch` x86_64 SIMD with a
//! plain-Rust fallback that is **bit-identical** to every SIMD path.
//!
//! # Layout contract
//!
//! [`gemm_i8`] computes `out[i][j] = Σ_t a[i][t] · w[t][j]` with `a` an
//! `m × k` row-major `i8` matrix and `w` the `k × n` row-major weight —
//! **input-major**, the layout of the f32 `Dense` weight, one contiguous
//! row of `n` output channels per input. Accumulation is `i32`.
//!
//! # Loop
//!
//! The product runs in axpy form: each nonzero input `a[i][t]` adds
//! `a[i][t] · w[t][·]` to output row `i`, so an exactly-zero activation
//! (half of a ReLU layer's inputs) skips its whole weight row and the
//! bytes it would have streamed. Rows are taken in tiles of up to `MR = 4`;
//! a tile skips input `t` when all its rows are zero there, and each
//! weight slice it reads is loaded and widened once for all its rows.
//! Within a tile the output is walked in column blocks whose `i32` tile
//! stays L1-resident, and each pass over a block fuses the next `FUSE = 8`
//! nonzero inputs: the SIMD tiers interleave two weight rows into `i16`
//! pairs and multiply them by a broadcast pair of activations with one
//! `madd_epi16`. A tile of `m < MR` rows (a batch of one is the skinny
//! extreme) and the `m % MR` tail tile run the same loop with fewer rows;
//! which loop runs depends on the shape and the instruction set only.
//! Nothing is allocated: the fused inputs' indices live on the stack.
//!
//! # Determinism contract
//!
//! Every path — plain Rust, AVX2, AVX-512 — produces bit-identical output
//! unconditionally. `i8 × i8` products are exact in `i16`/`i32`, and the
//! `i32` accumulation can never overflow for any `k` up to [`MAX_K`]
//! (asserted), so addition is performed on exact integers where it is
//! fully associative and commutative: the tiling, the pairing, the zero
//! skip and the lane split are mathematically — hence bitwise — equal to
//! the ascending-`k` reference loop [`gemm_i8_ref`]. This mirrors the f32
//! kernel's determinism discipline (see [`super`]) without needing its
//! ordering carve-outs.
//!
//! # Dispatch rules
//!
//! The widest available instruction set wins, detected once per call via
//! `is_x86_feature_detected!`: AVX-512BW (with AVX-512VL for its masked
//! column tail) → AVX2 → plain Rust. Setting the `MDL_FORCE_SCALAR`
//! environment variable (any value other than empty or `0`), or calling
//! [`set_force_scalar`], pins the plain-Rust path so the fallback can be
//! exercised on SIMD-capable hosts — CI runs the whole suite both ways.
//! Every call, on any path, is tallied by [`super::profile`] when it is on.

use super::profile;
use std::sync::atomic::{AtomicU8, Ordering};

/// Largest supported reduction depth: beyond this an all-`−128` product
/// could overflow the `i32` accumulator (`MAX_K · 128² ≤ i32::MAX`).
pub const MAX_K: usize = (i32::MAX / (128 * 128)) as usize;

/// Output rows per tile: each widened weight slice is shared by this many.
pub(crate) const MR: usize = 4;
/// Nonzero inputs fused into one pass over a tile's column block
/// (`FUSE / 2` interleaved `i16` pairs).
const FUSE: usize = 8;
/// `i32` outputs in one column block of a tile (16 KiB, L1-resident).
const BLOCK_I32: usize = 4096;

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

/// The instruction sets [`gemm_i8`] can dispatch to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

fn tier() -> Tier {
    if force_scalar() {
        return Tier::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512bw") && is_x86_feature_detected!("avx512vl") {
            return Tier::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
    }
    Tier::Scalar
}

/// The instruction set [`gemm_i8`] dispatches to right now:
/// `"avx512bw"`, `"avx2"` or `"scalar"`.
pub fn simd_level() -> &'static str {
    match tier() {
        Tier::Scalar => "scalar",
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => "avx2",
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => "avx512bw",
    }
}

fn check_shapes(m: usize, n: usize, k: usize, a: &[i8], w: &[i8], out: &[i32]) {
    assert!(k <= MAX_K, "int8 GEMM depth {k} could overflow i32 (max {MAX_K})");
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(w.len(), k * n, "W must be k×n");
    assert_eq!(out.len(), m * n, "out must be m×n");
}

/// Int8 GEMM against an input-major weight:
/// `out[i·n + j] {=, +=} Σ_t a[i·k + t] · w[t·n + j]` in `i32`.
///
/// `acc = false` overwrites `out`, `acc = true` accumulates into it.
/// Dispatches to the widest SIMD path the host supports unless the
/// scalar fallback is pinned (see [`force_scalar`]); all paths are
/// bit-identical.
///
/// # Panics
///
/// Panics on slice/shape mismatches or `k >` [`MAX_K`].
pub fn gemm_i8(m: usize, n: usize, k: usize, a: &[i8], w: &[i8], out: &mut [i32], acc: bool) {
    run(tier(), m, n, k, a, w, out, acc);
}

/// The pinned plain-Rust path: identical shape contract to [`gemm_i8`],
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
    w: &[i8],
    out: &mut [i32],
    acc: bool,
) {
    run(Tier::Scalar, m, n, k, a, w, out, acc);
}

/// Naive triple-loop i32 reference, the ground truth the property tests
/// pin both the scalar and SIMD paths against.
///
/// # Panics
///
/// Panics on slice/shape mismatches or `k >` [`MAX_K`].
pub fn gemm_i8_ref(m: usize, n: usize, k: usize, a: &[i8], w: &[i8], out: &mut [i32], acc: bool) {
    check_shapes(m, n, k, a, w, out);
    for i in 0..m {
        for j in 0..n {
            let mut sum = 0i32;
            for t in 0..k {
                sum += a[i * k + t] as i32 * w[t * n + j] as i32;
            }
            let slot = &mut out[i * n + j];
            *slot = if acc { *slot + sum } else { sum };
        }
    }
}

#[allow(clippy::too_many_arguments)] // the gemm signature plus the tier
fn run(tier: Tier, m: usize, n: usize, k: usize, a: &[i8], w: &[i8], out: &mut [i32], acc: bool) {
    check_shapes(m, n, k, a, w, out);
    let profiling = profile::is_enabled();
    let t0 = if profiling { profile::clock_now_ns() } else { 0 };
    if !acc {
        out.fill(0);
    }
    if n > 0 && k > 0 {
        match tier {
            // SAFETY: the plain-Rust pass needs no instruction set.
            Tier::Scalar => unsafe { tiles::<Scalar>(n, k, a, w, out) },
            // SAFETY: `tier()` picks AVX2 only after detecting it.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { gemm_avx2(n, k, a, w, out) },
            // SAFETY: `tier()` picks AVX-512 only after detecting BW and VL
            // (both imply F).
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { gemm_avx512(n, k, a, w, out) },
        }
    }
    if profiling {
        profile::tally(profile::Op::I8, m, n, k, profile::clock_now_ns().saturating_sub(t0));
    }
}

/// One tier's pass over a tile's column block: for every tile row
/// `r < R` and column `j < cols`,
/// `out[r·n + j0 + j] += Σ_q coef[r][q] · rows[q][j]`, where `rows[q]` is
/// fused input `q`'s weight row restricted to the block (`cols` long).
trait Pass {
    /// # Safety
    ///
    /// The CPU supports the tier's instruction set.
    ///
    /// # Panics
    ///
    /// Panics unless every row is `cols` long and `out` holds `R` rows of
    /// stride `n` with `j0 + cols <= n`.
    unsafe fn pass<const R: usize>(
        rows: &[&[i8]; FUSE],
        coef: &[[i16; FUSE]; R],
        out: &mut [i32],
        n: usize,
        j0: usize,
    );
}

/// The tile loop every tier shares: `out += a · w` for `a` (`m × k`) and
/// `w` (`k × n`), `n, k > 0`.
///
/// # Safety
///
/// The CPU supports `P`'s instruction set.
#[inline(always)]
unsafe fn tiles<P: Pass>(n: usize, k: usize, a: &[i8], w: &[i8], out: &mut [i32]) {
    for (a_tile, out_tile) in a.chunks(MR * k).zip(out.chunks_mut(MR * n)) {
        // SAFETY: forwarded.
        unsafe {
            match a_tile.len() / k {
                1 => tile::<P, 1>(n, k, a_tile, w, out_tile),
                2 => tile::<P, 2>(n, k, a_tile, w, out_tile),
                3 => tile::<P, 3>(n, k, a_tile, w, out_tile),
                _ => tile::<P, MR>(n, k, a_tile, w, out_tile),
            }
        }
    }
}

/// One `R`-row tile (`a` is `R × k`, `out` is `R × n`), column block by
/// column block: collect the next [`FUSE`] inputs where some tile row is
/// nonzero, pad a short group with zero coefficients on an already-read
/// row, and hand it to `P`.
///
/// # Safety
///
/// The CPU supports `P`'s instruction set.
#[inline(always)]
unsafe fn tile<P: Pass, const R: usize>(n: usize, k: usize, a: &[i8], w: &[i8], out: &mut [i32]) {
    let block = BLOCK_I32 / R;
    for j0 in (0..n).step_by(block) {
        let cols = block.min(n - j0);
        // inputs `base..base + 64` still to hand out, as bits
        let (mut base, mut pending) = (0, nonzero_bits(a, k, 0));
        loop {
            let mut idx = [0usize; FUSE];
            let mut coef = [[0i16; FUSE]; R];
            let mut found = 0;
            while found < FUSE {
                if pending == 0 {
                    base += 64;
                    if base >= k {
                        break;
                    }
                    pending = nonzero_bits(a, k, base);
                    continue;
                }
                let t = base + pending.trailing_zeros() as usize;
                pending &= pending - 1;
                idx[found] = t;
                for (c, a_row) in coef.iter_mut().zip(a.chunks_exact(k)) {
                    c[found] = a_row[t].into();
                }
                found += 1;
            }
            if found == 0 {
                break;
            }
            let first = idx[0];
            idx[found..].fill(first);
            let mut rows: [&[i8]; FUSE] = [&[]; FUSE];
            for (row, &t) in rows.iter_mut().zip(&idx) {
                *row = &w[t * n + j0..][..cols];
            }
            // SAFETY: the caller vouches for the instruction set.
            unsafe { P::pass::<R>(&rows, &coef, out, n, j0) };
        }
    }
}

/// Bit `i` set when input `base + i` (`i < 64`, `base + i < k`) is
/// nonzero in some row of the tile `a` (rows of length `k`).
#[inline(always)]
fn nonzero_bits(a: &[i8], k: usize, base: usize) -> u64 {
    let len = 64.min(k - base);
    let mut bits = 0u64;
    for row in a.chunks_exact(k) {
        for (i, &v) in row[base..base + len].iter().enumerate() {
            bits |= u64::from(v != 0) << i;
        }
    }
    bits
}

/// The plain-Rust pass: one axpy per fused input and tile row.
struct Scalar;

impl Pass for Scalar {
    #[inline(always)]
    unsafe fn pass<const R: usize>(
        rows: &[&[i8]; FUSE],
        coef: &[[i16; FUSE]; R],
        out: &mut [i32],
        n: usize,
        j0: usize,
    ) {
        let cols = rows[0].len();
        for (c, out_row) in coef.iter().zip(out.chunks_exact_mut(n)) {
            let out_row = &mut out_row[j0..j0 + cols];
            for (&cq, row) in c.iter().zip(rows) {
                if cq == 0 {
                    continue;
                }
                // |cq · b| ≤ 128², exact in i16
                for (o, &b) in out_row.iter_mut().zip(*row) {
                    *o += i32::from(cq * i16::from(b));
                }
            }
        }
    }
}

/// `coef[2p]` in the low and `coef[2p + 1]` in the high half of an `i32`:
/// the activation pair one `madd_epi16` lane multiplies.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn pair(c: &[i16; FUSE], p: usize) -> i32 {
    i32::from(c[2 * p] as u16) | i32::from(c[2 * p + 1]) << 16
}

/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2(n: usize, k: usize, a: &[i8], w: &[i8], out: &mut [i32]) {
    // SAFETY: AVX2 is enabled here.
    unsafe { tiles::<Avx2>(n, k, a, w, out) }
}

/// The AVX2 pass: 16 columns per step; the ragged last columns take the
/// plain-Rust pass.
#[cfg(target_arch = "x86_64")]
struct Avx2;

#[cfg(target_arch = "x86_64")]
impl Pass for Avx2 {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pass<const R: usize>(
        rows: &[&[i8]; FUSE],
        coef: &[[i16; FUSE]; R],
        out: &mut [i32],
        n: usize,
        j0: usize,
    ) {
        use std::arch::x86_64::*;
        let cols = rows[0].len();
        let full = cols / 16 * 16;
        for j in (0..full).step_by(16) {
            let mut acc = [[_mm256_setzero_si256(); 2]; R];
            for p in 0..FUSE / 2 {
                let (w1, w2) = (&rows[2 * p][j..j + 16], &rows[2 * p + 1][j..j + 16]);
                // SAFETY: both slices are 16 bytes; `loadu` has no
                // alignment requirement.
                let (w1, w2) = unsafe {
                    (
                        _mm_loadu_si128(w1.as_ptr() as *const __m128i),
                        _mm_loadu_si128(w2.as_ptr() as *const __m128i),
                    )
                };
                // (w1[j], w2[j]) i16 pairs, columns 0..8 and 8..16
                let lo = _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(w1, w2));
                let hi = _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(w1, w2));
                for (acc_r, c) in acc.iter_mut().zip(coef) {
                    let c = _mm256_set1_epi32(pair(c, p));
                    acc_r[0] = _mm256_add_epi32(acc_r[0], _mm256_madd_epi16(lo, c));
                    acc_r[1] = _mm256_add_epi32(acc_r[1], _mm256_madd_epi16(hi, c));
                }
            }
            for (r, [lo, hi]) in acc.into_iter().enumerate() {
                let o = out[r * n + j0 + j..][..16].as_mut_ptr();
                // SAFETY: `o` starts a 16-element slice of `out`.
                unsafe {
                    let (o0, o1) = (o as *mut __m256i, o.add(8) as *mut __m256i);
                    _mm256_storeu_si256(o0, _mm256_add_epi32(_mm256_loadu_si256(o0), lo));
                    _mm256_storeu_si256(o1, _mm256_add_epi32(_mm256_loadu_si256(o1), hi));
                }
            }
        }
        if full < cols {
            let mut tail: [&[i8]; FUSE] = [&[]; FUSE];
            for (t, row) in tail.iter_mut().zip(rows) {
                *t = &row[full..];
            }
            // SAFETY: the plain-Rust pass needs no instruction set.
            unsafe { Scalar::pass::<R>(&tail, coef, out, n, j0 + full) };
        }
    }
}

/// # Safety
///
/// The CPU must support AVX-512F, -BW and -VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn gemm_avx512(n: usize, k: usize, a: &[i8], w: &[i8], out: &mut [i32]) {
    // SAFETY: AVX-512F/BW/VL are enabled here.
    unsafe { tiles::<Avx512>(n, k, a, w, out) }
}

/// The AVX-512 pass: 32 columns per step, the ragged last one masked.
#[cfg(target_arch = "x86_64")]
struct Avx512;

#[cfg(target_arch = "x86_64")]
impl Pass for Avx512 {
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    unsafe fn pass<const R: usize>(
        rows: &[&[i8]; FUSE],
        coef: &[[i16; FUSE]; R],
        out: &mut [i32],
        n: usize,
        j0: usize,
    ) {
        use std::arch::x86_64::*;
        let cols = rows[0].len();
        let c: [[__m512i; FUSE / 2]; R] =
            std::array::from_fn(|r| std::array::from_fn(|p| _mm512_set1_epi32(pair(&coef[r], p))));
        for j in (0..cols).step_by(32) {
            let lanes = (cols - j).min(32);
            let mask = u32::MAX >> (32 - lanes);
            let mut acc = [[_mm512_setzero_si512(); 2]; R];
            for p in 0..FUSE / 2 {
                let (w1, w2) = (&rows[2 * p][j..j + lanes], &rows[2 * p + 1][j..j + lanes]);
                // SAFETY: the mask enables exactly the `lanes` bytes of each
                // slice; masked-off lanes are not accessed.
                let (w1, w2) = unsafe {
                    (
                        _mm256_maskz_loadu_epi8(mask, w1.as_ptr()),
                        _mm256_maskz_loadu_epi8(mask, w2.as_ptr()),
                    )
                };
                // (w1[j], w2[j]) i16 pairs: columns 0..8 ∪ 16..24 in `lo`,
                // 8..16 ∪ 24..32 in `hi` (unpack works per 128-bit lane)
                let lo = _mm512_cvtepi8_epi16(_mm256_unpacklo_epi8(w1, w2));
                let hi = _mm512_cvtepi8_epi16(_mm256_unpackhi_epi8(w1, w2));
                for (acc_r, c_r) in acc.iter_mut().zip(&c) {
                    acc_r[0] = _mm512_add_epi32(acc_r[0], _mm512_madd_epi16(lo, c_r[p]));
                    acc_r[1] = _mm512_add_epi32(acc_r[1], _mm512_madd_epi16(hi, c_r[p]));
                }
            }
            let (m_lo, m_hi) = (mask as u16, (mask >> 16) as u16);
            for (r, [lo, hi]) in acc.into_iter().enumerate() {
                // back to column order: 0..16 and 16..32
                let v0 = _mm512_shuffle_i64x2::<0x44>(lo, hi);
                let v1 = _mm512_shuffle_i64x2::<0xEE>(lo, hi);
                let o = out[r * n + j0 + j..][..lanes].as_mut_ptr();
                // SAFETY: the masks enable exactly the `lanes` outputs of the
                // slice `o` starts; masked-off lanes are not accessed, and
                // `wrapping_add` keeps the address of an unused second half
                // defined.
                unsafe {
                    let o1 = o.wrapping_add(16);
                    let s0 = _mm512_add_epi32(_mm512_maskz_loadu_epi32(m_lo, o), v0);
                    let s1 = _mm512_add_epi32(_mm512_maskz_loadu_epi32(m_hi, o1), v1);
                    _mm512_mask_storeu_epi32(o, m_lo, s0);
                    _mm512_mask_storeu_epi32(o1, m_hi, s1);
                }
            }
        }
    }
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

    /// Every tier this host can run, the plain-Rust one first.
    fn host_tiers() -> Vec<Tier> {
        let mut tiers = vec![Tier::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                tiers.push(Tier::Avx2);
            }
            if is_x86_feature_detected!("avx512bw") && is_x86_feature_detected!("avx512vl") {
                tiers.push(Tier::Avx512);
            }
        }
        tiers
    }

    /// The dispatched entry and every tier the host can run, against the
    /// reference, on full-range signed activations and on their ReLU-style
    /// copy (about half zero), across the tile split, ragged vector steps
    /// and column blocks.
    #[test]
    fn dispatched_matches_reference_on_odd_shapes() {
        for &(m, n, k) in &[
            (1, 1, 0),
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 33),
            (2, 9, 130),
            (5, 4, 256),
            (7, 13, 65),
            (9, 48, 16),
            (1, 3000, 40),
            (6, 1100, 20),
        ] {
            let signed = fill(m * k, 11 + k as u64);
            let relu: Vec<i8> = signed.iter().map(|&v| v.max(0)).collect();
            let w = fill(k * n, 97 + m as u64);
            for (input, a) in [("signed", &signed), ("relu", &relu)] {
                let mut reference = vec![2i32; m * n];
                gemm_i8_ref(m, n, k, a, &w, &mut reference, false);
                let mut reference_acc = reference.clone();
                gemm_i8_ref(m, n, k, a, &w, &mut reference_acc, true);

                let at = format!("{input} {m}x{n}x{k}");
                let mut fast = vec![1i32; m * n];
                gemm_i8(m, n, k, a, &w, &mut fast, false);
                assert_eq!(fast, reference, "dispatched != ref at {at}");
                gemm_i8(m, n, k, a, &w, &mut fast, true);
                assert_eq!(fast, reference_acc, "acc mode diverged at {at}");
                for tier in host_tiers() {
                    let mut out = vec![1i32; m * n];
                    run(tier, m, n, k, a, &w, &mut out, false);
                    assert_eq!(out, reference, "{tier:?} != ref at {at}");
                    run(tier, m, n, k, a, &w, &mut out, true);
                    assert_eq!(out, reference_acc, "{tier:?} acc mode diverged at {at}");
                }
            }
        }
    }

    #[test]
    fn scalar_path_matches_reference() {
        let (m, n, k) = (6, 10, 100);
        let a = fill(m * k, 3);
        let w = fill(k * n, 4);
        let mut scalar = vec![0i32; m * n];
        let mut reference = vec![0i32; m * n];
        gemm_i8_scalar(m, n, k, &a, &w, &mut scalar, false);
        gemm_i8_ref(m, n, k, &a, &w, &mut reference, false);
        assert_eq!(scalar, reference);
    }

    /// `k = MAX_K` with every operand −128 — the worst case the bound is
    /// sized for — on every tier the host can run.
    #[test]
    fn extreme_values_do_not_overflow() {
        let (n, k) = (33, MAX_K);
        let a = vec![-128i8; k];
        let w = vec![-128i8; k * n];
        let expected = i32::try_from(128 * 128 * MAX_K as i64).expect("the bound fits i32");
        let mut reference = vec![0i32; n];
        gemm_i8_ref(1, n, k, &a, &w, &mut reference, false);
        assert_eq!(reference, vec![expected; n]);
        for tier in host_tiers() {
            let mut out = vec![0i32; n];
            run(tier, 1, n, k, &a, &w, &mut out, false);
            assert_eq!(out, reference, "{tier:?} at k = MAX_K");
        }
    }

    #[test]
    #[should_panic(expected = "could overflow i32")]
    fn depth_past_max_k_is_refused() {
        let k = MAX_K + 1;
        gemm_i8(1, 1, k, &vec![0; k], &vec![0; k], &mut [0], false);
    }

    #[test]
    fn simd_level_reports_a_known_name() {
        assert!(["avx512bw", "avx2", "scalar"].contains(&simd_level()));
    }
}
