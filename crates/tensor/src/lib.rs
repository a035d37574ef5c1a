//! # mdl-tensor
//!
//! From-scratch dense linear algebra for the `mobile-dl` workspace — the
//! numeric substrate beneath every other crate in the reproduction of
//! *Deep Learning Towards Mobile Applications* (ICDCS 2018).
//!
//! The crate provides:
//!
//! - [`Matrix`]: a row-major `f32` matrix with the product/transpose/reduction
//!   operations the neural-network layers need;
//! - [`kernel`]: the cache-blocked, panel-packed GEMM every matrix product
//!   dispatches to, parallelized over row panels with bit-identical results
//!   for any thread count, plus [`kernel::int8`] — the explicit-SIMD int8
//!   GEMM microkernel behind the quantized inference path;
//! - [`par`]: [`par::for_each_claimed`], the one helper every per-call
//!   parallel loop of the workspace runs its workers through;
//! - [`quant`]: per-output-channel symmetric int8 weights ([`Int8Matrix`])
//!   and the saturating activation-requantize helpers;
//! - [`arena`]: compile-once shared scratch arenas ([`Arena`]/[`BufferId`])
//!   that let `mdl_nn`'s execution plans run with zero steady-state heap
//!   allocation;
//! - [`Init`]: seeded weight-initialisation schemes (uniform, Gaussian,
//!   Xavier, He);
//! - [`linalg`]: one-sided Jacobi SVD (for low-rank layer compression),
//!   L2 norms and clipping (for differential privacy);
//! - [`fft`]: radix-2 FFT and circulant products (for CirCNN-style layers);
//! - [`stats`]: softmax/log-sum-exp, one-hot encoding, correlation and
//!   quantile helpers used by the applications' analytics;
//! - [`wire`]: the one bounded little-endian [`wire::Reader`] every decoder
//!   of outside bytes (saved models, deltas, Huffman blocks, updates,
//!   request records) reads through.
//!
//! # Examples
//!
//! ```
//! use mdl_tensor::{Matrix, Init};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let w = Init::Xavier.sample(4, 3, &mut rng);
//! let x = Matrix::ones(2, 4);
//! let y = x.matmul(&w);
//! assert_eq!(y.shape(), (2, 3));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod arena;
pub mod fft;
pub mod init;
pub mod kernel;
pub mod linalg;
pub mod matrix;
pub mod par;
pub mod quant;
pub mod stats;
pub mod wire;

pub use arena::{Arena, ArenaBuilder, BufferId};
pub use init::Init;
pub use matrix::Matrix;
pub use quant::Int8Matrix;

#[cfg(test)]
mod proptests {
    use crate::fft::{circulant_matvec, circulant_matvec_dense};
    use crate::linalg::{clip_l2, l2_norm, svd};
    use crate::stats::{log_sum_exp, softmax_rows};
    use crate::Matrix;
    use proptest::prelude::*;

    fn small_f32() -> impl Strategy<Value = f32> {
        (-100i32..=100).prop_map(|v| v as f32 / 10.0)
    }

    proptest! {
        #[test]
        fn matmul_distributes_over_add(
            a in prop::collection::vec(small_f32(), 12),
            b in prop::collection::vec(small_f32(), 12),
            c in prop::collection::vec(small_f32(), 12),
        ) {
            let a = Matrix::from_vec(3, 4, a);
            let b = Matrix::from_vec(4, 3, b);
            let c = Matrix::from_vec(4, 3, c);
            let lhs = a.matmul(&b.add(&c));
            let rhs = a.matmul(&b).add(&a.matmul(&c));
            prop_assert!(lhs.approx_eq(&rhs, 1e-2));
        }

        #[test]
        fn transpose_of_product_is_reversed_product(
            a in prop::collection::vec(small_f32(), 6),
            b in prop::collection::vec(small_f32(), 6),
        ) {
            let a = Matrix::from_vec(2, 3, a);
            let b = Matrix::from_vec(3, 2, b);
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            prop_assert!(lhs.approx_eq(&rhs, 1e-3));
        }

        #[test]
        fn clip_never_increases_norm(
            mut v in prop::collection::vec(small_f32(), 1..32),
            max_norm in 0.1f64..10.0,
        ) {
            let before = l2_norm(&v);
            clip_l2(&mut v, max_norm);
            let after = l2_norm(&v);
            prop_assert!(after <= max_norm + 1e-4);
            prop_assert!(after <= before + 1e-6);
        }

        #[test]
        fn softmax_rows_are_distributions(
            data in prop::collection::vec(-20f32..20.0, 12),
        ) {
            let p = softmax_rows(&Matrix::from_vec(3, 4, data));
            for r in 0..3 {
                let s: f32 = p.row(r).iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-4);
                prop_assert!(p.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
            }
        }

        #[test]
        fn log_sum_exp_bounds(xs in prop::collection::vec(-50f64..50.0, 1..16)) {
            let lse = log_sum_exp(&xs);
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(lse >= max - 1e-9);
            prop_assert!(lse <= max + (xs.len() as f64).ln() + 1e-9);
        }

        #[test]
        fn svd_reconstruction_property(
            data in prop::collection::vec(small_f32(), 20),
        ) {
            let a = Matrix::from_vec(5, 4, data);
            let d = svd(&a);
            prop_assert!(d.reconstruct().approx_eq(&a, 1e-2));
        }

        #[test]
        fn int8_kernel_bitwise_matches_reference_on_arbitrary_shapes(
            m in 1usize..16,
            n in 1usize..40,
            k in 0usize..80,
            a_pool in prop::collection::vec((-128i32..=127).prop_map(|v| v as i8), 16 * 80),
            b_pool in prop::collection::vec((-128i32..=127).prop_map(|v| v as i8), 40 * 80),
            acc in any::<bool>(),
        ) {
            use crate::kernel::int8::{gemm_i8, gemm_i8_ref, gemm_i8_scalar};
            let a = &a_pool[..m * k];
            let bt = &b_pool[..n * k];
            let mut reference = vec![7i32; m * n];
            let mut dispatched = vec![7i32; m * n];
            let mut scalar = vec![7i32; m * n];
            gemm_i8_ref(m, n, k, a, bt, &mut reference, acc);
            gemm_i8(m, n, k, a, bt, &mut dispatched, acc);
            gemm_i8_scalar(m, n, k, a, bt, &mut scalar, acc);
            prop_assert_eq!(&dispatched, &reference, "dispatched != ref at {}x{}x{}", m, n, k);
            prop_assert_eq!(&scalar, &reference, "scalar != ref at {}x{}x{}", m, n, k);
        }

        #[test]
        fn int8_requantize_round_trips_within_half_step(
            xs in prop::collection::vec(-50f32..50.0, 1..64),
        ) {
            use crate::quant::quantize_slice;
            let mut q = vec![0i8; xs.len()];
            let scale = quantize_slice(&xs, &mut q);
            for (&x, &b) in xs.iter().zip(&q) {
                prop_assert!((x - b as f32 * scale).abs() <= 0.5 * scale + 1e-6);
                prop_assert!((-127..=127).contains(&(b as i32)));
            }
        }

        #[test]
        fn circulant_fft_equals_dense(
            c in prop::collection::vec(small_f32(), 8),
            x in prop::collection::vec(small_f32(), 8),
        ) {
            let fast = circulant_matvec(&c, &x);
            let dense = circulant_matvec_dense(&c, &x);
            for (f, d) in fast.iter().zip(dense.iter()) {
                prop_assert!((f - d).abs() < 1e-2);
            }
        }
    }

    /// `Trans::T` when the drawn flag is set.
    fn trans(t: bool) -> crate::kernel::Trans {
        if t {
            crate::kernel::Trans::T
        } else {
            crate::kernel::Trans::N
        }
    }

    // The f32 kernel properties: shapes large enough that most cases take
    // the blocked path (m ≥ SMALL_M), crossing an MR edge, the MC = 128
    // row-block edge and KC = 256 twice, with ragged n around NR. Every
    // product runs on the dispatched tier and the pinned-portable tier and
    // both are compared with `gemm_naive` bit for bit.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn blocked_kernel_bitwise_matches_naive_on_arbitrary_shapes(
            m in 1usize..=160,
            n in 1usize..=50,
            k in 0usize..=600,
            acc in any::<bool>(),
            a_pool in prop::collection::vec(small_f32(), 160 * 600),
            b_pool in prop::collection::vec(small_f32(), 600 * 50),
            seed_pool in prop::collection::vec(small_f32(), 160 * 50),
        ) {
            use crate::kernel::{bits, gemm, gemm_bias_act, gemm_naive, on_both_tiers, Trans, TEST_THREADS_LOCK};
            // The same flat buffer serves as m×k or k×m (equal length), so
            // all four transposition combinations reuse one pool slice.
            let a = &a_pool[..m * k];
            let b = &b_pool[..k * n];
            let init = &seed_pool[..m * n];
            let _guard = TEST_THREADS_LOCK.lock().unwrap();
            for (ta, tb) in [
                (Trans::N, Trans::N),
                (Trans::T, Trans::N),
                (Trans::N, Trans::T),
                (Trans::T, Trans::T),
            ] {
                let mut slow = init.to_vec();
                gemm_naive(ta, tb, m, n, k, a, b, &mut slow, acc);
                let (fast, portable) = on_both_tiers(|| {
                    let mut out = init.to_vec();
                    gemm(ta, tb, m, n, k, a, b, &mut out, acc);
                    bits(&out)
                });
                prop_assert!(fast == bits(&slow), "dispatched != naive at {m}x{n}x{k} {ta:?}{tb:?} acc={acc}");
                prop_assert!(portable == bits(&slow), "portable != naive at {m}x{n}x{k} {ta:?}{tb:?} acc={acc}");
            }
            // fused bias + ReLU epilogue against seed-rows, naive, map
            let relu = |v: f32| v.max(0.0);
            let bias = &seed_pool[..n];
            let mut slow: Vec<f32> = bias.iter().copied().cycle().take(m * n).collect();
            gemm_naive(Trans::N, Trans::N, m, n, k, a, b, &mut slow, true);
            slow.iter_mut().for_each(|v| *v = relu(*v));
            let (fast, portable) = on_both_tiers(|| {
                let mut out = vec![f32::NAN; m * n];
                gemm_bias_act(m, n, k, a, b, bias, Some(&relu), &mut out);
                bits(&out)
            });
            prop_assert!(fast == bits(&slow), "fused dispatched != naive at {m}x{n}x{k}");
            prop_assert!(portable == bits(&slow), "fused portable != naive at {m}x{n}x{k}");
        }

        // Every shape drawn here is above `PAR_MIN_MACS` (64·33·500 > 2²⁰)
        // and has ≥ 16 row panels, so each thread count really spawns
        // that many workers.
        #[test]
        fn kernel_bits_do_not_depend_on_thread_count(
            m in 64usize..=160,
            n in 33usize..=80,
            k in 500usize..=600,
            ta in any::<bool>(),
            tb in any::<bool>(),
            acc in any::<bool>(),
            a_pool in prop::collection::vec(small_f32(), 160 * 600),
            b_pool in prop::collection::vec(small_f32(), 600 * 80),
            seed_pool in prop::collection::vec(small_f32(), 160 * 80),
        ) {
            use crate::kernel::{bits, gemm, gemm_naive, on_both_tiers, set_threads, threads, TEST_THREADS_LOCK};
            let (ta, tb) = (trans(ta), trans(tb));
            let a = &a_pool[..m * k];
            let b = &b_pool[..k * n];
            let init = &seed_pool[..m * n];
            let mut reference = init.to_vec();
            gemm_naive(ta, tb, m, n, k, a, b, &mut reference, acc);
            let _guard = TEST_THREADS_LOCK.lock().unwrap();
            let before = threads();
            for nt in [1usize, 2, 3, 8] {
                set_threads(nt);
                let (fast, portable) = on_both_tiers(|| {
                    let mut out = init.to_vec();
                    gemm(ta, tb, m, n, k, a, b, &mut out, acc);
                    bits(&out)
                });
                prop_assert!(fast == bits(&reference), "threads={nt} diverged at {m}x{n}x{k} {ta:?}{tb:?}");
                prop_assert!(portable == bits(&reference), "threads={nt} portable diverged at {m}x{n}x{k} {ta:?}{tb:?}");
            }
            set_threads(before);
        }
    }
}
