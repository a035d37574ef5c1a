//! # mdl-compress
//!
//! Model compression and acceleration (§III-B of the paper), implementing
//! every family the survey covers:
//!
//! - **parameter pruning & sharing**: magnitude [`prune`]-ing with CSR
//!   [`sparse`] storage, k-means codebook / uniform [`quantize`]-ation, and
//!   the bit-exact [`huffman`] codec — composed into the Deep Compression
//!   [`pipeline`] (prune → quantize → Huffman, reference [28]);
//! - **structural matrices**: FFT-backed block-[`circulant`] layers
//!   (CirCNN, reference [14]);
//! - **low-rank factorization** of dense layers via SVD ([`lowrank`],
//!   reference [36]);
//! - **model distillation** with temperature-softened targets ([`distill`],
//!   reference [37]).
//!
//! # Examples
//!
//! ```
//! use mdl_compress::pipeline::{deep_compress, DeepCompressionConfig};
//! use mdl_nn::{Sequential, Dense, Activation};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = Sequential::new();
//! net.push(Dense::new(32, 16, Activation::Relu, &mut rng));
//! net.push(Dense::new(16, 4, Activation::Identity, &mut rng));
//! let compressed = deep_compress(&mut net, None,
//!     &DeepCompressionConfig { sparsity: 0.8, quant_bits: 4, finetune: None, prune_steps: 1 },
//!     &mut rng);
//! assert!(compressed.report.ratio() > 4.0);
//! ```

#![warn(missing_docs)]

pub mod circulant;
pub mod delta;
pub mod distill;
pub mod huffman;
pub mod lowrank;
pub mod pipeline;
pub mod prune;
pub mod quantize;
pub mod sparse;

pub use circulant::BlockCirculant;
pub use delta::{param_hash, snap_to_codebook, uniform_codebook, DeltaCheckpoint, DeltaError};
pub use distill::{distill, DistillConfig};
pub use huffman::HuffmanEncoded;
pub use lowrank::{factorize_dense, factorize_network, rank_for_energy, Factorized};
pub use pipeline::{deep_compress, CompressedModel, CompressionReport, DeepCompressionConfig};
pub use prune::{achieved_sparsity, apply_masks, prune_matrix, prune_network};
pub use quantize::QuantizedMatrix;
pub use sparse::CsrMatrix;

#[cfg(test)]
mod proptests {
    use crate::huffman::HuffmanEncoded;
    use crate::prune::prune_matrix;
    use crate::quantize::QuantizedMatrix;
    use crate::sparse::CsrMatrix;
    use mdl_tensor::Matrix;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn huffman_round_trips_any_stream(data in prop::collection::vec(any::<u8>(), 0..512)) {
            let enc = HuffmanEncoded::encode(&data);
            prop_assert_eq!(enc.decode(), data);
        }

        #[test]
        fn csr_round_trips(values in prop::collection::vec(-5f32..5.0, 12)) {
            // randomly zero some entries through rounding
            let m = Matrix::from_vec(3, 4, values.iter().map(|v| if v.abs() < 2.0 { 0.0 } else { *v }).collect());
            let csr = CsrMatrix::from_dense(&m);
            prop_assert_eq!(csr.to_dense(), m);
        }

        #[test]
        fn uniform_quantization_error_bounded(
            values in prop::collection::vec(-10f32..10.0, 16),
            bits in 2u32..=8,
        ) {
            let m = Matrix::from_vec(4, 4, values);
            let q = QuantizedMatrix::uniform(&m, bits);
            let lo = m.as_slice().iter().cloned().fold(f32::MAX, f32::min);
            let hi = m.as_slice().iter().cloned().fold(f32::MIN, f32::max);
            let step = (hi - lo) / ((1u32 << bits) - 1) as f32;
            prop_assert!(q.max_error(&m) <= step / 2.0 + 1e-5);
        }

        #[test]
        fn pruning_sparsity_within_one_element(
            values in prop::collection::vec(-3f32..3.0, 25),
            sparsity_pct in 0u32..95,
        ) {
            let sparsity = sparsity_pct as f64 / 100.0;
            let mut m = Matrix::from_vec(5, 5, values);
            let mask = prune_matrix(&mut m, sparsity);
            let zeros = mask.as_slice().iter().filter(|&&v| v == 0.0).count();
            let expected = (25.0 * sparsity).floor() as usize;
            prop_assert_eq!(zeros, expected);
        }
    }
}
