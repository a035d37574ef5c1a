//! The three-stage Deep Compression pipeline (Han et al., reference [28]):
//! **prune → quantize (weight sharing) → Huffman-code**, with optional
//! masked fine-tuning between stages.

use crate::huffman::HuffmanEncoded;
use crate::prune::{apply_masks, prune_network};
use crate::quantize::QuantizedMatrix;
use mdl_nn::{fit_classifier, Activation, Adam, Dense, QuantizedModel, Sequential, TrainConfig};
use mdl_tensor::quant::{quantize_value, symmetric_scale};
use mdl_tensor::{Int8Matrix, Matrix};
use rand::rngs::StdRng;

/// Configuration of the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct DeepCompressionConfig {
    /// Target weight sparsity per dense layer.
    pub sparsity: f64,
    /// Codebook bits for weight sharing.
    pub quant_bits: u32,
    /// Optional masked fine-tuning after each pruning step:
    /// `(epochs, learning_rate)`.
    pub finetune: Option<(usize, f32)>,
    /// Number of prune→retrain iterations ramping up to the target sparsity
    /// (Deep Compression prunes iteratively; `1` = one-shot).
    pub prune_steps: usize,
}

impl Default for DeepCompressionConfig {
    fn default() -> Self {
        Self { sparsity: 0.9, quant_bits: 4, finetune: Some((5, 0.01)), prune_steps: 3 }
    }
}

/// One compressed dense layer.
#[derive(Debug, Clone)]
pub struct CompressedDense {
    /// Quantized pruned weights.
    pub weights: QuantizedMatrix,
    /// Huffman-coded quantization indices.
    pub encoded: HuffmanEncoded,
    /// Bias kept in fp32 (negligible size).
    pub bias: Matrix,
    /// The layer's activation.
    pub activation: Activation,
}

/// A fully compressed model plus its size accounting.
#[derive(Debug)]
pub struct CompressedModel {
    /// Compressed layers, front to back.
    pub layers: Vec<CompressedDense>,
    /// Size breakdown.
    pub report: CompressionReport,
}

/// Stage-by-stage size accounting of one compression run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CompressionReport {
    /// fp32 bytes of the original dense weights + biases.
    pub original_bytes: u64,
    /// Bytes if the pruned model were stored in CSR.
    pub pruned_csr_bytes: u64,
    /// Bytes after codebook quantization (packed indices + codebooks).
    pub quantized_bytes: u64,
    /// Final bytes after Huffman coding (stream + tables + codebooks + biases).
    pub final_bytes: u64,
    /// Achieved mean weight sparsity.
    pub sparsity: f64,
}

impl CompressionReport {
    /// End-to-end compression ratio `original / final`.
    pub fn ratio(&self) -> f64 {
        self.original_bytes as f64 / self.final_bytes.max(1) as f64
    }
}

/// Runs prune → (fine-tune) → quantize → Huffman on an all-dense network.
///
/// `train` supplies `(x, labels)` for masked fine-tuning; pass `finetune:
/// None` to skip retraining (one-shot compression).
///
/// # Panics
///
/// Panics if the network contains non-dense layers.
pub fn deep_compress(
    net: &mut Sequential,
    train: Option<(&Matrix, &[usize])>,
    config: &DeepCompressionConfig,
    rng: &mut StdRng,
) -> CompressedModel {
    // stage 0: measure the original
    let mut original_bytes = 0u64;
    for info in net.layer_infos() {
        assert_eq!(info.kind, "dense", "deep_compress expects an all-dense network");
        original_bytes += 4 * info.params as u64;
    }

    // stage 1: iterative prune + masked fine-tune, ramping sparsity
    let steps = config.prune_steps.max(1);
    for step in 1..=steps {
        let target = config.sparsity * step as f64 / steps as f64;
        let masks = prune_network(net, target);
        if let (Some((x, y)), Some((epochs, lr))) = (train, config.finetune) {
            let mut opt = Adam::new(lr);
            for _ in 0..epochs {
                let _ = fit_classifier(
                    net,
                    &mut opt,
                    x,
                    y,
                    &TrainConfig { epochs: 1, batch_size: 32, ..Default::default() },
                    rng,
                );
                apply_masks(net, &masks);
            }
        }
    }

    // stages 2 + 3 per layer
    let mut layers = Vec::new();
    let mut pruned_csr_bytes = 0u64;
    let mut quantized_bytes = 0u64;
    let mut final_bytes = 0u64;
    let mut zero_count = 0usize;
    let mut weight_count = 0usize;
    for layer in net.layers_mut() {
        let dense =
            layer.as_any_mut().downcast_mut::<Dense>().expect("all-dense network (checked above)");
        let w = dense.weight().clone();
        zero_count += w.as_slice().iter().filter(|&&v| v == 0.0).count();
        weight_count += w.len();

        pruned_csr_bytes += crate::sparse::CsrMatrix::from_dense(&w).storage_bytes();
        let q = QuantizedMatrix::kmeans(&w, config.quant_bits, rng);
        quantized_bytes += q.storage_bytes() + 4 * dense.bias().len() as u64;
        let encoded = HuffmanEncoded::encode(q.indices());
        final_bytes +=
            encoded.storage_bytes() + 4 * q.codebook().len() as u64 + 4 * dense.bias().len() as u64;

        layers.push(CompressedDense {
            weights: q,
            encoded,
            bias: dense.bias().clone(),
            activation: dense.activation(),
        });
    }

    CompressedModel {
        layers,
        report: CompressionReport {
            original_bytes,
            pruned_csr_bytes,
            quantized_bytes,
            final_bytes,
            sparsity: zero_count as f64 / weight_count.max(1) as f64,
        },
    }
}

impl CompressedModel {
    /// Reconstructs a runnable network from the compressed representation
    /// (verifying the Huffman stream decodes to the stored indices).
    pub fn decompress(&self) -> Sequential {
        let mut net = Sequential::new();
        for layer in &self.layers {
            debug_assert_eq!(
                layer.encoded.decode(),
                layer.weights.indices(),
                "Huffman stream corrupt"
            );
            let w = layer.weights.dequantize();
            net.push(Dense::from_parts(w, layer.bias.clone(), layer.activation));
        }
        net
    }

    /// Lowers the compressed artifact onto the int8 execution path
    /// directly: each layer's codebook levels requantize per output
    /// channel into an [`Int8Matrix`], so the serving side never
    /// materializes (or executes) an f32 weight matrix. This is the
    /// artifact → [`QuantizedModel`] bridge `mdl-serve` hot-swaps in.
    pub fn to_quantized(&self) -> QuantizedModel {
        let parts = self
            .layers
            .iter()
            .map(|layer| {
                debug_assert_eq!(
                    layer.encoded.decode(),
                    layer.weights.indices(),
                    "Huffman stream corrupt"
                );
                let (rows, cols) = layer.weights.shape();
                let codebook = layer.weights.codebook();
                let idx = layer.weights.indices();
                // input-major bytes, straight from codebook levels: one
                // row-major pass for the channel scales, one for the bytes
                let mut scales = vec![0.0f32; cols];
                for row in idx.chunks_exact(cols.max(1)) {
                    for (max_abs, &i) in scales.iter_mut().zip(row) {
                        *max_abs = max_abs.max(codebook[i as usize].abs());
                    }
                }
                for scale in &mut scales {
                    *scale = symmetric_scale(*scale);
                }
                let mut data = Vec::with_capacity(rows * cols);
                for row in idx.chunks_exact(cols.max(1)) {
                    data.extend(
                        row.iter()
                            .zip(&scales)
                            .map(|(&i, &s)| quantize_value(codebook[i as usize], s)),
                    );
                }
                let w = Int8Matrix::from_input_rows(rows, cols, data, scales);
                (w, layer.bias.as_slice().to_vec(), layer.activation)
            })
            .collect();
        QuantizedModel::from_dense_parts(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_data::synthetic::synthetic_digits;
    use mdl_nn::{Activation, Dense};
    use rand::SeedableRng;

    fn trained_digits_net(rng: &mut StdRng) -> (Sequential, mdl_data::Dataset, mdl_data::Dataset) {
        let data = synthetic_digits(600, 0.08, rng);
        let (train, test) = data.split(0.8, rng);
        let mut net = Sequential::new();
        net.push(Dense::new(64, 128, Activation::Relu, rng));
        net.push(Dense::new(128, 10, Activation::Identity, rng));
        let mut opt = Adam::new(0.01);
        let _ = fit_classifier(
            &mut net,
            &mut opt,
            &train.x,
            &train.y,
            &TrainConfig { epochs: 25, ..Default::default() },
            rng,
        );
        (net, train, test)
    }

    #[test]
    fn pipeline_achieves_order_of_magnitude_compression() {
        let mut rng = StdRng::seed_from_u64(300);
        let (mut net, train, test) = trained_digits_net(&mut rng);
        let base_acc = net.accuracy(&test.x, &test.y);
        assert!(base_acc > 0.85, "base accuracy {base_acc}");

        let compressed = deep_compress(
            &mut net,
            Some((&train.x, &train.y)),
            &DeepCompressionConfig {
                sparsity: 0.8,
                quant_bits: 4,
                finetune: Some((4, 0.01)),
                prune_steps: 2,
            },
            &mut rng,
        );
        let ratio = compressed.report.ratio();
        assert!(ratio > 10.0, "compression ratio {ratio}");

        let restored = compressed.decompress();
        let acc = restored.accuracy(&test.x, &test.y);
        assert!(
            acc > base_acc - 0.1,
            "compressed accuracy {acc} vs base {base_acc} (ratio {ratio:.1}x)"
        );
    }

    #[test]
    fn stage_sizes_are_monotone() {
        let mut rng = StdRng::seed_from_u64(301);
        let (mut net, train, _) = trained_digits_net(&mut rng);
        let c = deep_compress(
            &mut net,
            Some((&train.x, &train.y)),
            &DeepCompressionConfig::default(),
            &mut rng,
        );
        let r = c.report;
        assert!(r.original_bytes > r.pruned_csr_bytes, "{r:?}");
        assert!(r.pruned_csr_bytes > r.quantized_bytes, "{r:?}");
        assert!(r.quantized_bytes >= r.final_bytes, "{r:?}");
        assert!((r.sparsity - 0.9).abs() < 0.02, "{r:?}");
    }

    #[test]
    fn one_shot_compression_without_finetune_works() {
        let mut rng = StdRng::seed_from_u64(302);
        let (mut net, _, test) = trained_digits_net(&mut rng);
        let c = deep_compress(
            &mut net,
            None,
            &DeepCompressionConfig { sparsity: 0.5, quant_bits: 5, finetune: None, prune_steps: 1 },
            &mut rng,
        );
        let restored = c.decompress();
        let acc = restored.accuracy(&test.x, &test.y);
        assert!(acc > 0.6, "mild one-shot compression keeps accuracy: {acc}");
    }

    #[test]
    fn quantized_bridge_tracks_the_decompressed_model() {
        let mut rng = StdRng::seed_from_u64(304);
        let (mut net, _, test) = trained_digits_net(&mut rng);
        let c = deep_compress(
            &mut net,
            None,
            &DeepCompressionConfig { sparsity: 0.5, quant_bits: 6, finetune: None, prune_steps: 1 },
            &mut rng,
        );
        let f32_path = c.decompress();
        let int8_path = c.to_quantized();
        let acc_f32 = f32_path.accuracy(&test.x, &test.y);
        let acc_int8 = int8_path.accuracy(&test.x, &test.y);
        assert!(
            (acc_f32 - acc_int8).abs() < 0.05,
            "int8 artifact path {acc_int8} should track dequantized path {acc_f32}"
        );
        assert!(
            int8_path.storage_bytes() < c.report.original_bytes as usize / 3,
            "int8 artifact must stay far below the f32 original"
        );
        // the bridge quantizes the codebook levels exactly as quantizing
        // the decompressed f32 model would
        let requantized = QuantizedModel::from_model(&f32_path).expect("a Dense stack quantizes");
        assert_eq!(
            int8_path.forward_eval(&test.x).as_slice(),
            requantized.forward_eval(&test.x).as_slice()
        );
    }

    #[test]
    fn finetuning_recovers_accuracy_lost_to_aggressive_pruning() {
        let mut rng = StdRng::seed_from_u64(303);
        let (net, train, test) = trained_digits_net(&mut rng);

        // clone the trained network parameters into two copies
        use mdl_nn::ParamVector;
        let mut a = net;
        let params = a.param_vector();
        let rebuild = |params: &[f32], rng: &mut StdRng| {
            let mut n = Sequential::new();
            n.push(Dense::new(64, 128, Activation::Relu, rng));
            n.push(Dense::new(128, 10, Activation::Identity, rng));
            n.set_param_vector(params);
            n
        };
        let mut b = rebuild(&params, &mut rng);

        let cfg_no_ft =
            DeepCompressionConfig { sparsity: 0.9, quant_bits: 5, finetune: None, prune_steps: 1 };
        let cfg_ft = DeepCompressionConfig {
            sparsity: 0.9,
            quant_bits: 5,
            finetune: Some((5, 0.01)),
            prune_steps: 3,
        };
        let no_ft = deep_compress(&mut a, Some((&train.x, &train.y)), &cfg_no_ft, &mut rng);
        let ft = deep_compress(&mut b, Some((&train.x, &train.y)), &cfg_ft, &mut rng);
        let acc_no_ft = no_ft.decompress().accuracy(&test.x, &test.y);
        let acc_ft = ft.decompress().accuracy(&test.x, &test.y);
        assert!(
            acc_ft > acc_no_ft + 0.05,
            "fine-tuning should recover accuracy: {acc_ft} vs {acc_no_ft}"
        );
    }
}
