//! Magnitude pruning (Han et al., paper references [13], [28]): "learning
//! only the important connections".

use mdl_nn::{Dense, Layer, Sequential};
use mdl_tensor::Matrix;

/// Zeroes the smallest-magnitude `sparsity` fraction of entries of a matrix.
///
/// Returns the binary keep-mask.
///
/// # Examples
///
/// ```
/// use mdl_compress::prune_matrix;
/// use mdl_tensor::Matrix;
///
/// let mut w = Matrix::from_rows(&[&[0.1, -3.0], &[2.0, 0.05]]);
/// let mask = prune_matrix(&mut w, 0.5);
/// assert_eq!(w[(0, 0)], 0.0); // small weights dropped
/// assert_eq!(w[(0, 1)], -3.0); // large ones survive
/// assert_eq!(mask.sum(), 2.0);
/// ```
///
/// # Panics
///
/// Panics unless `0 <= sparsity < 1`.
pub fn prune_matrix(weights: &mut Matrix, sparsity: f64) -> Matrix {
    assert!((0.0..1.0).contains(&sparsity), "sparsity must be in [0, 1)");
    let n = weights.len();
    let drop = ((n as f64) * sparsity).floor() as usize;
    let mut mask = Matrix::ones(weights.rows(), weights.cols());
    if drop == 0 {
        return mask;
    }
    let mut magnitudes: Vec<(f32, usize)> =
        weights.as_slice().iter().enumerate().map(|(i, &v)| (v.abs(), i)).collect();
    magnitudes.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    for &(_, i) in magnitudes.iter().take(drop) {
        weights.as_mut_slice()[i] = 0.0;
        mask.as_mut_slice()[i] = 0.0;
    }
    mask
}

/// The pruning threshold below which magnitudes were dropped, given the mask
/// actually applied — diagnostic only.
pub fn achieved_sparsity(weights: &Matrix) -> f64 {
    let zeros = weights.as_slice().iter().filter(|&&v| v == 0.0).count();
    zeros as f64 / weights.len().max(1) as f64
}

/// Prunes every [`Dense`] layer of a [`Sequential`] to the target sparsity,
/// returning per-layer keep-masks (biases are never pruned).
pub fn prune_network(net: &mut Sequential, sparsity: f64) -> Vec<Matrix> {
    let mut masks = Vec::new();
    for layer in net.layers_mut() {
        if let Some(dense) = layer_as_dense(layer.as_mut()) {
            masks.push(prune_matrix(dense.weight_mut(), sparsity));
        }
    }
    masks
}

/// Re-applies keep-masks after a fine-tuning step so pruned weights stay
/// zero (the retraining loop of Deep Compression).
///
/// # Panics
///
/// Panics if the number of masks does not match the number of dense layers.
pub fn apply_masks(net: &mut Sequential, masks: &[Matrix]) {
    let mut it = masks.iter();
    for layer in net.layers_mut() {
        if let Some(dense) = layer_as_dense(layer.as_mut()) {
            let mask = it.next().expect("one mask per dense layer");
            let masked = dense.weight().hadamard(mask);
            *dense.weight_mut() = masked;
        }
    }
    assert!(it.next().is_none(), "more masks than dense layers");
}

/// Downcast helper: `Layer` objects that are dense layers.
pub(crate) fn layer_as_dense(layer: &mut dyn Layer) -> Option<&mut Dense> {
    layer.as_any_mut().downcast_mut::<Dense>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_nn::{Activation, ParamVector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn prune_matrix_hits_target() {
        let mut w = Matrix::from_fn(10, 10, |r, c| ((r * 10 + c) as f32 - 50.0) / 10.0);
        let mask = prune_matrix(&mut w, 0.7);
        assert!((achieved_sparsity(&w) - 0.7).abs() < 0.02);
        assert_eq!(mask.sum() as usize, 30);
        // the surviving weights are the largest in magnitude
        let min_kept =
            w.as_slice().iter().filter(|&&v| v != 0.0).map(|v| v.abs()).fold(f32::MAX, f32::min);
        assert!(min_kept >= 2.0, "min kept magnitude {min_kept}");
    }

    #[test]
    fn zero_sparsity_is_identity() {
        let mut w = Matrix::ones(3, 3);
        let mask = prune_matrix(&mut w, 0.0);
        assert_eq!(w.sum(), 9.0);
        assert_eq!(mask.sum(), 9.0);
    }

    #[test]
    fn prune_network_prunes_dense_layers_only() {
        let mut rng = StdRng::seed_from_u64(250);
        let mut net = Sequential::new();
        net.push(Dense::new(8, 8, Activation::Relu, &mut rng));
        net.push(mdl_nn::Dropout::new(8, 0.1, 1));
        net.push(Dense::new(8, 4, Activation::Identity, &mut rng));
        let masks = prune_network(&mut net, 0.5);
        assert_eq!(masks.len(), 2);
        let mut zeros = 0usize;
        let mut total = 0usize;
        net.visit_params(&mut |v, _| {
            if v.rows() > 1 {
                zeros += v.as_slice().iter().filter(|&&x| x == 0.0).count();
                total += v.len();
            }
        });
        assert!((zeros as f64 / total as f64 - 0.5).abs() < 0.05);
    }

    #[test]
    fn masks_keep_pruned_weights_zero_after_update() {
        let mut rng = StdRng::seed_from_u64(251);
        let mut net = Sequential::new();
        net.push(Dense::new(4, 4, Activation::Identity, &mut rng));
        let masks = prune_network(&mut net, 0.5);
        // simulate a fine-tune step that perturbs everything
        let params: Vec<f32> = net.param_vector().iter().map(|v| v + 0.1).collect();
        net.set_param_vector(&params);
        apply_masks(&mut net, &masks);
        let zeros = net
            .param_vector()
            .iter()
            .take(16) // the weight part
            .filter(|&&v| v == 0.0)
            .count();
        assert_eq!(zeros, 8, "masked weights must stay zero");
    }

    #[test]
    fn pruned_network_still_runs() {
        let mut rng = StdRng::seed_from_u64(252);
        let mut net = Sequential::new();
        net.push(Dense::new(6, 12, Activation::Relu, &mut rng));
        net.push(Dense::new(12, 3, Activation::Identity, &mut rng));
        let _ = prune_network(&mut net, 0.8);
        let y = net.forward(&Matrix::ones(2, 6));
        assert_eq!(y.shape(), (2, 3));
        assert!(y.all_finite());
    }
}
