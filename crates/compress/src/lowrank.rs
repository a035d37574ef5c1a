//! Low-rank factorization of dense layers (§III-B, reference [36]):
//! replace `W: m × n` by `A · B` with `A: m × r`, `B: r × n`.

use mdl_nn::{Activation, Dense, Sequential};
use mdl_tensor::linalg::svd;
use mdl_tensor::Matrix;

/// Result of factorizing one dense layer.
#[derive(Debug)]
pub struct Factorized {
    /// First factor as a bias-free linear layer (`in × rank`).
    pub first: Dense,
    /// Second factor carrying the original bias and activation (`rank × out`).
    pub second: Dense,
    /// Rank used.
    pub rank: usize,
    /// Parameters before / after.
    pub params_before: usize,
    /// Parameters after factorization.
    pub params_after: usize,
}

/// Factorizes a dense layer at the given rank via truncated SVD.
///
/// The first factor absorbs `U·√Σ`, the second `√Σ·Vᵀ`, which balances the
/// factor magnitudes for subsequent fine-tuning.
///
/// # Panics
///
/// Panics if `rank` is zero or exceeds `min(in, out)`.
pub fn factorize_dense(layer: &Dense, rank: usize) -> Factorized {
    let w = layer.weight();
    let (m, n) = w.shape();
    assert!(rank >= 1 && rank <= m.min(n), "rank must be in 1..=min(in, out)");
    let d = svd(w).truncate(rank);

    let mut a = d.u.clone(); // m × r
    let mut b = d.v.transpose(); // r × n
    for j in 0..rank {
        let s = d.s[j].max(0.0).sqrt();
        for i in 0..m {
            a[(i, j)] *= s;
        }
        for c in 0..n {
            b[(j, c)] *= s;
        }
    }

    let first = Dense::from_parts(a, Matrix::zeros(1, rank), Activation::Identity);
    let second = Dense::from_parts(b, layer.bias().clone(), layer.activation());
    Factorized {
        first,
        second,
        rank,
        params_before: m * n + n,
        params_after: m * rank + rank * n + n,
    }
}

/// Smallest rank capturing at least `energy` of the squared spectrum.
pub fn rank_for_energy(layer: &Dense, energy: f64) -> usize {
    let d = svd(layer.weight());
    let r_max = d.s.len();
    for r in 1..=r_max {
        if d.energy_captured(r) >= energy {
            return r;
        }
    }
    r_max
}

/// Replaces every dense layer of `net` with its rank-`rank_of(layer)`
/// factorization, returning the rebuilt network.
pub fn factorize_network(
    net: &mut Sequential,
    mut rank_of: impl FnMut(&Dense) -> usize,
) -> Sequential {
    let mut out = Sequential::new();
    for layer in net.layers_mut() {
        match layer.as_any_mut().downcast_mut::<Dense>() {
            Some(dense) => {
                let f = factorize_dense(dense, rank_of(dense));
                out.push(f.first);
                out.push(f.second);
            }
            None => {
                // non-dense layers are structural; factorization only
                // targets dense weights, so this pass rejects mixed nets
                panic!("factorize_network only supports all-dense networks");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_nn::Layer;
    use mdl_tensor::linalg::outer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn full_rank_factorization_is_exact() {
        let mut rng = StdRng::seed_from_u64(270);
        let mut layer = Dense::new(6, 4, Activation::Tanh, &mut rng);
        let x = Matrix::from_fn(3, 6, |r, c| ((r + c) as f32 * 0.3).sin());
        let y_full = layer.forward(&x);
        let f = factorize_dense(&layer, 4);
        let mut net = Sequential::new();
        net.push(f.first);
        net.push(f.second);
        let y_fact = net.forward(&x);
        assert!(y_fact.approx_eq(&y_full, 1e-3), "full-rank must match");
    }

    #[test]
    fn low_rank_matrix_factorizes_exactly_at_its_rank() {
        let u = [1.0, -0.5, 2.0, 0.3, -1.2];
        let v = [0.8, 1.5, -0.7];
        let w = outer(&u, &v); // rank 1
        let layer = Dense::from_parts(w, Matrix::zeros(1, 3), Activation::Identity);
        let f = factorize_dense(&layer, 1);
        assert_eq!(f.rank, 1);
        assert!(f.params_after < f.params_before);
        let mut net = Sequential::new();
        let x = Matrix::identity(5);
        net.push(f.first);
        net.push(f.second);
        let rec = net.forward(&x);
        assert!(rec.approx_eq(layer.weight(), 1e-3));
    }

    #[test]
    fn rank_for_energy_finds_intrinsic_rank() {
        let u = [1.0f32, 2.0, 3.0, 4.0];
        let v = [1.0f32, -1.0, 0.5];
        let w = outer(&u, &v);
        let layer = Dense::from_parts(w, Matrix::zeros(1, 3), Activation::Identity);
        assert_eq!(rank_for_energy(&layer, 0.999), 1);
    }

    #[test]
    fn parameter_count_shrinks_when_rank_is_small() {
        let mut rng = StdRng::seed_from_u64(271);
        let layer = Dense::new(64, 64, Activation::Relu, &mut rng);
        let f = factorize_dense(&layer, 8);
        // 64·64 = 4096 vs 64·8 + 8·64 = 1024
        assert!(f.params_after * 3 < f.params_before, "{} vs {}", f.params_after, f.params_before);
    }

    #[test]
    fn factorize_network_doubles_layer_count() {
        let mut rng = StdRng::seed_from_u64(272);
        let mut net = Sequential::new();
        net.push(Dense::new(10, 8, Activation::Relu, &mut rng));
        net.push(Dense::new(8, 4, Activation::Identity, &mut rng));
        let fact = factorize_network(&mut net, |_| 2);
        assert_eq!(fact.len(), 4);
    }
}
