//! Declarative model specification shared by server and clients.
//!
//! Federated clients cannot share a single mutable model, so the simulation
//! ships a [`MlpSpec`] (architecture + init seed) and a flat parameter
//! vector; every participant can then materialise an identical model.

use mdl_data::Dataset;
use mdl_nn::{fit_classifier, Activation, Dense, ParamVector, Sequential, Sgd, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Architecture of a multilayer perceptron classifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpSpec {
    /// Layer widths, input first, classes last, e.g. `[64, 128, 10]`.
    pub dims: Vec<usize>,
    /// Seed for the deterministic initial weights.
    pub init_seed: u64,
}

impl MlpSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(dims: Vec<usize>, init_seed: u64) -> Self {
        assert!(dims.len() >= 2, "an MLP needs at least input and output widths");
        Self { dims, init_seed }
    }

    /// Builds the network at its deterministic initial weights.
    ///
    /// Hidden layers use ReLU; the output layer emits raw logits.
    pub fn build(&self) -> Sequential {
        let mut rng = StdRng::seed_from_u64(self.init_seed);
        let mut net = Sequential::new();
        for w in self.dims.windows(2).enumerate() {
            let (i, pair) = w;
            let act =
                if i + 2 == self.dims.len() { Activation::Identity } else { Activation::Relu };
            net.push(Dense::new(pair[0], pair[1], act, &mut rng));
        }
        net
    }

    /// Builds the network and loads `params` into it.
    ///
    /// # Panics
    ///
    /// Panics if `params` has the wrong length.
    pub fn build_with(&self, params: &[f32]) -> Sequential {
        let mut net = self.build();
        net.set_param_vector(params);
        net
    }

    /// One client's local step, the same under FedAvg, population FedAvg
    /// and DP-FedAvg: materialise the model at `global`, run `epochs` of
    /// shuffled mini-batch SGD over `data` from a generator seeded with
    /// `seed` and return the trained parameters. Who is selected and how
    /// the result is clipped, weighted or noised is what differs, and stays
    /// with the caller.
    pub fn train_client(
        &self,
        global: &[f32],
        data: &Dataset,
        epochs: usize,
        batch_size: usize,
        learning_rate: f32,
        seed: u64,
    ) -> Vec<f32> {
        let mut local = self.build_with(global);
        let config = TrainConfig { epochs, batch_size, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut opt = Sgd::new(learning_rate);
        let _ = fit_classifier(&mut local, &mut opt, &data.x, &data.y, &config, &mut rng);
        local.param_vector()
    }

    /// Number of scalar parameters of the architecture.
    pub fn num_params(&self) -> usize {
        self.dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_nn::Layer;
    use mdl_tensor::Matrix;

    #[test]
    fn build_is_deterministic() {
        let spec = MlpSpec::new(vec![4, 8, 3], 9);
        let mut a = spec.build();
        let mut b = spec.build();
        assert_eq!(a.param_vector(), b.param_vector());
        assert_eq!(spec.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn build_with_loads_params() {
        let spec = MlpSpec::new(vec![2, 2], 1);
        let params = vec![1.0, 0.0, 0.0, 1.0, 0.5, -0.5];
        let mut net = spec.build_with(&params);
        assert_eq!(net.param_vector(), params);
        let y = net.forward(&Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(y.row(0), &[2.5, 2.5]);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_single_dim() {
        let _ = MlpSpec::new(vec![4], 0);
    }
}
