//! Per-layer profiling: forward/backward time and FLOP counts for every
//! layer of a [`crate::Sequential`], published into an observability
//! registry.
//!
//! A [`LayerProfiler`] is created from an [`Obs`] handle and installed
//! with [`crate::Layer::set_profiler`] (a no-op for layers that don't
//! support it). At attach time the [`crate::Sequential`] resolves one set
//! of counter handles per layer, so recording on the hot path is pure
//! atomic adds — no locks, no allocation, no name formatting.
//!
//! Counter naming: `nn.layer.<index>.<kind>.{fwd_calls, bwd_calls,
//! fwd_ns, bwd_ns, flops}` — e.g. `nn.layer.0.gru.fwd_ns`. Times come
//! from the shared [`Clock`], so under a sim clock they are a pure
//! function of the simulation (zero unless the sim advances mid-pass)
//! and profiled runs stay bit-reproducible.

use crate::layer::LayerInfo;
use mdl_obs::{Clock, Counter, Obs};
use std::sync::Arc;

/// Factory for per-layer counters, shared by everything profiling into
/// the same observability session.
pub struct LayerProfiler {
    clock: Clock,
    registry: mdl_obs::MetricsRegistry,
}

impl std::fmt::Debug for LayerProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LayerProfiler({:?})", self.clock)
    }
}

impl LayerProfiler {
    /// A profiler publishing into `obs`'s registry, timed by its clock.
    pub fn new(obs: &Obs) -> Arc<Self> {
        Arc::new(Self { clock: obs.clock().clone(), registry: obs.registry().clone() })
    }

    /// Current clock reading.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Resolves the counter handles for one model's layer stack.
    pub(crate) fn handles_for(&self, infos: &[LayerInfo]) -> Vec<LayerHandles> {
        infos
            .iter()
            .enumerate()
            .map(|(i, info)| {
                let name = |field: &str| format!("nn.layer.{i}.{}.{field}", info.kind);
                LayerHandles {
                    fwd_calls: self.registry.counter(&name("fwd_calls")),
                    bwd_calls: self.registry.counter(&name("bwd_calls")),
                    fwd_ns: self.registry.counter(&name("fwd_ns")),
                    bwd_ns: self.registry.counter(&name("bwd_ns")),
                    flops: self.registry.counter(&name("flops")),
                    macs: info.macs,
                }
            })
            .collect()
    }
}

/// The resolved counters of one layer; see [`LayerProfiler`].
pub(crate) struct LayerHandles {
    fwd_calls: Counter,
    bwd_calls: Counter,
    fwd_ns: Counter,
    bwd_ns: Counter,
    flops: Counter,
    macs: u64,
}

impl LayerHandles {
    /// Records one forward pass over `rows` examples.
    pub(crate) fn record_fwd(&self, rows: usize, elapsed_ns: u64) {
        self.fwd_calls.inc();
        self.fwd_ns.add(elapsed_ns);
        // one multiply–accumulate = 2 FLOPs, macs is per example
        self.flops.add(2 * self.macs * rows as u64);
    }

    /// Records one backward pass.
    pub(crate) fn record_bwd(&self, elapsed_ns: u64) {
        self.bwd_calls.inc();
        self.bwd_ns.add(elapsed_ns);
    }
}

/// A profiler attached to one [`crate::Sequential`]: the shared clock
/// plus one handle set per layer.
pub(crate) struct Attached {
    pub(crate) profiler: Arc<LayerProfiler>,
    pub(crate) handles: Vec<LayerHandles>,
}

impl Attached {
    pub(crate) fn new(profiler: Arc<LayerProfiler>, infos: &[LayerInfo]) -> Self {
        let handles = profiler.handles_for(infos);
        Self { profiler, handles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::dense::Dense;
    use crate::layer::Layer;
    use crate::sequential::Sequential;
    use mdl_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn profiled_net(obs: &Obs) -> Sequential {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Sequential::new();
        net.push(Dense::new(3, 5, Activation::Tanh, &mut rng));
        net.push(Dense::new(5, 2, Activation::Identity, &mut rng));
        net.set_profiler(Some(LayerProfiler::new(obs)));
        net
    }

    #[test]
    fn counts_calls_and_flops_per_layer() {
        let obs = Obs::sim();
        let mut net = profiled_net(&obs);
        let x = Matrix::ones(4, 3);
        let _ = net.forward(&x);
        let _ = net.backward(&Matrix::ones(4, 2));
        let _ = net.forward_eval(&x);

        let snap = obs.snapshot();
        assert_eq!(snap.counter("nn.layer.0.dense.fwd_calls"), Some(2));
        assert_eq!(snap.counter("nn.layer.0.dense.bwd_calls"), Some(1));
        // dense 3→5: 15 macs/example × 2 flops × 4 rows × 2 passes
        assert_eq!(snap.counter("nn.layer.0.dense.flops"), Some(2 * 15 * 4 * 2));
        assert_eq!(snap.counter("nn.layer.1.dense.flops"), Some(2 * 10 * 4 * 2));
        // sim clock never advanced mid-pass, so recorded times are zero
        assert_eq!(snap.counter("nn.layer.0.dense.fwd_ns"), Some(0));
    }

    #[test]
    fn detaching_stops_recording() {
        let obs = Obs::sim();
        let mut net = profiled_net(&obs);
        net.set_profiler(None);
        let _ = net.forward(&Matrix::ones(2, 3));
        assert_eq!(obs.snapshot().counter("nn.layer.0.dense.fwd_calls"), Some(0));
    }

    #[test]
    fn profiled_forward_matches_unprofiled() {
        let obs = Obs::sim();
        let mut rng = StdRng::seed_from_u64(9);
        let mut plain = Sequential::new();
        plain.push(Dense::new(3, 4, Activation::Relu, &mut rng));
        let mut rng = StdRng::seed_from_u64(9);
        let mut profiled = Sequential::new();
        profiled.push(Dense::new(3, 4, Activation::Relu, &mut rng));
        profiled.set_profiler(Some(LayerProfiler::new(&obs)));

        let x = Matrix::from_rows(&[&[0.3, -1.0, 0.5]]);
        assert!(profiled.forward_eval(&x).approx_eq(&plain.forward_eval(&x), 0.0));
        let a = profiled.forward(&x);
        let b = plain.forward(&x);
        assert!(a.approx_eq(&b, 0.0));
        assert!(profiled
            .backward(&Matrix::ones(1, 4))
            .approx_eq(&plain.backward(&Matrix::ones(1, 4)), 0.0));
    }
}
