//! # mdl-split
//!
//! Private cloud-based inference (§III-A of the paper, Fig. 3): the ARDEN
//! framework of reference [30]. The device runs a *frozen* shallow slice of
//! the network, perturbs the resulting representation with nullification
//! and calibrated Gaussian noise, and ships only that perturbed, compact
//! representation to the cloud, which completes the inference with a model
//! hardened by **noisy training**.
//!
//! [`early_exit`] adds the other §III system the survey highlights —
//! reference [25]'s distributed DNN, where a device-side exit answers the
//! easy examples and only hard ones travel to the cloud.
//!
//! [`deployment`] places ARDEN next to the two conventional strategies of
//! Fig. 2 — pure on-device and pure cloud inference — using the
//! `mdl-mobile` cost model, so every experiment can report latency, device
//! energy, upload bytes and privacy in one table.
//!
//! [`offload`] rides the ARDEN upload over an `mdl-net` faulty link:
//! retries and timeouts on the representation upload, with an on-device
//! fallback when the cloud is unreachable.

#![warn(missing_docs)]

pub mod arden;
pub mod deployment;
pub mod early_exit;
pub mod offload;

pub use arden::{Arden, ArdenConfig};
pub use deployment::{compare_deployments, DeploymentRow};
pub use early_exit::{EarlyExitNetwork, ExitReport};
pub use offload::{infer_over_link, OffloadOutcome, ServedBy};

#[cfg(test)]
mod proptests {
    use crate::arden::{Arden, ArdenConfig};
    use mdl_nn::{Activation, Dense, Sequential};
    use mdl_tensor::linalg::l2_norm;
    use mdl_tensor::Matrix;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn perturbed_rows_respect_clip_plus_noise_budget(
            seed in 0u64..100,
            clip_x10 in 5u32..50,
            mu_pct in 0u32..80,
        ) {
            let clip = clip_x10 as f32 / 10.0;
            let mu = mu_pct as f32 / 100.0;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut net = Sequential::new();
            net.push(Dense::new(6, 8, Activation::Identity, &mut rng));
            net.push(Dense::new(8, 2, Activation::Identity, &mut rng));
            let arden = Arden::from_pretrained(
                net,
                ArdenConfig { split_at: 1, nullification_rate: mu, noise_sigma: 0.0, clip_norm: clip },
            );
            let x = Matrix::from_fn(4, 6, |r, c| ((r * 6 + c) as f32).sin() * 3.0);
            let rep = arden.transform(&x, &mut rng);
            // with zero noise, every row norm is at most the clip bound
            for r in 0..rep.rows() {
                prop_assert!(l2_norm(rep.row(r)) <= clip as f64 + 1e-4);
            }
        }

        #[test]
        fn zero_config_transform_equals_clean(
            seed in 0u64..100,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut net = Sequential::new();
            net.push(Dense::new(4, 6, Activation::Relu, &mut rng));
            net.push(Dense::new(6, 2, Activation::Identity, &mut rng));
            let arden = Arden::from_pretrained(
                net,
                ArdenConfig { split_at: 1, nullification_rate: 0.0, noise_sigma: 0.0, clip_norm: 1e9 },
            );
            let x = Matrix::from_fn(3, 4, |r, c| (r as f32 - c as f32) * 0.4);
            let clean = arden.transform_clean(&x);
            let perturbed = arden.transform(&x, &mut rng);
            prop_assert!(perturbed.approx_eq(&clean, 1e-6));
        }
    }
}
