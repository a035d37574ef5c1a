//! Split inference over a faulty radio: ARDEN's upload ridden over an
//! `mdl-net` [`Link`], with retries, timeouts and a graceful on-device
//! fallback when the cloud is unreachable.
//!
//! The Fig. 3 pipeline assumes the perturbed representation always reaches
//! the cloud. Real mobile links drop out mid-inference; this module makes
//! the degradation explicit: each inference either completes over the link
//! (possibly after retries) or falls back to finishing the *whole* forward
//! pass on the device — correct but at full local compute cost, and with
//! zero bytes leaving the device.

use crate::arden::Arden;
use mdl_net::{Direction, Link, NetError, RetryPolicy};
use mdl_tensor::Matrix;
use rand::Rng;

/// How a single batched inference was ultimately served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The representation reached the cloud; result returned over the link.
    Cloud,
    /// The link failed (even after retries); the device finished the
    /// forward pass locally.
    OnDeviceFallback,
}

/// Outcome of one split inference attempted over a link.
#[derive(Debug, Clone)]
pub struct OffloadOutcome {
    /// Predicted class per example.
    pub predictions: Vec<usize>,
    /// Where the inference completed.
    pub served_by: ServedBy,
    /// Transport error that triggered the fallback, if any.
    pub fallback_cause: Option<NetError>,
    /// Total link attempts across upload and download (0 on pure fallback
    /// after an upload that never got through).
    pub attempts: u32,
    /// Simulated link time spent, including failed attempts and backoff.
    pub link_elapsed_s: f64,
    /// Bytes that actually left the device (0 when the upload never
    /// succeeded).
    pub uploaded_bytes: u64,
}

/// Runs one ARDEN inference for the batch `x` over `link`.
///
/// The perturbed representation is uploaded with `retry`; on success the
/// (8-byte-per-example) class results are downloaded over the same link.
/// Any transport failure — exhausted retries, deadline, partition — falls
/// back to completing the forward pass on the device with the *clean*
/// representation: nothing leaves the device, so no perturbation is needed
/// and the fallback answer is at least as accurate as the cloud path.
pub fn infer_over_link(
    arden: &Arden,
    x: &Matrix,
    link: &mut Link,
    retry: &RetryPolicy,
    rng: &mut impl Rng,
) -> OffloadOutcome {
    let up_bytes = arden.representation_bytes() * x.rows() as u64;
    let down_bytes = 8 * x.rows() as u64;

    let rep = arden.transform(x, rng);
    match link.send(up_bytes, Direction::Up, retry) {
        Ok(up) => {
            let predictions = arden.cloud_logits(&rep).argmax_rows();
            // the result ride-back shares the retry budget; a lost result is
            // a lost inference, so it too falls back
            match link.send(down_bytes, Direction::Down, retry) {
                Ok(down) => OffloadOutcome {
                    predictions,
                    served_by: ServedBy::Cloud,
                    fallback_cause: None,
                    attempts: up.attempts + down.attempts,
                    link_elapsed_s: up.elapsed_s + down.elapsed_s,
                    uploaded_bytes: up.bytes,
                },
                Err(err) => fallback(arden, x, err, up.attempts, up.elapsed_s, up.bytes),
            }
        }
        Err(err) => fallback(arden, x, err, 0, link.round_elapsed_s(), 0),
    }
}

fn fallback(
    arden: &Arden,
    x: &Matrix,
    cause: NetError,
    attempts: u32,
    link_elapsed_s: f64,
    uploaded_bytes: u64,
) -> OffloadOutcome {
    let rep = arden.transform_clean(x);
    OffloadOutcome {
        predictions: arden.cloud_logits(&rep).argmax_rows(),
        served_by: ServedBy::OnDeviceFallback,
        fallback_cause: Some(cause),
        attempts,
        link_elapsed_s,
        uploaded_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arden::ArdenConfig;
    use mdl_net::{LinkConfig, RoundFate};
    use mdl_nn::{Activation, Dense, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arden(rng: &mut StdRng) -> Arden {
        let mut net = Sequential::new();
        net.push(Dense::new(8, 6, Activation::Relu, rng));
        net.push(Dense::new(6, 3, Activation::Identity, rng));
        Arden::from_pretrained(
            net,
            ArdenConfig { split_at: 1, nullification_rate: 0.0, noise_sigma: 0.0, clip_norm: 1e9 },
        )
    }

    fn batch() -> Matrix {
        Matrix::from_fn(5, 8, |r, c| ((r * 8 + c) as f32).sin())
    }

    #[test]
    fn clean_link_serves_from_cloud() {
        let mut rng = StdRng::seed_from_u64(7);
        let arden = arden(&mut rng);
        let mut link = Link::new(LinkConfig::ideal(), 1);
        link.begin_round(RoundFate::healthy(), f64::INFINITY);
        let out = infer_over_link(&arden, &batch(), &mut link, &RetryPolicy::no_retry(), &mut rng);
        assert_eq!(out.served_by, ServedBy::Cloud);
        assert_eq!(out.predictions.len(), 5);
        assert_eq!(out.uploaded_bytes, arden.representation_bytes() * 5);
        assert!(out.fallback_cause.is_none());
        assert_eq!(out.attempts, 2, "one upload + one download");
    }

    #[test]
    fn dead_link_falls_back_on_device_with_cause() {
        let mut rng = StdRng::seed_from_u64(7);
        let arden = arden(&mut rng);
        let mut link = Link::new(LinkConfig::ideal(), 1);
        link.begin_round(RoundFate { partitioned: true, ..RoundFate::healthy() }, 10.0);
        let out = infer_over_link(&arden, &batch(), &mut link, &RetryPolicy::default(), &mut rng);
        assert_eq!(out.served_by, ServedBy::OnDeviceFallback);
        assert_eq!(out.uploaded_bytes, 0, "nothing leaves the device");
        assert!(matches!(out.fallback_cause, Some(NetError::Unreachable)));
        assert_eq!(out.predictions.len(), 5);
    }

    #[test]
    fn fallback_matches_clean_cloud_answer() {
        // with zero perturbation the two code paths compute the same logits
        let mut rng = StdRng::seed_from_u64(9);
        let arden_a = arden(&mut rng);
        let mut rng_b = StdRng::seed_from_u64(9);
        let arden_b = arden(&mut rng_b);

        let mut up_link = Link::new(LinkConfig::ideal(), 1);
        up_link.begin_round(RoundFate::healthy(), f64::INFINITY);
        let served =
            infer_over_link(&arden_a, &batch(), &mut up_link, &RetryPolicy::no_retry(), &mut rng);

        let mut down_link = Link::new(LinkConfig::ideal(), 1);
        down_link.begin_round(RoundFate { partitioned: true, ..RoundFate::healthy() }, 10.0);
        let fell_back = infer_over_link(
            &arden_b,
            &batch(),
            &mut down_link,
            &RetryPolicy::no_retry(),
            &mut rng_b,
        );
        assert_eq!(served.predictions, fell_back.predictions);
    }
}
