//! Random matrix initialisation.
//!
//! All stochastic code in the workspace threads an explicit [`rand::Rng`] so
//! experiments are reproducible from a single seed.

use crate::Matrix;
use rand::Rng;

/// Weight-initialisation schemes for neural-network layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// Uniform on `[-limit, limit]`.
    Uniform {
        /// Half-width of the sampling interval.
        limit: f32,
    },
    /// Gaussian with the given standard deviation.
    Normal {
        /// Standard deviation of the samples.
        std: f32,
    },
    /// Glorot/Xavier uniform: `limit = sqrt(6 / (fan_in + fan_out))`.
    Xavier,
    /// He/Kaiming normal: `std = sqrt(2 / fan_in)`; suited to ReLU stacks.
    He,
    /// All zeros (used for biases).
    Zeros,
}

impl Init {
    /// Samples a `rows × cols` matrix where `rows` is treated as `fan_in`
    /// and `cols` as `fan_out`.
    pub fn sample(self, rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
        match self {
            Init::Uniform { limit } => {
                Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-limit..=limit))
            }
            Init::Normal { std } => Matrix::from_fn(rows, cols, |_, _| gaussian(rng) * std),
            Init::Xavier => {
                let limit = (6.0 / (rows + cols) as f32).sqrt();
                Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-limit..=limit))
            }
            Init::He => {
                let std = (2.0 / rows.max(1) as f32).sqrt();
                Matrix::from_fn(rows, cols, |_, _| gaussian(rng) * std)
            }
            Init::Zeros => Matrix::zeros(rows, cols),
        }
    }
}

/// One standard-normal sample via the Box–Muller transform.
///
/// Kept local so the workspace does not depend on `rand_distr`.
pub fn gaussian(rng: &mut impl Rng) -> f32 {
    // Avoid ln(0) by sampling the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_within_limit() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Init::Xavier.sample(64, 32, &mut rng);
        let limit = (6.0 / 96.0f32).sqrt();
        assert!(m.max_abs() <= limit + 1e-6);
        assert!(m.max_abs() > 0.0);
    }

    #[test]
    fn he_std_close_to_expected() {
        let mut rng = StdRng::seed_from_u64(8);
        let m = Init::He.sample(512, 512, &mut rng);
        let std =
            (m.as_slice().iter().map(|v| (*v as f64).powi(2)).sum::<f64>() / m.len() as f64).sqrt();
        let expected = (2.0f64 / 512.0).sqrt();
        assert!((std - expected).abs() / expected < 0.1, "std={std} expected≈{expected}");
    }

    #[test]
    fn zeros_is_zero() {
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(Init::Zeros.sample(3, 3, &mut rng).sum(), 0.0);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(10);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Init::Xavier.sample(4, 4, &mut StdRng::seed_from_u64(42));
        let b = Init::Xavier.sample(4, 4, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
