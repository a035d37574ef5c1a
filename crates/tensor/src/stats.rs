//! Numerically careful statistics and activation-adjacent math.

use crate::Matrix;

/// Numerically stable `log(sum(exp(x)))` over a slice.
///
/// Returns `f64::NEG_INFINITY` for an empty slice.
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return m;
    }
    m + xs.iter().map(|&x| (x - m).exp()).sum::<f64>().ln()
}

/// Row-wise softmax: each row of the output sums to one.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
    out
}

/// Row-wise log-softmax (stable).
pub fn log_softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let lse: f32 = max + row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
        for v in row.iter_mut() {
            *v -= lse;
        }
    }
    out
}

/// One-hot encodes labels into an `n × classes` matrix.
///
/// # Panics
///
/// Panics if any label is `>= classes`.
pub fn one_hot(labels: &[usize], classes: usize) -> Matrix {
    let mut out = Matrix::zeros(labels.len(), classes);
    for (r, &y) in labels.iter().enumerate() {
        assert!(y < classes, "label {y} out of range for {classes} classes");
        out[(r, y)] = 1.0;
    }
    out
}

/// Sample mean of a slice (`0.0` when empty).
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

/// Population variance of a slice (`0.0` when empty).
pub fn variance(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m).powi(2)).sum::<f32>() / xs.len() as f32
}

/// Population standard deviation.
pub fn std_dev(xs: &[f32]) -> f32 {
    variance(xs).sqrt()
}

/// Pearson correlation coefficient of two equally long slices.
///
/// Returns `0.0` when either slice is constant or they are empty.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pearson(xs: &[f32], ys: &[f32]) -> f32 {
    assert_eq!(xs.len(), ys.len(), "pearson requires equally long slices");
    if xs.is_empty() {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0f64;
    let mut vx = 0.0f64;
    let mut vy = 0.0f64;
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        let dx = (x - mx) as f64;
        let dy = (y - my) as f64;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        (cov / (vx.sqrt() * vy.sqrt())) as f32
    }
}

/// Median of a slice (`0.0` when empty). Copies and sorts internally.
pub fn median(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f32> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// `p`-quantile (0 ≤ p ≤ 1) with linear interpolation; `0.0` when empty.
/// [`nearest_rank`] is the other convention: it never invents a value
/// between two samples.
pub fn quantile(xs: &[f32], p: f64) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f32> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = (pos - lo as f64) as f32;
    v[lo] * (1.0 - frac) + v[hi] * frac
}

/// Nearest-rank `p`-quantile (0 ≤ p ≤ 1) of an ascending slice: the
/// sample at 1-based rank `⌈p·n⌉`, clamped into the slice; `None` when
/// empty. Unlike the interpolating [`quantile`] the answer is always a
/// sample that occurred, so a p99 latency is one some request saw and the
/// result is exact for any `T`.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sum_exp_matches_naive() {
        let xs = [1.0f64, 2.0, 3.0];
        let naive = xs.iter().map(|x| x.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_handles_large_values() {
        let xs = [1000.0, 1000.0];
        assert!((log_sum_exp(&xs) - (1000.0 + 2.0f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let p = softmax_rows(&logits);
        for r in 0..p.rows() {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        assert!(p[(0, 2)] > p[(0, 1)] && p[(0, 1)] > p[(0, 0)]);
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let logits = Matrix::from_rows(&[&[0.5, -1.5, 2.0]]);
        let p = softmax_rows(&logits);
        let lp = log_softmax_rows(&logits);
        for c in 0..3 {
            assert!((lp[(0, c)].exp() - p[(0, c)]).abs() < 1e-5);
        }
    }

    #[test]
    fn one_hot_encodes() {
        let m = one_hot(&[2, 0], 3);
        assert_eq!(m.row(0), &[0.0, 0.0, 1.0]);
        assert_eq!(m.row(1), &[1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_hot_rejects_bad_label() {
        let _ = one_hot(&[3], 3);
    }

    #[test]
    fn moments() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-6);
        assert!((std_dev(&xs) - 1.25f32.sqrt()).abs() < 1e-6);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let xs = [1.0, 2.0, 3.0];
        assert!((pearson(&xs, &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-6);
        assert!((pearson(&xs, &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-6);
        assert_eq!(pearson(&xs, &[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.5), 5.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.0), 1.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 1.0), 3.0);
    }

    #[test]
    fn nearest_rank_returns_a_sample_and_clamps() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&xs, 0.5), Some(50));
        assert_eq!(nearest_rank(&xs, 0.99), Some(99));
        assert_eq!(nearest_rank(&xs, 0.991), Some(100));
        assert_eq!(nearest_rank(&xs, 1.0), Some(100));
        // out-of-range and NaN ranks clamp into the slice
        assert_eq!(nearest_rank(&xs, 0.0), Some(1));
        assert_eq!(nearest_rank(&xs, -1.0), Some(1));
        assert_eq!(nearest_rank(&xs, 7.0), Some(100));
        assert_eq!(nearest_rank(&xs, f64::NAN), Some(1));
        // where the interpolating convention invents 5.0
        assert_eq!(nearest_rank(&[0.0, 10.0], 0.5), Some(0.0));
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
    }
}
