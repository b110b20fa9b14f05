//! Order statistics for the benchmark's timings.
//!
//! A latency percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it; below that, one outlier moves it. The
//! workloads keep measuring until the percentiles they report qualify.

/// Samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (0 < p ≤ 1) among `n` sorted
/// samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples needed before percentile `p` has [`MIN_BEYOND`] samples
/// beyond it.
pub fn samples_for(p: f64) -> usize {
    (1..).find(|&n| n - 1 - rank(n, p) >= MIN_BEYOND).expect("some n qualifies")
}

/// Percentile `p` of `samples` (nearest rank), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = rank(sorted.len(), p);
    (sorted.len() - 1 - at >= MIN_BEYOND).then(|| sorted[at])
}

/// The median (mean of the middle pair for even counts); `None` when
/// empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]) })
}

/// The lower decile of `samples` (nearest rank: the minimum of up to
/// ten samples, the second lowest of eleven to twenty, and so on); NaN
/// when empty.
pub fn lower_decile(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), 0.1)]
}

/// Geometric mean of positive values; `None` when empty.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let (sum, n) = values.into_iter().fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    (n > 0).then(|| (sum / n as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // With 200 samples the 95th percentile is rank 190: ten above.
        assert_eq!(samples_for(0.95), 200);
        assert_eq!(samples_for(0.5), 20);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), Some(190.0));
        assert_eq!(percentile(&xs[..199], 0.95), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..300).map(|i| f64::from((i * 7919) % 300)).collect();
        let sorted_p = percentile(&xs, 0.95);
        xs.reverse();
        assert_eq!(percentile(&xs, 0.95), sorted_p);
        assert_eq!(sorted_p, Some(284.0));
    }

    #[test]
    fn lower_decile_by_nearest_rank() {
        assert_eq!(lower_decile(&[5.0]), 5.0);
        assert_eq!(lower_decile(&[9.0, 3.0, 7.0, 4.0, 8.0, 6.0]), 3.0);
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(lower_decile(&xs), 2.0);
        assert_eq!(lower_decile(&xs[..11]), 11.0);
        assert!(lower_decile(&[]).is_nan());
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let g = geomean([1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), None);
    }
}
