//! Exact order statistics over raw samples. Percentiles are taken from
//! the sorted samples themselves (nearest rank), never from bucketed
//! histograms, so a 10% change in a tail is visible.

/// Sorts `xs` ascending (NaN-free input) and returns it.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    xs
}

/// Nearest-rank `p`-th percentile (0 < p <= 100) of ascending `xs`:
/// the smallest sample with at least `p`% of the samples at or below it.
/// Returns 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Largest sample, or 0 for none.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// Whether a percentile `p` has at least ten samples beyond it among
/// `n` samples, the least a tail estimate needs to be worth reporting.
pub fn supports(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p / 100.0) >= 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 100.0), 1000.0);
        assert_eq!(percentile(&xs, 0.01), 1.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        // A 10% shift of the tail moves p99 by exactly that much.
        let shifted: Vec<f64> = xs.iter().map(|&x| if x > 900.0 { x * 1.1 } else { x }).collect();
        assert_eq!(percentile(&sorted(shifted), 99.0), 1089.0);
    }

    #[test]
    fn median_and_support() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(max(&[1.0, 7.0, 3.0]), 7.0);
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
    }
}
