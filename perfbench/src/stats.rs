//! Percentiles as the benchmark reports them.
//!
//! Every timing is printed as its median plus the highest percentile
//! that still has at least [`MIN_BEYOND`] samples beyond it, together
//! with the sample count: a p99.9 from 2 000 samples rests on two
//! values and says nothing.

/// Samples a reported tail percentile must leave above it.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: &[f64] = &[99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p`% of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p)]
}

fn rank(n: usize, p: f64) -> usize {
    // Shrink by a relative epsilon so that 99.99% of 100 000 (which is
    // 99 990.000…01 in binary floating point) ranks at 99 990.
    let r = (p * n as f64 / 100.0 * (1.0 - 1e-12)).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly after the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank(n, p)
}

/// Median, the highest supported tail percentile, and the sample count
/// of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(percentile, value)` of the highest tail percentile with at
    /// least [`MIN_BEYOND`] samples beyond it, if any qualifies.
    pub tail: Option<(f64, f64)>,
}

/// Summarize `values` (sorted in place).
pub fn summarize(values: &mut [f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let tail = TAILS
        .iter()
        .find(|&&p| beyond(n, p) >= MIN_BEYOND)
        .map(|&p| (p, percentile_sorted(values, p)));
    Some(Summary {
        n,
        p50: percentile_sorted(values, 50.0),
        tail,
    })
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {:.4}", self.p50)?;
        if let Some((p, v)) = self.tail {
            write!(f, ", p{p} {v:.4}")?;
        }
        write!(f, " (n={})", self.n)
    }
}

/// Median of a set of per-repetition values (mean of the middle two for
/// an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 95.0), 5);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 100 samples: p90 leaves exactly 10 above, p95 only 5.
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&mut v).expect("non-empty");
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.tail, Some((90.0, 90.0)));

        // 1 000 samples reach p99 (10 beyond), not p99.9 (1 beyond).
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&mut v).and_then(|s| s.tail), Some((99.0, 990.0)));

        // 100 000 samples reach p99.99 (10 beyond).
        let mut v: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(
            summarize(&mut v).and_then(|s| s.tail),
            Some((99.99, 99_990.0))
        );
    }

    #[test]
    fn too_few_samples_report_no_tail() {
        let mut v: Vec<f64> = (1..=12).map(f64::from).collect();
        let s = summarize(&mut v).expect("non-empty");
        assert_eq!(s.tail, None);
        assert_eq!(s.p50, 6.0);
        assert!(summarize(&mut []).is_none());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
