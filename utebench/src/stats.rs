//! Order statistics for reporting timings.

/// The fewest samples a tail percentile must leave above it, so that a
/// handful of slow samples cannot set it on their own.
pub const MIN_BEYOND: usize = 10;

/// Median of a sample (mean of the middle pair when the count is even).
/// Panics on an empty sample: every caller checks that it measured
/// something first.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `pct`-th percentile: the smallest sample with at
/// least `pct`% of the sample at or below it.
pub fn percentile(xs: &[f64], pct: usize) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    sorted(xs)[rank(xs.len(), pct) - 1]
}

/// How many of `n` samples lie above the nearest-rank `pct`-th
/// percentile.
pub fn samples_beyond(n: usize, pct: usize) -> usize {
    n - rank(n, pct)
}

/// The smallest sample count whose `pct`-th percentile keeps at least
/// `beyond` samples above it (200 for the 95th and ten beyond).
pub fn min_samples(pct: usize, beyond: usize) -> usize {
    assert!(
        pct < 100,
        "no sample count leaves samples beyond the maximum"
    );
    (1..)
        .find(|&n| samples_beyond(n, pct) >= beyond)
        .expect("some sample count satisfies any pct < 100")
}

/// 1-based rank of the nearest-rank percentile, in integer arithmetic
/// so that e.g. the 95th of 200 is exactly rank 190.
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n.max(1))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95), 190.0);
        assert_eq!(percentile(&xs, 100), 200.0);
        assert_eq!(percentile(&[5.0, 1.0], 1), 1.0);
    }

    #[test]
    fn p95_keeps_ten_samples_beyond_from_200_on() {
        assert_eq!(min_samples(95, MIN_BEYOND), 200);
        assert_eq!(samples_beyond(199, 95), 9);
        for n in 200..5000 {
            assert!(samples_beyond(n, 95) >= MIN_BEYOND, "n={n}");
        }
        // The reported value really has that many samples above it.
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        let p = percentile(&xs, 95);
        assert_eq!(xs.iter().filter(|&&x| x > p).count(), MIN_BEYOND);
    }

    #[test]
    fn higher_percentiles_need_more_samples() {
        assert_eq!(min_samples(50, MIN_BEYOND), 20);
        assert_eq!(min_samples(99, MIN_BEYOND), 1000);
    }
}
