//! Order statistics and ratios the benchmark reports, kept free of any
//! platform code so the unit tests below pin them exactly.

/// The median of `values` (mean of the two middle values for an even
/// count). `None` when `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so figures printed here match the spread the
/// acceptance runs compute. `None` for fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let len = sorted.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// measure the bounds in `BENCHMARK.json` are checked against.
#[must_use]
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid)
}

/// The nearest-rank `level` percentile of `values` (`0 < level <= 1`).
/// `None` when `values` is empty.
#[must_use]
pub fn percentile(values: &[f64], level: f64) -> Option<f64> {
    let sorted = sorted(values);
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), level)])
}

/// Zero-based nearest-rank index of the `level` percentile of `n` values.
fn rank(n: usize, level: f64) -> usize {
    ((level * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// A tail percentile that keeps at least `MIN_BEYOND` samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the percentile (nearest rank).
    pub value: f64,
    /// The percentile actually reported, in `(0, 1]`: the requested one,
    /// or lower when the run has too few samples for it.
    pub level: f64,
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `level` percentile of `values`, lowered until at
/// least [`MIN_BEYOND`] samples lie beyond it. With `MIN_BEYOND` or fewer
/// samples nothing can lie beyond, and the result is the smallest sample.
/// `None` when `values` is empty.
#[must_use]
pub fn tail(values: &[f64], level: f64) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let index = rank(n, level).min(n.saturating_sub(MIN_BEYOND + 1));
    Some(Tail {
        value: sorted[index],
        level: (index + 1) as f64 / n as f64,
    })
}

/// Share of attempted operations that succeeded. `attempted` must be at
/// least one: a run that attempted nothing has measured nothing.
#[must_use]
pub fn success_rate(attempted: u64, failed: u64) -> f64 {
    assert!(attempted >= 1, "a run must attempt at least one operation");
    assert!(failed <= attempted, "more failures than attempts");
    (attempted - failed) as f64 / attempted as f64
}

/// `total` spread over `count` units (time per entry, per op, per lane);
/// zero when there were no units.
#[must_use]
pub fn per_unit(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// `part` as a percentage of `whole`; zero when `whole` is zero.
#[must_use]
pub fn percent(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_iqr(&ten).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
        assert_eq!(relative_iqr(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.10), Some(10.0));
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        assert_eq!(percentile(&hundred, 1.0), Some(100.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.10), Some(1.0));
        assert_eq!(percentile(&[], 0.10), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples: rank 990, ten samples beyond.
        assert_eq!(
            tail(&thousand, 0.99),
            Some(Tail {
                value: 990.0,
                level: 0.99
            })
        );
        // 100 samples cannot carry p99 with ten beyond: drops to p90.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred, 0.99).unwrap();
        assert_eq!(t.value, 90.0);
        assert!((t.level - 0.90).abs() < 1e-12);
        assert_eq!(hundred.iter().filter(|&&v| v > t.value).count(), 10);
        // p80 of 100 samples already keeps ten beyond: unchanged.
        assert_eq!(tail(&hundred, 0.80).unwrap().value, 80.0);
        // Too few samples for any tail: the smallest sample.
        assert_eq!(tail(&[3.0, 1.0, 2.0], 0.99).unwrap().value, 1.0);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn success_rate_counts_failures_against_attempts() {
        assert_eq!(success_rate(1, 0), 1.0);
        assert_eq!(success_rate(4, 1), 0.75);
        assert_eq!(success_rate(10, 10), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn success_rate_rejects_empty_runs() {
        let _ = success_rate(0, 0);
    }

    #[test]
    fn per_unit_and_percent_normalise() {
        assert_eq!(per_unit(1500.0, 3), 500.0);
        assert_eq!(per_unit(1500.0, 0), 0.0);
        assert_eq!(percent(1.0, 4.0), 25.0);
        assert_eq!(percent(1.0, 0.0), 0.0);
    }
}
