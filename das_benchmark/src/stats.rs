//! Order statistics the benchmark reports: median, quartiles and
//! nearest-rank percentiles.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the exclusive method), because that is what the acceptance check
//! of the benchmark contract computes; a spread is the distance between
//! the first and third quartile as a share of the median.

/// Ascending copy of `values`; NaN sorts last and is never produced by
/// the benchmark.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for an even count); `None`
/// for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. A single value is its own
/// quartiles; `None` for an empty slice.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some((v[0], v[0], v[0]));
    }
    let cut = |i: usize| -> f64 {
        // Python: j = i * (n + 1) // 4, clamped to 1..=n-1;
        // delta = i * (n + 1) - j * 4; interpolate between j-1 and j.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Distance between the first and third quartile as a share of the
/// median; 0 when the median is 0 (a count that repeats exactly).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    Some(if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    })
}

/// Fewest samples a percentile needs before it is reported: ten beyond
/// it (the choosing-metrics rule), which for p99 is the issue's 1 000.
pub fn min_samples(q: f64) -> usize {
    // The median needs one sample, and `q = 1` is the maximum by name.
    if q <= 0.5 || q >= 1.0 {
        1
    } else {
        (10.0 / (1.0 - q)).round() as usize
    }
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `values`: the smallest
/// value with at least `q·n` values at or below it. `None` when there
/// are fewer than [`min_samples`] values — a p99 of 40 samples is the
/// maximum under another name and is not reported.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "quantile out of range");
    if values.len() < min_samples(q) {
        return None;
    }
    let v = sorted(values);
    let rank = (q * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), Some(0.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 1.0), Some(1000.0));
        // 0.5 of five values: rank ceil(2.5) = 3.
        assert_eq!(percentile(&[5.0, 4.0, 3.0, 2.0, 1.0], 0.5), Some(3.0));
    }

    #[test]
    fn p99_needs_enough_samples() {
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.5), 1);
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&short, 0.99), None);
        assert_eq!(percentile(&short, 0.9), Some(900.0));
    }
}
