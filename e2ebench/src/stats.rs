//! Summary statistics the benchmark reports: median, quartiles and the
//! tail percentile with at least ten samples beyond it.

/// Median of `xs` (mean of the middle pair for an even count); `NaN`
/// when `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method:
/// the quartile at position `p·(n+1)`, interpolated between the two
/// neighbouring order statistics). Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |p: f64| {
        // 1-based position, clamped into [1, n] as Python does.
        let m = n as f64 + 1.0;
        let j = ((p * m).floor() as usize).clamp(1, n - 1);
        let delta = p * m - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((at(0.25), at(0.75)))
}

/// The tail: the highest percentile that has at least ten samples
/// beyond it, as `(percentile, value)`. That is the 11th-largest
/// sample, at percentile `100·(n−10)/n` (p99 at n = 1000, p99.8 at
/// n = 5400). A fixed ladder of percentiles would instead land on
/// whatever sample the ladder step picks, which is unstable when the
/// samples form clusters (e.g. one cache-cold batch per pass). `None`
/// below 20 samples, where the tail would fall under the median.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    (n >= 20).then(|| (100.0 * (n - 10) as f64 / n as f64, s[n - 11]))
}

/// The nearest-rank value at percentile `p` (the `ceil(p/100 · n)`-th
/// smallest sample); `NaN` when `xs` is empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    match nearest_rank(p, s.len()) {
        0 => f64::NAN,
        rank => s[rank - 1],
    }
}

/// 1-based nearest rank `ceil(p/100 · n)`, at least 1 when `n > 0`.
/// The product is rounded to 9 decimals first so that e.g.
/// `99.0 / 100.0 * 1000.0` counts as exactly 990.
fn nearest_rank(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let exact = (p / 100.0 * n as f64 * 1e9).round() / 1e9;
    (exact.ceil() as usize).clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]: with
        // two samples Python extrapolates beyond both ends.
        assert_eq!(quartiles(&[9.0, 5.0]), Some((4.0, 10.0)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=5400).map(f64::from).collect();
        let (p, v) = tail(&xs).expect("enough samples");
        assert!((p - 99.814_814_814_814_81).abs() < 1e-9);
        assert_eq!(v, 5390.0);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50.0, 10.0)));
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut xs: Vec<f64> = (1..=2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let a = tail(&xs);
        xs.reverse();
        assert_eq!(a, tail(&xs));
        assert_eq!(a.map(|(p, _)| p), Some(99.5));
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 30.0), 20.0);
        assert_eq!(percentile(&xs, 40.0), 20.0);
        assert_eq!(percentile(&xs, 50.0), 35.0);
        assert_eq!(percentile(&xs, 100.0), 50.0);
        assert!(percentile(&[], 50.0).is_nan());
        // The tail never falls below the nearest-rank median.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|(_, v)| v), Some(percentile(&xs, 50.0)));
    }
}
