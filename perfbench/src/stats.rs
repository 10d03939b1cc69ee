//! Summary statistics for the benchmark's samples.
//!
//! - [`median`] and [`quartiles`] follow Python's
//!   `statistics.median` / `statistics.quantiles(data, n=4)` (the
//!   default "exclusive" method), so the spread this program prints
//!   matches the one computed over runs by `spread.py`;
//! - [`nearest_rank`] is the exact nearest-rank percentile of a sample
//!   set (no interpolation, no histogram buckets);
//! - [`supported_percentile`] applies the "at least ten samples beyond"
//!   rule: a percentile is reported as resolved only when at least ten
//!   samples lie above its nearest-rank position.

/// Percentiles considered by [`supported_percentile`], lowest first.
pub const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to be resolved.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, Python's `statistics.quantiles(n=4)`
/// "exclusive" method. One sample gives `(x, x)`; none gives NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld == 0 {
        return (f64::NAN, f64::NAN);
    }
    if ld == 1 {
        return (v[0], v[0]);
    }
    let (m, n) = (ld as i64 + 1, 4i64);
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (0 for a constant
/// sample).
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// Exact nearest-rank percentile; NaN when empty.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    v[rank(p, v.len()) - 1]
}

/// Samples strictly beyond percentile `p`'s nearest-rank position.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median lacks them.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(p, n) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEN: [f64; 10] = [7.0, 1.0, 9.0, 3.0, 5.0, 2.0, 10.0, 4.0, 8.0, 6.0];

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&TEN), 5.5);
        assert_eq!(median(&[4.0]), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&TEN), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        assert_eq!(iqr_share(&TEN), (8.25 - 2.75) / 5.5);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        assert_eq!(nearest_rank(&TEN, 50.0), 5.0);
        assert_eq!(nearest_rank(&TEN, 90.0), 9.0);
        assert_eq!(nearest_rank(&TEN, 91.0), 10.0);
        assert_eq!(nearest_rank(&TEN, 100.0), 10.0);
        assert_eq!(nearest_rank(&TEN, 0.0), 1.0);
        assert_eq!(nearest_rank(&[42.0], 99.0), 42.0);
        assert!(nearest_rank(&[], 50.0).is_nan());
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(beyond(50.0, 20), 10);
        assert_eq!(beyond(90.0, 100), 10);
        assert_eq!(beyond(90.0, 99), 9);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }
}
