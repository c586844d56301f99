//! Order statistics for the reported figures.
//!
//! Timings are reported as a median plus, where the sample supports it,
//! the highest percentile with at least ten samples beyond it — never a
//! tail percentile that a handful of samples would pin to the maximum.

/// Percentiles the tail rule may report, in increasing order.
pub const PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (the mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank position (1-based) of percentile `p` among `n > 0`
/// samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile in [`PERCENTILES`], no higher than `want`,
/// that leaves at least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn supported_percentile(n: usize, want: f64) -> Option<f64> {
    PERCENTILES.iter().rev().copied().filter(|&p| p <= want).find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// The `want`-th percentile of `xs` when the sample supports it,
/// otherwise the highest supported percentile below it, otherwise the
/// median. Returns `(percentile used, value)`.
pub fn tail(xs: &[f64], want: f64) -> (f64, f64) {
    match supported_percentile(xs.len(), want) {
        Some(p) => (p, sorted(xs)[rank(xs.len(), p) - 1]),
        None => (50.0, median(xs)),
    }
}

/// `median/min/max/n` of a sample, for the human-readable summary.
pub fn describe(xs: &[f64]) -> String {
    let (min, max) =
        xs.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    format!("median={:.6} min={min:.6} max={max:.6} n={}", median(xs), xs.len())
}

/// `amount` per unit of `work`; 0 when there was no work.
pub fn per(amount: u64, work: u64) -> f64 {
    if work == 0 {
        0.0
    } else {
        amount as f64 / work as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        // p95 of 200 samples has exactly 10 beyond it; of 199, only 9.
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(supported_percentile(200, 95.0), Some(95.0));
        assert_eq!(supported_percentile(199, 95.0), Some(90.0));
        // 100 samples: p90 leaves 10, p95 only 5.
        assert_eq!(supported_percentile(100, 99.9), Some(90.0));
        // 50 samples: only the quartiles qualify.
        assert_eq!(supported_percentile(50, 95.0), Some(75.0));
        // Under 20 samples not even the median has ten beyond it.
        assert_eq!(supported_percentile(19, 95.0), None);
        assert_eq!(supported_percentile(20, 95.0), Some(50.0));
        // Never above the percentile asked for.
        assert_eq!(supported_percentile(10_000, 50.0), Some(50.0));
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs, 95.0), (95.0, 190.0));
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&xs, 95.0), (90.0, 90.0));
        let few = [5.0, 1.0, 9.0];
        assert_eq!(tail(&few, 95.0), (50.0, 5.0));
    }

    #[test]
    fn per_unit_guards_empty_work() {
        assert_eq!(per(6_000, 100), 60.0);
        assert_eq!(per(6_000, 0), 0.0);
    }
}
