//! Least-squares fits on (n, rounds) series.

/// Result of a linear regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FitResult {
    /// Slope.
    pub coefficient: f64,
    /// Intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]` (1 = perfect fit).
    pub r2: f64,
}

fn r_squared(ys: &[f64], predicted: impl Fn(usize) -> f64) -> f64 {
    let n = ys.len() as f64;
    let mean = ys.iter().sum::<f64>() / n;
    let ss_tot: f64 = ys.iter().map(|y| (y - mean).powi(2)).sum();
    let ss_res: f64 = ys.iter().enumerate().map(|(i, y)| (y - predicted(i)).powi(2)).sum();
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        // Float error can push `1 - ss_res/ss_tot` a hair outside
        // `[0, 1]`, which [`FitResult::r2`] documents, so clamp.
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    }
}

/// Ordinary least squares `y = a·x + b`.
///
/// # Panics
/// Panics with fewer than two points.
pub fn linear_fit(points: &[(f64, f64)]) -> FitResult {
    assert!(points.len() >= 2, "need at least two points");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    let a = if denom == 0.0 { 0.0 } else { (n * sxy - sx * sy) / denom };
    let b = (sy - a * sx) / n;
    let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
    let r2 = r_squared(&ys, |i| a * points[i].0 + b);
    FitResult { coefficient: a, intercept: b, r2 }
}

/// Slope of the log–log regression: the empirical scaling exponent
/// (≈ 1 for Θ(n), ≈ 2 for Θ(n²)). Points with non-positive coordinates
/// are skipped.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    assert!(logs.len() >= 2, "need at least two positive points");
    linear_fit(&logs).coefficient
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, 3.0 * i as f64 + 2.0)).collect();
        let fit = linear_fit(&pts);
        assert!((fit.coefficient - 3.0).abs() < 1e-9);
        assert!((fit.intercept - 2.0).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn discriminates_linear_from_quadratic() {
        let quad: Vec<(f64, f64)> = (1..=20).map(|i| (i as f64, 0.5 * (i * i) as f64)).collect();
        assert!((loglog_slope(&quad) - 2.0).abs() < 0.01);

        let lin: Vec<(f64, f64)> = (1..=20).map(|i| (i as f64, 7.0 * i as f64)).collect();
        assert!((loglog_slope(&lin) - 1.0).abs() < 0.01);
    }

    #[test]
    fn constant_series_r2() {
        let flat: Vec<(f64, f64)> = (1..=5).map(|i| (i as f64, 4.0)).collect();
        let fit = linear_fit(&flat);
        assert!(fit.coefficient.abs() < 1e-9);
        assert_eq!(fit.r2, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn too_few_points_panics() {
        linear_fit(&[(1.0, 1.0)]);
    }

    #[test]
    fn r2_stays_in_unit_interval_even_for_bad_models() {
        // A line can model awkward series (decreasing, sign-flipping)
        // arbitrarily badly; the documented contract is r2 ∈ [0, 1].
        let awkward: Vec<Vec<(f64, f64)>> = vec![
            (1..=20).map(|i| (i as f64, 100.0 - 5.0 * i as f64)).collect(),
            (1..=10).map(|i| (i as f64, if i % 2 == 0 { 50.0 } else { -50.0 })).collect(),
            vec![(-1.0, 0.0), (1.0, 10.0)],
            vec![(-2.0, 3.0), (-1.0, -4.0), (1.0, 4.0), (2.0, -3.0)],
        ];
        for pts in &awkward {
            let fit = linear_fit(pts);
            assert!((0.0..=1.0).contains(&fit.r2), "r2 = {} out of [0, 1] for {pts:?}", fit.r2);
        }
    }
}
