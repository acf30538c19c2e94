//! Order statistics and the `compare` verdict rules.

/// Median (mean of the middle pair for even lengths). `NaN` when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Geometric mean of positive values. `NaN` when empty.
pub fn geometric_mean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// First and third quartiles by the "exclusive" rule of Python's
/// `statistics.quantiles(v, n=4)`, so spreads read the same as in a
/// notebook. A single sample is its own quartiles; `NaN` when empty.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Outcome of comparing one (metric, workload) pair across two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares candidate samples `b` against baseline samples `a` for a metric
/// whose median may worsen by at most `bound` (a share of `a`'s median).
///
/// A side whose interquartile spread exceeds the bound cannot support a
/// verdict, so the result is `Unresolved` — unless every run of one side
/// beats every run of the other. Otherwise the relative change of the
/// medians decides: beyond the bound it is `Better`/`Worse`, within it
/// `Same`.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v).abs()
    };
    let (ma, mb) = (median(a), median(b));
    // Positive = the candidate is worse.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let change = sign * (mb - ma) / ma.abs();
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    // Every run of one side beats every run of the other.
    let separated = max(b) < min(a) || min(b) > max(a);
    if !(separated || spread(a) <= bound && spread(b) <= bound) {
        return Verdict::Unresolved;
    }
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_python_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive rule extrapolates beyond two points.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn verdicts_follow_bound_spread_and_separation() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound.
        let same = [102.0, 103.0, 101.0, 102.5, 101.5];
        assert_eq!(verdict(&base, &same, 0.05, true), Verdict::Same);
        // Beyond the bound, both spreads tight.
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&base, &slow, 0.05, true), Verdict::Worse);
        assert_eq!(verdict(&slow, &base, 0.05, true), Verdict::Better);
        // Direction flips for higher-is-better metrics.
        assert_eq!(verdict(&base, &slow, 0.05, false), Verdict::Better);
        // Wide spread, overlapping runs: no verdict.
        let noisy = [70.0, 130.0, 100.0, 160.0, 90.0];
        assert_eq!(verdict(&base, &noisy, 0.05, true), Verdict::Unresolved);
        // Wide spread but every run worse than every baseline run.
        let noisy_slow = [110.0, 190.0, 150.0, 170.0, 120.0];
        assert_eq!(verdict(&base, &noisy_slow, 0.05, true), Verdict::Worse);
        assert_eq!(verdict(&[], &base, 0.05, true), Verdict::Unresolved);
    }
}
