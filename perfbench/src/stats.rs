//! The benchmark's own arithmetic: medians, quartiles, nearest-rank
//! percentiles and geometric means.

/// Samples that must lie beyond a reported percentile for it to mean
/// anything: a tail read from fewer points is one or two outliers.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`, so spreads computed
/// here match that tool exactly. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        // j is clamped to [1, n-1] exactly as CPython does for small n.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the benchmark's bounds are compared against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile `p` (0 < p < 100) of `values`.
///
/// # Errors
/// Refused when fewer than [`TAIL_SAMPLES`] samples lie beyond the rank,
/// e.g. p99 from fewer than 1000 samples.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p < 100.0) {
        return Err(format!("percentile {p} out of (0, 100)"));
    }
    // p * n is exact for integral p, so the rank carries no rounding error.
    let rank = |n: usize| (p * n as f64 / 100.0).ceil() as usize;
    let beyond = |n: usize| n - rank(n);
    let s = sorted(values);
    let n = s.len();
    if n == 0 || beyond(n) < TAIL_SAMPLES {
        let needed = (n + 1..)
            .find(|&m| beyond(m) >= TAIL_SAMPLES)
            .expect("some count suffices");
        return Err(format!("p{p} needs at least {needed} samples, have {n}"));
    }
    Ok(s[rank(n).max(1) - 1])
}

/// Geometric mean of positive `values`; `None` when empty or when any
/// value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
