//! Exact quantiles over collected samples — the one implementation shared
//! by the load generator, the telemetry windows, and tests that cross-check
//! the bucketed [`crate::Histogram`] estimates against ground truth.
//!
//! The convention is nearest-rank with rounding: the `q`-quantile of `n`
//! sorted samples is the sample at index `round((n - 1) * q)`. It is exact
//! (no interpolation between samples), deterministic, and matches what the
//! loadgen has always reported.

/// The `q`-quantile (0 ≤ q ≤ 1) of an already **sorted** slice, by nearest
/// rank. Returns 0 for an empty slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{bucket_bound, bucket_index, Histogram, FINITE_BUCKETS};

    #[test]
    fn empty_and_single() {
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(percentile_sorted(&[7], 0.0), 7.0);
        assert_eq!(percentile_sorted(&[7], 1.0), 7.0);
    }

    #[test]
    fn nearest_rank_on_uniform_data() {
        let us: Vec<u64> = (1..=100).collect();
        assert!((percentile_sorted(&us, 0.50) - 50.0).abs() < 1.5);
        assert!((percentile_sorted(&us, 0.95) - 95.0).abs() < 1.5);
        assert_eq!(percentile_sorted(&us, 1.0), 100.0);
    }

    /// Property: for seeded pseudo-random sample sets, the bucketed
    /// histogram's quantile estimate lands within one bucket width of the
    /// exact sorted-sample quantile (the accuracy contract `pps-harness
    /// top` and the telemetry endpoint rely on).
    #[test]
    fn bucketed_estimate_tracks_exact_quantiles() {
        let mut state = 0x243F_6A88_85A3_08D3u64; // splitmix64 stream
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for case in 0..50 {
            let n = 1 + (next() % 500) as usize;
            // Spread samples across several orders of magnitude.
            let mut samples: Vec<u64> = (0..n)
                .map(|_| 1 + next() % 10u64.pow(1 + (case % 5) as u32))
                .collect();
            let mut h = Histogram::default();
            for &s in &samples {
                h.record(s as f64);
            }
            samples.sort_unstable();
            for q in [0.5, 0.9, 0.95, 0.99] {
                let exact = percentile_sorted(&samples, q);
                let est = h.quantile(q);
                let idx = bucket_index(exact);
                let width = if idx == 0 {
                    bucket_bound(0)
                } else if idx < FINITE_BUCKETS {
                    bucket_bound(idx) - bucket_bound(idx - 1)
                } else {
                    h.max - bucket_bound(FINITE_BUCKETS - 1)
                };
                assert!(
                    (est - exact).abs() <= width,
                    "case {case} n {n} q {q}: estimate {est} vs exact {exact} (width {width})"
                );
            }
        }
    }
}
