//! Order statistics for the reported timings.
//!
//! A timing is reported as its median and its tail: the highest
//! percentile that still has at least [`TAIL_BEYOND`] samples beyond it.
//! The benchmark guarantees a minimum sample count per run, and the tail
//! percentile is fixed from that minimum (not from the count a particular
//! run happened to reach), so a faster build cannot change which
//! percentile is compared. `analysis_ms_tail` is the one exception (see
//! `ANALYSIS_TAIL_Q` in `main.rs`).

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail quantile (in `(0, 1)`) for a run guaranteed at least `min_n`
/// samples: the highest one with [`TAIL_BEYOND`] samples beyond it.
pub fn tail_quantile(min_n: usize) -> f64 {
    assert!(
        min_n > TAIL_BEYOND,
        "tail needs more than {TAIL_BEYOND} samples"
    );
    1.0 - TAIL_BEYOND as f64 / min_n as f64
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    // The epsilon keeps q·n that is an integer in exact arithmetic from
    // rounding up past it.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile `q` of `v` (sorted in place). `v` must be
/// non-empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    v[rank(q, v.len()) - 1]
}

/// The median (nearest rank) of `v`.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it_at_every_count_from_the_minimum() {
        for min_n in [11, 20, 60, 100, 120, 200, 333] {
            let q = tail_quantile(min_n);
            for n in min_n..min_n * 3 {
                let beyond = n - rank(q, n);
                assert!(beyond >= TAIL_BEYOND, "min {min_n}, n {n}: {beyond} beyond");
            }
            // At the minimum the tail is the highest such rank.
            assert_eq!(min_n - rank(q, min_n), TAIL_BEYOND);
        }
    }

    #[test]
    fn tail_quantiles_match_the_usual_names() {
        assert!((tail_quantile(100) - 0.90).abs() < 1e-12);
        assert!((tail_quantile(200) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&mut v), 50.0);
        assert_eq!(quantile(&mut v, 0.9), 90.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [7.0], 0.9), 7.0);
    }
}
