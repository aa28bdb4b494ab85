//! The timing estimator and the small statistics around it.
//!
//! A workload is `S` deterministic steps replayed for `R` passes;
//! `t[r][s]` is step `s`'s wall time in pass `r`. The reported time is
//! `mean over s of (median over r of t[r][s])`: every step counts (a
//! cadenced checkpoint is not hidden the way a p50 over epochs hides it),
//! and an interference burst has to land on the *same* step in most passes
//! to move the result. README.md gives the measurements behind this choice.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `mean over steps of (median over passes)` of `passes[r][s]`. Every pass
/// must have the same number of steps. Returns 0 without passes or steps.
pub fn pass_step_estimate(passes: &[Vec<f64>]) -> f64 {
    let steps = passes.first().map_or(0, Vec::len);
    if steps == 0 {
        return 0.0;
    }
    assert!(
        passes.iter().all(|pass| pass.len() == steps),
        "every pass replays the same steps"
    );
    let column_medians = (0..steps).map(|s| {
        let column: Vec<f64> = passes.iter().map(|pass| pass[s]).collect();
        median(&column)
    });
    column_medians.sum::<f64>() / steps as f64
}

/// The `p`-th percentile (`0 <= p <= 100`) of `values` by linear
/// interpolation between closest ranks. Returns 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method) gives
/// them — the benchmark driver computes its acceptance spread with that
/// call, so `--selfcheck` must agree with it. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range of `values` as a share of their median — the
/// driver's spread. 0 when there are fewer than two values or the median
/// is 0.
pub fn iqr_share(values: &[f64]) -> f64 {
    let centre = median(values);
    match quartiles(values) {
        Some((q1, q3)) if centre != 0.0 => (q3 - q1) / centre.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn estimate_is_median_across_passes_then_mean_across_steps() {
        // Odd R: an outlier pass (the 90s) never reaches the result.
        let odd = vec![vec![10.0, 20.0], vec![12.0, 90.0], vec![90.0, 22.0]];
        // Column medians 12 and 22.
        assert_eq!(pass_step_estimate(&odd), 17.0);
        // Even R: each column's median is the mean of its middle pair.
        let even = vec![
            vec![10.0, 20.0],
            vec![12.0, 24.0],
            vec![14.0, 90.0],
            vec![90.0, 22.0],
        ];
        // Column medians (12+14)/2 = 13 and (22+24)/2 = 23.
        assert_eq!(pass_step_estimate(&even), 18.0);
        // A slow step that recurs in every pass is counted, unlike with a
        // p50 over all samples.
        let cadenced = vec![vec![1.0, 1.0, 1.0, 9.0]; 3];
        assert_eq!(pass_step_estimate(&cadenced), 3.0);
        assert_eq!(pass_step_estimate(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let values = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&values, 0.0), 10.0);
        assert_eq!(percentile(&values, 50.0), 25.0);
        assert_eq!(percentile(&values, 100.0), 40.0);
        assert!((percentile(&values, 95.0) - 38.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }
}
