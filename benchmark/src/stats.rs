//! Order statistics over small samples.

/// Median; sorts `xs` in place. 0 for an empty sample.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => 0.5 * (xs[n / 2 - 1] + xs[n / 2]),
    }
}

/// Group consecutive samples into windows of `per_window`, take each full
/// window's median, and return the smallest (`smallest = true`) or largest
/// of them with the share of windows more than 10 % worse than it.
///
/// Other tenants of a shared host only ever slow the program down (on the
/// host this was written on, the two vCPUs at times get one core's worth
/// of CPU for tens of seconds), so the best window is the one closest to
/// the program's own speed, and the share of worse windows says how quiet
/// the host was. (0, 0) when there is no full window.
pub fn best_window(samples: &[f64], per_window: usize, smallest: bool) -> (f64, f64) {
    let windows: Vec<f64> =
        samples.chunks_exact(per_window.max(1)).map(|w| median(&mut w.to_vec())).collect();
    let pick = |a: f64, b: f64| if smallest { a.min(b) } else { a.max(b) };
    let Some(best) = windows.iter().copied().reduce(pick) else { return (0.0, 0.0) };
    let worse = |w: &&f64| if smallest { **w > best * 1.1 } else { **w < best / 1.1 };
    (best, windows.iter().filter(worse).count() as f64 / windows.len() as f64)
}

/// The `q`-quantile of a sorted sample by nearest rank (the value below
/// which a share `q` of the samples lie). Used for latency percentiles,
/// where samples are many and interpolation would invent values.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (its default "exclusive" method), which is what the driver
/// of this benchmark uses for a metric's spread. `None` below two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |i: usize| {
        // position i·(n+1)/4 in 1-based order statistics, interpolated
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = ((i * (n + 1)) as f64 - (j * 4) as f64) / 4.0;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(&mut xs.to_vec());
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    }

    #[test]
    fn best_window_ignores_slow_stretches() {
        // three windows of two: medians 10.5, 20.5, 10
        let secs = [10.0, 11.0, 20.0, 21.0, 10.0, 10.0, 99.0];
        assert_eq!(best_window(&secs, 2, true), (10.0, 1.0 / 3.0));
        assert_eq!(best_window(&secs, 2, false), (20.5, 2.0 / 3.0));
        assert_eq!(best_window(&secs, 8, true), (0.0, 0.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&xs, 0.5), 2.0);
        assert_eq!(percentile_sorted(&xs, 0.99), 4.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
