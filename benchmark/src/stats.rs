//! Order statistics over raw samples: the only summarising the
//! benchmark does. Medians and quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the exclusive method), so the
//! spreads printed here are the ones the acceptance procedure computes.

/// The three quartile cut points of `samples` (any order), by the
/// exclusive method: position `i * (n + 1) / 4` in the sorted values,
/// linearly interpolated and clamped to the ends. One sample is its own
/// three quartiles; none yields zeros.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return [0.0; 3];
    }
    let cut = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        // `j` is the 1-based rank below the cut, kept inside the data.
        let j = (pos.floor() as usize).clamp(1, (n - 1).max(1));
        let lo = v[j - 1];
        let hi = v[j.min(n - 1)];
        lo + (hi - lo) * (pos - j as f64)
    };
    [cut(1), cut(2), cut(3)]
}

/// The median of `samples` (mean of the two middle values when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest sample; zero when there is none.
pub fn lowest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The largest sample; zero when there is none.
pub fn highest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// The nearest-rank percentile `p` (0–100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Inter-quartile range as a share of the median — the run-to-run
/// spread the bounds in `BENCHMARK.json` are compared against. Zero for
/// fewer than two samples or a zero median.
pub fn iqr_share(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
        assert_eq!(quartiles(&[]), [0.0, 0.0, 0.0]);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn lowest_and_highest_pick_the_ends() {
        assert_eq!(lowest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(highest(&[3.0, 1.5, 2.0]), 3.0);
        assert_eq!((lowest(&[]), highest(&[])), (0.0, 0.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[2.0], 99.0), 2.0);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
        assert_eq!(iqr_share(&[4.0]), 0.0);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
    }
}
