//! Order statistics used by every workload.

/// A nearest-rank percentile together with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The smallest sample with at least `q` of all samples at or below it.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub n: usize,
}

/// Nearest-rank percentile of `samples` (sorted in place). Returns `None`
/// on an empty sample.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Pct {
        value: samples[rank - 1],
        n,
    })
}

/// Median, first and third quartile of a set of per-window values, the
/// way Python's `statistics.median` and `statistics.quantiles(n=4)` give
/// them (the default "exclusive" method).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Spread {
    /// Summarizes `values`. Needs at least two values for quartiles; a
    /// single value is its own median and quartiles.
    ///
    /// # Panics
    ///
    /// Panics on an empty input.
    pub fn of(values: &[f64]) -> Spread {
        assert!(!values.is_empty(), "no values to summarize");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n < 2 {
            return Spread {
                q1: median,
                median,
                q3: median,
                n,
            };
        }
        let quart = |i: i64| {
            let (n, m) = (n as i64, n as i64 + 1);
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = i * m - j * 4;
            let (lo, hi) = (v[j as usize - 1], v[j as usize]);
            (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0
        };
        Spread {
            q1: quart(1),
            median,
            q3: quart(3),
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_the_nearest_rank_and_reports_the_count() {
        let mut v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let p50 = percentile(&mut v, 0.50).unwrap();
        assert_eq!((p50.value, p50.n), (100.0, 200));
        // 99 % of 200 is rank 198: two samples lie beyond it.
        assert_eq!(percentile(&mut v, 0.99).unwrap().value, 198.0);
        assert_eq!(percentile(&mut v, 1.0).unwrap().value, 200.0);
        assert_eq!(percentile(&mut v, 0.0).unwrap().value, 1.0);
        // A rank that is not whole rounds up, never down.
        let mut w = vec![3.0, 1.0, 2.0];
        assert_eq!(percentile(&mut w, 0.5).unwrap().value, 2.0);
        assert_eq!(percentile(&mut w, 0.34).unwrap().value, 2.0);
        assert_eq!(percentile(&mut w, 0.33).unwrap().value, 1.0);
        assert!(percentile(&mut [], 0.5).is_none());
    }

    #[test]
    fn spread_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        let s = Spread::of(&[4.0, 1.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 3.0, 4.0));
        let s = Spread::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
    }
}
