//! Order statistics: nearest-rank percentiles, the median/quartile summary
//! every metric is reported with, and a log-linear histogram for span
//! durations.

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the sample at or below it. `p` is clamped
/// to (0, 100]; an empty slice yields 0.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and quartiles of one metric over the passes of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Second quartile.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarize `samples` (any order). Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the exclusive method), the rule
    /// the benchmark driver applies to its own runs; fewer than two samples
    /// collapse to the single value.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n < 2 {
            let x = v.first().copied().unwrap_or(0.0);
            return Summary {
                median: x,
                q1: x,
                q3: x,
                n,
            };
        }
        let cut = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median: cut(2),
            q1: cut(1),
            q3: cut(3),
            n,
        }
    }
}

/// Sub-buckets per power of two.
const SUB: u64 = 8;
/// Values below this get one bucket each.
const LINEAR: u64 = 2 * SUB;
const BUCKETS: usize = (LINEAR + (64 - 4) * SUB) as usize;

/// Log-linear histogram of nanosecond durations: exact below 16, then
/// eight equal-width buckets per power of two (≤ 12.5 % relative error),
/// fixed size, no allocation on `record`.
#[derive(Debug, Clone)]
pub struct LogLinHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogLinHist {
    fn default() -> Self {
        LogLinHist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl LogLinHist {
    fn bucket(v: u64) -> usize {
        if v < LINEAR {
            return v as usize;
        }
        let exp = 63 - u64::from(v.leading_zeros()); // ≥ 4
        let sub = (v >> (exp - 3)) & (SUB - 1);
        (LINEAR + (exp - 4) * SUB + sub) as usize
    }

    /// Lower bound of bucket `b`.
    fn floor(b: usize) -> u64 {
        let b = b as u64;
        if b < LINEAR {
            return b;
        }
        let exp = (b - LINEAR) / SUB + 4;
        let sub = (b - LINEAR) % SUB;
        (1u64 << exp) + (sub << (exp - 3))
    }

    /// Count one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    /// Nearest-rank percentile, reported as the lower bound of the bucket
    /// that holds it.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0 * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::floor(b);
            }
        }
        Self::floor(BUCKETS - 1)
    }

    /// Non-empty buckets as `(lower bound, count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (Self::floor(b), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SplitMix;

    /// The definition, spelled out: count how many elements are ≤ each
    /// candidate and take the first that covers p percent.
    fn oracle(sorted: &[u64], p: f64) -> u64 {
        for &x in sorted {
            let at_or_below = sorted.iter().filter(|&&y| y <= x).count();
            if at_or_below as f64 * 100.0 >= p * sorted.len() as f64 {
                return x;
            }
        }
        *sorted.last().unwrap()
    }

    #[test]
    fn percentile_matches_sorted_oracle() {
        let mut rng = SplitMix(7);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let mut v: Vec<u64> = (0..n).map(|_| rng.next() % 500).collect();
            v.sort_unstable();
            for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(percentile(&v, p), oracle(&v, p), "n={n} p={p}");
            }
        }
        assert_eq!(percentile::<u64>(&[], 50.0), 0);
    }

    #[test]
    fn summary_matches_python_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let s = Summary::of(&[40.0, 10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (10.0, 20.0, 40.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        let one = Summary::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.0, 7.0, 7.0, 1));
    }

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in (0..4096u64).chain([1 << 20, (1 << 40) + 12345, u64::MAX]) {
            let b = LogLinHist::bucket(v);
            assert!(b >= last || v >= 4096, "bucket order at {v}");
            last = b;
            let lo = LogLinHist::floor(b);
            assert!(lo <= v, "floor {lo} above {v}");
            assert!((v - lo) as f64 <= v as f64 / 8.0, "bucket too wide at {v}");
        }
    }

    #[test]
    fn histogram_percentile_tracks_exact_percentile() {
        let mut rng = SplitMix(3);
        let mut h = LogLinHist::default();
        let mut v: Vec<u64> = (0..10_000).map(|_| 20 + rng.next() % 5_000).collect();
        for &x in &v {
            h.record(x);
        }
        v.sort_unstable();
        for p in [50.0, 99.0] {
            let exact = percentile(&v, p) as f64;
            let approx = h.percentile(p) as f64;
            assert!(
                approx <= exact && approx >= exact * 0.87,
                "{p}: {approx} vs {exact}"
            );
        }
        assert_eq!(h.buckets().map(|(_, c)| c).sum::<u64>(), 10_000);
    }
}
