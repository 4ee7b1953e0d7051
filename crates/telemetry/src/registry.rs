//! The metric registry: a snapshot of named counters, gauges, and log₂
//! histograms, built at export time.
//!
//! The engine counts in its own plain stats structs; nothing on the hot
//! path touches a registry. A registry is assembled from those numbers
//! when someone asks for an exposition, so names, help text, and labels
//! exist only here and in the exporters.

/// Number of log₂ buckets in every histogram. Bucket `i` counts values in
/// `[2^i, 2^(i+1))` (bucket 0 also holds 0), so 64 buckets cover the full
/// `u64` range with a fixed 512-byte array and no allocation on record.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Name, help text, and an optional single `key="value"` label pair — the
/// subset of the Prometheus data model this pipeline needs. The label
/// value is owned so per-shard and per-stage instances can be minted in a
/// loop; everything else is `&'static`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricMeta {
    /// Metric family name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: &'static str,
    /// One-line HELP text.
    pub help: &'static str,
    /// Optional `(key, value)` label pair.
    pub label: Option<(&'static str, String)>,
}

impl MetricMeta {
    /// `name{key="value"}` (or bare name) for display and lookup.
    pub fn full_name(&self) -> String {
        match &self.label {
            Some((k, v)) => format!("{}{{{}=\"{}\"}}", self.name, k, v),
            None => self.name.to_string(),
        }
    }
}

/// One exported series: its identity and its value.
#[derive(Debug, Clone)]
pub struct Series<T> {
    /// Identity.
    pub meta: MetricMeta,
    /// Value at snapshot time.
    pub value: T,
}

/// A log₂-bucketed histogram: fixed 64-bucket array, running count and
/// sum. `record` is branch-free except for the `ilog2` intrinsic — no
/// allocation, no float math.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `buckets[i]` counts values in `[2^i, 2^(i+1))`; bucket 0 includes 0.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            value.ilog2() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Add another histogram's observations to this one.
    pub fn merge_from(&mut self, other: &Histogram) {
        for (x, y) in self.buckets.iter_mut().zip(other.buckets) {
            *x += y;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Inclusive upper bound of bucket `i` (`2^(i+1) − 1`).
    pub fn bucket_upper(i: usize) -> u64 {
        if i + 1 >= 64 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Smallest bucket upper bound covering at least fraction `q` of the
    /// observations (a coarse quantile: exact bucket, not exact value).
    pub fn quantile_upper(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target.max(1) {
                return Self::bucket_upper(i);
            }
        }
        u64::MAX
    }

    /// Index of the highest non-empty bucket (`None` when empty).
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&b| b > 0)
    }
}

/// A metrics snapshot, built series by series for export. Series sharing
/// a name form one family (one label value each).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Vec<Series<u64>>,
    gauges: Vec<Series<u64>>,
    histograms: Vec<Series<Histogram>>,
}

fn meta(name: &'static str, help: &'static str, label: Option<(&'static str, &str)>) -> MetricMeta {
    MetricMeta {
        name,
        help,
        label: label.map(|(k, v)| (k, v.to_string())),
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Add a monotonic counter.
    pub fn counter(&mut self, name: &'static str, help: &'static str, value: u64) {
        let meta = meta(name, help, None);
        self.counters.push(Series { meta, value });
    }

    /// Add one series of a counter family, told apart by a `(key, value)`
    /// label.
    pub fn counter_labeled(
        &mut self,
        name: &'static str,
        help: &'static str,
        label: (&'static str, &str),
        value: u64,
    ) {
        let meta = meta(name, help, Some(label));
        self.counters.push(Series { meta, value });
    }

    /// Add an instantaneous gauge.
    pub fn gauge(&mut self, name: &'static str, help: &'static str, value: u64) {
        let meta = meta(name, help, None);
        self.gauges.push(Series { meta, value });
    }

    /// Add one series of a gauge family, told apart by a `(key, value)`
    /// label.
    pub fn gauge_labeled(
        &mut self,
        name: &'static str,
        help: &'static str,
        label: (&'static str, &str),
        value: u64,
    ) {
        let meta = meta(name, help, Some(label));
        self.gauges.push(Series { meta, value });
    }

    /// Add a histogram.
    pub fn histogram(&mut self, name: &'static str, help: &'static str, value: &Histogram) {
        let meta = meta(name, help, None);
        let value = value.clone();
        self.histograms.push(Series { meta, value });
    }

    /// Add one series of a histogram family, told apart by a `(key,
    /// value)` label.
    pub fn histogram_labeled(
        &mut self,
        name: &'static str,
        help: &'static str,
        label: (&'static str, &str),
        value: &Histogram,
    ) {
        let meta = meta(name, help, Some(label));
        let value = value.clone();
        self.histograms.push(Series { meta, value });
    }

    /// All counters, in insertion order.
    pub fn counters(&self) -> &[Series<u64>] {
        &self.counters
    }

    /// All gauges, in insertion order.
    pub fn gauges(&self) -> &[Series<u64>] {
        &self.gauges
    }

    /// All histograms, in insertion order.
    pub fn histograms(&self) -> &[Series<Histogram>] {
        &self.histograms
    }

    /// A counter's or gauge's value by its full name (`name` or
    /// `name{key="value"}`).
    pub fn value_of(&self, full_name: &str) -> Option<u64> {
        self.counters
            .iter()
            .chain(&self.gauges)
            .find(|s| s.meta.full_name() == full_name)
            .map(|s| s.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let mut r = Registry::new();
        r.counter("pkts_total", "packets", 7);
        r.gauge("occupancy", "live flows", 2);
        assert_eq!(r.value_of("pkts_total"), Some(7));
        assert_eq!(r.value_of("occupancy"), Some(2));
        assert_eq!(r.value_of("nope"), None);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut hist = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1 << 20] {
            hist.record(v);
        }
        assert_eq!(hist.count, 8);
        assert_eq!(hist.buckets[0], 2, "0 and 1 share bucket 0");
        assert_eq!(hist.buckets[1], 2, "2 and 3");
        assert_eq!(hist.buckets[2], 2, "4 and 7");
        assert_eq!(hist.buckets[3], 1, "8");
        assert_eq!(hist.buckets[20], 1);
        assert_eq!(hist.sum, 1 + 2 + 3 + 4 + 7 + 8 + (1 << 20));
        assert_eq!(hist.max_bucket(), Some(20));
    }

    #[test]
    fn bucket_upper_bounds() {
        assert_eq!(Histogram::bucket_upper(0), 1);
        assert_eq!(Histogram::bucket_upper(3), 15);
        assert_eq!(Histogram::bucket_upper(63), u64::MAX);
    }

    #[test]
    fn quantiles_are_bucket_coarse() {
        let mut hist = Histogram::default();
        for _ in 0..99 {
            hist.record(100); // bucket 6, upper 127
        }
        hist.record(1 << 30);
        assert_eq!(hist.quantile_upper(0.5), 127);
        assert_eq!(hist.quantile_upper(0.99), 127);
        assert_eq!(hist.quantile_upper(1.0), Histogram::bucket_upper(30));
        assert_eq!(Histogram::default().quantile_upper(0.5), 0);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(10);
        b.record(10);
        b.record(1000);
        a.merge_from(&b);
        assert_eq!((a.count, a.sum), (3, 1020));
        assert_eq!(a.buckets[3], 2);
        assert_eq!(a.buckets[9], 1);
    }

    #[test]
    fn labels_render_in_full_name() {
        let mut r = Registry::new();
        r.counter_labeled("pkts_total", "p", ("shard", "3"), 1);
        assert_eq!(r.counters()[0].meta.full_name(), "pkts_total{shard=\"3\"}");
        assert_eq!(r.value_of("pkts_total{shard=\"3\"}"), Some(1));
    }
}
