//! Spans recorded from outside the program: the benchmark times each call
//! into a layer's public entry point. A span has a name, start, end, the
//! span that caused it and a packet id; spans of one packet share the id.
//!
//! Totals and a log-linear histogram are kept for every call. Full span
//! records are kept for a deterministic 1-in-256 sample of packets, held
//! in memory and written out when the benchmark ends. A layer's self time
//! is its span minus the part its child spans cover.

use std::time::Instant;

use crate::stats::LogLinHist;

/// The layers a span can belong to. The discriminant indexes
/// [`Tracer::totals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `TraceSource`-style copy of the packet into the serve buffer.
    SourceCopy,
    /// `sd_packet::parse::parse_ipv4`.
    Parse,
    /// `sd_packet::checksum::verify_transport`.
    Checksum,
    /// `sd_flow::hash_key_seeded`.
    KeyHash,
    /// `FlowTable::get_or_insert_with`.
    Lookup,
    /// `SplitPlan::scan`.
    Scan,
    /// One packet through the engine composed from public parts (root).
    Packet,
    /// `FastPath::classify_full`.
    Classify,
    /// `DiversionManager::record`.
    Record,
    /// `DiversionManager::divert`.
    Replay,
    /// `ConventionalIps::process_packet` on a diverted packet.
    Slow,
}

impl Layer {
    /// Every layer, in discriminant order.
    pub const ALL: [Layer; 11] = [
        Layer::SourceCopy,
        Layer::Parse,
        Layer::Checksum,
        Layer::KeyHash,
        Layer::Lookup,
        Layer::Scan,
        Layer::Packet,
        Layer::Classify,
        Layer::Record,
        Layer::Replay,
        Layer::Slow,
    ];

    /// Span name, as written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::SourceCopy => "source.copy",
            Layer::Parse => "packet.parse",
            Layer::Checksum => "packet.checksum",
            Layer::KeyHash => "flow.key_hash",
            Layer::Lookup => "flow.lookup",
            Layer::Scan => "match.scan",
            Layer::Packet => "engine.packet",
            Layer::Classify => "fastpath.classify",
            Layer::Record => "divert.record",
            Layer::Replay => "divert.replay",
            Layer::Slow => "slowpath.process",
        }
    }
}

/// Running totals of one layer over every call.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Calls made.
    pub calls: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of self times (span minus children), ns.
    pub self_ns: u64,
    /// Distribution of span durations.
    pub hist: LogLinHist,
}

impl LayerTotals {
    /// Mean span duration, ns (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// One recorded span of a sampled packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Layer name.
    pub layer: Layer,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Duration minus the part covered by child spans, ns.
    pub self_ns: u64,
    /// Index (into the record list) of the span that caused this one.
    pub parent: Option<u32>,
    /// Packet id shared by the spans of one packet.
    pub packet: u32,
}

/// The seam between a replay loop and its instrumentation, so that the
/// same loop can run traced and untraced and the difference is the
/// tracing overhead.
pub trait Probe {
    /// Announce the packet the following spans belong to.
    fn packet(&mut self, id: u32);
    /// Run `f` inside a span of `layer`; returns `f`'s result and the
    /// span's duration in ns (0 when untraced).
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce(&mut Self) -> R) -> (R, u64);
}

/// The untraced probe: calls straight through.
pub struct NoProbe;

impl Probe for NoProbe {
    fn packet(&mut self, _id: u32) {}

    fn span<R>(&mut self, _layer: Layer, f: impl FnOnce(&mut Self) -> R) -> (R, u64) {
        (f(self), 0)
    }
}

struct Open {
    start_ns: u64,
    child_ns: u64,
    record: Option<u32>,
}

/// The recording probe.
pub struct Tracer {
    epoch: Instant,
    /// Two clock reads bracket every span; this much of each measured
    /// duration is the bracket itself and is subtracted.
    span_cost_ns: u64,
    /// Totals per layer, indexed by `Layer as usize`.
    pub totals: Vec<LayerTotals>,
    /// Full records of the sampled packets.
    pub records: Vec<SpanRecord>,
    stack: Vec<Open>,
    packet: u32,
    sampled: bool,
}

/// Deterministic 1-in-256 packet sample (multiplicative hash of the id, so
/// the choice does not alias with round-robin generators).
pub fn packet_sampled(id: u32) -> bool {
    u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56 == 0
}

impl Tracer {
    /// A tracer whose spans are corrected by a freshly calibrated span
    /// cost.
    pub fn new() -> Tracer {
        let mut t = Tracer::with_span_cost(0);
        // Calibrate: the median duration of an empty span is what the two
        // clock reads themselves add to every measurement.
        let mut empty: Vec<u64> = (0..20_001)
            .map(|_| t.span(Layer::Packet, |_| ()).1)
            .collect();
        empty.sort_unstable();
        Tracer::with_span_cost(empty[empty.len() / 2])
    }

    /// A tracer with a fixed span cost (tests use 0).
    pub fn with_span_cost(span_cost_ns: u64) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            span_cost_ns,
            totals: vec![LayerTotals::default(); Layer::ALL.len()],
            records: Vec::new(),
            stack: Vec::new(),
            packet: 0,
            sampled: false,
        }
    }

    /// The calibrated cost of one span's own clock reads, ns.
    pub fn span_cost_ns(&self) -> u64 {
        self.span_cost_ns
    }

    /// Totals of one layer.
    pub fn layer(&self, layer: Layer) -> &LayerTotals {
        &self.totals[layer as usize]
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, layer: Layer) {
        let start_ns = self.now_ns();
        let record = self.sampled.then(|| {
            let parent = self.stack.last().and_then(|o| o.record);
            self.records.push(SpanRecord {
                layer,
                start_ns,
                end_ns: start_ns,
                self_ns: 0,
                parent,
                packet: self.packet,
            });
            (self.records.len() - 1) as u32
        });
        self.stack.push(Open {
            start_ns,
            child_ns: 0,
            record,
        });
    }

    fn end(&mut self, layer: Layer) -> u64 {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("end() pairs with begin()");
        self.close(layer, open, end_ns)
    }

    /// Account a finished span: totals, the parent's child time, and the
    /// sampled record.
    fn close(&mut self, layer: Layer, open: Open, end_ns: u64) -> u64 {
        let dur = end_ns
            .saturating_sub(open.start_ns)
            .saturating_sub(self.span_cost_ns);
        let self_ns = dur.saturating_sub(open.child_ns);
        let totals = &mut self.totals[layer as usize];
        totals.calls += 1;
        totals.total_ns += dur;
        totals.self_ns += self_ns;
        totals.hist.record(dur);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(idx) = open.record {
            let r = &mut self.records[idx as usize];
            r.end_ns = end_ns;
            r.self_ns = self_ns;
        }
        dur
    }
}

impl Probe for Tracer {
    fn packet(&mut self, id: u32) {
        self.packet = id;
        self.sampled = packet_sampled(id);
    }

    fn span<R>(&mut self, layer: Layer, f: impl FnOnce(&mut Self) -> R) -> (R, u64) {
        self.begin(layer);
        let r = f(self);
        let dur = self.end(layer);
        (r, dur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive `close` with hand-picked clock values: a 100 ns root with
    /// children of 30 and 45 ns, the second of which has a 20 ns child.
    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::with_span_cost(0);
        t.packet(0); // id 0 is in the sample
        assert!(packet_sampled(0));
        let open = |t: &mut Tracer, layer, start_ns| {
            let parent = t.stack.last().and_then(|o| o.record);
            t.records.push(SpanRecord {
                layer,
                start_ns,
                end_ns: start_ns,
                self_ns: 0,
                parent,
                packet: 0,
            });
            let record = Some((t.records.len() - 1) as u32);
            t.stack.push(Open {
                start_ns,
                child_ns: 0,
                record,
            });
        };
        let close = |t: &mut Tracer, layer, end_ns| {
            let o = t.stack.pop().unwrap();
            t.close(layer, o, end_ns)
        };

        open(&mut t, Layer::Packet, 1000);
        open(&mut t, Layer::Classify, 1010);
        assert_eq!(close(&mut t, Layer::Classify, 1040), 30);
        open(&mut t, Layer::Slow, 1050);
        open(&mut t, Layer::Checksum, 1060);
        assert_eq!(close(&mut t, Layer::Checksum, 1080), 20);
        assert_eq!(close(&mut t, Layer::Slow, 1095), 45);
        assert_eq!(close(&mut t, Layer::Packet, 1100), 100);

        assert_eq!(t.layer(Layer::Packet).self_ns, 100 - 30 - 45);
        assert_eq!(t.layer(Layer::Slow).self_ns, 45 - 20);
        assert_eq!(t.layer(Layer::Classify).self_ns, 30);
        assert_eq!(t.layer(Layer::Checksum).self_ns, 20);
        // Self times of a tree add up to its root.
        let sum: u64 = t.totals.iter().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100);

        // Records carry the causal parent and the shared packet id.
        let parents: Vec<Option<u32>> = t.records.iter().map(|r| r.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(t.records.iter().all(|r| r.packet == 0));
        assert_eq!(t.records[2].self_ns, 25);
    }

    #[test]
    fn span_cost_is_subtracted_and_never_underflows() {
        let mut t = Tracer::with_span_cost(40);
        let o = Open {
            start_ns: 100,
            child_ns: 0,
            record: None,
        };
        assert_eq!(t.close(Layer::Parse, o, 190), 50);
        let o = Open {
            start_ns: 100,
            child_ns: 0,
            record: None,
        };
        assert_eq!(t.close(Layer::Parse, o, 110), 0);
        assert_eq!(t.layer(Layer::Parse).calls, 2);
    }

    #[test]
    fn only_sampled_packets_keep_records_and_all_keep_totals() {
        let mut t = Tracer::with_span_cost(0);
        let mut kept = 0;
        for id in 0..10_000u32 {
            t.packet(id);
            t.span(Layer::Packet, |t| {
                t.span(Layer::Classify, |_| ());
            });
            kept += u32::from(packet_sampled(id));
        }
        assert_eq!(t.layer(Layer::Packet).calls, 10_000);
        assert_eq!(t.layer(Layer::Classify).calls, 10_000);
        assert_eq!(t.records.len() as u32, 2 * kept);
        assert!((20..=60).contains(&kept), "1-in-256 sample drifted: {kept}");
    }

    #[test]
    fn no_probe_runs_the_closure_and_reports_zero() {
        let mut p = NoProbe;
        p.packet(9);
        assert_eq!(p.span(Layer::Scan, |_| 7), (7, 0));
    }
}
