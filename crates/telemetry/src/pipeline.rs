//! Pipeline-shaped telemetry: the fixed metric schema for a Split-Detect
//! engine instance, plus sampled stage timing.
//!
//! Every engine (and every shard) owns one [`PipelineTelemetry`] built by
//! the same constructor, so the registries share a schema and merge
//! cleanly at `finish()`. Counters and size histograms are recorded for
//! every packet (an array index and an add); *latency* timing is sampled —
//! one packet in `2^shift` arms a [`StageClock`], everything else skips
//! the `Instant::now()` calls entirely. That split is what keeps the
//! telemetry tax under the 5 % budget while still yielding statistically
//! useful per-stage histograms.

use crate::registry::{CounterId, GaugeId, HistogramId, Registry};
use std::time::Instant;

/// Pipeline stages, in packet-traversal order. `Parse` covers header
/// decode, `FastPath` the per-packet anomaly rules, `Divert` the
/// delay-line record/replay work, `SlowPath` the reassembling fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// IPv4/TCP header decode.
    Parse,
    /// Fast-path rule evaluation (piece scan + anomaly rules).
    FastPath,
    /// Diversion bookkeeping: delay-line record and history replay.
    Divert,
    /// Slow-path (reassembling) processing.
    SlowPath,
}

impl Stage {
    /// All stages in traversal order.
    pub const ALL: [Stage; 4] = [
        Stage::Parse,
        Stage::FastPath,
        Stage::Divert,
        Stage::SlowPath,
    ];

    /// Dense index for per-stage arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::FastPath => 1,
            Stage::Divert => 2,
            Stage::SlowPath => 3,
        }
    }

    /// The `stage` label value used in exported metrics.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::FastPath => "fast_path",
            Stage::Divert => "divert",
            Stage::SlowPath => "slow_path",
        }
    }
}

/// A sampled wall-clock timer. Unarmed clocks (`start(false)`) cost one
/// branch per `lap` and never touch the OS clock, so the unsampled hot
/// path pays nothing for instrumentation.
#[derive(Debug)]
pub struct StageClock {
    last: Option<Instant>,
}

impl StageClock {
    /// Arm the clock if `sampled`, else create an inert one.
    #[inline]
    pub fn start(sampled: bool) -> Self {
        StageClock {
            last: if sampled { Some(Instant::now()) } else { None },
        }
    }

    /// Nanoseconds since the previous lap (or start), re-arming for the
    /// next stage. `None` when the clock is inert.
    #[inline]
    pub fn lap(&mut self) -> Option<u64> {
        let prev = self.last?;
        let now = Instant::now();
        self.last = Some(now);
        Some(now.duration_since(prev).as_nanos() as u64)
    }

    /// Whether this clock is collecting samples.
    #[inline]
    pub fn armed(&self) -> bool {
        self.last.is_some()
    }
}

/// The fixed metric schema for one engine instance, with hot-path handles
/// pre-resolved at construction.
#[derive(Debug, Clone)]
pub struct PipelineTelemetry {
    registry: Registry,
    /// `None` disables latency timing entirely; `Some(s)` samples one
    /// packet in `2^s`.
    sample_shift: Option<u8>,
    tick: u64,
    packets: CounterId,
    bytes: CounterId,
    parse_errors: CounterId,
    timing_samples: CounterId,
    stage_packets: [CounterId; 4],
    stage_latency: [HistogramId; 4],
    packet_bytes: HistogramId,
    diverted_flows: GaugeId,
    divert_memory: GaugeId,
    automaton_memory: GaugeId,
    automaton_build_ns: GaugeId,
    automaton_hot_states: GaugeId,
    automaton_cold_states: GaugeId,
    automaton_hot_bytes: GaugeId,
    automaton_cold_bytes: GaugeId,
    slowpath_queue_depth: GaugeId,
    slowpath_shed: CounterId,
    slowpath_shed_bytes: CounterId,
    slowpath_latency: HistogramId,
}

impl PipelineTelemetry {
    /// Build the schema. `sample_shift = None` turns latency timing off
    /// (counters and size histograms still run); `Some(s)` times one
    /// packet in `2^s`.
    pub fn new(sample_shift: Option<u8>) -> Self {
        let mut r = Registry::new();
        let packets = r.counter("sd_packets_total", "Packets processed by the engine");
        let bytes = r.counter("sd_bytes_total", "Wire bytes processed by the engine");
        let parse_errors = r.counter("sd_parse_errors_total", "Packets that failed header decode");
        let timing_samples = r.counter(
            "sd_timing_samples_total",
            "Packets whose stage latencies were sampled",
        );
        let mk_counter = |r: &mut Registry, stage: Stage| {
            r.counter_labeled(
                "sd_stage_packets_total",
                "Packets that traversed each pipeline stage",
                "stage",
                stage.label(),
            )
        };
        let mk_hist = |r: &mut Registry, stage: Stage| {
            r.histogram_labeled(
                "sd_stage_latency_ns",
                "Sampled per-stage latency in nanoseconds",
                "stage",
                stage.label(),
            )
        };
        let stage_packets = Stage::ALL.map(|s| mk_counter(&mut r, s));
        let stage_latency = Stage::ALL.map(|s| mk_hist(&mut r, s));
        let packet_bytes = r.histogram("sd_packet_bytes", "Wire size of processed packets");
        let diverted_flows = r.gauge("sd_diverted_flows", "Flows currently in the diverted set");
        let divert_memory = r.gauge(
            "sd_divert_memory_bytes",
            "Bytes held by the diversion manager (delay line, set, pool)",
        );
        let automaton_memory = r.gauge(
            "sd_automaton_bytes",
            "Compiled piece-automaton table bytes (shared, not per-flow)",
        );
        let automaton_build_ns = r.gauge(
            "sd_automaton_build_ns",
            "Wall nanoseconds spent compiling the piece automaton",
        );
        let automaton_hot_states = r.gauge(
            "sd_automaton_hot_states",
            "Piece automaton: states laid out as dense byte-classed rows",
        );
        let automaton_cold_states = r.gauge(
            "sd_automaton_cold_states",
            "Piece automaton: states kept in the CSR cold tail",
        );
        let automaton_hot_bytes = r.gauge(
            "sd_automaton_hot_bytes",
            "Piece automaton: hot-tier table bytes (class map + dense rows)",
        );
        let automaton_cold_bytes = r.gauge(
            "sd_automaton_cold_bytes",
            "Piece automaton: cold-tier table bytes (CSR arrays + failure links)",
        );
        let slowpath_queue_depth = r.gauge(
            "sd_slowpath_queue_depth",
            "Diverted packets currently queued in slow-path worker lanes",
        );
        let slowpath_shed = r.counter(
            "sd_slowpath_shed_total",
            "Diverted packets shed at a full slow-path worker lane",
        );
        let slowpath_shed_bytes = r.counter(
            "sd_slowpath_shed_bytes_total",
            "Payload bytes of diverted packets shed at a full worker lane",
        );
        let slowpath_latency = r.histogram(
            "sd_slowpath_latency_ns",
            "Enqueue-to-alert-delivery latency of asynchronous slow-path alerts",
        );
        PipelineTelemetry {
            registry: r,
            sample_shift,
            tick: 0,
            packets,
            bytes,
            parse_errors,
            timing_samples,
            stage_packets,
            stage_latency,
            packet_bytes,
            diverted_flows,
            divert_memory,
            automaton_memory,
            automaton_build_ns,
            automaton_hot_states,
            automaton_cold_states,
            automaton_hot_bytes,
            automaton_cold_bytes,
            slowpath_queue_depth,
            slowpath_shed,
            slowpath_shed_bytes,
            slowpath_latency,
        }
    }

    /// Count one packet and decide whether this one gets stage timing.
    /// Returns an armed or inert [`StageClock`] accordingly.
    #[inline]
    pub fn begin_packet(&mut self, wire_bytes: u64) -> StageClock {
        self.registry.inc(self.packets, 1);
        self.registry.inc(self.bytes, wire_bytes);
        self.registry.observe(self.packet_bytes, wire_bytes);
        let sampled = match self.sample_shift {
            Some(shift) => {
                let hit = self.tick & ((1u64 << shift) - 1) == 0;
                self.tick = self.tick.wrapping_add(1);
                hit
            }
            None => false,
        };
        if sampled {
            self.registry.inc(self.timing_samples, 1);
        }
        StageClock::start(sampled)
    }

    /// Count a packet that failed header decode.
    #[inline]
    pub fn parse_error(&mut self) {
        self.registry.inc(self.parse_errors, 1);
    }

    /// Count a packet traversing `stage`.
    #[inline]
    pub fn stage_packet(&mut self, stage: Stage) {
        self.registry.inc(self.stage_packets[stage.index()], 1);
    }

    /// Close out a stage on a sampled packet: laps the clock and records
    /// the latency. No-op (no clock read) for inert clocks.
    #[inline]
    pub fn stage_lap(&mut self, clock: &mut StageClock, stage: Stage) {
        if let Some(ns) = clock.lap() {
            self.registry.observe(self.stage_latency[stage.index()], ns);
        }
    }

    /// Update divert-layer occupancy gauges.
    #[inline]
    pub fn set_divert_occupancy(&mut self, diverted_flows: usize, memory_bytes: usize) {
        self.registry
            .set(self.diverted_flows, diverted_flows as i64);
        self.registry.set(self.divert_memory, memory_bytes as i64);
    }

    /// Record the compiled automaton's footprint (set at engine
    /// construction and on every rule reload).
    #[inline]
    pub fn set_automaton_bytes(&mut self, bytes: usize) {
        self.registry.set(self.automaton_memory, bytes as i64);
    }

    /// Record how long the automaton compilation took (set at engine
    /// construction and on every rule reload).
    #[inline]
    pub fn set_automaton_build_ns(&mut self, ns: u64) {
        self.registry.set(self.automaton_build_ns, ns as i64);
    }

    /// Record the piece automaton's per-tier layout.
    #[inline]
    pub fn set_automaton_tiers(
        &mut self,
        hot_states: usize,
        cold_states: usize,
        hot_bytes: usize,
        cold_bytes: usize,
    ) {
        self.registry
            .set(self.automaton_hot_states, hot_states as i64);
        self.registry
            .set(self.automaton_cold_states, cold_states as i64);
        self.registry
            .set(self.automaton_hot_bytes, hot_bytes as i64);
        self.registry
            .set(self.automaton_cold_bytes, cold_bytes as i64);
    }

    /// Update the slow-path worker-lane occupancy gauge (asynchronous
    /// dispatch mode; inline engines leave it at zero).
    #[inline]
    pub fn set_slowpath_queue_depth(&mut self, depth: u64) {
        self.registry.set(self.slowpath_queue_depth, depth as i64);
    }

    /// Count one diverted packet (and its payload bytes) shed at a full
    /// slow-path worker lane.
    #[inline]
    pub fn slowpath_shed(&mut self, payload_bytes: u64) {
        self.registry.inc(self.slowpath_shed, 1);
        self.registry.inc(self.slowpath_shed_bytes, payload_bytes);
    }

    /// Record one enqueue→alert-delivery latency sample from the
    /// asynchronous slow path.
    #[inline]
    pub fn observe_slowpath_latency(&mut self, ns: u64) {
        self.registry.observe(self.slowpath_latency, ns);
    }

    /// The slow-path delivery-latency histogram.
    pub fn slowpath_latency(&self) -> &crate::registry::Histogram {
        self.registry.histogram_ref(self.slowpath_latency)
    }

    /// The underlying registry, for export.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable registry access, for attaching extra metrics (e.g. the
    /// sharded engine's per-lane counters) before export.
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Merge another instance built by the same constructor (shard merge
    /// at `finish()`).
    ///
    /// # Errors
    /// When the schemas differ — only possible if the instances were not
    /// built by [`PipelineTelemetry::new`].
    pub fn merge_from(&mut self, other: &PipelineTelemetry) -> Result<(), String> {
        self.registry.merge_from(&other.registry)
    }

    /// Total packets counted so far.
    pub fn packets_total(&self) -> u64 {
        self.registry.counter_value(self.packets)
    }

    /// The sampled latency histogram for `stage`.
    pub fn stage_latency(&self, stage: Stage) -> &crate::registry::Histogram {
        self.registry
            .histogram_ref(self.stage_latency[stage.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_arms_one_in_two_pow_shift() {
        let mut t = PipelineTelemetry::new(Some(2));
        let armed: usize = (0..16)
            .map(|_| usize::from(t.begin_packet(100).armed()))
            .sum();
        assert_eq!(armed, 4, "1 in 4 packets sampled at shift 2");
        assert_eq!(t.packets_total(), 16);
        assert_eq!(
            t.registry().counter_by_name("sd_timing_samples_total"),
            Some(4)
        );
        assert_eq!(t.registry().counter_by_name("sd_bytes_total"), Some(1600));
    }

    #[test]
    fn shift_none_disables_timing() {
        let mut t = PipelineTelemetry::new(None);
        for _ in 0..8 {
            let mut clock = t.begin_packet(64);
            assert!(!clock.armed());
            assert_eq!(clock.lap(), None);
            t.stage_lap(&mut clock, Stage::Parse);
        }
        assert_eq!(t.stage_latency(Stage::Parse).count, 0);
        assert_eq!(t.packets_total(), 8);
    }

    #[test]
    fn armed_clock_records_stage_latency() {
        let mut t = PipelineTelemetry::new(Some(0)); // every packet
        let mut clock = t.begin_packet(1500);
        assert!(clock.armed());
        t.stage_lap(&mut clock, Stage::Parse);
        t.stage_lap(&mut clock, Stage::FastPath);
        assert_eq!(t.stage_latency(Stage::Parse).count, 1);
        assert_eq!(t.stage_latency(Stage::FastPath).count, 1);
        assert_eq!(t.stage_latency(Stage::Divert).count, 0);
    }

    #[test]
    fn same_constructor_instances_merge() {
        let mut a = PipelineTelemetry::new(Some(6));
        let mut b = PipelineTelemetry::new(Some(6));
        for _ in 0..10 {
            a.begin_packet(100);
        }
        for _ in 0..5 {
            b.begin_packet(200);
        }
        a.stage_packet(Stage::FastPath);
        b.stage_packet(Stage::FastPath);
        b.stage_packet(Stage::SlowPath);
        a.merge_from(&b).unwrap();
        assert_eq!(a.packets_total(), 15);
        assert_eq!(
            a.registry()
                .counter_by_name("sd_stage_packets_total{stage=\"fast_path\"}"),
            Some(2)
        );
        assert_eq!(
            a.registry()
                .counter_by_name("sd_stage_packets_total{stage=\"slow_path\"}"),
            Some(1)
        );
    }

    #[test]
    fn exported_schema_is_valid_prometheus() {
        let mut t = PipelineTelemetry::new(Some(0));
        let mut clock = t.begin_packet(900);
        t.stage_lap(&mut clock, Stage::Parse);
        t.stage_packet(Stage::FastPath);
        t.set_divert_occupancy(3, 4096);
        t.set_automaton_bytes(1234);
        t.set_automaton_tiers(40, 60, 512, 300);
        let text = crate::export::to_prometheus(t.registry());
        crate::promcheck::validate(&text).unwrap();
        assert!(text.contains("sd_diverted_flows 3"), "{text}");
        assert!(text.contains("sd_automaton_bytes 1234"), "{text}");
        assert!(text.contains("sd_automaton_hot_states 40"), "{text}");
        assert!(text.contains("sd_automaton_cold_states 60"), "{text}");
        assert!(text.contains("sd_automaton_hot_bytes 512"), "{text}");
        assert!(text.contains("sd_automaton_cold_bytes 300"), "{text}");
        assert!(
            text.contains("sd_stage_latency_ns_bucket{stage=\"parse\""),
            "{text}"
        );
    }

    #[test]
    fn slowpath_metrics_record_and_merge() {
        let mut a = PipelineTelemetry::new(Some(6));
        let mut b = PipelineTelemetry::new(Some(6));
        a.set_slowpath_queue_depth(7);
        a.slowpath_shed(1400);
        a.slowpath_shed(200);
        a.observe_slowpath_latency(1_000);
        b.slowpath_shed(64);
        b.observe_slowpath_latency(9_000);
        a.merge_from(&b).unwrap();
        assert_eq!(
            a.registry().counter_by_name("sd_slowpath_shed_total"),
            Some(3)
        );
        assert_eq!(
            a.registry().counter_by_name("sd_slowpath_shed_bytes_total"),
            Some(1664)
        );
        assert_eq!(a.slowpath_latency().count, 2);
        let text = crate::export::to_prometheus(a.registry());
        crate::promcheck::validate(&text).unwrap();
        assert!(text.contains("sd_slowpath_queue_depth"), "{text}");
        assert!(text.contains("sd_slowpath_latency_ns_bucket"), "{text}");
    }
}
