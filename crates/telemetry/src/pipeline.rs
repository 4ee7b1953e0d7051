//! Pipeline-shaped telemetry: sampled stage timing and the histograms it
//! feeds, for one Split-Detect engine instance.
//!
//! Every engine (and every shard) owns one [`PipelineTelemetry`]; shard
//! instances merge at `finish()` by adding histograms. The packet-size
//! histogram is recorded for every packet (an array index and an add);
//! *latency* timing is sampled — one packet in `2^shift` arms a
//! [`StageClock`], everything else skips the `Instant::now()` calls
//! entirely. That split keeps the telemetry tax small while still
//! yielding statistically useful per-stage histograms.

use crate::registry::Histogram;
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

    /// The counter family whose `stage`-labelled series count packets
    /// through each stage.
    pub const PACKETS_FAMILY: &'static str = "sd_stage_packets_total";

    /// The histogram family whose `stage`-labelled series hold sampled
    /// per-stage latencies.
    pub const LATENCY_FAMILY: &'static str = "sd_stage_latency_ns";

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

/// One engine instance's sampled measurements: the 1-in-`2^shift`
/// sampling tick, the per-stage latency histograms it feeds, the
/// packet-size histogram, and the asynchronous slow path's delivery
/// latency. Counts live in the engine's stats structs, not here.
#[derive(Debug, Clone)]
pub struct PipelineTelemetry {
    /// `None` disables latency timing entirely; `Some(s)` samples one
    /// packet in `2^s`.
    sample_shift: Option<u8>,
    tick: u64,
    stage_latency: [Histogram; 4],
    packet_bytes: Histogram,
    slowpath_latency: Histogram,
}

impl PipelineTelemetry {
    /// `sample_shift = None` turns latency timing off (the packet-size
    /// histogram still runs); `Some(s)` times one packet in `2^s`.
    pub fn new(sample_shift: Option<u8>) -> Self {
        PipelineTelemetry {
            sample_shift,
            tick: 0,
            stage_latency: Default::default(),
            packet_bytes: Histogram::default(),
            slowpath_latency: Histogram::default(),
        }
    }

    /// Record one packet's size and decide whether this one gets stage
    /// timing. Returns an armed or inert [`StageClock`] accordingly.
    #[inline]
    pub fn begin_packet(&mut self, wire_bytes: u64) -> StageClock {
        self.packet_bytes.record(wire_bytes);
        let sampled = match self.sample_shift {
            Some(shift) => {
                let hit = self.tick & ((1u64 << shift) - 1) == 0;
                self.tick = self.tick.wrapping_add(1);
                hit
            }
            None => false,
        };
        StageClock::start(sampled)
    }

    /// Close out a stage on a sampled packet: laps the clock and records
    /// the latency. No-op (no clock read) for inert clocks.
    #[inline]
    pub fn stage_lap(&mut self, clock: &mut StageClock, stage: Stage) {
        if let Some(ns) = clock.lap() {
            self.stage_latency[stage.index()].record(ns);
        }
    }

    /// Record one enqueue→alert-delivery latency sample from the
    /// asynchronous slow path.
    #[inline]
    pub fn observe_slowpath_latency(&mut self, ns: u64) {
        self.slowpath_latency.record(ns);
    }

    /// The sampled latency histogram for `stage`.
    pub fn stage_latency(&self, stage: Stage) -> &Histogram {
        &self.stage_latency[stage.index()]
    }

    /// Wire sizes of every processed packet.
    pub fn packet_bytes(&self) -> &Histogram {
        &self.packet_bytes
    }

    /// The slow-path delivery-latency histogram.
    pub fn slowpath_latency(&self) -> &Histogram {
        &self.slowpath_latency
    }

    /// Add another instance's histograms to this one (shard merge at
    /// `finish()`).
    pub fn merge_from(&mut self, other: &PipelineTelemetry) {
        for (a, b) in self.stage_latency.iter_mut().zip(&other.stage_latency) {
            a.merge_from(b);
        }
        self.packet_bytes.merge_from(&other.packet_bytes);
        self.slowpath_latency.merge_from(&other.slowpath_latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn sampling_arms_one_in_two_pow_shift() {
        let mut t = PipelineTelemetry::new(Some(2));
        let armed: usize = (0..16)
            .map(|_| usize::from(t.begin_packet(100).armed()))
            .sum();
        assert_eq!(armed, 4, "1 in 4 packets sampled at shift 2");
        assert_eq!(t.packet_bytes().count, 16);
        assert_eq!(t.packet_bytes().sum, 1600);
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
        assert_eq!(t.packet_bytes().count, 8);
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
        let mut a = PipelineTelemetry::new(Some(0));
        let mut b = PipelineTelemetry::new(Some(0));
        for _ in 0..10 {
            a.begin_packet(100);
        }
        for _ in 0..5 {
            let mut clock = b.begin_packet(200);
            b.stage_lap(&mut clock, Stage::SlowPath);
        }
        a.merge_from(&b);
        assert_eq!(a.packet_bytes().count, 15);
        assert_eq!(a.packet_bytes().sum, 2000);
        assert_eq!(a.stage_latency(Stage::SlowPath).count, 5);
        assert_eq!(a.stage_latency(Stage::Parse).count, 0);
    }

    #[test]
    fn exported_schema_is_valid_prometheus() {
        let mut t = PipelineTelemetry::new(Some(0));
        let mut clock = t.begin_packet(900);
        t.stage_lap(&mut clock, Stage::Parse);
        let mut r = Registry::new();
        for stage in Stage::ALL {
            r.histogram_labeled(
                Stage::LATENCY_FAMILY,
                "Sampled per-stage latency in nanoseconds",
                ("stage", stage.label()),
                t.stage_latency(stage),
            );
        }
        r.histogram("sd_packet_bytes", "Wire size", t.packet_bytes());
        let text = crate::export::to_prometheus(&r);
        crate::promcheck::validate(&text).unwrap();
        assert_eq!(text.matches("# TYPE sd_stage_latency_ns").count(), 1);
        assert!(
            text.contains("sd_stage_latency_ns_count{stage=\"parse\"} 1"),
            "{text}"
        );
        assert!(text.contains("sd_packet_bytes_sum 900"), "{text}");
    }

    #[test]
    fn slowpath_metrics_record_and_merge() {
        let mut a = PipelineTelemetry::new(Some(6));
        let mut b = PipelineTelemetry::new(Some(6));
        a.observe_slowpath_latency(1_000);
        b.observe_slowpath_latency(9_000);
        a.merge_from(&b);
        assert_eq!(a.slowpath_latency().count, 2);
        assert_eq!(a.slowpath_latency().sum, 10_000);
    }
}
