//! Run reports and metrics export.
//!
//! Every front end (CLI `scan`, examples, ad-hoc scripts) wants the same
//! summary of what a Split-Detect run did: what diverted and why, where
//! the state lives, how much traffic the slow path re-examined. Rendering
//! it in one place keeps the numbers consistently labelled — and unit
//! tested, which format strings scattered across binaries never are.
//! [`RunReport`] renders the numbers as text; `metrics_registry` names
//! the same numbers for Prometheus/JSON export (through
//! `SplitDetect::metrics` and `ShardedSplitDetect::metrics`).

use std::fmt;

use sd_telemetry::{PipelineTelemetry, Registry, Stage};

use crate::fastpath::DivertReason;
use crate::lane::WorkerFailure;
use crate::shard::ShardDispatchStats;
use crate::split::SplitPlan;
use crate::stats::SplitDetectStats;

/// A formatted snapshot of one engine run. Display renders the block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    stats: SplitDetectStats,
    /// Per-shard dispatcher counters, present for sharded runs.
    dispatch: Vec<ShardDispatchStats>,
    /// Workers that died mid-run, present for sharded runs.
    failures: Vec<WorkerFailure>,
}

impl RunReport {
    /// Wrap a stats snapshot for rendering.
    pub fn new(stats: SplitDetectStats) -> Self {
        RunReport {
            stats,
            dispatch: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// A sharded run's report: aggregated engine stats plus the
    /// dispatcher's per-lane counters and any worker failures.
    pub fn with_dispatch(
        stats: SplitDetectStats,
        dispatch: Vec<ShardDispatchStats>,
        failures: Vec<WorkerFailure>,
    ) -> Self {
        RunReport {
            stats,
            dispatch,
            failures,
        }
    }
}

/// Format a byte count with a binary-prefix unit.
fn human_bytes(b: u64) -> String {
    match b {
        0..=1023 => format!("{b} B"),
        1024..=1048575 => format!("{:.1} KiB", b as f64 / 1024.0),
        1048576..=1073741823 => format!("{:.1} MiB", b as f64 / 1048576.0),
        _ => format!("{:.2} GiB", b as f64 / 1073741824.0),
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.stats;
        writeln!(
            f,
            "packets {}  payload {}  flows seen {}",
            s.fast.packets,
            human_bytes(s.payload_bytes),
            s.flows_seen
        )?;
        writeln!(
            f,
            "diverted: {} flows ({:.2}%), {} packets ({:.2}%), {} of payload ({:.2}%)",
            s.divert.flows_diverted,
            s.diverted_flow_fraction() * 100.0,
            s.packets_to_slow,
            s.slow_packet_fraction() * 100.0,
            human_bytes(s.bytes_to_slow),
            s.slow_byte_fraction() * 100.0
        )?;
        write!(f, "divert reasons:")?;
        for reason in DivertReason::ALL {
            let n = s.diverts_by(reason);
            if n > 0 {
                write!(f, " {}={}", reason.name(), n)?;
            }
        }
        if s.fast.total_diverts() == 0 {
            write!(f, " none")?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "state: fast {}  delay-line {}  slow now {} (peak {})  automaton {}",
            human_bytes(s.fast_state_bytes),
            human_bytes(s.divert_state_bytes),
            human_bytes(s.slow_state_bytes),
            human_bytes(s.slow_state_peak_bytes),
            human_bytes(s.automaton_bytes)
        )?;
        if s.divert.set_evictions > 0 {
            writeln!(
                f,
                "WARNING: {} diverted-set evictions (policy {}) — detection guarantee \
                 eroded, raise the diverted-flow bound",
                s.divert.set_evictions, s.divert.policy
            )?;
        }
        if s.divert.set_refused > 0 {
            writeln!(
                f,
                "WARNING: {} diversions refused at the bound (policy {}) — new \
                 suspicious flows were not diverted, raise the diverted-flow bound",
                s.divert.set_refused, s.divert.policy
            )?;
        }
        if s.divert.shed_packets > 0 {
            writeln!(
                f,
                "WARNING: {} diverted packets ({}) shed at full slow-path lanes — \
                 those flows were not fully inspected; raise slow-path workers or \
                 lane depth",
                s.divert.shed_packets,
                human_bytes(s.divert.shed_bytes)
            )?;
        }
        if !self.dispatch.is_empty() {
            let d = ShardDispatchStats::aggregate(&self.dispatch);
            writeln!(
                f,
                "dispatch: {} shards, {} batches ({:.1} pkts/batch), {} enqueued ({}), \
                 pool {}/{} hit/miss, queue high-water {}",
                self.dispatch.len(),
                d.batches_sent,
                d.mean_batch_fill(),
                d.packets_enqueued,
                human_bytes(d.bytes_enqueued),
                d.recycle_hits,
                d.recycle_misses,
                d.queue_depth_high_water
            )?;
            for (i, lane) in self.dispatch.iter().enumerate() {
                writeln!(
                    f,
                    "  shard {i}: {} batches, {} pkts ({:.1}/batch), pool {}/{} hit/miss, \
                     high-water {}{}",
                    lane.batches_sent,
                    lane.packets_enqueued,
                    lane.mean_batch_fill(),
                    lane.recycle_hits,
                    lane.recycle_misses,
                    lane.queue_depth_high_water,
                    if lane.dead { ", DEAD" } else { "" }
                )?;
            }
            if d.packets_dropped > 0 {
                writeln!(
                    f,
                    "WARNING: {} packets dropped on dead shard lanes",
                    d.packets_dropped
                )?;
            }
        }
        for failure in &self.failures {
            writeln!(f, "WARNING: {failure}")?;
        }
        Ok(())
    }
}

/// Name every number an engine run keeps, for export. `stats` is the
/// run's snapshot (aggregated across shards for a sharded run),
/// `telemetry` its sampled histograms, `plans` the piece plan each engine
/// instance holds, and `dispatch` the sharded dispatcher's per-lane
/// counters (empty for a single engine).
///
/// Byte gauges report memory held, summed over the instances as
/// [`SplitDetectStats::aggregate`] sums it; the automaton's state counts
/// describe one plan and are exported once.
pub(crate) fn metrics_registry(
    stats: &SplitDetectStats,
    telemetry: &PipelineTelemetry,
    plans: &[&SplitPlan],
    dispatch: &[ShardDispatchStats],
) -> Registry {
    let s = stats;
    let mut r = Registry::new();
    r.counter(
        "sd_packets_total",
        "Packets processed by the engine",
        s.fast.packets,
    );
    r.counter(
        "sd_bytes_total",
        "Wire bytes processed by the engine",
        telemetry.packet_bytes().sum,
    );
    r.counter(
        "sd_parse_errors_total",
        "Packets that failed header decode",
        s.fast.malformed,
    );
    r.counter(
        "sd_timing_samples_total",
        "Packets whose stage latencies were sampled",
        telemetry.stage_latency(Stage::FastPath).count,
    );
    for stage in Stage::ALL {
        let n = match stage {
            Stage::Parse => s.fast.packets - s.fast.malformed,
            Stage::FastPath => s.fast.packets,
            Stage::Divert => s.divert.recorded_packets + s.fast.total_diverts(),
            Stage::SlowPath => s.packets_to_slow + s.divert.shed_packets,
        };
        r.counter_labeled(
            Stage::PACKETS_FAMILY,
            "Packets that traversed each pipeline stage",
            ("stage", stage.label()),
            n,
        );
    }
    r.counter(
        "sd_slowpath_shed_total",
        "Diverted packets shed at a full slow-path worker lane",
        s.divert.shed_packets,
    );
    r.counter(
        "sd_slowpath_shed_bytes_total",
        "Payload bytes of diverted packets shed at a full worker lane",
        s.divert.shed_bytes,
    );
    for reason in DivertReason::ALL {
        r.counter_labeled(
            "sd_diverts_total",
            "Diversions by the fast-path rule that fired",
            ("reason", reason.name()),
            s.fast.diverts[reason.index()],
        );
    }
    for (name, help, value) in [
        (
            "sd_flows_seen_total",
            "Distinct flows inserted into the fast-path flow table",
            s.flows_seen,
        ),
        (
            "sd_flows_reclaimed_total",
            "Flow-table entries reclaimed on connection close",
            s.fast.reclaimed,
        ),
        (
            "sd_payload_bytes_total",
            "Payload bytes offered to the engine",
            s.payload_bytes,
        ),
        (
            "sd_scanned_bytes_total",
            "Payload bytes run through the piece automaton",
            s.fast.bytes_scanned,
        ),
        (
            "sd_small_segments_total",
            "Small data segments seen by the fast path",
            s.fast.small_segments,
        ),
        (
            "sd_out_of_order_total",
            "Out-of-order data segments seen by the fast path",
            s.fast.out_of_order,
        ),
        (
            "sd_flows_diverted_total",
            "Flows admitted to the diverted set",
            s.divert.flows_diverted,
        ),
        (
            "sd_divert_set_evictions_total",
            "Diverted flows evicted at the set bound (detection guarantee eroded)",
            s.divert.set_evictions,
        ),
        (
            "sd_divert_set_refused_total",
            "Diversions refused at the set bound (detection guarantee eroded)",
            s.divert.set_refused,
        ),
        (
            "sd_delay_line_packets_total",
            "Benign packets recorded into the delay line",
            s.divert.recorded_packets,
        ),
        (
            "sd_replayed_packets_total",
            "Delay-line packets replayed to the slow path on diversion",
            s.divert.replayed_packets,
        ),
        (
            "sd_slowpath_packets_total",
            "Packets delivered to the slow path (replayed and live)",
            s.packets_to_slow,
        ),
        (
            "sd_slowpath_bytes_total",
            "Payload bytes delivered to the slow path",
            s.bytes_to_slow,
        ),
    ] {
        r.counter(name, help, value);
    }
    for (i, d) in dispatch.iter().enumerate() {
        let shard = i.to_string();
        let label = ("shard", shard.as_str());
        r.counter_labeled(
            "sd_shard_packets_total",
            "Packets enqueued to each shard lane",
            label,
            d.packets_enqueued,
        );
        r.counter_labeled(
            "sd_shard_batches_total",
            "Batches sent to each shard lane",
            label,
            d.batches_sent,
        );
        r.counter_labeled(
            "sd_shard_dropped_total",
            "Packets dropped because the shard worker had died",
            label,
            d.packets_dropped,
        );
    }

    let tiers = plans.first().map(|p| p.tier_stats());
    let sum = |f: fn(&SplitPlan) -> u64| plans.iter().map(|p| f(p)).sum::<u64>();
    for (name, help, value) in [
        (
            "sd_diverted_flows",
            "Flows currently in the diverted set",
            s.divert.set_size,
        ),
        (
            "sd_divert_memory_bytes",
            "Bytes held by the diversion manager (delay line, set, pool)",
            s.divert_state_bytes,
        ),
        (
            "sd_automaton_bytes",
            "Compiled piece-automaton table bytes (shared, not per-flow)",
            s.automaton_bytes,
        ),
        (
            "sd_automaton_build_ns",
            "Wall nanoseconds spent compiling the piece automaton",
            sum(|p| p.build_time().as_nanos() as u64),
        ),
        (
            "sd_automaton_hot_states",
            "Piece automaton: states laid out as dense byte-classed rows",
            tiers.map_or(0, |t| t.hot_states as u64),
        ),
        (
            "sd_automaton_cold_states",
            "Piece automaton: states kept in the CSR cold tail",
            tiers.map_or(0, |t| t.cold_states as u64),
        ),
        (
            "sd_automaton_hot_bytes",
            "Piece automaton: hot-tier table bytes (class map + dense rows)",
            sum(|p| p.tier_stats().hot_bytes as u64),
        ),
        (
            "sd_automaton_cold_bytes",
            "Piece automaton: cold-tier table bytes (CSR arrays + failure links)",
            sum(|p| p.tier_stats().cold_bytes as u64),
        ),
        (
            "sd_slowpath_queue_depth",
            "Diverted packets currently queued in slow-path worker lanes",
            s.slow_queue_depth,
        ),
        (
            "sd_fastpath_state_bytes",
            "Fast-path flow-table bytes",
            s.fast_state_bytes,
        ),
        (
            "sd_slowpath_state_bytes",
            "Slow-path reassembly state bytes",
            s.slow_state_bytes,
        ),
        (
            "sd_slowpath_state_peak_bytes",
            "Peak slow-path reassembly state bytes",
            s.slow_state_peak_bytes,
        ),
    ] {
        r.gauge(name, help, value);
    }

    for stage in Stage::ALL {
        r.histogram_labeled(
            Stage::LATENCY_FAMILY,
            "Sampled per-stage latency in nanoseconds",
            ("stage", stage.label()),
            telemetry.stage_latency(stage),
        );
    }
    r.histogram(
        "sd_packet_bytes",
        "Wire size of processed packets",
        telemetry.packet_bytes(),
    );
    r.histogram(
        "sd_slowpath_latency_ns",
        "Enqueue-to-alert-delivery latency of asynchronous slow-path alerts",
        telemetry.slowpath_latency(),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitDetect;
    use sd_ips::{Ips, Signature, SignatureSet};
    use sd_packet::builder::{ip_of_frame, TcpPacketSpec};

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(1023), "1023 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0 MiB");
        assert_eq!(human_bytes(2 * 1024 * 1024 * 1024), "2.00 GiB");
    }

    #[test]
    fn report_renders_a_real_run() {
        let sigs =
            SignatureSet::from_signatures([Signature::new("e", &b"EVIL_SIGNATURE_BYTES"[..])]);
        let mut engine = SplitDetect::new(sigs).unwrap();
        let mut out = Vec::new();
        let pkt = {
            let f = TcpPacketSpec::new("10.0.0.1:1000", "10.0.0.2:80")
                .seq(1)
                .payload(b"..EVIL_SIGNATURE_BYTES..")
                .build();
            ip_of_frame(&f).to_vec()
        };
        engine.process_packet(&pkt, 0, &mut out);
        let text = RunReport::new(engine.stats()).to_string();
        assert!(text.contains("diverted: 1 flows (100.00%)"), "{text}");
        assert!(text.contains("piece-match=1"), "{text}");
        assert!(text.contains("state: fast"), "{text}");
        assert!(!text.contains("WARNING"), "{text}");
    }

    #[test]
    fn shed_traffic_warns() {
        let sigs =
            SignatureSet::from_signatures([Signature::new("e", &b"EVIL_SIGNATURE_BYTES"[..])]);
        let engine = SplitDetect::new(sigs).unwrap();
        let mut stats = engine.stats();
        stats.divert.shed_packets = 42;
        stats.divert.shed_bytes = 58_800;
        let text = RunReport::new(stats).to_string();
        assert!(text.contains("WARNING: 42 diverted packets"), "{text}");
        assert!(text.contains("shed at full slow-path lanes"), "{text}");
    }

    #[test]
    fn sharded_report_renders_dispatch_and_failures() {
        let sigs =
            SignatureSet::from_signatures([Signature::new("e", &b"EVIL_SIGNATURE_BYTES"[..])]);
        let engine = SplitDetect::new(sigs).unwrap();
        let dispatch = vec![
            ShardDispatchStats {
                batches_sent: 10,
                packets_enqueued: 640,
                bytes_enqueued: 64_000,
                recycle_hits: 9,
                recycle_misses: 1,
                queue_depth_high_water: 3,
                ..Default::default()
            },
            ShardDispatchStats {
                packets_dropped: 5,
                dead: true,
                ..Default::default()
            },
        ];
        let failures = vec![WorkerFailure {
            kind: crate::WorkerKind::Shard,
            worker: 1,
            message: "boom".into(),
        }];
        let text = RunReport::with_dispatch(engine.stats(), dispatch, failures).to_string();
        assert!(text.contains("dispatch: 2 shards, 10 batches"), "{text}");
        assert!(text.contains("pool 9/1 hit/miss"), "{text}");
        assert!(
            text.contains("  shard 0: 10 batches, 640 pkts (64.0/batch), pool 9/1 hit/miss"),
            "{text}"
        );
        assert!(text.contains("  shard 1: 0 batches") && text.contains(", DEAD"));
        assert!(text.contains("5 packets dropped"), "{text}");
        assert!(text.contains("shard 1 worker failed: boom"), "{text}");
    }

    #[test]
    fn quiet_run_says_none() {
        let sigs =
            SignatureSet::from_signatures([Signature::new("e", &b"EVIL_SIGNATURE_BYTES"[..])]);
        let engine = SplitDetect::new(sigs).unwrap();
        let text = RunReport::new(engine.stats()).to_string();
        assert!(text.contains("divert reasons: none"), "{text}");
    }
}
