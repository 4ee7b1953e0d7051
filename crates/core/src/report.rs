//! The one table that names every number an engine run keeps.
//!
//! `metrics_registry` turns an engine's stats, telemetry and (for a
//! sharded run) dispatcher counters into one [`Registry`], through
//! `SplitDetect::metrics` and `ShardedSplitDetect::metrics`. The scrape
//! serves it as Prometheus text and a drained run prints it with
//! [`sd_telemetry::to_text`], so the report and the scrape read the same
//! numbers under the same names. [`EROSION_FAMILIES`] are the families
//! whose nonzero value means the detection guarantee was eroded; the
//! report warns on each.

use sd_telemetry::{PipelineTelemetry, Registry, Stage};

use crate::fastpath::DivertReason;
use crate::shard::ShardDispatchStats;
use crate::split::SplitPlan;
use crate::stats::SplitDetectStats;

/// The families a report warns on when nonzero: diverted-set evictions
/// and refusals, diverted packets shed at full slow-path lanes, and
/// packets dropped on dead shard lanes. Each is a place where traffic
/// went uninspected.
pub const EROSION_FAMILIES: [&str; 4] = [
    "sd_divert_set_evictions_total",
    "sd_divert_set_refused_total",
    "sd_slowpath_shed_total",
    "sd_shard_dropped_total",
];

/// Name every number an engine run keeps, for export. `stats` is the
/// run's snapshot (aggregated across shards for a sharded run),
/// `telemetry` its sampled histograms, `plan` the compiled piece plan
/// every engine instance shares (`None` when no shard survived), and
/// `dispatch` the sharded dispatcher's per-lane counters (empty for a
/// single engine).
///
/// Per-flow byte gauges report memory held, summed over the instances as
/// [`SplitDetectStats::aggregate`] sums it; the automaton is one shared
/// compile and is counted once.
pub(crate) fn metrics_registry(
    stats: &SplitDetectStats,
    telemetry: &PipelineTelemetry,
    plan: Option<&SplitPlan>,
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
        "Diverted packets shed at a full slow-path worker lane (not fully \
         inspected; raise slow-path workers or lane depth)",
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
            "sd_flow_table_evictions_total",
            "Fast-path flow-table entries evicted to admit a new flow",
            s.flow_table_evictions,
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
            "Diverted flows evicted at the set bound (detection guarantee eroded; \
             raise the diverted-flow bound)",
            s.divert.set_evictions,
        ),
        (
            "sd_divert_set_refused_total",
            "Diversions refused at the set bound (detection guarantee eroded; \
             raise the diverted-flow bound)",
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
            "sd_shard_bytes_total",
            "Raw bytes of the packets enqueued to each shard lane",
            label,
            d.bytes_enqueued,
        );
        r.counter_labeled(
            "sd_shard_recycle_hits_total",
            "Batch buffers each shard lane took from its recycle pool",
            label,
            d.recycle_hits,
        );
        r.counter_labeled(
            "sd_shard_recycle_misses_total",
            "Batch buffers each shard lane allocated (recycle pool empty)",
            label,
            d.recycle_misses,
        );
        r.counter_labeled(
            "sd_shard_dropped_total",
            "Packets dropped because the shard worker had died",
            label,
            d.packets_dropped,
        );
        r.gauge_labeled(
            "sd_shard_queue_high_water",
            "Most batches in flight to each shard lane at once",
            label,
            d.queue_depth_high_water,
        );
        r.gauge_labeled(
            "sd_shard_dead",
            "1 when the shard's worker died before finish",
            label,
            u64::from(d.dead),
        );
    }

    let tiers = plan.map(|p| p.tier_stats());
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
            plan.map_or(0, |p| p.build_time().as_nanos() as u64),
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
            tiers.map_or(0, |t| t.hot_bytes as u64),
        ),
        (
            "sd_automaton_cold_bytes",
            "Piece automaton: cold-tier table bytes (CSR arrays + failure links)",
            tiers.map_or(0, |t| t.cold_bytes as u64),
        ),
        (
            "sd_slowpath_queue_depth",
            "Diverted packets currently queued in slow-path worker lanes",
            s.slow_queue_depth,
        ),
        (
            "sd_flow_table_entries",
            "Live fast-path flow-table entries",
            s.flow_table_entries,
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
    use sd_telemetry::to_text;

    fn engine() -> SplitDetect {
        let sigs =
            SignatureSet::from_signatures([Signature::new("e", &b"EVIL_SIGNATURE_BYTES"[..])]);
        SplitDetect::new(sigs).unwrap()
    }

    /// The report a run with these numbers prints.
    fn report(stats: &SplitDetectStats, dispatch: &[ShardDispatchStats]) -> String {
        let e = engine();
        let r = metrics_registry(stats, e.telemetry(), Some(e.plan()), dispatch);
        to_text(&r, &EROSION_FAMILIES)
    }

    /// The words of the line that starts with `family`.
    fn line<'a>(text: &'a str, family: &str) -> Vec<&'a str> {
        let l = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(family));
        l.unwrap_or_else(|| panic!("no {family} line:\n{text}"))
            .split_whitespace()
            .skip(1)
            .collect()
    }

    #[test]
    fn report_renders_a_real_run() {
        let mut engine = engine();
        let mut out = Vec::new();
        let pkt = {
            let f = TcpPacketSpec::new("10.0.0.1:1000", "10.0.0.2:80")
                .seq(1)
                .payload(b"..EVIL_SIGNATURE_BYTES..")
                .build();
            ip_of_frame(&f).to_vec()
        };
        engine.process_packet(&pkt, 0, &mut out);
        let text = to_text(&engine.metrics(), &EROSION_FAMILIES);
        assert_eq!(line(&text, "sd_flows_seen_total"), ["1"]);
        assert_eq!(line(&text, "sd_flows_diverted_total"), ["1"]);
        assert_eq!(line(&text, "sd_flow_table_entries"), ["1"]);
        let reasons = line(&text, "sd_diverts_total{reason}");
        assert!(reasons.contains(&"piece-match=1"), "{text}");
        let fast = engine.stats().fast_state_bytes.to_string();
        assert_eq!(line(&text, "sd_fastpath_state_bytes"), [fast.as_str()]);
        assert!(!text.contains("WARNING"), "{text}");
    }

    #[test]
    fn shed_traffic_warns() {
        let mut stats = engine().stats();
        stats.divert.shed_packets = 42;
        stats.divert.shed_bytes = 58_800;
        let text = report(&stats, &[]);
        assert!(
            text.contains("WARNING: sd_slowpath_shed_total 42:"),
            "{text}"
        );
        assert!(text.contains("raise slow-path workers"), "{text}");
        assert_eq!(line(&text, "sd_slowpath_shed_bytes_total"), ["58800"]);
    }

    #[test]
    fn sharded_report_renders_dispatch_lanes() {
        let dispatch = [
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
        let text = report(&engine().stats(), &dispatch);
        for (family, values) in [
            ("sd_shard_batches_total{shard}", ["0=10", "1=0"]),
            ("sd_shard_packets_total{shard}", ["0=640", "1=0"]),
            ("sd_shard_bytes_total{shard}", ["0=64000", "1=0"]),
            ("sd_shard_recycle_hits_total{shard}", ["0=9", "1=0"]),
            ("sd_shard_recycle_misses_total{shard}", ["0=1", "1=0"]),
            ("sd_shard_dropped_total{shard}", ["0=0", "1=5"]),
            ("sd_shard_queue_high_water{shard}", ["0=3", "1=0"]),
            ("sd_shard_dead{shard}", ["0=0", "1=1"]),
        ] {
            assert_eq!(line(&text, family), values, "{text}");
        }
        assert!(
            text.contains("WARNING: sd_shard_dropped_total 5:"),
            "{text}"
        );
    }

    #[test]
    fn quiet_run_says_none() {
        let text = report(&engine().stats(), &[]);
        for value in line(&text, "sd_diverts_total{reason}") {
            assert!(value.ends_with("=0"), "{text}");
        }
        assert!(!text.contains("WARNING"), "{text}");
        assert!(!text.contains("sd_shard_"), "{text}");
    }
}
