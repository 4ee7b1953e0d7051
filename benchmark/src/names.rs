//! Every metric the benchmark emits, by name, unit and direction. These
//! names are permanent: later PRs are judged on them. `BENCHMARK.json`
//! repeats this table and a unit test keeps the two identical.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// Spelling used in `BENCHMARK.json` and in the printed table.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's declaration.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Stable name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change counts as a regression. 0 for per-layer
    /// metrics, which carry no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// End-to-end metrics (tracing off), with their regression bounds: about
/// three times the widest seed-to-seed spread measured on any workload
/// (README, "Bounds"), which on this shared 2-core VM is set by
/// `rules10k-encrypted`, the workload most exposed to the host's memory
/// contention.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("pps", "1/s", Higher, 0.20),
    e2e("gbps", "Gbit/s", Higher, 0.20),
    e2e("pkt_p99_ns", "ns", Lower, 0.25),
    e2e("state_bytes", "B", Lower, 0.03),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics (traced run).
pub const PER_LAYER: [MetricDef; 48] = [
    layer("packet.parse_ns", "ns", Lower),
    layer("packet.checksum_ns", "ns", Lower),
    layer("flow.key_hash_ns", "ns", Lower),
    layer("flow.lookup_ns", "ns", Lower),
    layer("flow.evictions", "count", Lower),
    layer("flow.occupancy_share", "share", Lower),
    layer("match.scan_ns", "ns", Lower),
    layer("match.scan_mib_s", "MiB/s", Higher),
    layer("match.piece_hit_share", "share", Lower),
    layer("match.build_s", "s", Lower),
    layer("match.automaton_bytes", "B", Lower),
    layer("fastpath.classify_ns", "ns", Lower),
    layer("fastpath.self_ns", "ns", Lower),
    layer("fastpath.divert_share", "share", Lower),
    layer("fastpath.diverts.piece", "count", Lower),
    layer("fastpath.diverts.small", "count", Lower),
    layer("fastpath.diverts.ooo", "count", Lower),
    layer("fastpath.diverts.frag", "count", Lower),
    layer("fastpath.diverts.urg", "count", Lower),
    layer("divert.record_ns", "ns", Lower),
    layer("divert.record_bytes", "B", Lower),
    layer("divert.replay_ns", "ns", Lower),
    layer("divert.replay_pkts", "count", Lower),
    layer("divert.evictions", "count", Lower),
    layer("slowpath.pkt_share", "share", Lower),
    layer("slowpath.byte_share", "share", Lower),
    layer("slowpath.ns", "ns", Lower),
    layer("reassembly.buffered_bytes", "B", Lower),
    layer("slowpath.pool1_pps", "1/s", Higher),
    layer("slowpath.pool1_shed", "count", Lower),
    layer("ips.conventional_pps", "1/s", Higher),
    layer("ips.sd_over_conventional", "ratio", Lower),
    layer("ips.buffered_ratio", "ratio", Lower),
    layer("ips.state_ratio", "ratio", Lower),
    layer("engine.ns", "ns", Lower),
    layer("engine.attributed_share", "share", Higher),
    layer("engine.residual_ns", "ns", Lower),
    layer("serve.loop_ns", "ns", Lower),
    layer("pkt_p50_ns", "ns", Lower),
    layer("source.copy_ns", "ns", Lower),
    layer("telemetry.stage_timing_ns", "ns", Lower),
    layer("shard.dispatch_ns", "ns", Lower),
    layer("shard.pps_1", "1/s", Higher),
    layer("shard.batch_fill", "count", Higher),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.span_cost_ns", "ns", Lower),
    layer("gen_s", "s", Lower),
    layer("workload.mean_pkt_bytes", "B", Lower),
];

/// Look up a declaration by name in either table.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
