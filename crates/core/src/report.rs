//! Human-readable run reports.
//!
//! Every front end (CLI `scan`, examples, ad-hoc scripts) wants the same
//! summary of what a Split-Detect run did: what diverted and why, where
//! the state lives, how much traffic the slow path re-examined. Rendering
//! it in one place keeps the numbers consistently labelled — and unit
//! tested, which format strings scattered across binaries never are.

use std::fmt;

use crate::fastpath::DivertReason;
use crate::lane::WorkerFailure;
use crate::shard::ShardDispatchStats;
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
