//! The measurement surface experiments read from a running engine.
//!
//! Everything the paper's evaluation plots is derivable from this snapshot:
//! diverted fractions (flows / packets / bytes), state splits between the
//! fast and slow paths, and the per-byte processing split.

use crate::divert::DivertStats;
use crate::fastpath::{DivertReason, FastPathStats};

/// A point-in-time snapshot of a [`crate::SplitDetect`] engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitDetectStats {
    /// Fast-path counters.
    pub fast: FastPathStats,
    /// Diversion counters.
    pub divert: DivertStats,
    /// Distinct flows that hit the fast path (table insertions).
    pub flows_seen: u64,
    /// Flow-table entries evicted to admit a new flow.
    pub flow_table_evictions: u64,
    /// Live flow-table entries at snapshot time.
    pub flow_table_entries: u64,
    /// Packets handed to the slow path (replayed + live).
    pub packets_to_slow: u64,
    /// Payload bytes handed to the slow path.
    pub bytes_to_slow: u64,
    /// Total payload bytes offered to the engine.
    pub payload_bytes: u64,
    /// Fast-path per-flow state (provisioned flow table), bytes.
    pub fast_state_bytes: u64,
    /// Delay line + diverted-set bytes.
    pub divert_state_bytes: u64,
    /// Slow-path state right now, bytes.
    pub slow_state_bytes: u64,
    /// Slow-path peak state, bytes.
    pub slow_state_peak_bytes: u64,
    /// Piece-automaton bytes (control plane, not per-flow; one compile
    /// shared by every shard).
    pub automaton_bytes: u64,
    /// Diverted packets queued in slow-path worker lanes right now
    /// (asynchronous pool mode; always 0 inline and after `finish`).
    pub slow_queue_depth: u64,
}

impl SplitDetectStats {
    /// Fraction of flows diverted (0 when no flows seen).
    pub fn diverted_flow_fraction(&self) -> f64 {
        if self.flows_seen == 0 {
            0.0
        } else {
            self.divert.flows_diverted as f64 / self.flows_seen as f64
        }
    }

    /// Fraction of packets that took the slow path.
    pub fn slow_packet_fraction(&self) -> f64 {
        if self.fast.packets == 0 {
            0.0
        } else {
            self.packets_to_slow as f64 / self.fast.packets as f64
        }
    }

    /// Fraction of payload bytes that took the slow path.
    pub fn slow_byte_fraction(&self) -> f64 {
        if self.payload_bytes == 0 {
            0.0
        } else {
            self.bytes_to_slow as f64 / self.payload_bytes as f64
        }
    }

    /// Diversions attributed to `reason`.
    pub fn diverts_by(&self, reason: DivertReason) -> u64 {
        self.fast.diverts[reason.index()]
    }

    /// Element-wise sum across shards: counters add, state bytes add
    /// (each shard provisions its own tables), peaks add as well since the
    /// shards run concurrently. The automaton is one compile every shard
    /// shares, so its bytes count once. `None` (and a zeroed snapshot)
    /// for an empty slice.
    pub fn aggregate(shards: &[SplitDetectStats]) -> Option<SplitDetectStats> {
        let (first, rest) = shards.split_first()?;
        let mut total = *first;
        for s in rest {
            total.fast.packets += s.fast.packets;
            total.fast.bytes_scanned += s.fast.bytes_scanned;
            total.fast.malformed += s.fast.malformed;
            total.fast.small_segments += s.fast.small_segments;
            total.fast.out_of_order += s.fast.out_of_order;
            for (d, x) in total.fast.diverts.iter_mut().zip(s.fast.diverts) {
                *d += x;
            }
            total.fast.reclaimed += s.fast.reclaimed;
            total.divert.flows_diverted += s.divert.flows_diverted;
            total.divert.set_evictions += s.divert.set_evictions;
            total.divert.set_refused += s.divert.set_refused;
            total.divert.recorded_packets += s.divert.recorded_packets;
            total.divert.replayed_packets += s.divert.replayed_packets;
            total.divert.set_size += s.divert.set_size;
            total.divert.shed_packets += s.divert.shed_packets;
            total.divert.shed_bytes += s.divert.shed_bytes;
            total.flows_seen += s.flows_seen;
            total.flow_table_evictions += s.flow_table_evictions;
            total.flow_table_entries += s.flow_table_entries;
            total.packets_to_slow += s.packets_to_slow;
            total.bytes_to_slow += s.bytes_to_slow;
            total.payload_bytes += s.payload_bytes;
            total.fast_state_bytes += s.fast_state_bytes;
            total.divert_state_bytes += s.divert_state_bytes;
            total.slow_state_bytes += s.slow_state_bytes;
            total.slow_state_peak_bytes += s.slow_state_peak_bytes;
            total.slow_queue_depth += s.slow_queue_depth;
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zeroed() -> SplitDetectStats {
        SplitDetectStats {
            fast: FastPathStats::default(),
            divert: DivertStats::default(),
            flows_seen: 0,
            flow_table_evictions: 0,
            flow_table_entries: 0,
            packets_to_slow: 0,
            bytes_to_slow: 0,
            payload_bytes: 0,
            fast_state_bytes: 0,
            divert_state_bytes: 0,
            slow_state_bytes: 0,
            slow_state_peak_bytes: 0,
            automaton_bytes: 0,
            slow_queue_depth: 0,
        }
    }

    #[test]
    fn fractions_are_zero_safe() {
        let s = zeroed();
        assert_eq!(s.diverted_flow_fraction(), 0.0);
        assert_eq!(s.slow_packet_fraction(), 0.0);
        assert_eq!(s.slow_byte_fraction(), 0.0);
    }

    #[test]
    fn fractions_compute() {
        let mut s = zeroed();
        s.flows_seen = 10;
        s.divert.flows_diverted = 1;
        s.fast.packets = 100;
        s.packets_to_slow = 25;
        s.payload_bytes = 1000;
        s.bytes_to_slow = 100;
        assert_eq!(s.diverted_flow_fraction(), 0.1);
        assert_eq!(s.slow_packet_fraction(), 0.25);
        assert_eq!(s.slow_byte_fraction(), 0.1);
    }

    #[test]
    fn aggregate_sums_shards() {
        let mut a = zeroed();
        a.fast.packets = 10;
        a.flows_seen = 2;
        a.fast_state_bytes = 100;
        a.fast.diverts[0] = 1;
        a.flow_table_entries = 2;
        a.automaton_bytes = 4096;
        let mut b = zeroed();
        b.fast.packets = 5;
        b.flows_seen = 1;
        b.fast_state_bytes = 100;
        b.fast.diverts[0] = 2;
        b.flow_table_entries = 1;
        b.flow_table_evictions = 7;
        b.automaton_bytes = 4096;
        let t = SplitDetectStats::aggregate(&[a, b]).unwrap();
        assert_eq!(t.fast.packets, 15);
        assert_eq!(t.flows_seen, 3);
        assert_eq!(t.fast_state_bytes, 200);
        assert_eq!(t.fast.diverts[0], 3);
        assert_eq!((t.flow_table_entries, t.flow_table_evictions), (3, 7));
        assert_eq!(t.automaton_bytes, 4096, "one shared compile");
        assert!(SplitDetectStats::aggregate(&[]).is_none());
    }
}
