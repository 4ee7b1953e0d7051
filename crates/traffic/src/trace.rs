//! Trace representation.
//!
//! A trace is a time-ordered sequence of IPv4 packets (no link layer — the
//! engines consume IP). Timestamps are microseconds; generators assign them
//! and the pcap reader/writer preserves them. Ground-truth labels (which
//! flows are attacks, carrying which signature) ride alongside so
//! experiments can score detection without re-deriving truth.

use sd_flow::FlowKey;
use sd_packet::parse::parse_ipv4;

/// One captured/generated packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracePacket {
    /// Microseconds since trace start.
    pub ts_micros: u64,
    /// The IPv4 packet bytes.
    pub data: Vec<u8>,
}

impl TracePacket {
    /// Convenience constructor.
    pub fn new(ts_micros: u64, data: Vec<u8>) -> Self {
        TracePacket { ts_micros, data }
    }

    /// The packet's canonical flow key, if it parses.
    pub fn flow_key(&self) -> Option<FlowKey> {
        let parsed = parse_ipv4(&self.data).ok()?;
        FlowKey::from_parsed(&parsed).map(|(k, _)| k)
    }
}

/// A time-ordered packet sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Packets in timestamp order.
    pub packets: Vec<TracePacket>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from packets, sorting by timestamp (stable: equal timestamps
    /// keep their relative order, which generators rely on for intra-flow
    /// ordering).
    pub fn from_packets(mut packets: Vec<TracePacket>) -> Self {
        packets.sort_by_key(|p| p.ts_micros);
        Trace { packets }
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True if there are no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total IP bytes in the trace.
    pub fn total_bytes(&self) -> u64 {
        self.packets.iter().map(|p| p.data.len() as u64).sum()
    }

    /// Iterate raw packet byte slices in order (what engines consume).
    pub fn iter_bytes(&self) -> impl Iterator<Item = &[u8]> {
        self.packets.iter().map(|p| p.data.as_slice())
    }

    /// Count distinct flow keys (None-parsing packets excluded).
    pub fn flow_count(&self) -> usize {
        let mut keys: Vec<FlowKey> = self.packets.iter().filter_map(|p| p.flow_key()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_packet::builder::TcpPacketSpec;

    fn pkt(src_port: u16, ts: u64) -> TracePacket {
        let f = TcpPacketSpec::new(&format!("10.0.0.1:{src_port}"), "10.0.0.2:80")
            .payload(b"x")
            .build();
        TracePacket::new(ts, f)
    }

    #[test]
    fn from_packets_sorts_stably() {
        let t = Trace::from_packets(vec![pkt(3, 5), pkt(1, 2), pkt(2, 5)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.packets[0].ts_micros, 2);
        // Stable: port 3 (inserted first) stays before port 2 at ts=5.
        assert_eq!(t.packets[1].flow_key(), pkt(3, 0).flow_key());
    }

    #[test]
    fn flow_count_dedups_by_connection() {
        let t = Trace::from_packets(vec![pkt(1, 0), pkt(1, 1), pkt(2, 2)]);
        assert_eq!(t.flow_count(), 2);
    }

    #[test]
    fn totals() {
        let t = Trace::from_packets(vec![pkt(1, 0), pkt(2, 1)]);
        assert!(t.total_bytes() > 80);
        assert_eq!(t.iter_bytes().count(), 2);
        assert!(!t.is_empty());
    }
}
