//! Canonical 5-tuple flow keys.
//!
//! Both directions of a TCP connection must map to the same fast-path state
//! entry (the paper's per-flow counters are per *connection*), so the key is
//! canonicalized: the numerically smaller (address, port) endpoint is always
//! stored first and the original orientation is reported separately as a
//! [`Direction`].

use std::fmt;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

use sd_packet::ipv4::Protocol;
use sd_packet::parse::{Parsed, Transport};

/// Which way a packet travels relative to the canonical key orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The packet's source is the canonical first endpoint.
    Forward,
    /// The packet's source is the canonical second endpoint.
    Backward,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::Forward => Direction::Backward,
            Direction::Backward => Direction::Forward,
        }
    }
}

/// A canonical transport-layer flow key: `{proto, (ipA, portA), (ipB, portB)}`
/// with `(ipA, portA) <= (ipB, portB)` in lexicographic order.
///
/// 13 bytes of real information (2×4 address + 2×2 port + 1 proto); stored
/// padded for alignment. This is the unit the paper's "state for 1 million
/// connections" is counted in.
///
/// `Hash` writes the key's two [`words`](FlowKey::words), so under
/// [`SeededState`](crate::hash::SeededState) a key hashes to exactly
/// [`hash_key_seeded`](crate::hash::hash_key_seeded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowKey {
    /// First canonical endpoint address.
    pub addr_a: Ipv4Addr,
    /// Second canonical endpoint address.
    pub addr_b: Ipv4Addr,
    /// First canonical endpoint port.
    pub port_a: u16,
    /// Second canonical endpoint port.
    pub port_b: u16,
    /// IP protocol number (6 = TCP, 17 = UDP).
    pub proto: u8,
}

impl FlowKey {
    /// Wire-information size of a key in bytes: two IPv4 addresses, two
    /// ports, one protocol octet. Used by the state-accounting experiments.
    pub const WIRE_BYTES: usize = 13;

    /// Build a canonical key from the packet's source and destination
    /// endpoints, returning the orientation of this packet.
    pub fn from_endpoints(
        proto: u8,
        src: (Ipv4Addr, u16),
        dst: (Ipv4Addr, u16),
    ) -> (FlowKey, Direction) {
        if src <= dst {
            (
                FlowKey {
                    addr_a: src.0,
                    addr_b: dst.0,
                    port_a: src.1,
                    port_b: dst.1,
                    proto,
                },
                Direction::Forward,
            )
        } else {
            (
                FlowKey {
                    addr_a: dst.0,
                    addr_b: src.0,
                    port_a: dst.1,
                    port_b: src.1,
                    proto,
                },
                Direction::Backward,
            )
        }
    }

    /// Extract a key from a parsed packet.
    ///
    /// Fragments key on the IP pair alone (ports unavailable past the first
    /// fragment — exactly the ambiguity evasions exploit, so the fast path
    /// never trusts fragment ports). `None` only if `parsed.ipv4` is, which
    /// `parse_ipv4` never returns.
    pub fn from_parsed(parsed: &Parsed<'_>) -> Option<(FlowKey, Direction)> {
        let ip = parsed.ipv4.as_ref()?;
        let (src_port, dst_port) = match &parsed.transport {
            Transport::Tcp(t) => (t.repr.src_port, t.repr.dst_port),
            Transport::Udp(u) => (u.src_port, u.dst_port),
            Transport::Fragment(_) | Transport::Other(_) => (0, 0),
        };
        let proto = match ip.protocol {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Icmp => 1,
            Protocol::Other(p) => p,
        };
        Some(FlowKey::from_endpoints(
            proto,
            (ip.src, src_port),
            (ip.dst, dst_port),
        ))
    }

    /// Extract a fragmentation-stable *dispatch* key: IP pair and protocol
    /// only, ports zeroed.
    ///
    /// A flow-hash dispatcher must not hash ports: non-first fragments
    /// carry none, so a 5-tuple hash would route a connection's fragments
    /// to a different shard than its stream segments and the sharded
    /// engine would no longer see whole flows. Hashing the IP pair keeps
    /// every fragment of a datagram — and every segment of the connection
    /// it belongs to — on the same shard.
    pub fn from_ip_pair(parsed: &Parsed<'_>) -> Option<FlowKey> {
        let ip = parsed.ipv4.as_ref()?;
        let proto = match ip.protocol {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Icmp => 1,
            Protocol::Other(p) => p,
        };
        Some(FlowKey::from_endpoints(proto, (ip.src, 0), (ip.dst, 0)).0)
    }

    /// The endpoints in the orientation given by `dir`: `(source, destination)`.
    pub fn oriented(&self, dir: Direction) -> ((Ipv4Addr, u16), (Ipv4Addr, u16)) {
        let a = (self.addr_a, self.port_a);
        let b = (self.addr_b, self.port_b);
        match dir {
            Direction::Forward => (a, b),
            Direction::Backward => (b, a),
        }
    }

    /// The key's 13 bytes packed into two words: both addresses in the
    /// first, both ports and the protocol in the low 40 bits of the
    /// second. Canonical, so both directions hash identically.
    #[inline]
    pub fn words(&self) -> [u64; 2] {
        [
            (u64::from(u32::from(self.addr_a)) << 32) | u64::from(u32::from(self.addr_b)),
            (u64::from(self.port_a) << 24) | (u64::from(self.port_b) << 8) | u64::from(self.proto),
        ]
    }

    /// Serialize to the 13-byte canonical encoding.
    pub fn to_bytes(&self) -> [u8; 13] {
        let mut out = [0u8; 13];
        out[0..4].copy_from_slice(&self.addr_a.octets());
        out[4..8].copy_from_slice(&self.addr_b.octets());
        out[8..10].copy_from_slice(&self.port_a.to_be_bytes());
        out[10..12].copy_from_slice(&self.port_b.to_be_bytes());
        out[12] = self.proto;
        out
    }
}

impl Hash for FlowKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b] = self.words();
        state.write_u64(a);
        state.write_u64(b);
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}<->{}:{}/{}",
            self.addr_a, self.port_a, self.addr_b, self.port_b, self.proto
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_packet::builder::TcpPacketSpec;
    use sd_packet::parse::parse_ipv4;

    fn key(src: &str, sp: u16, dst: &str, dp: u16) -> (FlowKey, Direction) {
        FlowKey::from_endpoints(6, (src.parse().unwrap(), sp), (dst.parse().unwrap(), dp))
    }

    #[test]
    fn both_directions_same_key() {
        let (k1, d1) = key("10.0.0.1", 4000, "10.0.0.2", 80);
        let (k2, d2) = key("10.0.0.2", 80, "10.0.0.1", 4000);
        assert_eq!(k1, k2);
        assert_ne!(d1, d2);
        assert_eq!(d1.flip(), d2);
    }

    #[test]
    fn oriented_recovers_endpoints() {
        let src = ("10.9.8.7".parse().unwrap(), 5555u16);
        let dst = ("10.0.0.2".parse().unwrap(), 80u16);
        let (k, d) = FlowKey::from_endpoints(6, src, dst);
        assert_eq!(k.oriented(d), (src, dst));
        assert_eq!(k.oriented(d.flip()), (dst, src));
    }

    #[test]
    fn port_breaks_tie_on_same_address() {
        let a: Ipv4Addr = "10.0.0.1".parse().unwrap();
        let (k1, d1) = FlowKey::from_endpoints(6, (a, 9), (a, 10));
        let (k2, d2) = FlowKey::from_endpoints(6, (a, 10), (a, 9));
        assert_eq!(k1, k2);
        assert_eq!(d1, Direction::Forward);
        assert_eq!(d2, Direction::Backward);
    }

    #[test]
    fn from_parsed_tcp_frame() {
        let packet = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80").build();
        let parsed = parse_ipv4(&packet).unwrap();
        let (k, _) = FlowKey::from_parsed(&parsed).unwrap();
        assert_eq!(k.proto, 6);
        assert_eq!(k.port_a, 4000);
        assert_eq!(k.port_b, 80);
    }

    #[test]
    fn non_ip_has_no_key() {
        let parsed = Parsed {
            ipv4: None,
            transport: Transport::Other(&[]),
        };
        assert!(FlowKey::from_parsed(&parsed).is_none());
        assert!(FlowKey::from_ip_pair(&parsed).is_none());
    }

    #[test]
    fn to_bytes_is_direction_independent() {
        let (k1, _) = key("1.2.3.4", 1, "5.6.7.8", 2);
        let (k2, _) = key("5.6.7.8", 2, "1.2.3.4", 1);
        assert_eq!(k1.to_bytes(), k2.to_bytes());
        assert_eq!(k1.to_bytes().len(), FlowKey::WIRE_BYTES);
    }

    #[test]
    fn words_pack_the_canonical_bytes() {
        let (k, _) = key("1.2.3.4", 0x0506, "7.8.9.10", 0x0b0c);
        let [a, b] = k.words();
        let mut packed = a.to_be_bytes().to_vec();
        packed.extend_from_slice(&b.to_be_bytes()[3..]);
        assert_eq!(packed, k.to_bytes());
        assert_eq!(b >> 40, 0, "the second word holds 5 bytes");
    }
}
