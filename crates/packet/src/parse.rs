//! One-shot layered parsing of an IPv4 packet.
//!
//! The IPS fast path wants a single cheap call that classifies a packet and
//! exposes the fields the detection logic needs — without copying and
//! without constructing intermediate objects per layer. [`parse_ipv4`]
//! provides that. Link headers never reach it: the capture sources strip
//! them and keep only IPv4 frames.

use crate::error::Result;
use crate::ipv4::{Ipv4Packet, Ipv4Repr, Protocol};
use crate::tcp::{TcpRepr, TcpSegment};
use crate::udp::UdpDatagram;

/// Parsed TCP layer: header repr plus a borrow of the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpInfo<'a> {
    /// Parsed TCP header.
    pub repr: TcpRepr,
    /// Payload bytes.
    pub payload: &'a [u8],
}

/// Parsed UDP layer: ports plus a borrow of the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpInfo<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: &'a [u8],
}

/// The transport layer of a parsed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport<'a> {
    /// A complete (unfragmented) TCP segment.
    Tcp(TcpInfo<'a>),
    /// A complete (unfragmented) UDP datagram.
    Udp(UdpInfo<'a>),
    /// Any IP fragment. The transport header, if present at offset 0, is
    /// deliberately *not* parsed here: the paper's fast path treats every
    /// fragment as divert-worthy, and parsing a partial L4 header invites
    /// exactly the inconsistency bugs evasions exploit. The raw IP payload
    /// is exposed for the slow path.
    Fragment(&'a [u8]),
    /// Some other IP protocol; raw IP payload exposed.
    Other(&'a [u8]),
}

/// A fully parsed packet.
#[derive(Debug, Clone)]
pub struct Parsed<'a> {
    /// IPv4 header. Always `Some` since [`parse_ipv4`] is the only parser;
    /// it stays an `Option` because the end-to-end benchmark matches
    /// `Some(ip)` on it.
    pub ipv4: Option<Ipv4Repr>,
    /// Transport layer classification.
    pub transport: Transport<'a>,
}

impl<'a> Parsed<'a> {
    /// The TCP layer, if this is an unfragmented TCP packet.
    pub fn tcp(&self) -> Option<TcpInfo<'a>> {
        match self.transport {
            Transport::Tcp(t) => Some(t),
            _ => None,
        }
    }

    /// The UDP layer, if this is an unfragmented UDP packet.
    pub fn udp(&self) -> Option<UdpInfo<'a>> {
        match self.transport {
            Transport::Udp(u) => Some(u),
            _ => None,
        }
    }

    /// True if this packet is an IP fragment.
    pub fn is_fragment(&self) -> bool {
        matches!(self.transport, Transport::Fragment(_))
    }
}

/// Parse an IPv4 packet down to the transport layer.
///
/// Malformed IPv4 or transport headers are errors (a normalizing IPS drops
/// them, and the fast path counts them).
pub fn parse_ipv4(packet: &[u8]) -> Result<Parsed<'_>> {
    let ip = Ipv4Packet::new_checked(packet)?;
    let repr = Ipv4Repr::parse(&ip);
    let header_len = ip.header_len();
    let total_len = ip.total_len() as usize;
    let ip_payload = &packet[header_len..total_len];

    let transport = if ip.is_fragment() {
        Transport::Fragment(ip_payload)
    } else {
        match ip.protocol() {
            Protocol::Tcp => {
                let seg = TcpSegment::new_checked(ip_payload)?;
                let tcp_header = seg.header_len();
                Transport::Tcp(TcpInfo {
                    repr: TcpRepr::parse(&seg),
                    payload: &ip_payload[tcp_header..],
                })
            }
            Protocol::Udp => {
                let dg = UdpDatagram::new_checked(ip_payload)?;
                let len = dg.len_field() as usize;
                Transport::Udp(UdpInfo {
                    src_port: dg.src_port(),
                    dst_port: dg.dst_port(),
                    payload: &ip_payload[crate::udp::HEADER_LEN..len],
                })
            }
            _ => Transport::Other(ip_payload),
        }
    };

    Ok(Parsed {
        ipv4: Some(repr),
        transport,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{TcpPacketSpec, UdpPacketSpec};
    use crate::error::Error;
    use crate::frag::fragment_ipv4;

    #[test]
    fn parses_tcp_frame() {
        let packet = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
            .seq(77)
            .payload(b"payload!")
            .build();
        let p = parse_ipv4(&packet).unwrap();
        let tcp = p.tcp().unwrap();
        assert_eq!(tcp.repr.src_port, 4000);
        assert_eq!(tcp.repr.dst_port, 80);
        assert_eq!(tcp.repr.seq.raw(), 77);
        assert_eq!(tcp.payload, b"payload!");
        assert!(!p.is_fragment());
        assert_eq!(p.ipv4.unwrap().src.octets(), [10, 0, 0, 1]);
    }

    #[test]
    fn parses_udp_frame() {
        let packet = UdpPacketSpec::new("10.0.0.1:5000", "10.0.0.9:53")
            .payload(b"dns?")
            .build();
        let p = parse_ipv4(&packet).unwrap();
        let udp = p.udp().unwrap();
        assert_eq!((udp.src_port, udp.dst_port), (5000, 53));
        assert_eq!(udp.payload, b"dns?");
        assert!(p.tcp().is_none());
    }

    #[test]
    fn classifies_fragments() {
        let packet = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
            .payload(&[0xaa; 64])
            .dont_frag(false)
            .build();
        let frags = fragment_ipv4(&packet, 32).unwrap();
        assert!(frags.len() >= 2);
        for f in &frags {
            let p = parse_ipv4(f).unwrap();
            assert!(p.is_fragment());
            assert!(matches!(p.transport, Transport::Fragment(_)));
        }
    }

    #[test]
    fn malformed_inner_is_error() {
        let mut packet = TcpPacketSpec::new("10.0.0.1:1", "10.0.0.2:2").build();
        packet[0] = (4 << 4) | 3; // bad IHL
        assert_eq!(parse_ipv4(&packet).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn other_protocol_payload_exposed() {
        let mut ip = TcpPacketSpec::new("10.0.0.1:1", "10.0.0.2:2")
            .payload(b"zz")
            .build();
        ip[9] = 47; // GRE, then fix the header checksum
        let mut v = crate::ipv4::Ipv4Packet::new_unchecked(&mut ip[..]);
        v.fill_checksum();
        let p = parse_ipv4(&ip).unwrap();
        assert!(matches!(p.transport, Transport::Other(_)));
    }
}
