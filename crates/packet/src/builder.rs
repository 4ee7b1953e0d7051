//! Builders that emit complete, checksummed IPv4/TCP|UDP packets.
//!
//! The traffic generator, the evasion transforms and hundreds of tests all
//! need "give me a well-formed packet with these fields" — this module is
//! that one place. Builders always produce packets that parse back through
//! [`crate::parse::parse_ipv4`] and verify all checksums.

use crate::ipv4::{Ipv4Packet, Ipv4Repr, Protocol, MIN_HEADER_LEN as IP_LEN};
use crate::seq::SeqNumber;
use crate::tcp::{TcpFlags, TcpRepr, TcpSegment, MIN_HEADER_LEN as TCP_LEN};
use crate::udp::{UdpDatagram, HEADER_LEN as UDP_LEN};
use std::net::SocketAddrV4;

fn parse_endpoint(s: &str) -> SocketAddrV4 {
    s.parse()
        .unwrap_or_else(|_| panic!("endpoint must be `a.b.c.d:port`, got {s:?}"))
}

/// Builder for a complete TCP/IPv4 packet.
///
/// ```
/// use sd_packet::builder::TcpPacketSpec;
/// use sd_packet::tcp::TcpFlags;
///
/// let syn = TcpPacketSpec::new("10.0.0.1:1234", "10.0.0.2:80")
///     .flags(TcpFlags::SYN)
///     .seq(1)
///     .build();
/// assert!(sd_packet::parse::parse_ipv4(&syn).unwrap().tcp().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct TcpPacketSpec {
    src: SocketAddrV4,
    dst: SocketAddrV4,
    seq: SeqNumber,
    ack: SeqNumber,
    flags: TcpFlags,
    window: u16,
    urgent: u16,
    ttl: u8,
    ident: u16,
    dont_frag: bool,
    options: Vec<u8>,
    payload: Vec<u8>,
}

impl TcpPacketSpec {
    /// Start a spec between two `ip:port` endpoints.
    pub fn new(src: &str, dst: &str) -> Self {
        Self::between(parse_endpoint(src), parse_endpoint(dst))
    }

    /// Start a spec between two already-parsed endpoints.
    pub fn between(src: SocketAddrV4, dst: SocketAddrV4) -> Self {
        TcpPacketSpec {
            src,
            dst,
            seq: SeqNumber(0),
            ack: SeqNumber(0),
            flags: TcpFlags::ACK,
            window: 65535,
            urgent: 0,
            ttl: 64,
            ident: 0,
            dont_frag: true,
            options: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// Set the sequence number (raw u32).
    pub fn seq(mut self, seq: u32) -> Self {
        self.seq = SeqNumber(seq);
        self
    }

    /// Set the acknowledgment number (raw u32), leaving flags untouched.
    pub fn ack(mut self, ack: u32) -> Self {
        self.ack = SeqNumber(ack);
        self
    }

    /// Set the TCP flags.
    pub fn flags(mut self, flags: TcpFlags) -> Self {
        self.flags = flags;
        self
    }

    /// Set the receive window.
    pub fn window(mut self, w: u16) -> Self {
        self.window = w;
        self
    }

    /// Set the urgent pointer (and the URG flag if nonzero).
    pub fn urgent(mut self, u: u16) -> Self {
        self.urgent = u;
        if u != 0 {
            self.flags = self.flags | TcpFlags::URG;
        }
        self
    }

    /// Set the IP TTL.
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Set the IP identification field.
    pub fn ident(mut self, id: u16) -> Self {
        self.ident = id;
        self
    }

    /// Set or clear the Don't Fragment bit (set by default).
    pub fn dont_frag(mut self, df: bool) -> Self {
        self.dont_frag = df;
        self
    }

    /// Set the payload.
    pub fn payload(mut self, p: &[u8]) -> Self {
        self.payload = p.to_vec();
        self
    }

    /// Attach TCP options (NOP-padded to a 4-byte boundary; at most 40
    /// bytes of encoded options fit a TCP header).
    ///
    /// # Panics
    /// Panics if the encoded list exceeds 40 bytes.
    pub fn tcp_options(mut self, options: &[crate::tcp::TcpOption]) -> Self {
        let encoded = crate::tcp::TcpOption::emit_list(options);
        assert!(encoded.len() <= 40, "TCP options exceed the 40-byte limit");
        self.options = encoded;
        self
    }

    /// Payload length currently configured.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Emit the complete IPv4 packet.
    pub fn build(&self) -> Vec<u8> {
        let tcp_len = TCP_LEN + self.options.len() + self.payload.len();
        let mut packet = vec![0u8; IP_LEN + tcp_len];

        {
            let mut ip = Ipv4Packet::new_unchecked(&mut packet[..]);
            Ipv4Repr {
                src: *self.src.ip(),
                dst: *self.dst.ip(),
                protocol: Protocol::Tcp,
                ident: self.ident,
                dont_frag: self.dont_frag,
                more_frags: false,
                frag_offset: 0,
                ttl: self.ttl,
                payload_len: tcp_len,
            }
            .emit(&mut ip);
        }

        {
            let tcp_buf = &mut packet[IP_LEN..];
            let mut tcp = TcpSegment::new_unchecked(&mut tcp_buf[..]);
            TcpRepr {
                src_port: self.src.port(),
                dst_port: self.dst.port(),
                seq: self.seq,
                ack: self.ack,
                flags: self.flags,
                window: self.window,
                urgent: self.urgent,
            }
            .emit(&mut tcp);
            tcp.set_header_len(TCP_LEN + self.options.len());
            // Options sit between the fixed header and the payload.
            let raw = tcp.into_inner();
            raw[TCP_LEN..TCP_LEN + self.options.len()].copy_from_slice(&self.options);
            let mut tcp = TcpSegment::new_unchecked(&mut raw[..]);
            tcp.payload_mut().copy_from_slice(&self.payload);
            tcp.fill_checksum(*self.src.ip(), *self.dst.ip());
        }

        packet
    }
}

/// Builder for a complete UDP/IPv4 packet.
#[derive(Debug, Clone)]
pub struct UdpPacketSpec {
    src: SocketAddrV4,
    dst: SocketAddrV4,
    ttl: u8,
    ident: u16,
    payload: Vec<u8>,
}

impl UdpPacketSpec {
    /// Start a spec between two `ip:port` endpoints.
    pub fn new(src: &str, dst: &str) -> Self {
        UdpPacketSpec {
            src: parse_endpoint(src),
            dst: parse_endpoint(dst),
            ttl: 64,
            ident: 0,
            payload: Vec::new(),
        }
    }

    /// Set the IP TTL.
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Set the IP identification field.
    pub fn ident(mut self, id: u16) -> Self {
        self.ident = id;
        self
    }

    /// Set the payload.
    pub fn payload(mut self, p: &[u8]) -> Self {
        self.payload = p.to_vec();
        self
    }

    /// Emit the complete IPv4 packet.
    pub fn build(&self) -> Vec<u8> {
        let udp_len = UDP_LEN + self.payload.len();
        let mut packet = vec![0u8; IP_LEN + udp_len];

        {
            let mut ip = Ipv4Packet::new_unchecked(&mut packet[..]);
            Ipv4Repr {
                src: *self.src.ip(),
                dst: *self.dst.ip(),
                protocol: Protocol::Udp,
                ident: self.ident,
                dont_frag: false,
                more_frags: false,
                frag_offset: 0,
                ttl: self.ttl,
                payload_len: udp_len,
            }
            .emit(&mut ip);
        }

        {
            let udp_buf = &mut packet[IP_LEN..];
            let mut udp = UdpDatagram::new_unchecked(&mut udp_buf[..]);
            udp.set_src_port(self.src.port());
            udp.set_dst_port(self.dst.port());
            udp.set_len_field(udp_len as u16);
            udp.payload_mut().copy_from_slice(&self.payload);
            udp.fill_checksum(*self.src.ip(), *self.dst.ip());
        }

        packet
    }
}

#[cfg(test)]
mod tests_options {
    use super::*;
    use crate::parse::parse_ipv4;
    use crate::tcp::{TcpFlags, TcpOption, TcpSegment};

    #[test]
    fn options_roundtrip_through_build_and_parse() {
        let opts = [
            TcpOption::Mss(1460),
            TcpOption::SackPermitted,
            TcpOption::WindowScale(7),
            TcpOption::Timestamps(12345, 0),
        ];
        let packet = TcpPacketSpec::new("10.0.0.1:1000", "10.0.0.2:80")
            .flags(TcpFlags::SYN)
            .tcp_options(&opts)
            .payload(b"")
            .build();
        let parsed = parse_ipv4(&packet).expect("well-formed with options");
        assert!(parsed.tcp().is_some());

        let seg = TcpSegment::new_checked(&packet[IP_LEN..]).unwrap();
        let got: Vec<TcpOption> = seg.option_iter().map(|o| o.unwrap()).collect();
        // NOP padding may be appended; the real options must appear in order.
        let real: Vec<TcpOption> = got.into_iter().filter(|o| *o != TcpOption::Nop).collect();
        assert_eq!(real, opts);
        assert!(seg.verify_checksum("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap()));
    }

    #[test]
    fn options_with_payload_keep_payload_intact() {
        let packet = TcpPacketSpec::new("10.0.0.1:1000", "10.0.0.2:80")
            .tcp_options(&[TcpOption::Mss(536)])
            .payload(b"hello-options")
            .build();
        let parsed = parse_ipv4(&packet).unwrap();
        assert_eq!(parsed.tcp().unwrap().payload, b"hello-options");
    }

    #[test]
    #[should_panic(expected = "40-byte limit")]
    fn oversized_option_list_panics() {
        let opts = vec![TcpOption::Timestamps(0, 0); 5]; // 5 × 10 B > 40
        let _ = TcpPacketSpec::new("10.0.0.1:1", "10.0.0.2:2").tcp_options(&opts);
    }

    #[test]
    fn emit_list_pads_to_four_bytes() {
        let bytes = TcpOption::emit_list(&[TcpOption::WindowScale(2)]);
        assert_eq!(bytes.len() % 4, 0);
        assert_eq!(&bytes[..3], &[3, 3, 2]);
        assert!(TcpOption::emit_list(&[]).is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Packet;
    use crate::parse::parse_ipv4;
    use crate::tcp::TcpSegment;

    #[test]
    fn tcp_frame_checksums_verify() {
        let packet = TcpPacketSpec::new("192.168.0.1:1111", "192.168.0.2:2222")
            .seq(42)
            .ack(7)
            .payload(b"data bytes here")
            .build();
        let ip = Ipv4Packet::new_checked(&packet[..]).unwrap();
        assert_eq!(usize::from(ip.total_len()), packet.len());
        assert!(ip.verify_checksum());
        let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
        assert!(tcp.verify_checksum(ip.src_addr(), ip.dst_addr()));
        assert_eq!(tcp.payload(), b"data bytes here");
    }

    #[test]
    fn udp_frame_checksums_verify() {
        let packet = UdpPacketSpec::new("192.168.0.1:1111", "8.8.8.8:53")
            .payload(b"q")
            .build();
        let p = parse_ipv4(&packet).unwrap();
        let udp = p.udp().unwrap();
        assert_eq!(udp.payload, b"q");
        let ip = Ipv4Packet::new_checked(&packet[..]).unwrap();
        assert_eq!(usize::from(ip.total_len()), packet.len());
        let dg = UdpDatagram::new_checked(ip.payload()).unwrap();
        assert!(dg.verify_checksum(ip.src_addr(), ip.dst_addr()));
    }

    #[test]
    fn empty_payload_allowed() {
        let packet = TcpPacketSpec::new("1.2.3.4:5", "6.7.8.9:10").build();
        let p = parse_ipv4(&packet).unwrap();
        assert_eq!(p.tcp().unwrap().payload, b"");
    }

    #[test]
    #[should_panic(expected = "endpoint must be")]
    fn bad_endpoint_panics() {
        let _ = TcpPacketSpec::new("not-an-endpoint", "1.2.3.4:5");
    }

    #[test]
    fn urgent_sets_urg_flag() {
        let packet = TcpPacketSpec::new("1.2.3.4:5", "6.7.8.9:10")
            .urgent(3)
            .build();
        let p = parse_ipv4(&packet).unwrap();
        assert!(p.tcp().unwrap().repr.flags.urg());
        assert_eq!(p.tcp().unwrap().repr.urgent, 3);
    }
}
