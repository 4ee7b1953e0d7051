//! Packet-level normalization.
//!
//! A conventional IPS must see *the same bytes the victim's stack accepts*.
//! FragRoute-style chaff exploits every disagreement: segments with bad
//! checksums (victim drops, naive IPS scans), low-TTL packets (reach the IPS
//! but expire before the victim), impossible flag combinations, and
//! malformed headers. The normalizer makes the drop decisions a consistent
//! middlebox makes, and counts every one — the processing-cost experiments
//! charge the baseline for this per-packet work.

use std::fmt;
use std::net::Ipv4Addr;

use sd_packet::ipv4::{Ipv4Packet, Protocol};
use sd_packet::parse::{parse_ipv4, Transport};
use sd_packet::tcp::TcpSegment;
use sd_packet::udp::UdpDatagram;

/// Why a packet was dropped (or that it was accepted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Packet is consistent; process it.
    Accept,
    /// Headers failed to parse.
    Malformed,
    /// IP header checksum wrong.
    BadIpChecksum,
    /// TCP/UDP checksum wrong (classic chaff-insertion signature).
    BadL4Checksum,
    /// TTL below the configured floor (TTL-expiry evasion chaff).
    LowTtl,
    /// Impossible TCP flag combination (SYN+FIN, SYN+RST, null).
    BadFlags,
    /// IP source-route option (loose or strict): the packet's *path* is
    /// attacker-controlled, so the IPS cannot know whether the nominal
    /// destination ever receives it — classic evasion surface, dropped by
    /// every deployed normalizer.
    SourceRoute,
}

impl Verdict {
    /// True when the packet should be processed further.
    pub fn accepted(self) -> bool {
        self == Verdict::Accept
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Verdict::Accept => "accept",
            Verdict::Malformed => "malformed",
            Verdict::BadIpChecksum => "bad-ip-checksum",
            Verdict::BadL4Checksum => "bad-l4-checksum",
            Verdict::LowTtl => "low-ttl",
            Verdict::BadFlags => "bad-flags",
            Verdict::SourceRoute => "source-route",
        };
        f.write_str(s)
    }
}

/// Normalizer configuration.
#[derive(Debug, Clone, Copy)]
pub struct NormalizerConfig {
    /// Verify the IP header checksum.
    pub verify_ip_checksum: bool,
    /// Verify TCP/UDP checksums (requires touching every payload byte —
    /// this is part of why normalization is expensive).
    pub verify_l4_checksum: bool,
    /// Drop packets whose TTL is below this floor (0 disables). A deployed
    /// IPS sets this to the distance to the protected hosts.
    pub min_ttl: u8,
    /// Drop impossible TCP flag combinations.
    pub drop_bad_flags: bool,
    /// Drop packets carrying IP source-route options (LSRR/SSRR).
    pub drop_source_route: bool,
}

impl Default for NormalizerConfig {
    fn default() -> Self {
        NormalizerConfig {
            verify_ip_checksum: true,
            verify_l4_checksum: true,
            min_ttl: 4,
            drop_bad_flags: true,
            drop_source_route: true,
        }
    }
}

/// Drop counters, one per [`Verdict`] reason.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NormalizerStats {
    /// Packets accepted.
    pub accepted: u64,
    /// Malformed headers.
    pub malformed: u64,
    /// Bad IP checksums.
    pub bad_ip_checksum: u64,
    /// Bad L4 checksums.
    pub bad_l4_checksum: u64,
    /// TTL floor drops.
    pub low_ttl: u64,
    /// Impossible flags.
    pub bad_flags: u64,
    /// Source-routed packets.
    pub source_route: u64,
    /// Payload bytes touched by checksum verification (processing cost).
    pub bytes_touched: u64,
}

impl NormalizerStats {
    /// Total packets dropped for any reason.
    pub fn dropped(&self) -> u64 {
        self.malformed
            + self.bad_ip_checksum
            + self.bad_l4_checksum
            + self.low_ttl
            + self.bad_flags
            + self.source_route
    }
}

/// Stateless per-packet normalizer with counters.
#[derive(Debug, Clone, Default)]
pub struct Normalizer {
    config: NormalizerConfig,
    stats: NormalizerStats,
}

impl Normalizer {
    /// Normalizer with the default (strict) configuration.
    pub fn new() -> Self {
        Self::with_config(NormalizerConfig::default())
    }

    /// Normalizer with an explicit configuration.
    pub fn with_config(config: NormalizerConfig) -> Self {
        Normalizer {
            config,
            stats: NormalizerStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> NormalizerConfig {
        self.config
    }

    /// Running counters.
    pub fn stats(&self) -> NormalizerStats {
        self.stats
    }

    /// Judge one IPv4 packet (no Ethernet header).
    pub fn check_ipv4(&mut self, packet: &[u8]) -> Verdict {
        let v = self.judge(packet);
        match v {
            Verdict::Accept => self.stats.accepted += 1,
            Verdict::Malformed => self.stats.malformed += 1,
            Verdict::BadIpChecksum => self.stats.bad_ip_checksum += 1,
            Verdict::BadL4Checksum => self.stats.bad_l4_checksum += 1,
            Verdict::LowTtl => self.stats.low_ttl += 1,
            Verdict::BadFlags => self.stats.bad_flags += 1,
            Verdict::SourceRoute => self.stats.source_route += 1,
        }
        v
    }

    fn judge(&mut self, packet: &[u8]) -> Verdict {
        let Ok(ip) = Ipv4Packet::new_checked(packet) else {
            return Verdict::Malformed;
        };
        if self.config.verify_ip_checksum {
            self.stats.bytes_touched += ip.header_len() as u64;
            if !ip.verify_checksum() {
                return Verdict::BadIpChecksum;
            }
        }
        if self.config.min_ttl > 0 && ip.ttl() < self.config.min_ttl {
            return Verdict::LowTtl;
        }
        if self.config.drop_source_route && has_source_route(ip.options()) {
            return Verdict::SourceRoute;
        }
        // Fragments cannot have their L4 checksum verified in isolation;
        // flag checks only apply to the first fragment's header if present.
        // A consistent normalizer defers those checks to post-reassembly, so
        // here fragments pass (the defragmenter re-checks the whole).
        if ip.is_fragment() {
            return Verdict::Accept;
        }
        let Ok(parsed) = parse_ipv4(packet) else {
            return Verdict::Malformed;
        };
        match parsed.transport {
            Transport::Tcp(info) => {
                if self.config.drop_bad_flags {
                    let f = info.repr.flags;
                    let impossible = (f.syn() && f.fin())
                        || (f.syn() && f.rst())
                        || (!f.syn() && !f.fin() && !f.rst() && !f.ack() && !f.psh() && !f.urg());
                    if impossible {
                        return Verdict::BadFlags;
                    }
                }
                if self.config.verify_l4_checksum {
                    let (src, dst) = (ip.src_addr(), ip.dst_addr());
                    if !self.verify_tcp(packet, &ip, src, dst) {
                        return Verdict::BadL4Checksum;
                    }
                }
                Verdict::Accept
            }
            Transport::Udp(_) => {
                if self.config.verify_l4_checksum {
                    let (src, dst) = (ip.src_addr(), ip.dst_addr());
                    if !self.verify_udp(packet, &ip, src, dst) {
                        return Verdict::BadL4Checksum;
                    }
                }
                Verdict::Accept
            }
            _ => Verdict::Accept,
        }
    }

    fn verify_tcp(
        &mut self,
        packet: &[u8],
        ip: &Ipv4Packet<&[u8]>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> bool {
        if ip.protocol() != Protocol::Tcp {
            return true;
        }
        let payload = &packet[ip.header_len()..ip.total_len() as usize];
        self.stats.bytes_touched += payload.len() as u64;
        match TcpSegment::new_checked(payload) {
            Ok(seg) => seg.verify_checksum(src, dst),
            Err(_) => false,
        }
    }

    fn verify_udp(
        &mut self,
        packet: &[u8],
        ip: &Ipv4Packet<&[u8]>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> bool {
        let payload = &packet[ip.header_len()..ip.total_len() as usize];
        self.stats.bytes_touched += payload.len() as u64;
        match UdpDatagram::new_checked(payload) {
            Ok(dg) => dg.verify_checksum(src, dst),
            Err(_) => false,
        }
    }
}

/// Walk IPv4 options looking for loose (131) or strict (137) source
/// routing. Malformed option lists are treated as source-routed — refusing
/// to parse garbage conservatively is what a normalizer is for.
fn has_source_route(mut opts: &[u8]) -> bool {
    while let Some(&kind) = opts.first() {
        match kind {
            0 => return false,      // EOOL
            1 => opts = &opts[1..], // NOP
            131 | 137 => return true,
            _ => {
                let Some(&len) = opts.get(1) else { return true };
                if len < 2 || len as usize > opts.len() {
                    return true;
                }
                opts = &opts[len as usize..];
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_packet::builder::{TcpPacketSpec, UdpPacketSpec};
    use sd_packet::frag::fragment_ipv4;
    use sd_packet::tcp::TcpFlags;

    fn tcp_ip(payload: &[u8]) -> Vec<u8> {
        TcpPacketSpec::new("10.0.0.1:1234", "10.0.0.2:80")
            .payload(payload)
            .build()
    }

    #[test]
    fn clean_packet_accepted() {
        let mut n = Normalizer::new();
        assert_eq!(n.check_ipv4(&tcp_ip(b"hello")), Verdict::Accept);
        assert_eq!(n.stats().accepted, 1);
        assert!(n.stats().bytes_touched > 0);
    }

    #[test]
    fn corrupted_l4_checksum_dropped() {
        let mut n = Normalizer::new();
        let mut pkt = tcp_ip(b"hello");
        let last = pkt.len() - 1;
        pkt[last] ^= 0xff; // flip payload byte without fixing checksum
        assert_eq!(n.check_ipv4(&pkt), Verdict::BadL4Checksum);
        assert_eq!(n.stats().dropped(), 1);
    }

    #[test]
    fn corrupted_ip_checksum_dropped() {
        let mut n = Normalizer::new();
        let mut pkt = tcp_ip(b"x");
        pkt[10] ^= 0xff; // checksum field itself
        assert_eq!(n.check_ipv4(&pkt), Verdict::BadIpChecksum);
    }

    #[test]
    fn low_ttl_dropped_when_floored() {
        let mut n = Normalizer::with_config(NormalizerConfig {
            min_ttl: 10,
            ..Default::default()
        });
        let frame = TcpPacketSpec::new("10.0.0.1:1", "10.0.0.2:2")
            .ttl(3)
            .build();
        assert_eq!(n.check_ipv4(&frame), Verdict::LowTtl);
        // Disabled floor accepts the same packet.
        let mut n = Normalizer::with_config(NormalizerConfig {
            min_ttl: 0,
            ..Default::default()
        });
        assert_eq!(n.check_ipv4(&frame), Verdict::Accept);
    }

    #[test]
    fn syn_fin_dropped() {
        let mut n = Normalizer::new();
        let frame = TcpPacketSpec::new("10.0.0.1:1", "10.0.0.2:2")
            .flags(TcpFlags::SYN.union(TcpFlags::FIN))
            .build();
        assert_eq!(n.check_ipv4(&frame), Verdict::BadFlags);
    }

    #[test]
    fn null_flags_dropped() {
        let mut n = Normalizer::new();
        let frame = TcpPacketSpec::new("10.0.0.1:1", "10.0.0.2:2")
            .flags(TcpFlags(0))
            .build();
        assert_eq!(n.check_ipv4(&frame), Verdict::BadFlags);
    }

    #[test]
    fn fragments_pass_packet_checks() {
        let mut n = Normalizer::new();
        let frame = TcpPacketSpec::new("10.0.0.1:1", "10.0.0.2:2")
            .payload(&[0u8; 64])
            .dont_frag(false)
            .build();
        let frags = fragment_ipv4(&frame, 32).unwrap();
        for f in &frags {
            assert_eq!(n.check_ipv4(f), Verdict::Accept);
        }
    }

    #[test]
    fn udp_checksum_verified() {
        let mut n = Normalizer::new();
        let mut bad = UdpPacketSpec::new("10.0.0.1:53", "10.0.0.2:53")
            .payload(b"query")
            .build();
        assert_eq!(n.check_ipv4(&bad), Verdict::Accept);
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert_eq!(n.check_ipv4(&bad), Verdict::BadL4Checksum);
    }

    #[test]
    fn garbage_is_malformed() {
        let mut n = Normalizer::new();
        assert_eq!(n.check_ipv4(&[0u8; 5]), Verdict::Malformed);
        assert_eq!(n.stats().malformed, 1);
    }

    /// Rebuild `pkt` with 4 bytes of IP options inserted (IHL 5 → 6).
    fn with_ip_options(pkt: &[u8], opts: [u8; 4]) -> Vec<u8> {
        let mut out = Vec::with_capacity(pkt.len() + 4);
        out.extend_from_slice(&pkt[..20]);
        out.extend_from_slice(&opts);
        out.extend_from_slice(&pkt[20..]);
        out[0] = 0x46; // version 4, IHL 6
        let total = (pkt.len() + 4) as u16;
        out[2..4].copy_from_slice(&total.to_be_bytes());
        let mut v = Ipv4Packet::new_unchecked(&mut out[..]);
        v.fill_checksum();
        out
    }

    #[test]
    fn source_routed_packets_dropped() {
        let mut n = Normalizer::new();
        let base = tcp_ip(b"payload");
        // LSRR option: type 131, len 3, pointer 4, padded with EOOL.
        let lsrr = with_ip_options(&base, [131, 3, 4, 0]);
        assert_eq!(n.check_ipv4(&lsrr), Verdict::SourceRoute);
        // SSRR too.
        let ssrr = with_ip_options(&base, [137, 3, 4, 0]);
        assert_eq!(n.check_ipv4(&ssrr), Verdict::SourceRoute);
        assert_eq!(n.stats().source_route, 2);
    }

    #[test]
    fn benign_ip_options_pass() {
        let mut n = Normalizer::new();
        let base = tcp_ip(b"payload");
        // Router-alert-ish option (type 148, len 4, zero value).
        let ra = with_ip_options(&base, [148, 4, 0, 0]);
        assert_eq!(n.check_ipv4(&ra), Verdict::Accept);
        // NOP padding then EOOL.
        let nops = with_ip_options(&base, [1, 1, 1, 0]);
        assert_eq!(n.check_ipv4(&nops), Verdict::Accept);
    }

    #[test]
    fn malformed_options_treated_as_source_route() {
        let mut n = Normalizer::new();
        let base = tcp_ip(b"payload");
        // Option with impossible length.
        let bad = with_ip_options(&base, [68, 1, 0, 0]);
        assert_eq!(n.check_ipv4(&bad), Verdict::SourceRoute);
    }

    #[test]
    fn source_route_check_can_be_disabled() {
        let mut n = Normalizer::with_config(NormalizerConfig {
            drop_source_route: false,
            ..Default::default()
        });
        let base = tcp_ip(b"payload");
        let lsrr = with_ip_options(&base, [131, 3, 4, 0]);
        assert_eq!(n.check_ipv4(&lsrr), Verdict::Accept);
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::Accept.to_string(), "accept");
        assert_eq!(Verdict::BadL4Checksum.to_string(), "bad-l4-checksum");
        assert_eq!(Verdict::SourceRoute.to_string(), "source-route");
        assert!(Verdict::Accept.accepted());
        assert!(!Verdict::LowTtl.accepted());
    }
}
