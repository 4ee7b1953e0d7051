//! The victim model.
//!
//! An evasion only matters if the attack still *works*: the victim's stack
//! must reconstruct the attacker's payload byte-for-byte. Every evasion
//! strategy in [`crate::evasion`] is verified against this model — a
//! configurable receiving stack that drops what a real path+host would drop
//! (expired TTLs, bad checksums), defragments and reassembles with the
//! victim's overlap policy, and exposes the application byte stream.

use std::net::Ipv4Addr;

use sd_packet::ipv4::Ipv4Packet;
use sd_packet::parse::{parse_ipv4, Transport};
use sd_packet::tcp::TcpSegment;
use sd_reassembly::defrag::DefragResult;
use sd_reassembly::{Defragmenter, OverlapPolicy, TcpStreamReassembler, UrgentSemantics};

/// How the victim's environment and stack behave.
#[derive(Debug, Clone, Copy)]
pub struct VictimConfig {
    /// Overlap resolution of the victim's TCP/IP stack.
    pub policy: OverlapPolicy,
    /// Router hops between the IPS vantage point and the victim: packets
    /// whose TTL is below this never arrive (the low-TTL chaff evasion
    /// works precisely when the IPS's `min_ttl` floor is smaller).
    pub hops_to_victim: u8,
    /// Victim verifies TCP checksums (all real stacks do).
    pub verify_checksums: bool,
    /// How the victim's stack delivers urgent octets.
    pub urgent: UrgentSemantics,
}

impl Default for VictimConfig {
    fn default() -> Self {
        VictimConfig {
            policy: OverlapPolicy::First,
            hops_to_victim: 4,
            verify_checksums: true,
            urgent: UrgentSemantics::DiscardOne,
        }
    }
}

/// Feed IPv4 packets to the victim at `server`; returns the application
/// byte stream its TCP stack delivers for the attacker→server direction.
pub fn receive_stream(
    packets: impl IntoIterator<Item = impl AsRef<[u8]>>,
    config: VictimConfig,
    server: (Ipv4Addr, u16),
) -> Vec<u8> {
    let mut defrag = Defragmenter::new(config.policy);
    let mut stream = TcpStreamReassembler::new(config.policy);
    let mut out = Vec::new();

    for (tick, pkt) in packets.into_iter().enumerate() {
        let pkt = pkt.as_ref();
        // Path model: TTL decremented once per hop; expired packets vanish.
        let Ok(ip) = Ipv4Packet::new_checked(pkt) else {
            continue;
        };
        if ip.ttl() < config.hops_to_victim {
            continue;
        }
        // Victim defragments with its own policy.
        let datagram: std::borrow::Cow<'_, [u8]> = match defrag.push(pkt, tick as u64) {
            Ok(DefragResult::PassThrough) => std::borrow::Cow::Borrowed(pkt),
            Ok(DefragResult::Complete(v)) => std::borrow::Cow::Owned(v),
            _ => continue,
        };
        let Ok(parsed) = parse_ipv4(&datagram) else {
            continue;
        };
        let Some(ipr) = parsed.ipv4 else { continue };
        let Transport::Tcp(info) = parsed.transport else {
            continue;
        };
        if (ipr.dst, info.repr.dst_port) != server {
            continue;
        }
        if config.verify_checksums {
            let seg_bytes = &datagram[Ipv4Packet::new_unchecked(&datagram[..]).header_len()..];
            let Ok(seg) = TcpSegment::new_checked(seg_bytes) else {
                continue;
            };
            if !seg.verify_checksum(ipr.src, ipr.dst) {
                continue;
            }
        }
        if info.repr.flags.rst() {
            // A real stack aborts on RST: nothing sent afterwards is
            // delivered. This matters for model consistency — the fast
            // path reclaims per-flow counters on RST, which would be
            // exploitable only if data could still arrive afterwards.
            stream.on_rst();
        }
        if stream.is_reset() {
            continue;
        }
        if info.repr.flags.syn() {
            stream.on_syn(info.repr.seq);
        }
        let data_seq = if info.repr.flags.syn() {
            info.repr.seq + 1u32
        } else {
            info.repr.seq
        };
        if let Some(skip) = config
            .urgent
            .discarded_seq(&info.repr, data_seq, info.payload.len())
        {
            stream.skip_at(skip);
        }
        stream.push(data_seq, info.payload, |b| out.extend_from_slice(b));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_packet::builder::TcpPacketSpec;
    use sd_packet::tcp::TcpFlags;

    const SERVER: &str = "10.0.0.2";

    fn server() -> (Ipv4Addr, u16) {
        (SERVER.parse().unwrap(), 80)
    }

    fn pkt(seq: u32, flags: TcpFlags, payload: &[u8], ttl: u8) -> Vec<u8> {
        TcpPacketSpec::new("10.0.0.1:4000", &format!("{SERVER}:80"))
            .seq(seq)
            .flags(flags)
            .ttl(ttl)
            .payload(payload)
            .build()
    }

    #[test]
    fn plain_stream_delivered() {
        let packets = [
            pkt(999, TcpFlags::SYN, b"", 64),
            pkt(1000, TcpFlags::ACK, b"hello ", 64),
            pkt(1006, TcpFlags::ACK, b"world", 64),
        ];
        let got = receive_stream(packets.iter(), VictimConfig::default(), server());
        assert_eq!(got, b"hello world");
    }

    #[test]
    fn low_ttl_packets_never_arrive() {
        let packets = [
            pkt(999, TcpFlags::SYN, b"", 64),
            pkt(1000, TcpFlags::ACK, b"CHAFF!", 2), // dies en route (4 hops)
            pkt(1000, TcpFlags::ACK, b"hello!", 64),
        ];
        let got = receive_stream(packets.iter(), VictimConfig::default(), server());
        assert_eq!(got, b"hello!");
    }

    #[test]
    fn bad_checksum_dropped_by_stack() {
        let mut chaff = pkt(1000, TcpFlags::ACK, b"CHAFF!", 64);
        let n = chaff.len() - 1;
        chaff[n] ^= 0xff;
        let packets = [
            pkt(999, TcpFlags::SYN, b"", 64),
            chaff,
            pkt(1000, TcpFlags::ACK, b"hello!", 64),
        ];
        let got = receive_stream(packets.iter(), VictimConfig::default(), server());
        assert_eq!(got, b"hello!");
    }

    #[test]
    fn reverse_direction_ignored() {
        let f = TcpPacketSpec::new(&format!("{SERVER}:80"), "10.0.0.1:4000")
            .seq(1)
            .payload(b"response")
            .build();
        let got = receive_stream([f].iter(), VictimConfig::default(), server());
        assert!(got.is_empty());
    }

    #[test]
    fn rst_aborts_delivery() {
        // An attacker who interleaves RSTs (e.g. to reset an IPS's
        // per-flow counters) kills their own connection: nothing after the
        // RST reaches the application, so the "attack" is not an attack.
        let packets = [
            pkt(999, TcpFlags::SYN, b"", 64),
            pkt(1000, TcpFlags::ACK, b"be", 64),
            pkt(1002, TcpFlags::RST, b"", 64),
            pkt(1002, TcpFlags::ACK, b"fore", 64),
        ];
        let got = receive_stream(packets.iter(), VictimConfig::default(), server());
        assert_eq!(got, b"be");
    }

    #[test]
    fn overlap_resolved_by_victim_policy() {
        // Garbage first, then retransmit with real data at same seq.
        let packets = [
            pkt(999, TcpFlags::SYN, b"", 64),
            pkt(1000, TcpFlags::ACK, b"XXXXXX", 64),
            pkt(1000, TcpFlags::ACK, b"hello!", 64),
        ];
        let first = receive_stream(
            packets.iter(),
            VictimConfig {
                policy: OverlapPolicy::First,
                ..Default::default()
            },
            server(),
        );
        assert_eq!(first, b"XXXXXX", "First-policy victim keeps the garbage");
        // A Last-policy victim prefers the retransmission — but both copies
        // arrive in-order here so the first is already delivered; hold it
        // back with a gap to observe the policy.
        let held = [
            pkt(999, TcpFlags::SYN, b"", 64),
            pkt(1001, TcpFlags::ACK, b"XXXXX", 64), // bytes 1..6 buffered
            pkt(1001, TcpFlags::ACK, b"ello!", 64), // conflicting overlap
            pkt(1000, TcpFlags::ACK, b"h", 64),     // plug the hole
        ];
        let last = receive_stream(
            held.iter(),
            VictimConfig {
                policy: OverlapPolicy::Last,
                ..Default::default()
            },
            server(),
        );
        assert_eq!(last, b"hello!");
    }
}
