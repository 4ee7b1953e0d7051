//! Property tests for sd-packet: every packet the builder can produce must
//! parse back to exactly the fields it was built from, checksums must
//! verify, and fragmentation must tile the payload.

use proptest::prelude::*;
use sd_packet::builder::{TcpPacketSpec, UdpPacketSpec};
use sd_packet::frag::{coverage, fragment_ipv4};
use sd_packet::ipv4::Ipv4Packet;
use sd_packet::parse::parse_ipv4;
use sd_packet::tcp::{TcpFlags, TcpSegment};
use sd_reassembly::defrag::DefragResult;
use sd_reassembly::{Defragmenter, OverlapPolicy};

fn endpoint() -> impl Strategy<Value = String> {
    (1u8..=254, 1u8..=254, 1u16..=65535).prop_map(|(a, b, p)| format!("10.{a}.{b}.1:{p}"))
}

proptest! {
    #[test]
    fn tcp_build_parse_roundtrip(
        src in endpoint(),
        dst in endpoint(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        window in any::<u16>(),
        flag_bits in 0u8..=0x3f,
        payload in proptest::collection::vec(any::<u8>(), 0..1460),
    ) {
        let packet = TcpPacketSpec::new(&src, &dst)
            .seq(seq)
            .ack(ack)
            .window(window)
            .flags(TcpFlags(flag_bits))
            .payload(&payload)
            .build();
        let p = parse_ipv4(&packet).unwrap();
        let tcp = p.tcp().expect("built TCP must parse as TCP");
        prop_assert_eq!(tcp.repr.seq.raw(), seq);
        prop_assert_eq!(tcp.repr.ack.raw(), ack);
        prop_assert_eq!(tcp.repr.window, window);
        prop_assert_eq!(tcp.repr.flags.0, flag_bits);
        prop_assert_eq!(tcp.payload, &payload[..]);

        let ip = Ipv4Packet::new_checked(&packet).unwrap();
        prop_assert!(ip.verify_checksum());
        let seg = TcpSegment::new_checked(ip.payload()).unwrap();
        prop_assert!(seg.verify_checksum(ip.src_addr(), ip.dst_addr()));
    }

    #[test]
    fn udp_build_parse_roundtrip(
        src in endpoint(),
        dst in endpoint(),
        payload in proptest::collection::vec(any::<u8>(), 0..1400),
    ) {
        let packet = UdpPacketSpec::new(&src, &dst).payload(&payload).build();
        let p = parse_ipv4(&packet).unwrap();
        let udp = p.udp().expect("built UDP must parse as UDP");
        prop_assert_eq!(udp.payload, &payload[..]);
        let ip = Ipv4Packet::new_checked(&packet).unwrap();
        prop_assert!(ip.verify_checksum());
    }

    #[test]
    fn fragmentation_tiles_payload(
        payload_len in 1usize..3000,
        unit in 8usize..1480,
    ) {
        let payload: Vec<u8> = (0..payload_len).map(|i| (i * 31 % 256) as u8).collect();
        let pkt = &TcpPacketSpec::new("10.0.0.1:1", "10.0.0.2:2")
            .dont_frag(false)
            .payload(&payload)
            .build();
        let orig_payload = Ipv4Packet::new_checked(pkt).unwrap().payload().to_vec();
        let frags = fragment_ipv4(pkt, unit).unwrap();
        let cov = coverage(&frags).unwrap();

        // Offsets tile the payload exactly, MF set on all but the last.
        let mut next = 0u32;
        for (i, &(off, len, more)) in cov.iter().enumerate() {
            prop_assert_eq!(u32::from(off), next);
            prop_assert_eq!(more, i + 1 < cov.len());
            next += len as u32;
        }
        prop_assert_eq!(next as usize, orig_payload.len());

        // Byte-for-byte reconstruction.
        let mut rebuilt = vec![0u8; orig_payload.len()];
        for f in &frags {
            let ip = Ipv4Packet::new_checked(&f[..]).unwrap();
            let off = ip.frag_offset() as usize;
            rebuilt[off..off + ip.payload().len()].copy_from_slice(ip.payload());
            prop_assert!(ip.verify_checksum());
        }
        prop_assert_eq!(rebuilt, orig_payload);
    }

    /// Fragmenting here and reassembling with `sd_reassembly::defrag` is
    /// the identity, for any payload size and any requested unit —
    /// including units that are not multiples of 8 (the fragmenter rounds
    /// down) — under every overlap policy (no overlaps yet, so the policy
    /// must not matter).
    #[test]
    fn fragment_then_defrag_is_identity(
        payload_len in 1usize..2500,
        unit in 8usize..1480,
        policy_idx in 0usize..4,
        reverse in any::<bool>(),
    ) {
        let policy = OverlapPolicy::ALL[policy_idx];
        let payload: Vec<u8> = (0..payload_len).map(|i| (i * 131 % 256) as u8).collect();
        let pkt = &TcpPacketSpec::new("10.0.0.1:1", "10.0.0.2:2")
            .dont_frag(false)
            .payload(&payload)
            .build();
        let mut frags = fragment_ipv4(pkt, unit).unwrap();
        if reverse {
            frags.reverse();
        }

        let mut defrag = Defragmenter::new(policy);
        let mut complete = None;
        for (i, f) in frags.iter().enumerate() {
            match defrag.push(f, 0).unwrap() {
                DefragResult::PassThrough => {
                    // Only possible when the packet fit in one "fragment".
                    prop_assert_eq!(frags.len(), 1);
                    complete = Some(f.clone());
                }
                DefragResult::Absorbed => {
                    prop_assert!(i + 1 < frags.len(), "last fragment must complete");
                }
                DefragResult::Complete(d) => {
                    prop_assert_eq!(i + 1, frags.len(), "early completion");
                    complete = Some(d);
                }
            }
        }
        let d = complete.expect("datagram must complete");
        let rebuilt = Ipv4Packet::new_checked(&d[..]).unwrap();
        let original = Ipv4Packet::new_checked(pkt).unwrap();
        prop_assert_eq!(rebuilt.payload(), original.payload());
        prop_assert_eq!(rebuilt.src_addr(), original.src_addr());
        prop_assert_eq!(rebuilt.dst_addr(), original.dst_addr());
        prop_assert!(!rebuilt.is_fragment());
    }

    /// Conflicting same-offset copies of one middle fragment resolve
    /// exactly as each policy's `new_wins` rule says: First and Bsd keep
    /// the copy that arrived first, Last and Linux keep the second.
    /// Consistent duplicates are a no-op either way.
    #[test]
    fn overlapping_fragments_resolve_by_policy(
        payload_len in 300usize..1200,
        unit in 8usize..64,
        policy_idx in 0usize..4,
        garbage in any::<bool>(),
    ) {
        let policy = OverlapPolicy::ALL[policy_idx];
        let payload: Vec<u8> = (0..payload_len).map(|i| (i * 17 % 256) as u8).collect();
        let pkt = &TcpPacketSpec::new("10.0.0.1:1", "10.0.0.2:2")
            .dont_frag(false)
            .payload(&payload)
            .build();
        let frags = fragment_ipv4(pkt, unit).unwrap();
        prop_assert!(frags.len() >= 3, "need a middle fragment to overlap");

        // Forge a twin of a middle fragment (same offset/length); with
        // `garbage` its payload bytes differ, otherwise it is a verbatim
        // duplicate.
        let target = frags.len() / 2;
        let mut twin = frags[target].clone();
        if garbage {
            let hdr = (twin[0] & 0x0f) as usize * 4;
            for b in &mut twin[hdr..] {
                *b = !*b;
            }
        }

        // Arrival order: all fragments in sequence, with the twin injected
        // immediately before its real counterpart.
        let mut defrag = Defragmenter::new(policy);
        let mut complete = None;
        for (i, f) in frags.iter().enumerate() {
            if i == target {
                prop_assert_eq!(defrag.push(&twin, 0).unwrap(), DefragResult::Absorbed);
            }
            if let DefragResult::Complete(d) = defrag.push(f, 0).unwrap() {
                complete = Some(d);
            }
        }
        let d = complete.expect("datagram must complete");
        let rebuilt = Ipv4Packet::new_checked(&d[..]).unwrap();
        let original = Ipv4Packet::new_checked(pkt).unwrap();

        // First/Bsd keep the twin (it arrived first at that offset);
        // Last/Linux keep the real bytes that came second.
        let twin_wins = garbage && matches!(policy, OverlapPolicy::First | OverlapPolicy::Bsd);
        let range = {
            let ip = Ipv4Packet::new_checked(&frags[target][..]).unwrap();
            let off = ip.frag_offset() as usize;
            off..off + ip.payload().len()
        };
        let mut expected = original.payload().to_vec();
        if twin_wins {
            for b in &mut expected[range] {
                *b = !*b;
            }
        }
        prop_assert_eq!(rebuilt.payload(), &expected[..]);
    }

    #[test]
    fn parser_never_panics_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // Arbitrary bytes must yield Ok or Err, never a panic or an
        // out-of-bounds slice.
        let _ = parse_ipv4(&bytes);
        let mut bytes = bytes;
        // Raw noise rarely passes the version and total-length checks, so
        // force both and let the rest (IHL, protocol, fragment bits, the
        // transport header) stay noise.
        if bytes.len() >= 4 {
            bytes[0] = 0x40 | (bytes[0] & 0x0f);
            let len = bytes.len() as u16;
            bytes[2..4].copy_from_slice(&len.to_be_bytes());
            let _ = parse_ipv4(&bytes);
        }
    }

    #[test]
    fn parser_never_panics_on_mutated_frames(
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        idx in 0usize..100,
        val in any::<u8>(),
    ) {
        // A well-formed packet with one mutated byte must still never panic.
        let mut packet = TcpPacketSpec::new("10.0.0.1:1", "10.0.0.2:2")
            .payload(&payload)
            .build();
        let i = idx % packet.len();
        packet[i] = val;
        let _ = parse_ipv4(&packet);
    }
}
