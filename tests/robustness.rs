//! Fault-injection / fuzz-style robustness: an IPS sits on the attack
//! path, so *no input bytes may ever panic it* — malformed packets,
//! bit-flipped captures, truncated files, adversarial rule text. Every
//! component that touches untrusted bytes is hammered here; errors are
//! fine, panics are bugs.

use proptest::prelude::*;
use split_detect::core::SplitDetect;
use split_detect::ips::rules::{parse_rules, parse_rules_lenient};
use split_detect::ips::{ConventionalIps, Ips, NaivePacketIps, Signature, SignatureSet};
use split_detect::packet::builder::TcpPacketSpec;
use split_detect::packet::parse::parse_ipv4;
use split_detect::reassembly::{Defragmenter, Normalizer, OverlapPolicy, TcpStreamReassembler};
use split_detect::traffic::pcap;

fn sigs() -> SignatureSet {
    SignatureSet::from_signatures([Signature::new("evil", &b"EVIL_SIGNATURE_BYTES"[..])])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Parsers accept arbitrary bytes without panicking.
    #[test]
    fn parsers_never_panic(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = parse_ipv4(&data);
        let mut n = Normalizer::new();
        let _ = n.check_ipv4(&data);
    }

    /// All three engines digest arbitrary bytes without panicking, and
    /// never alert on garbage (garbage cannot contain a valid TCP stream).
    #[test]
    fn engines_never_panic_on_garbage(
        packets in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 1..40),
    ) {
        let mut engines: Vec<Box<dyn Ips>> = vec![
            Box::new(NaivePacketIps::new(sigs())),
            Box::new(ConventionalIps::new(sigs())),
            Box::new(SplitDetect::new(sigs()).unwrap()),
        ];
        for engine in &mut engines {
            let mut out = Vec::new();
            for (tick, p) in packets.iter().enumerate() {
                engine.process_packet(p, tick as u64, &mut out);
            }
            engine.finish(&mut out);
            let _ = engine.resources();
        }
    }

    /// Bit-flipped *valid* packets: the realistic corruption model. The
    /// engines must survive, and the conventional engine's normalizer must
    /// reject payload corruption (the checksum no longer matches).
    #[test]
    fn engines_survive_bit_flips(
        payload_len in 1usize..600,
        flip_byte in 0usize..1000,
        flip_bit in 0u8..8,
    ) {
        let mut pkt = TcpPacketSpec::new("10.0.0.1:1234", "10.0.0.2:80")
            .seq(100)
            .payload(&vec![b'd'; payload_len])
            .build();
        let idx = flip_byte % pkt.len();
        pkt[idx] ^= 1 << flip_bit;

        let mut engines: Vec<Box<dyn Ips>> = vec![
            Box::new(NaivePacketIps::new(sigs())),
            Box::new(ConventionalIps::new(sigs())),
            Box::new(SplitDetect::new(sigs()).unwrap()),
        ];
        for engine in &mut engines {
            let mut out = Vec::new();
            engine.process_packet(&pkt, 0, &mut out);
            engine.finish(&mut out);
            prop_assert!(out.is_empty(), "{} alerted on corrupted benign data", engine.name());
        }
    }

    /// The reassembly substrate takes arbitrary (seq, data) sequences.
    #[test]
    fn reassembler_never_panics(
        pushes in prop::collection::vec((any::<u32>(), prop::collection::vec(any::<u8>(), 0..64)), 0..40),
        syn in any::<Option<u32>>(),
    ) {
        for policy in OverlapPolicy::ALL {
            let mut r = TcpStreamReassembler::new(policy);
            if let Some(s) = syn {
                r.on_syn(split_detect::packet::SeqNumber(s));
            }
            for (seq, data) in &pushes {
                r.push(split_detect::packet::SeqNumber(*seq), data, |_| {});
                r.on_fin(split_detect::packet::SeqNumber(seq.wrapping_add(1)));
            }
            let _ = r.memory_bytes();
        }
    }

    /// The defragmenter takes arbitrary bytes.
    #[test]
    fn defragmenter_never_panics(
        packets in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 0..30),
    ) {
        let mut d = Defragmenter::new(OverlapPolicy::First);
        for (tick, p) in packets.iter().enumerate() {
            let _ = d.push(p, tick as u64);
        }
        let _ = d.memory_bytes();
    }

    /// pcap reading: arbitrary bytes produce errors, never panics —
    /// alone, and behind a valid global header so the record parser (not
    /// just the magic check) sees them.
    #[test]
    fn pcap_reader_never_panics(data in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = pcap::read_trace(&data[..]);
        for linktype in [pcap::LINKTYPE_RAW, pcap::LINKTYPE_ETHERNET] {
            let mut buf = pcap_header(linktype);
            buf.extend_from_slice(&data);
            let _ = pcap::read_trace(&buf[..]);
        }
    }

    /// Mutated valid captures: any bytes of a real file (global header,
    /// record lengths, payload) overwritten, plus arbitrary trailing
    /// bytes, read to a trace or an error, never a panic or an unbounded
    /// allocation.
    #[test]
    fn mutated_pcap_is_an_error_or_a_trace(
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..8),
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut buf = Vec::new();
        pcap::write_trace(&mut buf, &three_packet_trace()).unwrap();
        for (at, byte) in edits {
            let i = at % buf.len();
            buf[i] = byte;
        }
        buf.extend_from_slice(&tail);
        let _ = pcap::read_trace(&buf[..]);
    }

    #[test]
    fn truncated_pcap_is_an_error_not_a_panic(cut in 0usize..10_000) {
        let trace = split_detect::traffic::Trace::from_packets(vec![
            split_detect::traffic::TracePacket::new(
                0,
                TcpPacketSpec::new("10.0.0.1:1", "10.0.0.2:2")
                    .payload(&[b'x'; 100])
                    .build(),
            ),
        ]);
        let mut buf = Vec::new();
        pcap::write_trace(&mut buf, &trace).unwrap();
        buf.truncate(cut % (buf.len() + 1));
        let _ = pcap::read_trace(&buf[..]);
    }

    /// The rule parser takes arbitrary text.
    #[test]
    fn rule_parser_never_panics(text in "\\PC{0,300}") {
        let _ = parse_rules(&text);
        let _ = parse_rules(&format!("alert tcp any any -> any any ({text})"));
    }

    /// The lenient loader (what `sd analyze-rules` reads) takes arbitrary
    /// lines: bare junk, rule-shaped junk, and backslash continuations.
    #[test]
    fn lenient_rule_loader_never_panics(
        lines in prop::collection::vec(("\\PC{0,80}", 0u8..4), 0..12),
    ) {
        let text: String = lines
            .iter()
            .map(|(line, shape)| match shape {
                0 => format!("{line}\n"),
                1 => format!("alert tcp any any -> any any ({line})\n"),
                2 => format!("alert tcp any any -> any any ({line} \\\n"),
                _ => format!("{line} \\\n"),
            })
            .collect();
        let _ = parse_rules_lenient(&text);
        let _ = parse_rules(&text);
    }
}

fn pcap_header(linktype: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    pcap::write_trace(
        &mut buf,
        &split_detect::traffic::Trace::from_packets(vec![]),
    )
    .unwrap();
    buf[20..24].copy_from_slice(&linktype.to_le_bytes());
    buf
}

fn three_packet_trace() -> split_detect::traffic::Trace {
    split_detect::traffic::Trace::from_packets(
        (0..3u16)
            .map(|i| {
                let frame = TcpPacketSpec::new(&format!("10.0.0.1:{}", 1000 + i), "10.0.0.2:80")
                    .payload(&[b'p'; 60])
                    .build();
                split_detect::traffic::TracePacket::new(i as u64, frame)
            })
            .collect(),
    )
}

/// Deterministic edge cases that random generation is unlikely to hit.
#[test]
fn handcrafted_hostile_packets() {
    let cases: Vec<Vec<u8>> = vec![
        vec![],         // empty
        vec![0x45],     // one byte of a header
        vec![0x45; 19], // one short of a full IPv4 header
        vec![0xff; 64], // all-ones
        {
            // Valid header claiming total_len larger than the buffer.
            let mut p = TcpPacketSpec::new("10.0.0.1:1", "10.0.0.2:2")
                .payload(b"abc")
                .build();
            p[2] = 0xff; // total_len high byte
            p
        },
        {
            // IHL pointing past the buffer.
            let mut p = TcpPacketSpec::new("10.0.0.1:1", "10.0.0.2:2").build();
            p[0] = 0x4f; // IHL = 15 → 60-byte header on a 40-byte packet
            p
        },
        {
            // TCP data offset beyond the segment.
            let mut p = TcpPacketSpec::new("10.0.0.1:1", "10.0.0.2:2")
                .payload(b"x")
                .build();
            p[20 + 12] = 0xf0; // data offset = 15 words
            p
        },
    ];
    let mut engines: Vec<Box<dyn Ips>> = vec![
        Box::new(NaivePacketIps::new(sigs())),
        Box::new(ConventionalIps::new(sigs())),
        Box::new(SplitDetect::new(sigs()).unwrap()),
    ];
    for engine in &mut engines {
        let mut out = Vec::new();
        for (tick, p) in cases.iter().enumerate() {
            engine.process_packet(p, tick as u64, &mut out);
        }
        engine.finish(&mut out);
        assert!(
            out.is_empty(),
            "{} alerted on hostile garbage",
            engine.name()
        );
    }
}
