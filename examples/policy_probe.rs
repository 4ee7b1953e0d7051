//! Stack-model ambiguity, made visible: the same packet sequence
//! reconstructed under every overlap policy and both urgent semantics —
//! eight different application streams from identical wire bytes. This is
//! the root cause behind inconsistent-retransmission and urgent-chaff
//! evasions, and why a monolithic IPS must guess the victim's stack while
//! Split-Detect's slow path can afford to model it per target.
//!
//! Run with: `cargo run --example policy_probe`

use split_detect::packet::builder::TcpPacketSpec;
use split_detect::packet::tcp::TcpFlags;
use split_detect::reassembly::{OverlapPolicy, UrgentSemantics};
use split_detect::traffic::victim::{receive_stream, VictimConfig};

fn main() {
    // A deliberately ambiguous conversation:
    //   1. SYN
    //   2. bytes 1..6  buffered out of order: "ATTCK" (garbage-ish copy)
    //   3. bytes 1..6  conflicting overlap:   "TTACK"
    //   4. byte  0     plugs the hole:        "A"
    //   5. bytes 6..8  with an URG-flagged chaff byte: "!!" (ptr → first '!')
    //   6. bytes 8..13 the tail: "DATA!"
    let server = "10.0.0.2";
    let pkt = |seq: u32, flags: TcpFlags, payload: &[u8], urg: u16| {
        TcpPacketSpec::new("10.0.0.1:4000", &format!("{server}:80"))
            .seq(seq)
            .flags(flags)
            .urgent(urg)
            .payload(payload)
            .build()
    };
    let ack = TcpFlags::ACK;
    let packets = [
        pkt(999, TcpFlags::SYN, b"", 0),
        pkt(1001, ack, b"ATTCK", 0),
        pkt(1001, ack, b"TTACK", 0),
        pkt(1000, ack, b"A", 0),
        pkt(1006, ack.union(TcpFlags::URG), b"!!", 1),
        pkt(1008, ack, b"DATA!", 0),
    ];

    println!("one wire sequence, eight possible application streams:\n");
    println!(
        "{:<8} {:>12} {:>16}",
        "policy", "urgent", "application sees"
    );
    println!("{}", "-".repeat(44));
    for policy in OverlapPolicy::ALL {
        for urgent in [UrgentSemantics::DiscardOne, UrgentSemantics::Inline] {
            let cfg = VictimConfig {
                policy,
                urgent,
                ..Default::default()
            };
            let stream = receive_stream(packets.iter(), cfg, (server.parse().unwrap(), 80));
            println!(
                "{:<8} {:>12} {:>16}",
                policy.to_string(),
                match urgent {
                    UrgentSemantics::DiscardOne => "discard",
                    UrgentSemantics::Inline => "inline",
                },
                String::from_utf8_lossy(&stream),
            );
        }
    }
    println!(
        "\nAn IPS that guesses the wrong row scans a stream the victim never\n\
         saw. Split-Detect's fast path refuses to guess: overlapping and\n\
         URG-flagged traffic is diverted, and the slow path is configured\n\
         per protected host."
    );
}
