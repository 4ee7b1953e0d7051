//! Cross-crate end-to-end tests: workload generation → pcap round trip →
//! engine → alerts, exactly the path a user of the library walks.

use split_detect::core::{SplitDetect, SplitDetectConfig};
use split_detect::ips::api::run_trace;
use split_detect::ips::{ConventionalIps, Ips, NaivePacketIps, Signature, SignatureSet};
use split_detect::traffic::benign::{BenignConfig, BenignGenerator};
use split_detect::traffic::evasion::{generate, AttackSpec, EvasionStrategy};
use split_detect::traffic::mixer::mix;
use split_detect::traffic::pcap;
use split_detect::traffic::victim::VictimConfig;

const SIG: &[u8] = b"EVIL_SIGNATURE_BYTES";

fn sigs() -> SignatureSet {
    SignatureSet::from_signatures([Signature::new("evil", SIG)])
}

#[test]
fn pcap_roundtrip_preserves_detection() {
    let benign = BenignGenerator::new(BenignConfig {
        flows: 12,
        seed: 3,
        ..Default::default()
    })
    .generate();
    let spec = AttackSpec::simple(SIG);
    let attack = generate(
        &spec,
        EvasionStrategy::TinySegments { size: 4 },
        VictimConfig::default(),
        5,
    );
    let labeled = mix(benign, vec![(attack, 0, "tiny-segments")], 8);

    // Serialize and reload through the pcap layer.
    let mut buf = Vec::new();
    pcap::write_trace(&mut buf, &labeled.trace).unwrap();
    let reloaded = pcap::read_trace(&buf[..]).unwrap();
    assert_eq!(reloaded, labeled.trace);

    let mut engine = SplitDetect::new(sigs()).unwrap();
    let alerts = run_trace(&mut engine, reloaded.iter_bytes());
    assert!(alerts.iter().any(|a| a.flow == labeled.attacks[0].flow));
    for a in &alerts {
        assert!(labeled.is_attack(&a.flow), "false positive on {}", a.flow);
    }
}

#[test]
fn all_three_engines_implement_the_same_trait() {
    let spec = AttackSpec::simple(SIG);
    let packets = generate(&spec, EvasionStrategy::None, VictimConfig::default(), 1);

    let mut engines: Vec<Box<dyn Ips>> = vec![
        Box::new(NaivePacketIps::new(sigs())),
        Box::new(ConventionalIps::new(sigs())),
        Box::new(SplitDetect::new(sigs()).unwrap()),
    ];
    for engine in &mut engines {
        let mut alerts = Vec::new();
        for (tick, p) in packets.iter().enumerate() {
            engine.process_packet(p, tick as u64, &mut alerts);
        }
        engine.finish(&mut alerts);
        assert!(
            alerts.iter().any(|a| a.signature == 0),
            "{} missed the unevaded baseline",
            engine.name()
        );
        let r = engine.resources();
        assert_eq!(r.packets, packets.len() as u64);
        assert!(r.bytes_scanned > 0);
    }
}

#[test]
fn split_detect_state_tracks_concurrency_not_bytes() {
    // Same byte volume, 10× concurrency difference: Split-Detect's state
    // depends on the table provisioned for concurrency, not on stream
    // volume; the conventional engine's grows with live connections.
    let sigs_fn = sigs;
    let mut small = BenignGenerator::new(BenignConfig {
        seed: 5,
        ..Default::default()
    });
    let trace_10 = small.generate_concurrent(10, 64 * 1024);
    let trace_100 = small.generate_concurrent(100, 6_400);

    let run = |trace: &split_detect::traffic::Trace| {
        let mut conv = ConventionalIps::new(sigs_fn());
        let mut out = Vec::new();
        for (tick, p) in trace.iter_bytes().enumerate() {
            conv.process_packet(p, tick as u64, &mut out);
        }
        conv.resources().state_bytes_peak
    };
    let conv_10 = run(&trace_10);
    let conv_100 = run(&trace_100);
    assert!(
        conv_100 > conv_10 * 5,
        "conventional state must scale with concurrency: {conv_10} vs {conv_100}"
    );
}

#[test]
fn demo_signature_set_is_admissible_and_detectable() {
    let sigs = SignatureSet::demo();
    let config = SplitDetectConfig::default();
    let mut engine = SplitDetect::with_config(sigs, config).expect("demo set admissible");

    // Attack with each demo signature, unevaded.
    let demo = SignatureSet::demo();
    for (id, sig) in demo.iter() {
        let mut spec = AttackSpec::simple(sig.bytes.clone());
        spec.client.1 = 50_000 + id as u16;
        let packets = generate(&spec, EvasionStrategy::None, VictimConfig::default(), 1);
        let alerts = run_trace(&mut engine, packets.iter().map(|p| p.as_slice()));
        assert!(
            alerts.iter().any(|a| a.signature == id),
            "demo signature {} ({}) missed",
            id,
            sig.name
        );
    }
}

#[test]
fn udp_attacks_detected_without_reassembly_state() {
    use split_detect::packet::builder::UdpPacketSpec;
    let mut payload = b"dns chaff ".to_vec();
    payload.extend_from_slice(SIG);
    let pkt = UdpPacketSpec::new("10.3.0.1:5353", "10.0.0.2:53")
        .payload(&payload)
        .build();
    let mut engine = SplitDetect::new(sigs()).unwrap();
    let alerts = run_trace(&mut engine, [pkt.as_slice()]);
    assert_eq!(alerts.len(), 1);
}
