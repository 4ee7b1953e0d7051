//! The evasion gauntlet: Split-Detect against the full Ptacek–Newsham /
//! FragRoute attack suite, across every victim overlap policy — the
//! integration-level statement of the paper's detection theorem, and the
//! ground truth behind experiment E1.
//!
//! Invariants checked:
//! 1. every evasion still delivers its payload to the victim model
//!    (otherwise it is not an evasion, and the test would prove nothing);
//! 2. Split-Detect detects *every* strategy under admissible parameters;
//! 3. the naive per-packet strawman misses every strategy except `none`;
//! 4. the conventional IPS (policy-matched) detects everything too — the
//!    paper's claim is about *cost*, not coverage.

use sd_ips::api::run_trace;
use sd_ips::conventional::ConventionalConfig;
use sd_ips::{ConventionalIps, NaivePacketIps, Signature, SignatureSet};
use sd_reassembly::OverlapPolicy;
use sd_traffic::evasion::{generate, AttackSpec, EvasionStrategy};
use sd_traffic::victim::{receive_stream, VictimConfig};
use splitdetect::{SplitDetect, SplitDetectConfig};

const SIG: &[u8] = b"EVIL_SIGNATURE_BYTES"; // 20 bytes → pieces 7/7/6

fn sigs() -> SignatureSet {
    SignatureSet::from_signatures([Signature::new("evil", SIG)])
}

fn spec() -> AttackSpec {
    AttackSpec::simple(SIG)
}

#[test]
fn split_detect_catches_every_strategy_under_every_victim_policy() {
    for policy in OverlapPolicy::ALL {
        let victim = VictimConfig {
            policy,
            ..Default::default()
        };
        for strategy in EvasionStrategy::catalog() {
            let spec = spec();
            let packets = generate(&spec, strategy, victim, 1234);

            // Sanity: the attack really works against this victim.
            let delivered = receive_stream(packets.iter(), victim, spec.server);
            assert_eq!(
                delivered,
                spec.payload(),
                "{} vs {policy}: attack broken",
                strategy.name()
            );

            // Split-Detect, slow path policy matched to the victim.
            let config = SplitDetectConfig {
                slow_path_policy: policy,
                ..Default::default()
            };
            let mut sd = SplitDetect::with_config(sigs(), config).unwrap();
            let alerts = run_trace(&mut sd, packets.iter().map(|p| p.as_slice()));
            assert!(
                alerts.iter().any(|a| a.signature == 0),
                "split-detect missed {} vs victim {policy}",
                strategy.name()
            );
        }
    }
}

#[test]
fn naive_strawman_misses_every_real_evasion() {
    let victim = VictimConfig::default();
    for strategy in EvasionStrategy::catalog() {
        let spec = spec();
        let packets = generate(&spec, strategy, victim, 99);
        let mut naive = NaivePacketIps::new(sigs());
        let alerts = run_trace(&mut naive, packets.iter().map(|p| p.as_slice()));
        let detected = alerts.iter().any(|a| a.signature == 0);
        if strategy == EvasionStrategy::None {
            assert!(detected, "the baseline case must be detectable per-packet");
        } else {
            assert!(
                !detected,
                "strategy {} should evade the naive engine",
                strategy.name()
            );
        }
    }
}

#[test]
fn conventional_ips_catches_everything_when_policy_matched() {
    for policy in OverlapPolicy::ALL {
        let victim = VictimConfig {
            policy,
            ..Default::default()
        };
        for strategy in EvasionStrategy::catalog() {
            let spec = spec();
            let packets = generate(&spec, strategy, victim, 7);
            let mut conv = ConventionalIps::with_config(
                sigs(),
                ConventionalConfig {
                    policy,
                    ..Default::default()
                },
            );
            let alerts = run_trace(&mut conv, packets.iter().map(|p| p.as_slice()));
            assert!(
                alerts.iter().any(|a| a.signature == 0),
                "conventional missed {} vs {policy}",
                strategy.name()
            );
        }
    }
}

#[test]
fn policy_mismatch_breaks_the_conventional_ips_but_not_split_detect() {
    // The inconsistent-retransmission evasion crafted for a First victim:
    // a Last-policy conventional IPS reconstructs garbage and misses. The
    // point of diversion is that Split-Detect's slow path sees the *flow*
    // and can afford target-based handling; here we give its slow path the
    // right policy while the monolithic IPS guesses wrong.
    let victim = VictimConfig {
        policy: OverlapPolicy::First,
        ..Default::default()
    };
    let spec = spec();
    let packets = generate(
        &spec,
        EvasionStrategy::InconsistentRetransmission,
        victim,
        5,
    );

    let mut wrong_conv = ConventionalIps::with_config(
        sigs(),
        ConventionalConfig {
            policy: OverlapPolicy::Last,
            ..Default::default()
        },
    );
    let alerts = run_trace(&mut wrong_conv, packets.iter().map(|p| p.as_slice()));
    assert!(
        !alerts.iter().any(|a| a.signature == 0),
        "a wrong-policy conventional IPS is expected to miss"
    );

    let mut sd = SplitDetect::with_config(
        sigs(),
        SplitDetectConfig {
            slow_path_policy: OverlapPolicy::First,
            ..Default::default()
        },
    )
    .unwrap();
    let alerts = run_trace(&mut sd, packets.iter().map(|p| p.as_slice()));
    assert!(alerts.iter().any(|a| a.signature == 0));
}

#[test]
fn sharded_engine_catches_every_strategy() {
    use splitdetect::ShardedSplitDetect;
    let victim = VictimConfig::default();
    for strategy in EvasionStrategy::catalog() {
        let spec = spec();
        let packets = generate(&spec, strategy, victim, 77);
        let mut engine = ShardedSplitDetect::new(sigs(), SplitDetectConfig::default(), 4).unwrap();
        let alerts = run_trace(&mut engine, packets.iter().map(|p| p.as_slice()));
        assert!(
            alerts.iter().any(|a| a.signature == 0),
            "sharded engine missed {}",
            strategy.name()
        );
    }
}

#[test]
fn urgent_semantics_mismatch_breaks_conventional_but_not_split_detect() {
    use sd_reassembly::UrgentSemantics;
    use sd_traffic::evasion::EvasionStrategy;

    // Attack crafted for a discard-semantics victim (the default). A
    // conventional IPS that delivers urgent octets inline scans chaff
    // inside the signature and misses.
    let victim = VictimConfig::default();
    let spec = spec();
    let packets = generate(&spec, EvasionStrategy::UrgentChaff { pitch: 7 }, victim, 3);

    let delivered = receive_stream(packets.iter(), victim, spec.server);
    assert_eq!(delivered, spec.payload(), "attack must work");

    let mut inline_conv = ConventionalIps::with_config(
        sigs(),
        ConventionalConfig {
            urgent: UrgentSemantics::Inline,
            ..Default::default()
        },
    );
    let alerts = run_trace(&mut inline_conv, packets.iter().map(|p| p.as_slice()));
    assert!(
        !alerts.iter().any(|a| a.signature == 0),
        "inline-semantics conventional IPS is expected to miss"
    );

    // Matching semantics detect.
    let mut conv = ConventionalIps::new(sigs());
    let alerts = run_trace(&mut conv, packets.iter().map(|p| p.as_slice()));
    assert!(alerts.iter().any(|a| a.signature == 0));

    // Split-Detect diverts on URG and its slow path models the victim.
    let mut sd = SplitDetect::new(sigs()).unwrap();
    let alerts = run_trace(&mut sd, packets.iter().map(|p| p.as_slice()));
    assert!(alerts.iter().any(|a| a.signature == 0));
    assert!(
        sd.stats()
            .diverts_by(splitdetect::fastpath::DivertReason::Urgent)
            >= 1,
        "the URG rule should have fired"
    );
}

#[test]
fn rst_counter_reset_is_not_an_evasion() {
    // The fast path reclaims per-flow counters on RST; an attacker might
    // hope to interleave RSTs between small segments to keep resetting the
    // small-segment budget. But RST aborts the victim's connection, so the
    // payload never arrives — the "evasion" defeats its own attack (A2).
    use sd_packet::builder::TcpPacketSpec;
    use sd_packet::tcp::TcpFlags;

    let payload = {
        let mut p = vec![b'.'; 40];
        p.extend_from_slice(SIG);
        p
    };
    let mut packets = Vec::new();
    let mut off = 0usize;
    while off < payload.len() {
        let end = (off + 4).min(payload.len());
        let f = TcpPacketSpec::new("10.66.0.9:31000", "10.0.0.2:80")
            .seq(1000 + off as u32)
            .flags(TcpFlags::ACK.union(TcpFlags::PSH))
            .payload(&payload[off..end])
            .build();
        packets.push(f);
        // One RST after every small segment, hoping to reset counters.
        let rst = TcpPacketSpec::new("10.66.0.9:31000", "10.0.0.2:80")
            .seq(1000 + end as u32)
            .flags(TcpFlags::RST)
            .build();
        packets.push(rst);
        off = end;
    }

    let delivered = receive_stream(
        packets.iter(),
        VictimConfig::default(),
        ("10.0.0.2".parse().unwrap(), 80),
    );
    assert!(
        !delivered.windows(SIG.len()).any(|w| w == SIG),
        "the RST-interleaved stream must never deliver the signature"
    );
}

#[test]
fn benign_traffic_mostly_stays_fast() {
    use sd_traffic::benign::{BenignConfig, BenignGenerator};
    let trace = BenignGenerator::new(BenignConfig {
        flows: 50,
        seed: 11,
        interactive_fraction: 0.0,
        reorder_prob: 0.0,
        ..Default::default()
    })
    .generate();
    let mut sd = SplitDetect::new(sigs()).unwrap();
    let alerts = run_trace(&mut sd, trace.iter_bytes());
    assert!(alerts.is_empty(), "no attacks present → no alerts");
    let stats = sd.stats();
    assert!(
        stats.diverted_flow_fraction() < 0.25,
        "clean bulk traffic should mostly stay on the fast path, diverted {:.1}%",
        stats.diverted_flow_fraction() * 100.0
    );
}

#[test]
fn mixed_trace_detects_all_attacks_with_no_false_alerts() {
    use sd_traffic::benign::{BenignConfig, BenignGenerator};
    use sd_traffic::mixer::mix;

    let benign = BenignGenerator::new(BenignConfig {
        flows: 30,
        seed: 21,
        ..Default::default()
    })
    .generate();
    let victim = VictimConfig::default();
    let attacks: Vec<(Vec<Vec<u8>>, usize, &'static str)> = EvasionStrategy::catalog()
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let mut spec = spec();
            spec.client.1 = 40_000 + i as u16; // distinct flows
            (generate(&spec, s, victim, i as u64), 0, s.name())
        })
        .collect();
    let n_attacks = attacks.len();
    let labeled = mix(benign, attacks, 77);

    let mut sd = SplitDetect::new(sigs()).unwrap();
    let alerts = run_trace(&mut sd, labeled.trace.iter_bytes());

    // Every labelled attack flow alerted; no unlabelled flow did.
    let mut caught = 0;
    for label in &labeled.attacks {
        if alerts.iter().any(|a| a.flow == label.flow) {
            caught += 1;
        } else {
            panic!("attack {} not detected in mixed trace", label.strategy);
        }
    }
    assert_eq!(caught, n_attacks);
    for a in &alerts {
        assert!(
            labeled.is_attack(&a.flow),
            "false alert on benign flow {}",
            a.flow
        );
    }
}
