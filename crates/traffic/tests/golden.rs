//! Golden digests of the evasion catalog's wire bytes.
//!
//! `evasion-mix`, the experiments and the gauntlet all replay these exact
//! packets, so any change to how a strategy is emitted must be deliberate.
//! Each digest covers one strategy against every overlap policy and two
//! seeds; a mismatch names the strategies whose bytes moved.

use std::net::Ipv4Addr;

use sd_reassembly::OverlapPolicy;
use sd_traffic::evasion::{generate, AttackSpec, EvasionStrategy};
use sd_traffic::victim::VictimConfig;

const SEEDS: [u64; 2] = [1, 4242];

/// Fold packets into a running FNV-1a digest, each prefixed by its length.
fn fold(mut h: u64, packets: &[Vec<u8>]) -> u64 {
    for p in packets {
        for &b in (p.len() as u32).to_le_bytes().iter().chain(p) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn digest(spec: &AttackSpec, strategy: EvasionStrategy) -> u64 {
    let mut h = FNV_BASIS;
    for policy in OverlapPolicy::ALL {
        let victim = VictimConfig {
            policy,
            ..Default::default()
        };
        for seed in SEEDS {
            h = fold(h, &generate(spec, strategy, victim, seed));
        }
    }
    h
}

fn check(spec: &AttackSpec, golden: &[(&str, u64)]) {
    let got: Vec<(&str, u64)> = EvasionStrategy::catalog()
        .into_iter()
        .map(|s| (s.name(), digest(spec, s)))
        .collect();
    let moved: Vec<&str> = got
        .iter()
        .zip(golden)
        .filter(|(g, w)| g != w)
        .map(|(g, _)| g.0)
        .collect();
    let now: String = got
        .iter()
        .map(|(n, d)| format!("({n:?}, {d:#x}),\n"))
        .collect();
    assert!(
        moved.is_empty() && got.len() == golden.len(),
        "wire bytes moved for {moved:?}; digests now:\n{now}"
    );
}

#[test]
fn simple_spec_bytes_are_pinned() {
    check(
        &AttackSpec::simple(&b"EVIL_SIGNATURE_BYTES"[..]),
        &[
            ("none", 0x23f2_a64a_4aa4_0785),
            ("split-at-signature", 0x9016_e982_0d20_e1e5),
            ("tiny-segments", 0x8023_90f4_6edb_f445),
            ("tiny-fragments", 0xc86e_c1c0_9505_0405),
            ("overlapping-fragments", 0x64ab_fd35_7bd5_b59d),
            ("reorder", 0x4064_d638_b817_a375),
            ("reverse", 0x8116_d3d0_fded_d335),
            ("duplicate", 0x4356_1992_29c3_fcc5),
            ("inconsistent-retransmission", 0x58aa_9030_c160_6a2d),
            ("bad-checksum-chaff", 0x29e9_95a2_4760_ea25),
            ("low-ttl-chaff", 0xd055_0d3b_584a_2945),
            ("urgent-chaff", 0x5893_533d_bc52_4fbd),
            ("pitch-segments", 0x3f33_4198_68b4_6cb5),
        ],
    );
}

/// Shaped like `sd-e2e`'s `evasion-mix` attacks: a rule's content as the
/// signature, a client away from the default, and an ISN that wraps the
/// sequence space mid-payload.
#[test]
fn benchmark_shaped_spec_bytes_are_pinned() {
    let mut spec = AttackSpec::simple(&b"/cgi-bin/phf?Qalias=x%0a/bin/cat"[..]);
    spec.client = (Ipv4Addr::new(10, 66, 1, 44), 48_123);
    spec.isn = 0xFFFF_FF00;
    check(
        &spec,
        &[
            ("none", 0x0076_f37a_9e96_3d05),
            ("split-at-signature", 0xea12_9061_2bb8_3fc5),
            ("tiny-segments", 0x5129_88dd_b4d9_0c35),
            ("tiny-fragments", 0x7a08_6841_0dda_6145),
            ("overlapping-fragments", 0x8e7a_d599_2672_26cd),
            ("reorder", 0xd39d_64ae_cb77_c5a5),
            ("reverse", 0x475d_10d4_f3f5_37d5),
            ("duplicate", 0xa211_839b_817c_6a55),
            ("inconsistent-retransmission", 0x209b_284a_f5f4_f07d),
            ("bad-checksum-chaff", 0xd172_9900_5a69_f2a5),
            ("low-ttl-chaff", 0xb71e_7a67_513e_f6fd),
            ("urgent-chaff", 0xcefe_3456_dbb2_8865),
            ("pitch-segments", 0x406b_9adf_4d96_0405),
        ],
    );
}

/// The urgent-chaff strategy degrades to a plain split against a victim
/// that delivers urgent octets inline; pin that branch too.
#[test]
fn inline_urgent_victim_bytes_are_pinned() {
    let spec = AttackSpec::simple(&b"EVIL_SIGNATURE_BYTES"[..]);
    let victim = VictimConfig {
        urgent: sd_reassembly::UrgentSemantics::Inline,
        ..Default::default()
    };
    let packets = generate(&spec, EvasionStrategy::UrgentChaff { pitch: 7 }, victim, 1);
    let h = fold(FNV_BASIS, &packets);
    assert_eq!(h, 0x9ebc_24d7_884d_dbcd, "digest now {h:#x}");
}
