//! Golden digests of the generators' wire bytes.
//!
//! `evasion-mix`, the experiments and the gauntlet all replay these exact
//! packets, so any change to how a strategy is emitted must be deliberate.
//! Each digest covers one strategy against every overlap policy and two
//! seeds; a mismatch names the strategies whose bytes moved. The benign and
//! heavy-tail generators, which build every `sd-e2e` workload, are pinned
//! the same way at the end of the file.

use std::net::Ipv4Addr;

use sd_reassembly::OverlapPolicy;
use sd_traffic::evasion::{generate, AttackSpec, EvasionStrategy};
use sd_traffic::victim::VictimConfig;
use sd_traffic::{
    BenignConfig, BenignGenerator, HeavyTailConfig, HeavyTailGenerator, PayloadModel,
};

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

/// Fold a trace into a digest: each packet's timestamp, then its bytes.
fn trace_digest(trace: &sd_traffic::Trace) -> u64 {
    trace.packets.iter().fold(FNV_BASIS, |h, p| {
        let h = fold(h, &[p.ts_micros.to_le_bytes().to_vec()]);
        fold(h, std::slice::from_ref(&p.data))
    })
}

/// `sd-e2e`'s benign profile (interactive 0.05, reorder 0.002) at about
/// 1/100 of its flow counts, on the two seeds it is judged on.
fn e2e_benign(seed: u64, flows: usize, payload: PayloadModel) -> BenignConfig {
    BenignConfig {
        seed,
        flows,
        interactive_fraction: 0.05,
        reorder_prob: 0.002,
        payload,
        ..Default::default()
    }
}

const E2E_SEEDS: [u64; 2] = [1, 2006];

fn check_traces(what: &str, golden: [u64; 2], make: impl Fn(u64) -> sd_traffic::Trace) {
    let got = E2E_SEEDS.map(|seed| trace_digest(&make(seed)));
    assert_eq!(
        got, golden,
        "{what}: digests now [{:#x}, {:#x}]",
        got[0], got[1]
    );
}

#[test]
fn benign_http_bytes_are_pinned() {
    check_traces(
        "benign http-like",
        [0xdfdc_2e70_c9c1_475a, 0x6e4f_2969_d050_117a],
        |seed| BenignGenerator::new(e2e_benign(seed, 200, PayloadModel::HttpLike)).generate(),
    );
}

#[test]
fn benign_uniform_bytes_are_pinned() {
    check_traces(
        "benign uniform",
        [0x7a36_b9de_7dfd_7572, 0x9dc6_9b8b_2fa8_e08c],
        |seed| BenignGenerator::new(e2e_benign(seed, 60, PayloadModel::Uniform)).generate(),
    );
}

#[test]
fn concurrent_bytes_are_pinned() {
    check_traces(
        "concurrent",
        [0x086e_6df8_319a_a0b4, 0xe10e_f4c8_e791_3f9f],
        |seed| {
            BenignGenerator::new(e2e_benign(seed, 1, PayloadModel::HttpLike))
                .generate_concurrent(200, 3_000)
        },
    );
}

/// `mice-churn`'s α, flow sizes and churn at 1/100 of its flow counts.
#[test]
fn heavy_tail_bytes_are_pinned() {
    check_traces(
        "heavy tail",
        [0x7296_cc47_5cbd_2e4e, 0x8c4a_ff4a_3fdf_fa8a],
        |seed| {
            HeavyTailGenerator::new(HeavyTailConfig {
                seed,
                concurrency: 2_000,
                total_flows: 6_000,
                alpha: 1.2,
                min_flow_bytes: 64,
                max_flow_bytes: 64 * 1024,
                churn: 0.02,
            })
            .generate()
        },
    );
}
