//! Sharded-vs-single differential regression: the flow-sharded engine must
//! be *byte-identical* to one `SplitDetect` instance — same alerts (flow,
//! signature, offset, source), same count — across the whole evasion
//! gauntlet, every victim overlap policy, 2 and 4 shards.
//!
//! This is the pinned form of the equivalence the differential fuzzing
//! oracle (`sd-oracle`) checks on random traces; the catalog here is the
//! deterministic floor. It would have caught the port-aware dispatch hash
//! the oracle found: fragments carry no ports, so hashing the 5-tuple sent
//! a connection's fragments to a different shard than its stream segments.

use sd_ips::api::run_trace;
use sd_ips::{Alert, Signature, SignatureSet};
use sd_reassembly::OverlapPolicy;
use sd_traffic::evasion::{generate, AttackSpec, EvasionStrategy};
use sd_traffic::victim::VictimConfig;
use splitdetect::{ShardedSplitDetect, SplitDetect, SplitDetectConfig};

const SIG: &[u8] = b"EVIL_SIGNATURE_BYTES";

fn sigs() -> SignatureSet {
    SignatureSet::from_signatures([Signature::new("evil", SIG)])
}

/// Full identity of an alert, as a sortable key.
fn keys(alerts: &[Alert]) -> Vec<(sd_flow::FlowKey, usize, u64, u8)> {
    let mut v: Vec<_> = alerts
        .iter()
        .map(|a| (a.flow, a.signature, a.offset, a.source as u8))
        .collect();
    v.sort();
    v
}

#[test]
fn sharded_verdicts_equal_single_across_the_gauntlet() {
    for policy in OverlapPolicy::ALL {
        let victim = VictimConfig {
            policy,
            ..Default::default()
        };
        for strategy in EvasionStrategy::catalog() {
            let spec = AttackSpec::simple(SIG);
            let packets = generate(&spec, strategy, victim, 4242);
            let config = SplitDetectConfig {
                slow_path_policy: policy,
                ..Default::default()
            };

            let mut single = SplitDetect::with_config(sigs(), config).unwrap();
            let reference = keys(&run_trace(
                &mut single,
                packets.iter().map(|p| p.as_slice()),
            ));

            for shards in [2usize, 4] {
                let mut engine = ShardedSplitDetect::new(sigs(), config, shards).unwrap();
                let alerts = run_trace(&mut engine, packets.iter().map(|p| p.as_slice()));
                assert!(
                    engine.failures().is_empty(),
                    "{} vs {policy}: worker failures with {shards} shards",
                    strategy.name()
                );
                assert_eq!(
                    keys(&alerts),
                    reference,
                    "{} vs {policy}: {shards} shards diverged from the single engine",
                    strategy.name()
                );
            }
        }
    }
}
