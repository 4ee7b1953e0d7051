//! Soundness of the diverted set under its size bound.
//!
//! The diverted set is the engine's memory of "this flow must go to the
//! slow path forever". Losing an entry silently un-diverts an attacker
//! mid-split and the signature sails through, so the bound's behaviour is
//! load-bearing: eviction must be deterministic (FIFO) or refused, always
//! counted, and never triggered by unrelated machinery (flow-table CLOCK
//! churn, Bloom counter decay). These tests pin all three properties at
//! the engine level; `divert.rs` unit tests pin the manager in isolation.

use proptest::prelude::*;
use sd_ips::api::run_trace;
use sd_ips::{Ips, Signature, SignatureSet};
use sd_packet::builder::{ip_of_frame, TcpPacketSpec};
use sd_packet::tcp::TcpFlags;
use splitdetect::fastpath::SmallCounterBackend;
use splitdetect::{EvictionPolicy, SplitDetect, SplitDetectConfig, EROSION_FAMILIES};

const SIG: &[u8] = b"EVIL_SIGNATURE_BYTES"; // 20 bytes → pieces 7/7/6, cutoff 13

fn sigs() -> SignatureSet {
    SignatureSet::from_signatures([Signature::new("evil", SIG)])
}

/// A data packet on the flow `src_ip:4000 → 10.0.0.2:80`.
fn pkt(src_ip: &str, seq: u32, payload: &[u8]) -> Vec<u8> {
    let f = TcpPacketSpec::new(&format!("{src_ip}:4000"), "10.0.0.2:80")
        .seq(seq)
        .flags(TcpFlags::ACK.union(TcpFlags::PSH))
        .payload(payload)
        .build();
    ip_of_frame(&f).to_vec()
}

/// First half of the signature: carries piece 0 (7 bytes) whole, so the
/// piece scan diverts the flow, but the match only completes with the
/// second half.
fn first_half(src_ip: &str) -> Vec<u8> {
    pkt(src_ip, 1000, &SIG[..10])
}

fn second_half(src_ip: &str) -> Vec<u8> {
    pkt(src_ip, 1010, &SIG[10..])
}

/// Regression for the arbitrary-eviction bug: with the diverted set at
/// capacity under the refuse-new policy, an *established* diversion is
/// never displaced. The old HashSet-order eviction could throw out the
/// attacker's entry when later flows diverted; its history replay was
/// long drained, so the slow path never saw the first half again and the
/// split signature passed undetected.
#[test]
fn established_diversion_survives_capacity_pressure_refuse_new() {
    let config = SplitDetectConfig {
        max_diverted_flows: 4,
        divert_eviction: EvictionPolicy::RefuseNew,
        ..Default::default()
    };
    let mut e = SplitDetect::with_config(sigs(), config).unwrap();
    let mut out = Vec::new();
    // The attacker diverts first (piece hit, no alert yet).
    e.process_packet(&first_half("10.0.0.1"), 0, &mut out);
    assert_eq!(e.stats().divert.flows_diverted, 1);
    assert!(out.is_empty());
    // 20 later flows each trigger a diversion; only 3 slots remain.
    for i in 0..20u8 {
        e.process_packet(
            &first_half(&format!("10.7.0.{}", i + 1)),
            1 + i as u64,
            &mut out,
        );
    }
    let s = e.stats();
    assert_eq!(s.divert.flows_diverted, 4, "bound holds");
    assert_eq!(s.divert.set_refused, 17, "overflow is refused, not evicted");
    assert_eq!(s.divert.set_evictions, 0);
    // The attacker's second half completes the signature on the slow path.
    e.process_packet(&second_half("10.0.0.1"), 99, &mut out);
    e.finish(&mut out);
    assert!(
        out.iter().any(|a| a.signature == 0),
        "established diversion must stay sticky at capacity"
    );
}

/// Same attack under the default evict-oldest policy: eviction is strict
/// FIFO, so with the attacker second-oldest only the genuinely oldest
/// entry is displaced and detection still lands. (Arbitrary eviction gave
/// no such guarantee — any insertion could displace the attacker.)
#[test]
fn fifo_eviction_displaces_only_the_oldest_diversion() {
    let config = SplitDetectConfig {
        max_diverted_flows: 4,
        divert_eviction: EvictionPolicy::EvictOldest,
        ..Default::default()
    };
    let mut e = SplitDetect::with_config(sigs(), config).unwrap();
    let mut out = Vec::new();
    e.process_packet(&first_half("10.8.0.1"), 0, &mut out); // oldest (noise)
    e.process_packet(&first_half("10.0.0.1"), 1, &mut out); // attacker
    e.process_packet(&first_half("10.8.0.2"), 2, &mut out);
    e.process_packet(&first_half("10.8.0.3"), 3, &mut out); // set full
    e.process_packet(&first_half("10.8.0.4"), 4, &mut out); // evicts 10.8.0.1
    let s = e.stats();
    assert_eq!(s.divert.flows_diverted, 5);
    assert_eq!(s.divert.set_evictions, 1);
    e.process_packet(&second_half("10.0.0.1"), 99, &mut out);
    e.finish(&mut out);
    assert!(
        out.iter().any(|a| a.signature == 0),
        "FIFO must evict the oldest entry, not the attacker"
    );
    // The erosion is loud: the run report warns about the eviction.
    let text = sd_telemetry::to_text(&e.metrics(), &EROSION_FAMILIES);
    assert!(
        text.contains("WARNING: sd_divert_set_evictions_total 1:"),
        "{text}"
    );
}

#[test]
fn refused_diversions_warn_in_run_report() {
    let config = SplitDetectConfig {
        max_diverted_flows: 1,
        divert_eviction: EvictionPolicy::RefuseNew,
        ..Default::default()
    };
    let mut e = SplitDetect::with_config(sigs(), config).unwrap();
    let mut out = Vec::new();
    for i in 0..10u8 {
        e.process_packet(&first_half(&format!("10.7.0.{i}")), i.into(), &mut out);
    }
    let text = sd_telemetry::to_text(&e.metrics(), &EROSION_FAMILIES);
    assert!(
        text.contains("WARNING: sd_divert_set_refused_total 9:"),
        "{text}"
    );
    assert!(!text.contains("WARNING: sd_divert_set_evictions"), "{text}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Diversion stickiness is independent of the fast path's *counter*
    /// state: CLOCK eviction of the flow-table entry and `decay()` of the
    /// counting-Bloom cells may forget how close a flow was to its budget,
    /// but never whom we already diverted. A diverted attacker survives
    /// arbitrary churn plus periodic decay and is still detected.
    #[test]
    fn decay_and_table_churn_never_undivert(seed in any::<u64>(), churn in 1usize..200) {
        let config = SplitDetectConfig {
            flow_table_capacity: 16,
            small_counter: SmallCounterBackend::Bloom { cells: 256, hashes: 2 },
            ..Default::default()
        };
        let mut e = SplitDetect::with_config(sigs(), config).unwrap();
        let mut out = Vec::new();
        e.process_packet(&first_half("10.0.0.1"), 0, &mut out);
        prop_assert_eq!(e.stats().divert.flows_diverted, 1);

        let mut state = seed | 1;
        for i in 0..churn {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (state >> 33) as u8;
            let b = (state >> 41) as u8;
            let noise = pkt(&format!("172.16.{a}.{b}"), 5000, &[b'x'; 64]);
            e.process_packet(&noise, 1 + i as u64, &mut out);
            if i % 16 == 15 {
                e.decay_small_counters();
            }
        }
        e.decay_small_counters();

        e.process_packet(&second_half("10.0.0.1"), 10_000, &mut out);
        e.finish(&mut out);
        prop_assert!(
            out.iter().any(|a| a.signature == 0),
            "decay/churn un-diverted the attacker (seed {}, churn {})", seed, churn
        );
    }

    /// Cross-check with the conventional engine: any run of the bounded
    /// diverted set that *does* evict still detects attacks the
    /// conventional IPS detects, as long as the attacker was not the
    /// eviction victim — here the attacker diverts last, so FIFO can
    /// never pick it.
    #[test]
    fn newest_diversion_is_never_the_fifo_victim(extra in 1usize..12) {
        let config = SplitDetectConfig {
            max_diverted_flows: 3,
            divert_eviction: EvictionPolicy::EvictOldest,
            ..Default::default()
        };
        let mut e = SplitDetect::with_config(sigs(), config).unwrap();
        let mut out = Vec::new();
        for i in 0..extra {
            e.process_packet(&first_half(&format!("10.9.1.{}", i + 1)), i as u64, &mut out);
        }
        let attacker = "10.0.0.1";
        e.process_packet(&first_half(attacker), 50, &mut out);
        e.process_packet(&second_half(attacker), 51, &mut out);
        e.finish(&mut out);
        prop_assert!(out.iter().any(|a| a.signature == 0));
    }
}

/// The alternative formulation via `run_trace`, pinning the exact failure
/// mode the bugfix addresses: at `max_diverted` capacity with eviction,
/// the trace-level alert set must still contain the attacker.
#[test]
fn split_signature_detected_at_exact_capacity() {
    for policy in [EvictionPolicy::EvictOldest, EvictionPolicy::RefuseNew] {
        let config = SplitDetectConfig {
            max_diverted_flows: 2,
            divert_eviction: policy,
            ..Default::default()
        };
        let mut e = SplitDetect::with_config(sigs(), config).unwrap();
        let trace: Vec<Vec<u8>> = vec![
            first_half("10.0.0.1"),  // attacker diverts (slot 1 of 2)
            first_half("10.6.0.1"),  // noise diverts (slot 2 of 2)
            first_half("10.6.0.2"),  // at capacity: evicts 10.6.0.1 or refused
            second_half("10.0.0.1"), // attacker completes the signature
        ];
        let alerts = run_trace(&mut e, trace.iter().map(|p| p.as_slice()));
        assert!(
            alerts.iter().any(|a| a.signature == 0),
            "policy {policy:?} lost the attacker at capacity"
        );
    }
}
