//! Property tests for the full engine: the detection theorem exercised on
//! randomized adversaries, not just the curated catalog.

use std::collections::HashMap;

use proptest::prelude::*;
use sd_ips::api::run_trace;
use sd_ips::{Signature, SignatureSet};
use sd_packet::builder::{ip_of_frame, TcpPacketSpec};
use sd_packet::tcp::TcpFlags;
use splitdetect::split::{balanced_cuts, PieceOrigin};
use splitdetect::{SplitDetect, SplitDetectConfig, SplitPlan};

const SIG: &[u8] = b"EVIL_SIGNATURE_BYTES"; // 20 bytes

fn sigs() -> SignatureSet {
    SignatureSet::from_signatures([Signature::new("evil", SIG)])
}

fn syn() -> Vec<u8> {
    let f = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
        .seq(999)
        .flags(TcpFlags::SYN)
        .build();
    ip_of_frame(&f).to_vec()
}

fn pkt(seq: u32, payload: &[u8]) -> Vec<u8> {
    let f = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
        .seq(seq)
        .flags(TcpFlags::ACK.union(TcpFlags::PSH))
        .payload(payload)
        .build();
    ip_of_frame(&f).to_vec()
}

/// Cut `len` into random segments from a seed.
fn seeded_cuts(len: usize, seed: u64, max_seg: usize) -> Vec<(usize, usize)> {
    let mut cuts = Vec::new();
    let mut at = 0;
    let mut state = seed | 1;
    while at < len {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let step = 1 + (state >> 33) as usize % max_seg;
        let end = (at + step).min(len);
        cuts.push((at, end));
        at = end;
    }
    cuts
}

/// Pinned shrink of `any_reordered_segmentation_is_detected` (seed file:
/// `cc 4cd79e…`): seed 3126427968536741024, prefix 174 — a shuffle that
/// lands a signature-bearing segment in a spot the delay-line replay used
/// to miss.
#[test]
fn regression_reordered_segmentation_seed_3126427968536741024() {
    let seed = 3126427968536741024u64;
    let prefix_len = 174usize;
    let mut payload = vec![b'.'; prefix_len];
    payload.extend_from_slice(SIG);
    payload.extend_from_slice(&[b'.'; 64]);

    let cuts = seeded_cuts(payload.len(), seed, 512);
    let mut order: Vec<usize> = (0..cuts.len()).collect();
    let mut state = seed.wrapping_add(17) | 1;
    for i in (1..order.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    let mut packets: Vec<Vec<u8>> = vec![syn()];
    packets.extend(order.into_iter().map(|i| {
        let (s, e) = cuts[i];
        pkt(1000 + s as u32, &payload[s..e])
    }));

    let mut sd = SplitDetect::new(sigs()).unwrap();
    let alerts = run_trace(&mut sd, packets.iter().map(|p| p.as_slice()));
    assert!(alerts.iter().any(|a| a.signature == 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The theorem, on the engine: ANY in-order segmentation of a stream
    /// containing the signature is detected — regardless of where the cuts
    /// fall or how big the segments are.
    #[test]
    fn any_in_order_segmentation_is_detected(
        seed in any::<u64>(),
        prefix_len in 0usize..600,
        max_seg in 1usize..2000,
    ) {
        let mut payload = vec![b'.'; prefix_len];
        payload.extend_from_slice(SIG);
        payload.extend_from_slice(&[b'.'; 64]);

        let packets: Vec<Vec<u8>> = seeded_cuts(payload.len(), seed, max_seg)
            .into_iter()
            .map(|(s, e)| pkt(1000 + s as u32, &payload[s..e]))
            .collect();

        let mut sd = SplitDetect::new(sigs()).unwrap();
        let alerts = run_trace(&mut sd, packets.iter().map(|p| p.as_slice()));
        prop_assert!(
            alerts.iter().any(|a| a.signature == 0),
            "missed with seed {seed}, prefix {prefix_len}, max_seg {max_seg}"
        );
    }

    /// Same adversary, but the segments are also shuffled: still detected
    /// (the order rule fires and history replay feeds the slow path).
    #[test]
    fn any_reordered_segmentation_is_detected(
        seed in any::<u64>(),
        prefix_len in 0usize..300,
    ) {
        let mut payload = vec![b'.'; prefix_len];
        payload.extend_from_slice(SIG);
        payload.extend_from_slice(&[b'.'; 64]);

        let cuts = seeded_cuts(payload.len(), seed, 512);
        let mut order: Vec<usize> = (0..cuts.len()).collect();
        let mut state = seed.wrapping_add(17) | 1;
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        // The SYN leads (an IPS watches connections from their start); the
        // data segments follow in shuffled order.
        let mut packets: Vec<Vec<u8>> = vec![syn()];
        packets.extend(order.into_iter().map(|i| {
            let (s, e) = cuts[i];
            pkt(1000 + s as u32, &payload[s..e])
        }));

        let mut sd = SplitDetect::new(sigs()).unwrap();
        let alerts = run_trace(&mut sd, packets.iter().map(|p| p.as_slice()));
        prop_assert!(alerts.iter().any(|a| a.signature == 0));
    }

    /// Soundness of alerting: streams that do NOT contain the signature
    /// never alert, under any segmentation (they may divert — that is the
    /// design — but diversion alone is not detection).
    #[test]
    fn signature_free_streams_never_alert(
        seed in any::<u64>(),
        len in 1usize..2000,
        max_seg in 1usize..1600,
    ) {
        // Signature-free filler (SIG contains '_' and uppercase; use
        // lowercase letters only).
        let payload: Vec<u8> = (0..len).map(|i| b'a' + (i % 26) as u8).collect();
        let packets: Vec<Vec<u8>> = seeded_cuts(payload.len(), seed, max_seg)
            .into_iter()
            .map(|(s, e)| pkt(1000 + s as u32, &payload[s..e]))
            .collect();
        let mut sd = SplitDetect::new(sigs()).unwrap();
        let alerts = run_trace(&mut sd, packets.iter().map(|p| p.as_slice()));
        prop_assert!(alerts.is_empty());
    }

    /// Cross-engine validation: on any in-order segmentation, the
    /// conventional reassembling IPS and Split-Detect agree — both detect
    /// the signature (they share no code on the decision path except the
    /// matcher, so agreement is evidence, not tautology).
    #[test]
    fn conventional_and_split_detect_agree_in_order(
        seed in any::<u64>(),
        prefix_len in 0usize..400,
        max_seg in 1usize..1200,
    ) {
        use sd_ips::ConventionalIps;
        let mut payload = vec![b'.'; prefix_len];
        payload.extend_from_slice(SIG);
        payload.extend_from_slice(&[b'.'; 32]);
        let packets: Vec<Vec<u8>> = seeded_cuts(payload.len(), seed, max_seg)
            .into_iter()
            .map(|(s, e)| pkt(1000 + s as u32, &payload[s..e]))
            .collect();

        let mut conv = ConventionalIps::new(sigs());
        let conv_hit = run_trace(&mut conv, packets.iter().map(|p| p.as_slice()))
            .iter()
            .any(|a| a.signature == 0);
        let mut sd = SplitDetect::new(sigs()).unwrap();
        let sd_hit = run_trace(&mut sd, packets.iter().map(|p| p.as_slice()))
            .iter()
            .any(|a| a.signature == 0);
        prop_assert!(conv_hit, "conventional must detect in-order delivery");
        prop_assert!(sd_hit, "split-detect must detect in-order delivery");
    }

    /// Ablations are really weaker: with the order rule off AND delay line
    /// off, some reordered attack evades (we do not assert *which* seeds,
    /// only that the admissible engine still catches everything — sanity
    /// that the property above is not vacuous).
    #[test]
    fn admissible_beats_handpicked_ablation_adversary(seed in any::<u64>()) {
        // Signature split across three segments, middle one out of order.
        let mut payload = vec![b'x'; 100];
        payload.extend_from_slice(SIG);
        payload.extend_from_slice(&[b'y'; 40]);
        let a = pkt(1000, &payload[..105]);
        let c = pkt(1000 + 112, &payload[112..]);
        let b_seg = pkt(1000 + 105, &payload[105..112]);
        let packets = [a, c, b_seg]; // middle arrives last

        let mut good = SplitDetect::new(sigs()).unwrap();
        let alerts = run_trace(&mut good, packets.iter().map(|p| p.as_slice()));
        prop_assert!(alerts.iter().any(|a| a.signature == 0), "seed {seed}");

        let crippled_cfg = SplitDetectConfig {
            divert_on_out_of_order: false,
            small_segment_budget: 200, // effectively off
            delay_line_packets: 0,
            ..Default::default()
        };
        let mut crippled = SplitDetect::with_config_unchecked(sigs(), crippled_cfg);
        let alerts = run_trace(&mut crippled, packets.iter().map(|p| p.as_slice()));
        prop_assert!(
            !alerts.iter().any(|a| a.signature == 0),
            "the crippled engine should miss this adversary"
        );
    }
}

/// Every piece's origins, regrouped naively: each cut of each signature
/// (`min(k, len)` pieces) appended to its piece string's list, in
/// signature-then-piece order.
fn regrouped_cuts(sigs: &SignatureSet, k: usize) -> HashMap<Vec<u8>, Vec<PieceOrigin>> {
    let mut lists: HashMap<Vec<u8>, Vec<PieceOrigin>> = HashMap::new();
    for (signature, sig) in sigs.iter() {
        let cuts = balanced_cuts(sig.bytes.len(), k.min(sig.bytes.len()));
        for (index, (offset, end)) in cuts.into_iter().enumerate() {
            lists
                .entry(sig.bytes[offset..end].to_vec())
                .or_default()
                .push(PieceOrigin {
                    signature,
                    index,
                    offset,
                });
        }
    }
    lists
}

/// `plan`'s origins for every piece id equal the naive regrouping, and
/// every regrouped piece string has an id.
fn assert_provenance(plan: &SplitPlan, sigs: &SignatureSet) {
    let want = regrouped_cuts(sigs, plan.pieces_per_signature());
    assert_eq!(plan.piece_count(), want.len());
    for (id, piece) in plan.pieces().iter() {
        assert_eq!(plan.origins(id), &want[piece][..], "piece {piece:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Piece provenance, merged across signatures that share a piece
    /// string, is the naive regrouping of every signature's cuts. The
    /// signatures are 3 to 5 chunks from a pool of three 4-byte chunks
    /// over two letters, so equal pieces are common; the unchecked engine
    /// adds signatures of one and two bytes, cut into fewer than k pieces.
    #[test]
    fn piece_origins_are_the_regrouped_cuts(
        chunks in prop::collection::vec(
            prop::collection::vec(prop_oneof![Just(b'a'), Just(b'b')], 4),
            3,
        ),
        picks in prop::collection::vec(prop::collection::vec(0usize..3, 3..6), 1..10),
        short in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..3), 0..4),
    ) {
        let signature = |i: usize, bytes: Vec<u8>| Signature::new(format!("s{i}"), bytes);
        let long: Vec<Signature> = picks
            .iter()
            .enumerate()
            .map(|(i, pick)| signature(i, pick.iter().flat_map(|&c| chunks[c].clone()).collect()))
            .collect();
        let sigs = SignatureSet::from_signatures(long.clone());
        let plan = SplitPlan::compile(&sigs, &SplitDetectConfig::default())
            .expect("12- to 20-byte signatures are admissible");
        assert_provenance(&plan, &sigs);

        let with_short = SignatureSet::from_signatures(
            long.into_iter().chain(short.into_iter().enumerate().map(|(i, b)| signature(100 + i, b))),
        );
        let engine =
            SplitDetect::with_config_unchecked(with_short.clone(), SplitDetectConfig::default());
        assert_provenance(engine.plan(), &with_short);
    }
}
