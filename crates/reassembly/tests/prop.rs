//! Property tests for the reassembly substrate.
//!
//! The central invariant: for *consistent* data (no conflicting overlaps),
//! any segmentation, any reordering, and any duplication of a byte stream
//! must reassemble to exactly that stream under every overlap policy — this
//! is what makes the stream reassembler a faithful victim model. Conflicting
//! overlaps are checked against a per-byte reference model.

use proptest::prelude::*;
use sd_packet::builder::TcpPacketSpec;
use sd_packet::frag::fragment_ipv4;
use sd_packet::ipv4::Ipv4Packet;
use sd_packet::SeqNumber;
use sd_reassembly::policy::OverlapPolicy;
use sd_reassembly::stream::TcpStreamReassembler;
use sd_reassembly::Defragmenter;

fn arb_policy() -> impl Strategy<Value = OverlapPolicy> {
    prop::sample::select(OverlapPolicy::ALL.to_vec())
}

/// Pinned shrink of `defrag_roundtrip_any_order` (seed file:
/// `cc c37325…`): a 1-byte payload fragmented at the 8-byte minimum, with
/// the header fragment arriving after a data fragment, `policy = First`.
#[test]
fn regression_defrag_one_byte_payload_min_fragments_first_policy() {
    let payload = [0u8];
    let pkt = TcpPacketSpec::new("10.0.0.1:1234", "10.0.0.2:80")
        .seq(7)
        .payload(&payload)
        .dont_frag(false)
        .build();
    let mut frags = fragment_ipv4(&pkt, 8).unwrap();

    // The shrunk case's shuffle: seed = 0, forced odd as in the generator.
    let mut state = 1u64;
    for i in (1..frags.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        frags.swap(i, j);
    }

    let mut d = Defragmenter::new(OverlapPolicy::First);
    let mut done = None;
    for (i, f) in frags.iter().enumerate() {
        let r = d.push_owned(f, i as u64).unwrap();
        if r.is_some() {
            assert_eq!(i + 1, frags.len(), "completed before all fragments");
            done = r;
        }
    }
    let out = done.expect("datagram must complete");
    let ip = Ipv4Packet::new_checked(&out[..]).unwrap();
    assert!(ip.verify_checksum());
    assert_eq!(&out[..], &pkt[..], "reassembled datagram differs");
    assert_eq!(d.context_count(), 0);
}

/// Pinned shrink of `stream_overlaps_match_reference_model` (seed file:
/// `cc 127fbd…`): a later writer overlaps an already-*delivered* prefix
/// under `policy = Last` — delivered bytes are frozen, so the rewrite must
/// not leak into the output, and the bytes past the edge still follow the
/// policy.
#[test]
fn regression_stream_overlap_rewrites_delivered_prefix_last_policy() {
    let pushes: [(usize, usize, u8); 4] = [(0, 8, 0), (20, 10, 0), (0, 1, 1), (0, 1, 1)];
    let policy = OverlapPolicy::Last;
    let mut r = TcpStreamReassembler::new(policy);
    r.on_syn(SeqNumber(0));

    let mut model: Vec<Option<(u8, u64)>> = vec![None; 64 + 24];
    let mut delivered_upto = 0usize;
    let mut out = Vec::new();
    for &(start, len, fill) in &pushes {
        let data = vec![fill; len];
        r.push(SeqNumber(1 + start as u32), &data, |b| {
            out.extend_from_slice(b)
        });
        #[allow(clippy::needless_range_loop)]
        for i in start.max(delivered_upto)..start + len {
            match model[i] {
                None => model[i] = Some((fill, start as u64)),
                Some((_, old_start)) => {
                    if policy.new_wins(old_start, start as u64) {
                        model[i] = Some((fill, start as u64));
                    }
                }
            }
        }
        while delivered_upto < model.len() && model[delivered_upto].is_some() {
            delivered_upto += 1;
        }
    }
    let mut expected = Vec::new();
    for slot in &model {
        match slot {
            Some((b, _)) => expected.push(*b),
            None => break,
        }
    }
    assert_eq!(out, expected, "policy {policy}");
}

proptest! {
    /// Consistent segments: any cut + shuffle + duplication delivers the
    /// original stream under every policy.
    #[test]
    fn stream_reassembles_any_consistent_arrival(
        data in prop::collection::vec(any::<u8>(), 1..400),
        cuts_seed in any::<u64>(),
        policy in arb_policy(),
        dup in any::<bool>(),
    ) {
        let len = data.len();
        // Derive a deterministic cut + permutation from the seed (cheaper
        // than nesting strategies on `data.len()`).
        let mut cuts = Vec::new();
        let mut at = 0usize;
        let mut state = cuts_seed | 1;
        while at < len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let step = 1 + (state >> 33) as usize % 16;
            let end = (at + step).min(len);
            cuts.push((at, end));
            at = end;
        }
        let mut order: Vec<usize> = (0..cuts.len()).collect();
        // Fisher-Yates with the same LCG.
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }

        let mut r = TcpStreamReassembler::new(policy);
        r.on_syn(SeqNumber(999)); // stream starts at seq 1000
        let mut out = Vec::new();
        for &i in &order {
            let (s, e) = cuts[i];
            r.push(SeqNumber(1000 + s as u32), &data[s..e], |b| out.extend_from_slice(b));
            if dup {
                r.push(SeqNumber(1000 + s as u32), &data[s..e], |b| out.extend_from_slice(b));
            }
        }
        prop_assert_eq!(&out, &data, "policy {}", policy);
        prop_assert_eq!(r.buffered_bytes(), 0);
        prop_assert_eq!(r.stats().conflicting, 0, "consistent data must not conflict");
    }

    /// Conflicting overlaps match a per-byte reference model that applies
    /// the same policy decision per byte.
    #[test]
    fn stream_overlaps_match_reference_model(
        pushes in prop::collection::vec((0usize..64, 1usize..24, any::<u8>()), 1..24),
        policy in arb_policy(),
    ) {
        let mut r = TcpStreamReassembler::new(policy);
        r.on_syn(SeqNumber(0)); // stream starts at seq 1

        // Reference: bytes[i] = (value, writer_start) applied in order.
        // Bytes before the delivered edge are frozen — once the reassembler
        // has handed a byte to the matcher it cannot be rewritten, no matter
        // the policy (matching real stacks, where delivered data is gone).
        let mut model: Vec<Option<(u8, u64)>> = vec![None; 64 + 24];
        let mut delivered_upto = 0usize;
        let mut out = Vec::new();
        for &(start, len, fill) in &pushes {
            let data = vec![fill; len];
            r.push(SeqNumber(1 + start as u32), &data, |b| out.extend_from_slice(b));
            #[allow(clippy::needless_range_loop)]
            for i in start.max(delivered_upto)..start + len {
                match model[i] {
                    None => model[i] = Some((fill, start as u64)),
                    Some((_, old_start)) => {
                        if policy.new_wins(old_start, start as u64) {
                            model[i] = Some((fill, start as u64));
                        }
                    }
                }
            }
            while delivered_upto < model.len() && model[delivered_upto].is_some() {
                delivered_upto += 1;
            }
        }
        // Compare the delivered prefix (up to the first hole).
        let mut expected = Vec::new();
        for slot in &model {
            match slot {
                Some((b, _)) => expected.push(*b),
                None => break,
            }
        }
        prop_assert_eq!(out, expected, "policy {}", policy);
    }

    /// IP fragmentation: any fragment size and arrival order reassembles to
    /// the original datagram payload, with a valid header.
    #[test]
    fn defrag_roundtrip_any_order(
        payload in prop::collection::vec(any::<u8>(), 1..600),
        frag_units in 1usize..10, // fragment payloads are 8-byte units
        seed in any::<u64>(),
        policy in arb_policy(),
    ) {
        let pkt = TcpPacketSpec::new("10.0.0.1:1234", "10.0.0.2:80")
            .seq(7)
            .payload(&payload)
            .dont_frag(false)
            .build();
        let mut frags = fragment_ipv4(&pkt, frag_units * 8).unwrap();

        // Shuffle deterministically.
        let mut state = seed | 1;
        for i in (1..frags.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            frags.swap(i, j);
        }

        let mut d = Defragmenter::new(policy);
        let mut done = None;
        for (i, f) in frags.iter().enumerate() {
            let r = d.push_owned(f, i as u64).unwrap();
            if r.is_some() {
                prop_assert_eq!(i + 1, frags.len(), "completed before all fragments");
                done = r;
            }
        }
        let out = done.expect("datagram must complete");
        let ip = Ipv4Packet::new_checked(&out[..]).unwrap();
        prop_assert!(ip.verify_checksum());
        prop_assert_eq!(&out[..], &pkt[..], "reassembled datagram differs");
        prop_assert_eq!(d.context_count(), 0);
    }
}
