//! Property tests for the slow path's streaming matcher: full-signature
//! matching over reassembled slices must report exactly what a naive
//! search over the victim's application stream finds, whatever the
//! segmentation, urgent bytes or rule reloads.

use std::sync::Arc;

use proptest::prelude::*;
use sd_ips::stream::{StreamScanner, StreamTail};
use sd_ips::{ConventionalIps, Ips, Signature, SignatureSet};
use sd_match::{naive, PatternId};
use sd_packet::builder::TcpPacketSpec;
use sd_packet::tcp::TcpFlags;
use sd_traffic::victim::{receive_stream, VictimConfig};

/// Three letters, so occurrences (and near misses) are common.
fn letters(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], len)
}

fn signature_set(bytes: &[Vec<u8>]) -> SignatureSet {
    SignatureSet::from_signatures(
        bytes
            .iter()
            .enumerate()
            .map(|(i, b)| Signature::new(format!("s{i}"), b.clone())),
    )
}

/// `(signature, end)` of every occurrence in `hay`, in end order, ties by
/// id — the order alerts are compared in.
fn naive_alerts(sigs: &SignatureSet, hay: &[u8]) -> Vec<(usize, u64)> {
    naive::find_all(&sigs.to_patterns(), hay)
        .into_iter()
        .map(|m| (m.pattern as usize, m.end as u64))
        .collect()
}

/// Next step of the cut generator (Knuth's MMIX LCG).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn packet(seq: u32, flags: TcpFlags, urgent: u16, payload: &[u8]) -> Vec<u8> {
    TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
        .seq(seq)
        .flags(flags)
        .urgent(urgent)
        .payload(payload)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any cut of a haystack into slices reports what one slice does, and
    /// that is the naive search.
    #[test]
    fn streaming_is_chunking_invariant(
        pats in prop::collection::vec(letters(1..7), 1..8),
        hay in letters(0..200),
        cuts in prop::collection::vec(0usize..200, 0..8),
    ) {
        let sigs = signature_set(&pats);
        let scanner = StreamScanner::new(&sigs);
        let feed = |chunks: &[&[u8]]| {
            let (mut tail, mut junction) = (StreamTail::new(), Vec::new());
            let mut out: Vec<(PatternId, u64)> = Vec::new();
            for chunk in chunks {
                scanner.feed(&mut tail, chunk, &mut junction, |p, end| out.push((p, end)));
            }
            (out, tail.offset())
        };
        let (batch, _) = feed(&[&hay]);

        let mut boundaries: Vec<usize> = cuts.iter().map(|&c| c % (hay.len() + 1)).collect();
        boundaries.push(0);
        boundaries.push(hay.len());
        boundaries.sort_unstable();
        boundaries.dedup();
        let chunks: Vec<&[u8]> = boundaries.windows(2).map(|w| &hay[w[0]..w[1]]).collect();
        let (out, offset) = feed(&chunks);
        prop_assert_eq!(&out, &batch);
        prop_assert_eq!(offset, hay.len() as u64);

        let mut sorted: Vec<(usize, u64)> = batch.iter().map(|&(p, e)| (p as usize, e)).collect();
        sorted.sort_by_key(|&(p, e)| (e, p));
        prop_assert_eq!(sorted, naive_alerts(&sigs, &hay));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The slow path end to end. Signatures of 1–40 bytes, some of them
    /// prefixes or suffixes of others, are planted in a stream that is cut
    /// into segments of 1–24 bytes. Some segments carry an extra urgent
    /// byte the victim discards, and a rule reload may land on any segment
    /// boundary. The alerts, in order, are a naive search of the victim's
    /// application stream — under the old rules for occurrences ending
    /// before the reload, under the new ones after it — each once.
    #[test]
    fn slow_path_alerts_equal_naive_search_of_the_victim_stream(
        base in prop::collection::vec(letters(1..41), 1..5),
        derived in prop::collection::vec((any::<u8>(), 1usize..41, any::<bool>()), 0..3),
        noise in letters(0..300),
        plants in prop::collection::vec((any::<u8>(), 0usize..400), 1..4),
        cuts_seed in any::<u64>(),
        urgent in prop::collection::vec((any::<u8>(), any::<u8>()), 0..4),
        reload in any::<Option<u16>>(),
    ) {
        // Prefixes and suffixes of the base signatures join the set.
        let mut bytes = base.clone();
        for &(i, len, prefix) in &derived {
            let sig = &base[i as usize % base.len()];
            let len = len.min(sig.len());
            bytes.push(if prefix { sig[..len].to_vec() } else { sig[sig.len() - len..].to_vec() });
        }
        let sigs = signature_set(&bytes);
        let mut app = noise;
        for &(i, at) in &plants {
            let at = at.min(app.len());
            app.splice(at..at, bytes[i as usize % bytes.len()].iter().copied());
        }

        // Segments of 1–24 application bytes; a chosen few carry one more
        // byte on the wire, marked urgent, that the victim discards.
        let mut segments = Vec::new();
        let mut state = cuts_seed | 1;
        let mut at = 0;
        while at < app.len() {
            let end = (at + 1 + lcg(&mut state) as usize % 24).min(app.len());
            segments.push((&app[at..end], None));
            at = end;
        }
        for &(seg, pos) in &urgent {
            if let Some((data, urg)) = segments.get_mut(seg as usize % 64) {
                *urg = Some(pos as usize % (data.len() + 1));
            }
        }
        let mut packets = vec![packet(999, TcpFlags::SYN, 0, b"")];
        let mut seq = 1000u32;
        for &(data, urg) in &segments {
            let (flags, ptr, wire) = match urg {
                None => (TcpFlags::ACK, 0, data.to_vec()),
                Some(p) => {
                    let mut wire = data.to_vec();
                    wire.insert(p, b'a');
                    (TcpFlags::ACK.union(TcpFlags::URG), p as u16 + 1, wire)
                }
            };
            packets.push(packet(seq, flags, ptr, &wire));
            seq += wire.len() as u32;
        }
        let server = ("10.0.0.2".parse().unwrap(), 80);
        let victim = receive_stream(&packets, VictimConfig::default(), server);
        prop_assert_eq!(&victim, &app, "the victim reads the planted stream");

        // The reload retires one rule and renumbers the rest; no new
        // signature is longer than the tail the old rules kept.
        let fresh = {
            let keep = bytes.len().saturating_sub(1).max(1);
            signature_set(&bytes.iter().rev().take(keep).cloned().collect::<Vec<_>>())
        };
        let reload_at = reload.map(|r| 1 + r as usize % segments.len());
        let mut ips = ConventionalIps::new(sigs.clone());
        let mut alerts = Vec::new();
        for (i, pkt) in packets.iter().enumerate() {
            if reload_at == Some(i) {
                ips.install(Arc::new(StreamScanner::new(&fresh)));
            }
            ips.process_packet(pkt, i as u64, &mut alerts);
        }
        let mut got: Vec<(usize, u64)> = alerts.iter().map(|a| (a.signature, a.offset)).collect();
        prop_assert!(got.windows(2).all(|w| w[0].1 <= w[1].1), "end-offset order: {:?}", got);

        let want = match reload_at {
            None => naive_alerts(&sigs, &victim),
            Some(i) => {
                let swap = segments[..i - 1].iter().map(|(d, _)| d.len() as u64).sum::<u64>();
                let mut want: Vec<_> =
                    naive_alerts(&sigs, &victim).into_iter().filter(|a| a.1 <= swap).collect();
                want.extend(naive_alerts(&fresh, &victim).into_iter().filter(|a| a.1 > swap));
                want
            }
        };
        got.sort_by_key(|&(p, e)| (e, p));
        prop_assert_eq!(got, want);
    }
}
