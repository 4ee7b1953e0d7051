//! Sequence-number wraparound through the full engine(s).
//!
//! The fast path's monotonicity rule compares raw `u32` next-seq state
//! (`fastpath.rs`, rule 2); every update must wrap modulo 2³². These tests
//! drive flows whose sequence space crosses `u32::MAX` through both the
//! single engine and the sharded engine: in-order delivery across the wrap
//! must not spuriously divert, and detection (including a signature
//! straddling the wrap point) must be identical on both sides of the wrap
//! and across engines.

use sd_ips::api::run_trace;
use sd_ips::{Alert, Signature, SignatureSet};
use sd_packet::builder::{ip_of_frame, TcpPacketSpec};
use sd_packet::tcp::TcpFlags;
use splitdetect::{ShardedSplitDetect, SplitDetect, SplitDetectConfig};

const SIG: &[u8] = b"EVIL_SIGNATURE_BYTES"; // 20 bytes

fn sigs() -> SignatureSet {
    SignatureSet::from_signatures([Signature::new("evil", SIG)])
}

fn syn(isn: u32, sport: u16) -> Vec<u8> {
    let f = TcpPacketSpec::new(&format!("10.0.0.1:{sport}"), "10.0.0.2:80")
        .seq(isn)
        .flags(TcpFlags::SYN)
        .build();
    ip_of_frame(&f).to_vec()
}

fn data(seq: u32, sport: u16, payload: &[u8]) -> Vec<u8> {
    let f = TcpPacketSpec::new(&format!("10.0.0.1:{sport}"), "10.0.0.2:80")
        .seq(seq)
        .flags(TcpFlags::ACK.union(TcpFlags::PSH))
        .payload(payload)
        .build();
    ip_of_frame(&f).to_vec()
}

/// An in-order stream whose payload crosses `u32::MAX`, cut into `seg`-byte
/// segments. Data starts at `isn + 1`.
fn wrapping_stream(isn: u32, sport: u16, payload: &[u8], seg: usize) -> Vec<Vec<u8>> {
    let mut packets = vec![syn(isn, sport)];
    let start = isn.wrapping_add(1);
    let mut at = 0usize;
    while at < payload.len() {
        let end = (at + seg).min(payload.len());
        packets.push(data(
            start.wrapping_add(at as u32),
            sport,
            &payload[at..end],
        ));
        at = end;
    }
    packets
}

fn alert_digest(alerts: &[Alert]) -> Vec<(sd_flow::FlowKey, usize)> {
    let mut v: Vec<_> = alerts.iter().map(|a| (a.flow, a.signature)).collect();
    v.sort();
    v
}

#[test]
fn benign_flow_across_wrap_does_not_divert() {
    // 4 KiB of benign data straddling u32::MAX, MSS-ish segments: the
    // monotonicity rule must keep matching `expected` across the wrap.
    let payload = vec![b'a'; 4096];
    let isn = u32::MAX - 1000; // wrap lands mid-stream
    let packets = wrapping_stream(isn, 4000, &payload, 1024);

    let mut sd = SplitDetect::new(sigs()).unwrap();
    let alerts = run_trace(&mut sd, packets.iter().map(|p| p.as_slice()));
    assert!(alerts.is_empty(), "benign stream must not alert");
    let stats = sd.stats();
    assert_eq!(
        stats.fast.out_of_order, 0,
        "in-order delivery across the wrap must not look out of order"
    );
    assert_eq!(
        stats.divert.flows_diverted, 0,
        "no diversion for benign in-order data"
    );
}

#[test]
fn signature_straddling_wrap_is_detected_whole() {
    // The signature bytes cross u32::MAX inside one segment — the piece
    // scan sees it whole regardless of sequence arithmetic.
    let mut payload = vec![b'.'; 500];
    payload.extend_from_slice(SIG);
    payload.extend_from_slice(&[b'.'; 500]);
    // Data starts at isn+1; put the wrap in the middle of the signature.
    let isn = u32::MAX.wrapping_sub(510);
    let packets = wrapping_stream(isn, 4001, &payload, 1460);

    let mut sd = SplitDetect::new(sigs()).unwrap();
    let alerts = run_trace(&mut sd, packets.iter().map(|p| p.as_slice()));
    assert!(
        alerts.iter().any(|a| a.signature == 0),
        "whole-signature segment missed"
    );
}

#[test]
fn evasive_segmentation_across_wrap_is_detected() {
    // Tiny segments chop every signature piece while the stream crosses
    // the wrap: the small-segment rule must fire exactly as it does far
    // from the wrap point.
    let mut payload = vec![b'.'; 100];
    payload.extend_from_slice(SIG);
    payload.extend_from_slice(&[b'.'; 60]);
    let isn = u32::MAX.wrapping_sub(110); // wrap inside the signature bytes
    let packets = wrapping_stream(isn, 4002, &payload, 4);

    let mut sd = SplitDetect::new(sigs()).unwrap();
    let alerts = run_trace(&mut sd, packets.iter().map(|p| p.as_slice()));
    assert!(
        alerts.iter().any(|a| a.signature == 0),
        "tiny-segment evasion across the wrap missed"
    );
}

#[test]
fn detection_parity_across_wrap_and_engines() {
    // The same mixed set of flows — benign + whole-signature + tiny-segment
    // evasion, all crossing u32::MAX — through the single engine and the
    // sharded engine at several batch sizes: alert sets must be identical,
    // and relocating the streams far from the wrap must not change them.
    let mk_packets = |isn_base: u32| -> Vec<Vec<u8>> {
        let benign = vec![b'b'; 2000];
        let mut evil = vec![b'.'; 300];
        evil.extend_from_slice(SIG);
        evil.extend_from_slice(&[b'.'; 100]);

        let mut packets = Vec::new();
        packets.extend(wrapping_stream(isn_base, 5000, &benign, 512));
        packets.extend(wrapping_stream(isn_base.wrapping_add(7), 5001, &evil, 1460));
        packets.extend(wrapping_stream(isn_base.wrapping_add(13), 5002, &evil, 4));
        packets
    };

    let digest_single = |packets: &[Vec<u8>]| {
        let mut sd = SplitDetect::new(sigs()).unwrap();
        alert_digest(&run_trace(&mut sd, packets.iter().map(|p| p.as_slice())))
    };

    // Streams crossing the wrap vs far from it: same verdicts per flow.
    let wrap_packets = mk_packets(u32::MAX - 700);
    let mid_packets = mk_packets(1000);
    let wrap_digest = digest_single(&wrap_packets);
    let mid_digest = digest_single(&mid_packets);
    assert_eq!(
        wrap_digest.len(),
        mid_digest.len(),
        "crossing u32::MAX changed how many flows alert"
    );
    assert_eq!(
        wrap_digest.len(),
        2,
        "both signature flows detected, benign clean"
    );

    // Sharded engine: byte-identical alert sets.
    for shards in [2usize, 4] {
        let mut engine =
            ShardedSplitDetect::new(sigs(), SplitDetectConfig::default(), shards).unwrap();
        let alerts = run_trace(&mut engine, wrap_packets.iter().map(|p| p.as_slice()));
        assert_eq!(
            alert_digest(&alerts),
            wrap_digest,
            "sharded ({shards} shards) differs from single engine"
        );
    }
}
