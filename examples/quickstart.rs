//! Quickstart: build a Split-Detect engine, throw an evasion at it, watch
//! the fast path divert and the slow path confirm.
//!
//! Run with: `cargo run --example quickstart`

use split_detect::core::{SplitDetect, SplitDetectConfig, EROSION_FAMILIES};
use split_detect::ips::api::run_trace;
use split_detect::ips::{Signature, SignatureSet};
use split_detect::telemetry::to_text;
use split_detect::traffic::evasion::{generate, AttackSpec, EvasionStrategy};
use split_detect::traffic::victim::VictimConfig;

fn main() {
    // 1. Signatures: the exact byte strings the IPS must find in any TCP
    //    stream. (Real deployments load hundreds; one is enough here.)
    let sigs = SignatureSet::from_signatures([Signature::new(
        "example-exploit",
        &b"/bin/sh -c 'cat /etc/passwd'"[..],
    )]);

    // 2. The engine. Parameters are validated against the theorem's
    //    admissible region at construction; defaults are admissible.
    let config = SplitDetectConfig::default();
    let mut engine = SplitDetect::with_config(sigs, config).expect("admissible config");
    println!(
        "engine ready: {} pieces/signature, small-segment cutoff {} bytes",
        engine.plan().pieces_per_signature(),
        engine.config().small_segment_cutoff.map_or_else(
            || format!("auto ({})", 2 * engine.plan().max_piece_len() - 1),
            |c| c.to_string()
        ),
    );

    // 3. An attacker tries the classic FragRoute trick: tiny TCP segments
    //    so the signature never appears whole in any packet.
    let spec = AttackSpec::simple(&b"/bin/sh -c 'cat /etc/passwd'"[..]);
    let packets = generate(
        &spec,
        EvasionStrategy::TinySegments { size: 4 },
        VictimConfig::default(),
        42,
    );
    println!(
        "attacker sends {} packets, none containing the signature",
        packets.len()
    );

    // 4. Run the trace.
    let alerts = run_trace(&mut engine, packets.iter().map(|p| p.as_slice()));
    for alert in &alerts {
        println!("  {alert}");
    }
    assert!(!alerts.is_empty(), "the theorem says this cannot be missed");

    // 5. What it cost: how many flows diverted and how much of the
    //    traffic the slow path re-examined, from the engine's metrics
    //    registry (the numbers `sd scan` prints and `sd serve` scrapes).
    let report = to_text(&engine.metrics(), &EROSION_FAMILIES);
    let shown = [
        "sd_flows_seen_total",
        "sd_flows_diverted_total",
        "sd_diverts_total",
        "sd_slowpath_packets_total",
        "sd_fastpath_state_bytes",
        "sd_slowpath_state_peak_bytes",
    ];
    for line in report.lines() {
        if shown.iter().any(|family| line.starts_with(family)) {
            println!("{line}");
        }
    }
}
