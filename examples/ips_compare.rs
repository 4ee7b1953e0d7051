//! State and processing comparison on benign traffic — the cost side of
//! the paper's argument, interactively.
//!
//! Pushes an identical benign workload through the conventional
//! reassembling IPS and Split-Detect and prints where the bytes and the
//! state went.
//!
//! Run with: `cargo run --release --example ips_compare [flows]`

use split_detect::core::SplitDetect;
use split_detect::ips::{ConventionalIps, Ips, SignatureSet};
use split_detect::traffic::benign::{BenignConfig, BenignGenerator};

fn main() {
    let flows: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200);

    // Concurrent sessions: all `flows` connections open at once — this is
    // the sizing point the paper argues about ("state for 1 M
    // connections"), scaled to laptop size. Both engines are provisioned
    // for the same concurrency.
    println!("generating workload: {flows} concurrent sessions...");
    let mut gen = BenignGenerator::new(BenignConfig {
        seed: 7,
        ..Default::default()
    });
    let trace = gen.generate_concurrent(flows, 32 * 1024);
    println!(
        "  {} packets, {:.1} MB, {} flows\n",
        trace.len(),
        trace.total_bytes() as f64 / 1e6,
        trace.flow_count()
    );

    let sigs = SignatureSet::demo;

    let mut conv = ConventionalIps::new(sigs());
    let mut out = Vec::new();
    for (tick, pkt) in trace.iter_bytes().enumerate() {
        conv.process_packet(pkt, tick as u64, &mut out);
    }
    let conv_res = conv.resources();

    let sd_config = split_detect::core::SplitDetectConfig {
        flow_table_capacity: flows * 2, // 50% occupancy headroom
        ..Default::default()
    };
    let mut sd =
        SplitDetect::with_config(sigs(), sd_config).expect("demo signatures are admissible");
    for (tick, pkt) in trace.iter_bytes().enumerate() {
        sd.process_packet(pkt, tick as u64, &mut out);
    }
    let sd_res = sd.resources();
    let sd_stats = sd.stats();

    assert!(out.is_empty(), "benign trace must not alert");

    println!(
        "{:<34} {:>16} {:>16} {:>8}",
        "metric", "conventional", "split-detect", "ratio"
    );
    println!("{}", "-".repeat(78));
    let row = |name: &str, conv: u64, sd: u64| {
        let ratio = if conv == 0 {
            "-".to_string()
        } else {
            format!("{:.1}%", sd as f64 / conv as f64 * 100.0)
        };
        println!("{name:<34} {conv:>16} {sd:>16} {ratio:>8}");
    };
    // Per-connection state is the axis that scales with concurrency — the
    // paper's "state for 1 M connections". The delay line and automata are
    // fixed shared structures a line card provisions once.
    row(
        "per-connection state (bytes)",
        conv_res.state_bytes_peak,
        sd_stats.fast_state_bytes,
    );
    row(
        "bytes scanned by matcher",
        conv_res.bytes_scanned,
        sd_res.bytes_scanned,
    );
    row(
        "bytes copied into buffers",
        conv_res.bytes_buffered_total,
        sd_res.bytes_buffered_total,
    );
    println!(
        "{:<34} {:>16} {:>16}",
        "shared delay line (bytes)", "-", sd_stats.divert_state_bytes
    );
    // Both engines build the same tiered automaton over whole signatures
    // (Split-Detect's slow path is a `ConventionalIps`); Split-Detect adds
    // one over the pieces.
    println!(
        "{:<34} {:>16} {:>16}",
        "signature automaton (bytes)",
        conv.automaton_bytes(),
        conv.automaton_bytes()
    );
    println!(
        "{:<34} {:>16} {:>16}",
        "piece automaton (bytes)", "-", sd_stats.automaton_bytes
    );

    println!(
        "\nsplit-detect internals: {:.2}% of flows diverted, {:.2}% of packets and \
         {:.2}% of bytes re-examined on the slow path",
        sd_stats.diverted_flow_fraction() * 100.0,
        sd_stats.slow_packet_fraction() * 100.0,
        sd_stats.slow_byte_fraction() * 100.0,
    );
    println!(
        "divert reasons: piece={} small={} out-of-order={} fragment={}",
        sd_stats.diverts_by(split_detect::core::fastpath::DivertReason::PieceMatch),
        sd_stats.diverts_by(split_detect::core::fastpath::DivertReason::SmallSegments),
        sd_stats.diverts_by(split_detect::core::fastpath::DivertReason::OutOfOrder),
        sd_stats.diverts_by(split_detect::core::fastpath::DivertReason::Fragment),
    );
}
