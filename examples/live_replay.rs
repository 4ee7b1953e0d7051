//! Offered-load testing: replay a workload at increasing speed multipliers
//! until the engine stops keeping up — the software analogue of the
//! paper's "what line rate can this design sustain" question, answered by
//! bisection instead of a hardware testbed.
//!
//! Run with: `cargo run --release --example live_replay [flows] [shards] [batch]`
//!
//! With `shards > 1` the flow-sharded engine is driven instead of the
//! single instance; `batch` sets the dispatcher's per-shard batch size
//! (`shard_batch_packets`, default 64 — batch 1 reproduces the old
//! per-packet dispatch for comparison).

use split_detect::core::config::SplitDetectConfig;
use split_detect::core::{ShardedSplitDetect, SplitDetect, SplitDetectStats};
use split_detect::ips::{Ips, SignatureSet};
use split_detect::telemetry::{PipelineTelemetry, Stage};
use split_detect::traffic::benign::{BenignConfig, BenignGenerator};
use split_detect::traffic::replay::replay;

/// One compact telemetry line: the numbers a pipeline operator would
/// watch scroll by on a dashboard.
fn snapshot(stats: &SplitDetectStats, tel: &PipelineTelemetry) {
    let fast = tel.stage_latency(Stage::FastPath);
    println!(
        "  [telemetry] packets {:>7} | diverted flows {:>4} | slow-path pkts {:>6} \
         | fast-path p99 <= {} ns ({} samples)",
        stats.fast.packets,
        stats.divert.set_size,
        stats.packets_to_slow + stats.divert.shed_packets,
        fast.quantile_upper(0.99),
        fast.count
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut num =
        |default: usize| -> usize { args.next().and_then(|a| a.parse().ok()).unwrap_or(default) };
    let flows = num(100);
    let shards = num(1).max(1);
    let batch = num(64).max(1);

    let trace = BenignGenerator::new(BenignConfig {
        flows,
        seed: 12,
        ..Default::default()
    })
    .generate();
    let span_secs = trace
        .packets
        .last()
        .map_or(0.0, |p| p.ts_micros as f64 / 1e6);
    let gbits = trace.total_bytes() as f64 * 8.0 / 1e9;
    println!(
        "workload: {} packets, {:.2} Gbit over {:.2}s of trace time \
         ({:.2} Gbps as recorded)",
        trace.len(),
        gbits,
        span_secs,
        gbits / span_secs
    );
    if shards > 1 {
        println!("engine: {shards} shards, dispatch batch {batch} packets\n");
    } else {
        println!("engine: single instance\n");
    }

    let config = SplitDetectConfig {
        shard_batch_packets: batch,
        ..Default::default()
    };

    // Find the largest speed multiplier the engine sustains (max per-packet
    // lateness under 5 ms) by doubling then bisecting.
    // "Keeps up" = the replay finished within 10% (+2 ms scheduling slack)
    // of its scheduled duration; beyond that the engine is the bottleneck.
    let sustains = |speed: f64| {
        let mut engine: Box<dyn Ips> = if shards > 1 {
            Box::new(
                ShardedSplitDetect::new(SignatureSet::demo(), config, shards).expect("admissible"),
            )
        } else {
            Box::new(SplitDetect::with_config(SignatureSet::demo(), config).expect("admissible"))
        };
        let mut alerts = Vec::new();
        let report = replay(&trace, speed, |pkt, tick| {
            engine.process_packet(pkt, tick, &mut alerts)
        });
        engine.finish(&mut alerts);
        let ok = report.elapsed_secs <= report.target_secs * 1.10 + 0.002;
        println!(
            "  speed {speed:>7.0}x → offered {:>8.2} Gbps, took {:>7.1} ms (target {:>7.1})  {}",
            gbits / span_secs * speed,
            report.elapsed_secs * 1e3,
            report.target_secs * 1e3,
            if ok { "keeps up" } else { "FALLS BEHIND" }
        );
        ok
    };

    let mut lo = 1.0f64;
    let mut hi = 1.0f64;
    println!("doubling until the engine falls behind:");
    while sustains(hi) && hi < 65_536.0 {
        lo = hi;
        hi *= 2.0;
    }
    println!("\nbisecting between {lo:.0}x and {hi:.0}x:");
    for _ in 0..5 {
        let mid = (lo + hi) / 2.0;
        if sustains(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // One more run at the sustained multiplier, this time watching the
    // pipeline's own numbers: quarter-trace snapshots while the replay is
    // live (single engine — sharded stats live on the workers until
    // finish), and the shard-merged numbers at the end.
    println!("\nreplaying once more at {lo:.0}x with telemetry snapshots:");
    let every = (trace.len() / 4).max(1);
    let mut alerts = Vec::new();
    if shards > 1 {
        let mut engine =
            ShardedSplitDetect::new(SignatureSet::demo(), config, shards).expect("admissible");
        replay(&trace, lo, |pkt, tick| {
            engine.process_packet(pkt, tick, &mut alerts)
        });
        engine.finish(&mut alerts);
        let stats = SplitDetectStats::aggregate(&engine.stats()).expect("no shard died");
        snapshot(&stats, engine.telemetry().expect("finished"));
    } else {
        let mut engine =
            SplitDetect::with_config(SignatureSet::demo(), config).expect("admissible");
        let mut seen = 0usize;
        replay(&trace, lo, |pkt, tick| {
            engine.process_packet(pkt, tick, &mut alerts);
            seen += 1;
            if seen.is_multiple_of(every) {
                snapshot(&engine.stats(), engine.telemetry());
            }
        });
        engine.finish(&mut alerts);
        snapshot(&engine.stats(), engine.telemetry());
    }
    println!(
        "\nsustained offered load on this machine: ~{:.2} Gbps ({:.0}x trace speed).\n\
         The interesting number is the *ratio* to the conventional engine\n\
         (`cargo run -p sd-bench --release --bin experiments -- e6`), not the\n\
         absolute figure — the paper's 20 Gbps assumed line-card hardware.",
        gbits / span_secs * lo,
        lo
    );
}
