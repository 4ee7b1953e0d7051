//! The traced run: where a packet's time goes, layer by layer.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions (in-program tracing is a later issue). Two replays of the
//! same packets produce the spans:
//!
//! * the **engine replay** drives `FastPath`, `DiversionManager` and
//!   `ConventionalIps` in exactly the order `SplitDetect::process_packet`
//!   does, with a root span per packet and a child span around each call;
//! * the **layer replay** copies each packet as the source would and then
//!   calls `parse_ipv4`, the key hash, `FlowTable::get_or_insert_with`
//!   and `SplitPlan::scan` on it, one span each. These calls happen
//!   *inside* `classify_full` in the real engine, where no outside span can
//!   reach; the replay prices them, and `fastpath.self_ns` is classify
//!   minus the ones the fast path actually executed for that packet.
//!
//! Whole-engine passes without spans (the bare `SplitDetect` loop, the
//! daemon loop, telemetry off, the conventional comparator, a slow-path
//! pool of one, one shard) give the totals the spans are checked against:
//! `engine.residual_ns` is what the real engine spends beyond the sum of
//! the layers' self times, reported rather than hidden.

use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

use sd_flow::hash::hash_key_seeded;
use sd_flow::{Direction, FlowKey, FlowTable};
use sd_ips::api::run_trace;
use sd_ips::conventional::{ConventionalConfig, ConventionalIps};
use sd_ips::{Alert, Ips, SignatureSet};
use sd_lab::json::Value;
use sd_packet::checksum::verify_transport;
use sd_packet::ipv4::Ipv4Packet;
use sd_packet::parse::{parse_ipv4, Transport};
use splitdetect::divert::DiversionManager;
use splitdetect::fastpath::{DivertReason, FastPath, FastPathParams, FlowState, Verdict};
use splitdetect::{ShardDispatchStats, ShardedSplitDetect, SplitDetectConfig, SplitPlan};

use crate::e2e::{
    build_engine, failed_packets, gap_percentile, load_signatures, serve_pass, state_bytes,
    verdicts, wrong_verdict_packets,
};
use crate::report::{Metric, RunOutput};
use crate::span::{Layer, NoProbe, Probe, Tracer};
use crate::workload::Workload;

/// Where the span records of the last traced run of each workload go,
/// relative to the checkout root the benchmark is run from.
pub const TRACE_DIR: &str = "benchmark/out";

fn conventional_config(config: &SplitDetectConfig) -> ConventionalConfig {
    ConventionalConfig {
        policy: config.slow_path_policy,
        max_connections: config.slow_path_max_connections,
        urgent: config.slow_path_urgent,
    }
}

/// `SplitDetect`'s data path rebuilt from its public parts, so that a span
/// can sit around each call. Same construction as `SplitDetect::build`.
struct Composed {
    fast: FastPath,
    divert: DiversionManager,
    slow: ConventionalIps,
}

/// What the engine replay learned about each packet, for the layer replay.
#[derive(Default)]
struct ReplayOutcome {
    alerts: Vec<Alert>,
    /// Packet short-circuited at the sticky diverted set: the fast path
    /// parsed it and did nothing else.
    already_diverted: Vec<bool>,
    /// Packet was handed to the slow path live (diverting or diverted).
    to_slow: Vec<bool>,
    recorded_bytes: u64,
    secs: f64,
}

impl Composed {
    fn new(
        plan: SplitPlan,
        sigs: SignatureSet,
        config: &SplitDetectConfig,
    ) -> Result<Self, String> {
        let cutoff = config.validate(&sigs).map_err(|e| e.to_string())?;
        let fast = FastPath::new(
            plan,
            FastPathParams {
                cutoff,
                budget: config.small_segment_budget,
                divert_on_out_of_order: config.divert_on_out_of_order,
                divert_on_fragments: config.divert_on_fragments,
                divert_on_urgent: config.divert_on_urgent,
                table_capacity: config.flow_table_capacity,
                hash_seed: config.flow_hash_seed.unwrap_or(0),
                small_counter: config.small_counter,
            },
        );
        Ok(Composed {
            fast,
            divert: DiversionManager::with_policy(
                config.delay_line_packets,
                config.max_diverted_flows,
                config.divert_eviction,
            ),
            slow: ConventionalIps::with_config(sigs, conventional_config(config)),
        })
    }

    /// Replay the trace, mirroring `SplitDetect::process_packet`.
    fn replay<P: Probe>(mut self, w: &Workload, probe: &mut P) -> ReplayOutcome {
        let n = w.packets.len();
        let mut out = ReplayOutcome {
            already_diverted: vec![false; n],
            to_slow: vec![false; n],
            ..Default::default()
        };
        let Composed { fast, divert, slow } = &mut self;
        let alerts = &mut out.alerts;
        let start = Instant::now();
        for (i, p) in w.packets.iter().enumerate() {
            let packet = p.data.as_slice();
            let tick = i as u64;
            probe.packet(i as u32);
            probe.span(Layer::Packet, |probe| {
                let (c, _) = probe.span(Layer::Classify, |_| {
                    fast.classify_full(packet, |k| divert.is_diverted(k))
                });
                match c.verdict {
                    Verdict::Benign | Verdict::NonFlow => {
                        if let (Some(key), true) = (c.key, c.keep) {
                            probe.span(Layer::Record, |_| divert.record(key, packet));
                            out.recorded_bytes += packet.len() as u64;
                        }
                    }
                    Verdict::AlreadyDiverted => {
                        out.already_diverted[i] = true;
                        out.to_slow[i] = true;
                        probe.span(Layer::Slow, |_| slow.process_packet(packet, tick, alerts));
                    }
                    Verdict::Divert(_) => {
                        out.to_slow[i] = true;
                        let key = c.key.expect("divert verdicts carry a key");
                        let (history, _) = probe.span(Layer::Replay, |_| divert.divert(key));
                        for old in &history {
                            probe.span(Layer::Slow, |_| slow.process_packet(old, tick, alerts));
                        }
                        probe.span(Layer::Slow, |_| slow.process_packet(packet, tick, alerts));
                    }
                    Verdict::Drop => {}
                }
            });
        }
        slow.finish(alerts);
        out.secs = start.elapsed().as_secs_f64();
        out
    }
}

/// Per-packet prices from the layer replay, and what it counted.
#[derive(Default)]
struct LayerReplay {
    /// Σ lookup time over the packets the fast path really looks up
    /// (it short-circuits on already-diverted flows and on fragments).
    executed_lookup_ns: u64,
    /// Σ scan time over the packets the fast path really scans.
    executed_scan_ns: u64,
    scanned_bytes: u64,
    scans: u64,
    piece_hits: u64,
    evictions: u64,
    /// Mean table occupancy over the run, sampled every 4096 packets.
    occupancy: f64,
}

/// Stand-in for the fast path's private per-flow value: same size and
/// alignment, so the replayed table has the real table's slot layout and
/// cache footprint. It tracks the one thing that changes which keys are
/// live — FINs seen per direction — so that the replay reclaims slots when
/// the fast path does (RST, or FIN in both directions).
#[derive(Clone, Copy, Default)]
struct ReplayState {
    _next_seq: [u32; 2],
    _small_count: [u8; 2],
    fins: u8,
}

const _: () = assert!(std::mem::size_of::<ReplayState>() == FlowState::STATE_BYTES);

/// Copy, parse, hash, look up and scan every packet, one span per call,
/// on a flow table of the workload's capacity and seed.
fn layer_replay(
    w: &Workload,
    plan: &SplitPlan,
    engine: &ReplayOutcome,
    tracer: &mut Tracer,
) -> LayerReplay {
    let seed = w.config.flow_hash_seed.unwrap_or(0);
    let mut table: FlowTable<ReplayState> =
        FlowTable::with_seed(w.config.flow_table_capacity, seed);
    let mut buf: Vec<u8> = Vec::new();
    let mut r = LayerReplay::default();
    let mut occupancy_samples = 0u64;
    for (i, p) in w.packets.iter().enumerate() {
        if i % 4096 == 0 {
            r.occupancy += table.len() as f64 / table.capacity() as f64;
            occupancy_samples += 1;
        }
        tracer.packet(i as u32);
        tracer.span(Layer::SourceCopy, |_| {
            buf.clear();
            buf.extend_from_slice(&p.data);
        });
        let (parsed, _) = tracer.span(Layer::Parse, |_| parse_ipv4(black_box(&buf)));
        let Ok(parsed) = parsed else { continue };

        if engine.to_slow[i] {
            // What checksum verification costs on the packets that take
            // the slow path (the conventional engine verifies inside its
            // normalizer, where no outside span reaches).
            if let (Some(ip), Transport::Tcp(_) | Transport::Udp(_)) =
                (&parsed.ipv4, &parsed.transport)
            {
                let proto = if matches!(parsed.transport, Transport::Tcp(_)) {
                    6
                } else {
                    17
                };
                let datagram = Ipv4Packet::new_unchecked(buf.as_slice());
                tracer.span(Layer::Checksum, |_| {
                    black_box(verify_transport(ip.src, ip.dst, proto, datagram.payload()))
                });
            }
        }

        // Fragments and non-flows are never looked up or scanned.
        let (payload, fin, rst) = match &parsed.transport {
            Transport::Tcp(t) => (t.payload, t.repr.flags.fin(), t.repr.flags.rst()),
            Transport::Udp(u) => (u.payload, false, false),
            _ => continue,
        };
        let Some((key, dir)) = FlowKey::from_parsed(&parsed) else {
            continue;
        };
        tracer.span(Layer::KeyHash, |_| black_box(hash_key_seeded(seed, &key)));
        let (fins, lookup_ns) = tracer.span(Layer::Lookup, |_| {
            let (state, _) = table.get_or_insert_with(&key, ReplayState::default);
            if fin {
                state.fins |= match dir {
                    Direction::Forward => 0b01,
                    Direction::Backward => 0b10,
                };
            }
            state.fins
        });
        let (hit, scan_ns) = tracer.span(Layer::Scan, |_| plan.scan(black_box(payload)));
        r.scans += 1;
        r.scanned_bytes += payload.len() as u64;
        r.piece_hits += u64::from(hit.is_some());
        if !engine.already_diverted[i] {
            r.executed_lookup_ns += lookup_ns;
            r.executed_scan_ns += scan_ns;
            // The fast path never sees a diverted flow's teardown, so its
            // slot is reclaimed only by eviction; mirror that too.
            if rst || fins == 0b11 {
                table.remove(&key);
            }
        }
    }
    r.evictions = table.stats().evictions;
    r.occupancy /= occupancy_samples.max(1) as f64;
    r
}

/// Wall time of `engine` over the whole trace, finish included.
fn time_engine(engine: &mut dyn Ips, w: &Workload) -> (Vec<Alert>, f64) {
    let start = Instant::now();
    let alerts = run_trace(engine, w.packets.iter().map(|p| p.data.as_slice()));
    (alerts, start.elapsed().as_secs_f64())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Run the per-layer measurement of `w`. The sampled span records are
/// written to `trace_dir` when one is given.
pub fn run(w: &Workload, seed: u64, trace_dir: Option<&str>) -> Result<RunOutput, String> {
    let n = w.packets.len() as f64;
    let offered = w.packets.len() as u64;
    let mut messages = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // The real engine, bare loop: the total the layers must add up to, and
    // the reference verdicts.
    let (mut bare, _) = build_engine(&w.rules_text, w.config)?;
    let (bare_alerts, engine_secs) = time_engine(&mut bare, w);
    let reference = verdicts(&bare_alerts);
    let stats = bare.stats();
    let sd_usage = bare.resources();
    attempted += offered;
    failed += failed_packets(
        w,
        "bare loop",
        offered,
        &stats,
        &reference,
        None,
        &mut messages,
    );
    drop(bare);

    // The real daemon loop, untraced.
    let (engine, _) = build_engine(&w.rules_text, w.config)?;
    let (served, serve_failed) = serve_pass(w, engine, "serve", &reference, &mut messages)?;
    attempted += offered;
    failed += serve_failed;

    // Telemetry's sampled stage timing, by its absence.
    let (mut quiet, _) = build_engine(
        &w.rules_text,
        SplitDetectConfig {
            stage_timing_sample_shift: None,
            ..w.config
        },
    )?;
    let (_, quiet_secs) = time_engine(&mut quiet, w);
    drop(quiet);

    // The engine replay, traced and untraced, on one compiled plan.
    let sigs = load_signatures(&w.rules_text)?;
    let plan = SplitPlan::compile(&sigs, &w.config).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new();
    let traced = Composed::new(plan.clone(), sigs.clone(), &w.config)?.replay(w, &mut tracer);
    let untraced = Composed::new(plan.clone(), sigs.clone(), &w.config)?.replay(w, &mut NoProbe);
    attempted += offered;
    failed += wrong_verdict_packets(
        w,
        "engine replay",
        &verdicts(&traced.alerts),
        Some(&reference),
        &mut messages,
    );
    let layers = layer_replay(w, &plan, &traced, &mut tracer);

    // The fixed comparator: a reassembling IPS provisioned for the whole
    // link (its default 2^20 connections), not for the diverted share the
    // slow path inside Split-Detect is sized for.
    let mut conventional = ConventionalIps::with_config(
        sigs.clone(),
        ConventionalConfig {
            max_connections: sd_ips::conventional::DEFAULT_MAX_CONNECTIONS,
            ..conventional_config(&w.config)
        },
    );
    let (conv_alerts, conv_secs) = time_engine(&mut conventional, w);
    let conv_usage = conventional.resources();
    drop(conventional);
    let conv_verdicts = verdicts(&conv_alerts);
    let mut notes = Vec::new();
    if conv_verdicts != reference {
        notes.push(format!(
            "note: conventional comparator verdicts differ from Split-Detect's ({} vs {})",
            conv_verdicts.len(),
            reference.len()
        ));
    }

    // A slow-path pool of one worker: does pooling still lose to inline?
    let (mut pooled, _) = build_engine(
        &w.rules_text,
        SplitDetectConfig {
            slow_path_workers: 1,
            ..w.config
        },
    )?;
    let start = Instant::now();
    let mut pool_alerts = Vec::new();
    for (i, p) in w.packets.iter().enumerate() {
        pooled.process_packet(&p.data, i as u64, &mut pool_alerts);
        if i % 1024 == 1023 {
            pooled.poll(&mut pool_alerts);
        }
    }
    pooled.finish(&mut pool_alerts);
    let pool_secs = start.elapsed().as_secs_f64();
    let pool_shed = pooled.stats().divert.shed_packets;
    drop(pooled);

    // One shard: dispatcher + one worker, batch 64.
    let mut sharded = ShardedSplitDetect::new(sigs, w.config, 1).map_err(|e| e.to_string())?;
    let mut shard_alerts = Vec::new();
    let start = Instant::now();
    for (i, p) in w.packets.iter().enumerate() {
        sharded.process_packet(&p.data, i as u64, &mut shard_alerts);
    }
    let dispatch_secs = start.elapsed().as_secs_f64();
    sharded.finish(&mut shard_alerts);
    let shard_secs = start.elapsed().as_secs_f64();
    let dispatch = ShardDispatchStats::aggregate(&sharded.dispatch_stats());
    if dispatch.packets_dropped > 0 || !sharded.failures().is_empty() {
        notes.push(format!(
            "note: shard lane dropped {} packet(s), {} failure(s)",
            dispatch.packets_dropped,
            sharded.failures().len()
        ));
    }
    drop(sharded);

    // The budget.
    let engine_ns = engine_secs * 1e9 / n;
    let t = |l: Layer| tracer.layer(l);
    let classify_total = t(Layer::Classify).total_ns as f64;
    let attributed_total = classify_total
        + (t(Layer::Record).total_ns + t(Layer::Replay).total_ns + t(Layer::Slow).total_ns) as f64;
    // The fast path parses every packet; lookups and scans only where the
    // replay saw it make them.
    let parse_total = t(Layer::Parse).total_ns as f64;
    let fast_self_total =
        classify_total - parse_total - (layers.executed_lookup_ns + layers.executed_scan_ns) as f64;
    let diverts = |r: DivertReason| stats.diverts_by(r) as f64;

    let budget = [
        ("packet.parse", parse_total),
        ("flow.lookup", layers.executed_lookup_ns as f64),
        ("match.scan", layers.executed_scan_ns as f64),
        ("fastpath.self", fast_self_total),
        ("divert.record", t(Layer::Record).total_ns as f64),
        ("divert.replay", t(Layer::Replay).total_ns as f64),
        ("slowpath", t(Layer::Slow).total_ns as f64),
    ];
    notes.push(format!(
        "budget per packet (self ns × calls ÷ packets) against engine.ns = {engine_ns:.0}:"
    ));
    for (name, total) in budget {
        notes.push(format!(
            "  {name:<16} {:>9.1} ns  {:>5.1} %",
            total / n,
            100.0 * ratio(total, engine_secs * 1e9)
        ));
    }
    let dominant = budget
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("the budget has rows");
    notes.push(format!("dominant layer: {}", dominant.0));
    for l in [Layer::Lookup, Layer::Scan, Layer::Classify, Layer::Slow] {
        notes.push(format!(
            "  span {:<20} calls {:>9}  mean {:>8.1} ns  p50 {:>6}  p99 {:>7}",
            l.name(),
            t(l).calls,
            t(l).mean_ns(),
            t(l).hist.percentile(50.0),
            t(l).hist.percentile(99.0)
        ));
    }

    let metrics = vec![
        Metric::exact("packet.parse_ns", t(Layer::Parse).mean_ns()),
        Metric::exact("packet.checksum_ns", t(Layer::Checksum).mean_ns()),
        Metric::exact("flow.key_hash_ns", t(Layer::KeyHash).mean_ns()),
        Metric::exact("flow.lookup_ns", t(Layer::Lookup).mean_ns()),
        Metric::exact("flow.evictions", layers.evictions as f64),
        Metric::exact("flow.occupancy_share", layers.occupancy),
        Metric::exact("match.scan_ns", t(Layer::Scan).mean_ns()),
        Metric::exact(
            "match.scan_mib_s",
            ratio(
                layers.scanned_bytes as f64 / (1024.0 * 1024.0),
                t(Layer::Scan).total_ns as f64 / 1e9,
            ),
        ),
        Metric::exact(
            "match.piece_hit_share",
            ratio(layers.piece_hits as f64, layers.scans as f64),
        ),
        Metric::exact("match.build_s", plan.build_time().as_secs_f64()),
        Metric::exact("match.automaton_bytes", plan.memory_bytes() as f64),
        Metric::exact("fastpath.classify_ns", t(Layer::Classify).mean_ns()),
        Metric::exact("fastpath.self_ns", fast_self_total / n),
        Metric::exact(
            "fastpath.divert_share",
            traced.to_slow.iter().filter(|&&slow| slow).count() as f64 / n,
        ),
        Metric::exact("fastpath.diverts.piece", diverts(DivertReason::PieceMatch)),
        Metric::exact(
            "fastpath.diverts.small",
            diverts(DivertReason::SmallSegments),
        ),
        Metric::exact("fastpath.diverts.ooo", diverts(DivertReason::OutOfOrder)),
        Metric::exact("fastpath.diverts.frag", diverts(DivertReason::Fragment)),
        Metric::exact("fastpath.diverts.urg", diverts(DivertReason::Urgent)),
        Metric::exact("divert.record_ns", t(Layer::Record).mean_ns()),
        Metric::exact("divert.record_bytes", traced.recorded_bytes as f64),
        Metric::exact("divert.replay_ns", t(Layer::Replay).mean_ns()),
        Metric::exact("divert.replay_pkts", stats.divert.replayed_packets as f64),
        Metric::exact("divert.evictions", stats.divert.set_evictions as f64),
        Metric::exact("slowpath.pkt_share", stats.slow_packet_fraction()),
        Metric::exact("slowpath.byte_share", stats.slow_byte_fraction()),
        Metric::exact("slowpath.ns", t(Layer::Slow).mean_ns()),
        Metric::exact(
            "reassembly.buffered_bytes",
            sd_usage.bytes_buffered_total as f64,
        ),
        Metric::exact("slowpath.pool1_pps", n / pool_secs),
        Metric::exact("slowpath.pool1_shed", pool_shed as f64),
        Metric::exact("ips.conventional_pps", n / conv_secs),
        Metric::exact("ips.sd_over_conventional", engine_secs / conv_secs),
        Metric::exact(
            "ips.buffered_ratio",
            ratio(
                sd_usage.bytes_buffered_total as f64,
                conv_usage.bytes_buffered_total as f64,
            ),
        ),
        Metric::exact(
            "ips.state_ratio",
            ratio(
                state_bytes(&stats) as f64,
                conv_usage.state_bytes_peak as f64,
            ),
        ),
        Metric::exact("engine.ns", engine_ns),
        Metric::exact(
            "engine.attributed_share",
            ratio(attributed_total, engine_secs * 1e9),
        ),
        Metric::exact("engine.residual_ns", engine_ns - attributed_total / n),
        Metric::exact("serve.loop_ns", (served.secs - engine_secs) * 1e9 / n),
        Metric::exact("pkt_p50_ns", gap_percentile(&served.gaps_ns, 50.0)),
        Metric::exact("source.copy_ns", t(Layer::SourceCopy).mean_ns()),
        Metric::exact(
            "telemetry.stage_timing_ns",
            (engine_secs - quiet_secs) * 1e9 / n,
        ),
        Metric::exact("shard.dispatch_ns", dispatch_secs * 1e9 / n),
        Metric::exact("shard.pps_1", n / shard_secs),
        Metric::exact("shard.batch_fill", dispatch.mean_batch_fill()),
        Metric::exact(
            "trace.overhead_share",
            ratio(traced.secs - untraced.secs, untraced.secs),
        ),
        Metric::exact("trace.span_cost_ns", tracer.span_cost_ns() as f64),
        Metric::exact("gen_s", w.gen_s),
        Metric::exact("workload.mean_pkt_bytes", w.fingerprint.bytes as f64 / n),
    ];

    if let Some(dir) = trace_dir {
        match write_trace(dir, w, seed, &tracer) {
            Ok(path) => notes.push(format!(
                "{} span records of the 1-in-256 packet sample written to {path}",
                tracer.records.len()
            )),
            Err(e) => notes.push(format!("note: span records not written: {e}")),
        }
    }

    Ok(RunOutput {
        workload: w.name,
        seed,
        traced: true,
        fingerprint: w.fingerprint,
        gen_s: w.gen_s,
        attempted,
        failed,
        messages,
        metrics,
        notes,
    })
}

/// The in-memory spans as JSON lines: a header, one line of totals and
/// histogram per layer, then one line per sampled span.
fn trace_lines(w: &Workload, seed: u64, tracer: &Tracer) -> Vec<String> {
    let num = |v: u64| Value::Num(v as f64);
    let header = Value::Obj(vec![
        ("workload".into(), Value::Str(w.name.into())),
        ("seed".into(), num(seed)),
        ("packets".into(), num(w.fingerprint.packets)),
        ("bytes".into(), num(w.fingerprint.bytes)),
        (
            "fnv".into(),
            Value::Str(format!("{:016x}", w.fingerprint.fnv)),
        ),
        ("span_cost_ns".into(), num(tracer.span_cost_ns())),
        ("sample".into(), Value::Str("1-in-256 packets".into())),
    ]);
    let layers = Layer::ALL.into_iter().map(|layer| {
        let t = tracer.layer(layer);
        let hist = t
            .hist
            .buckets()
            .map(|(lo, c)| Value::Arr(vec![num(lo), num(c)]))
            .collect();
        Value::Obj(vec![
            ("layer".into(), Value::Str(layer.name().into())),
            ("calls".into(), num(t.calls)),
            ("total_ns".into(), num(t.total_ns)),
            ("self_ns".into(), num(t.self_ns)),
            ("hist_ns".into(), Value::Arr(hist)),
        ])
    });
    let spans = tracer.records.iter().enumerate().map(|(id, r)| {
        Value::Obj(vec![
            ("span".into(), num(id as u64)),
            ("name".into(), Value::Str(r.layer.name().into())),
            ("start_ns".into(), num(r.start_ns)),
            ("end_ns".into(), num(r.end_ns)),
            ("self_ns".into(), num(r.self_ns)),
            (
                "parent".into(),
                r.parent.map_or(Value::Null, |p| num(u64::from(p))),
            ),
            ("packet".into(), num(u64::from(r.packet))),
        ])
    });
    std::iter::once(header)
        .chain(layers)
        .chain(spans)
        .map(|v| v.to_compact())
        .collect()
}

/// Write the spans kept in memory out to `dir/trace-<workload>.jsonl`.
fn write_trace(dir: &str, w: &Workload, seed: u64, tracer: &Tracer) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/trace-{}.jsonl", w.name);
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for line in trace_lines(w, seed, tracer) {
        writeln!(file, "{line}")?;
    }
    file.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_lines_are_json_with_the_span_fields() {
        let w = Workload::generate("evasion-mix", 4, 200).unwrap();
        let mut tracer = Tracer::with_span_cost(0);
        let sigs = load_signatures(&w.rules_text).unwrap();
        let plan = SplitPlan::compile(&sigs, &w.config).unwrap();
        let outcome = Composed::new(plan, sigs, &w.config)
            .unwrap()
            .replay(&w, &mut tracer);
        assert_eq!(outcome.to_slow.len(), w.packets.len());
        let lines = trace_lines(&w, 4, &tracer);
        assert_eq!(lines.len(), 1 + Layer::ALL.len() + tracer.records.len());
        assert!(
            !tracer.records.is_empty(),
            "the sample must catch some packets"
        );
        let span = Value::parse(lines.last().unwrap()).unwrap();
        for key in [
            "span", "name", "start_ns", "end_ns", "self_ns", "parent", "packet",
        ] {
            assert!(span.get(key).is_some(), "span line lacks {key}");
        }
        let packet_line = Value::parse(&lines[1 + Layer::Packet as usize]).unwrap();
        assert_eq!(
            packet_line.get("calls").and_then(Value::as_f64),
            Some(w.packets.len() as f64),
            "one root span per packet"
        );
    }
}
