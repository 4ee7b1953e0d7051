//! Command implementations.

use std::io::Write;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_ips::api::run_trace;
use sd_ips::conventional::ConventionalConfig;
use sd_ips::rules::{parse_rules, parse_rules_lenient, RuleSet, DEMO_RULES};
use sd_ips::{AlertSource, ConventionalIps, Ips, NaivePacketIps, SignatureSet};
use sd_traffic::benign::{BenignConfig, BenignGenerator};
use sd_traffic::evasion::{generate, AttackSpec, EvasionStrategy};
use sd_traffic::mixer::mix;
use sd_traffic::payload::PayloadModel;
use sd_traffic::rulegen::{generate_rule_corpus, RuleCorpusConfig};
use sd_traffic::victim::{receive_stream, VictimConfig};
use sd_traffic::{pcap, Trace};
use splitdetect::{
    ShardedSplitDetect, SplitDetect, SplitDetectConfig, SplitDetectStats, SplitPlan,
};

use crate::opts::{Command, EngineKind, OutputFormat, ParsedArgs, SabotageKind, ServeSource};
use crate::serve::{self, ServeEngine, ServeOptions};

type Out<'a> = &'a mut dyn Write;

/// Run the parsed command.
pub fn dispatch(args: ParsedArgs, out: Out) -> Result<(), String> {
    match &args.command {
        Command::Scan(path) => scan(&args, path, out),
        Command::Run(path) => run_cmd(&args, path, out),
        Command::Compare(path) => compare(&args, path, out),
        Command::Stats(path) => stats_cmd(&args, path, out),
        Command::Rules(path) => lint_rules(path, out),
        Command::Gauntlet => gauntlet(&args, out),
        Command::Generate(path) => generate_cmd(&args, path, out),
        Command::Replay(path) => replay_cmd(&args, path, out),
        Command::Fuzz => fuzz_cmd(&args, out),
        Command::GenerateRules(path) => generate_rules_cmd(&args, path, out),
        Command::AnalyzeRules(path) => analyze_rules_cmd(&args, path, out),
        Command::Serve => serve_cmd(&args, out),
    }
}

fn load_rules(args: &ParsedArgs, out: Out) -> Result<RuleSet, String> {
    let text = match &args.rules {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read rules {path}: {e}"))?
        }
        None => {
            let _ = writeln!(out, "(no --rules given; using the embedded demo rules)");
            DEMO_RULES.to_string()
        }
    };
    let set = parse_rules(&text).map_err(|e| e.to_string())?;
    if set.rules.is_empty() {
        return Err("rule file contains no usable alert rules".into());
    }
    if set.nocase_ignored > 0 {
        let _ = writeln!(
            out,
            "warning: {} nocase modifier(s) ignored (matching is exact)",
            set.nocase_ignored
        );
    }
    Ok(set)
}

fn load_trace(path: &str) -> Result<Trace, String> {
    pcap::load(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn split_config(args: &ParsedArgs) -> SplitDetectConfig {
    SplitDetectConfig {
        slow_path_policy: args.policy,
        shard_batch_packets: args.shard_batch,
        slow_path_workers: args.slow_workers,
        slow_path_lane_depth: args.slow_lane_depth,
        flow_hash_seed: args.flow_hash_seed,
        ..Default::default()
    }
}

fn build_split(sigs: SignatureSet, args: &ParsedArgs) -> Result<SplitDetect, String> {
    SplitDetect::with_config(sigs, split_config(args))
        .map_err(|e| format!("rules not usable with Split-Detect: {e}"))
}

fn build_sharded(sigs: SignatureSet, args: &ParsedArgs) -> Result<ShardedSplitDetect, String> {
    ShardedSplitDetect::new(sigs, split_config(args), args.shards)
        .map_err(|e| format!("rules not usable with Split-Detect: {e}"))
}

/// Render a finished sharded engine's report (aggregated engine stats plus
/// dispatcher counters and worker failures).
fn sharded_report(engine: &ShardedSplitDetect) -> Option<splitdetect::RunReport> {
    SplitDetectStats::aggregate(&engine.stats()).map(|total| {
        splitdetect::RunReport::with_dispatch(
            total,
            engine.dispatch_stats(),
            engine.failures().to_vec(),
        )
    })
}

fn scan(args: &ParsedArgs, path: &str, out: Out) -> Result<(), String> {
    let rules = load_rules(args, out)?;
    let sigs = rules.to_signatures();
    let trace = load_trace(path)?;
    let _ = writeln!(
        out,
        "scanning {path}: {} packets, {} flows, {} rules, engine {}{}",
        trace.len(),
        trace.flow_count(),
        rules.rules.len(),
        args.engine,
        if args.shards > 1 {
            format!(" ({} shards, batch {})", args.shards, args.shard_batch)
        } else {
            String::new()
        }
    );

    let alerts = match args.engine {
        EngineKind::Split if args.shards > 1 => {
            let mut e = build_sharded(sigs, args)?;
            let alerts = run_trace(&mut e, trace.iter_bytes());
            match sharded_report(&e) {
                Some(report) => {
                    let _ = write!(out, "{report}");
                }
                None => {
                    let _ = writeln!(out, "no surviving shards; no engine stats");
                    for failure in e.failures() {
                        let _ = writeln!(out, "WARNING: {failure}");
                    }
                }
            }
            alerts
        }
        EngineKind::Split => {
            let mut e = build_split(sigs, args)?;
            let alerts = run_trace(&mut e, trace.iter_bytes());
            let _ = write!(out, "{}", splitdetect::RunReport::new(e.stats()));
            for failure in e.slow_failures() {
                let _ = writeln!(out, "WARNING: {failure}");
            }
            alerts
        }
        EngineKind::Conventional => {
            let mut e = ConventionalIps::with_config(
                sigs,
                ConventionalConfig {
                    policy: args.policy,
                    ..Default::default()
                },
            );
            run_trace(&mut e, trace.iter_bytes())
        }
        EngineKind::Naive => {
            let mut e = NaivePacketIps::new(sigs);
            run_trace(&mut e, trace.iter_bytes())
        }
    };

    let _ = writeln!(out, "{} alert(s)", alerts.len());
    for a in &alerts {
        // Overload alerts are synthetic (shed slow-path lanes); their
        // `signature` field is meaningless and must not index the rule set.
        if a.source == AlertSource::Overload {
            let _ = writeln!(
                out,
                "  [overload] slow-path lane full, flow={} shed",
                a.flow
            );
            continue;
        }
        let rule = &rules.rules[a.signature];
        let _ = writeln!(
            out,
            "  [{}] {} flow={} off={}",
            rule.sid,
            rule.name(),
            a.flow,
            a.offset
        );
    }
    Ok(())
}

/// `sd run`: drive Split-Detect (sharded dispatcher, even at 1 shard, so
/// the export always carries per-shard lane counters) and optionally
/// write the merged telemetry registry as `PATH.prom` + `PATH.json`.
fn run_cmd(args: &ParsedArgs, path: &str, out: Out) -> Result<(), String> {
    let rules = load_rules(args, out)?;
    let trace = load_trace(path)?;
    let mut engine = build_sharded(rules.to_signatures(), args)?;
    let alerts = run_trace(&mut engine, trace.iter_bytes());
    let _ = writeln!(
        out,
        "ran {path}: {} packets, {} shards, {} alert(s)",
        trace.len(),
        engine.shard_count(),
        alerts.len()
    );
    if let Some(report) = sharded_report(&engine) {
        let _ = write!(out, "{report}");
    }
    for failure in engine.failures() {
        let _ = writeln!(out, "WARNING: {failure}");
    }
    if let Some(base) = &args.metrics_out {
        let tel = engine
            .telemetry()
            .ok_or("telemetry is only available after finish")?;
        let prom_path = format!("{base}.prom");
        let json_path = format!("{base}.json");
        std::fs::write(&prom_path, sd_telemetry::to_prometheus(tel.registry()))
            .map_err(|e| format!("cannot write {prom_path}: {e}"))?;
        std::fs::write(&json_path, sd_telemetry::to_json(tel.registry()))
            .map_err(|e| format!("cannot write {json_path}: {e}"))?;
        let _ = writeln!(out, "metrics written to {prom_path} and {json_path}");
    }
    Ok(())
}

fn compare(args: &ParsedArgs, path: &str, out: Out) -> Result<(), String> {
    let rules = load_rules(args, out)?;
    let trace = load_trace(path)?;
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>14} {:>14} {:>12}",
        "engine", "alerts", "scanned-bytes", "peak-state-B", "time-ms"
    );
    let mut row = |name: &str, engine: &mut dyn Ips| {
        let start = std::time::Instant::now();
        let alerts = run_trace(engine, trace.iter_bytes());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let r = engine.resources();
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>14} {:>14} {:>12.1}",
            name,
            alerts.len(),
            r.bytes_scanned,
            r.state_bytes_peak,
            ms
        );
    };
    let mut naive = NaivePacketIps::new(rules.to_signatures());
    row("naive-packet", &mut naive);
    let mut conv = ConventionalIps::with_config(
        rules.to_signatures(),
        ConventionalConfig {
            policy: args.policy,
            ..Default::default()
        },
    );
    row("conventional", &mut conv);
    let mut sd = build_split(rules.to_signatures(), args)?;
    row("split-detect", &mut sd);
    Ok(())
}

fn stats_cmd(args: &ParsedArgs, path: &str, out: Out) -> Result<(), String> {
    let trace = load_trace(path)?;
    if args.format != OutputFormat::Human {
        // Machine formats: drive the engine over the capture and emit its
        // telemetry registry instead of the human workload summary.
        let rules = load_rules(args, &mut std::io::sink())?;
        let mut engine = build_sharded(rules.to_signatures(), args)?;
        let _ = run_trace(&mut engine, trace.iter_bytes());
        let tel = engine
            .telemetry()
            .ok_or("telemetry is only available after finish")?;
        let rendered = match args.format {
            OutputFormat::Prom => sd_telemetry::to_prometheus(tel.registry()),
            OutputFormat::Json => sd_telemetry::to_json(tel.registry()),
            OutputFormat::Human => unreachable!(),
        };
        let _ = out.write_all(rendered.as_bytes());
        return Ok(());
    }
    let s = sd_traffic::stats::analyze(&trace);
    let _ = writeln!(
        out,
        "{path}: {} packets, {} flows, {:.2} MB",
        trace.len(),
        trace.flow_count(),
        trace.total_bytes() as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "size mix: {:.0}% ack-sized | small {} | mid {} | large {} | mss {}",
        s.sizes.ack_fraction() * 100.0,
        s.sizes.small,
        s.sizes.mid,
        s.sizes.large,
        s.sizes.mss
    );
    let _ = writeln!(
        out,
        "payload entropy {:.2} bits/byte, {:.0}% printable",
        s.payload.entropy_bits(),
        s.payload.printable_fraction() * 100.0
    );
    let _ = writeln!(
        out,
        "flows: p50 {} B, p95 {} B, top-10% byte share {:.0}%, peak concurrency {}",
        s.flows.percentile(0.5),
        s.flows.percentile(0.95),
        s.flows.top_flow_byte_share(0.1) * 100.0,
        s.flows.peak_concurrency
    );
    if args.shards > 1 {
        // Drive the sharded engine over the capture purely to report the
        // dispatcher's batching/backpressure behaviour on this workload.
        let rules = load_rules(args, out)?;
        let mut engine = build_sharded(rules.to_signatures(), args)?;
        let alerts = run_trace(&mut engine, trace.iter_bytes());
        let _ = writeln!(
            out,
            "sharded dispatch ({} shards, batch {}): {} alert(s)",
            args.shards,
            args.shard_batch,
            alerts.len()
        );
        let lanes = engine.dispatch_stats();
        for (i, lane) in lanes.iter().enumerate() {
            let _ = writeln!(
                out,
                "  shard {i}: {} batches, {} pkts ({:.1}/batch), pool {}/{} hit/miss, \
                 high-water {}{}",
                lane.batches_sent,
                lane.packets_enqueued,
                lane.mean_batch_fill(),
                lane.recycle_hits,
                lane.recycle_misses,
                lane.queue_depth_high_water,
                if lane.dead { ", DEAD" } else { "" }
            );
        }
        for failure in engine.failures() {
            let _ = writeln!(out, "  WARNING: {failure}");
        }
    }
    Ok(())
}

fn lint_rules(path: &str, out: Out) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let set = parse_rules(&text).map_err(|e| e.to_string())?;
    let sigs = set.to_signatures();
    let _ = writeln!(
        out,
        "{path}: {} alert rule(s), {} skipped action(s), {} nocase ignored",
        set.rules.len(),
        set.skipped_actions,
        set.nocase_ignored
    );
    // Split-Detect admissibility: report per-rule problems, not just the
    // first, so a corpus can be cleaned in one pass.
    let config = SplitDetectConfig::default();
    let mut unusable = 0;
    for (i, rule) in set.rules.iter().enumerate() {
        let len = rule.signature_bytes().len();
        let need = config.pieces_per_signature * splitdetect::config::MIN_PIECE_LEN;
        if len < need {
            unusable += 1;
            let _ = writeln!(
                out,
                "  rule {} (sid {}): content is {len} bytes, Split-Detect needs >= {need}",
                i, rule.sid
            );
        }
    }
    if unusable == 0 {
        let _ = writeln!(out, "all rules usable with the default Split-Detect config");
        let _ = config.validate(&sigs).map_err(|e| e.to_string())?;
    } else {
        let _ = writeln!(out, "{unusable} rule(s) too short for signature splitting");
    }
    Ok(())
}

fn gauntlet(args: &ParsedArgs, out: Out) -> Result<(), String> {
    let rules = load_rules(args, out)?;
    // The gauntlet carries the first rule's signature through every evasion.
    let rule = &rules.rules[0];
    let victim = VictimConfig {
        policy: args.policy,
        ..Default::default()
    };
    let _ = writeln!(
        out,
        "gauntlet signature: [{}] {} ({} bytes); victim policy {}",
        rule.sid,
        rule.name(),
        rule.signature_bytes().len(),
        args.policy
    );
    let _ = writeln!(
        out,
        "{:<28} {:>9} {:>12}",
        "strategy", "delivers", "split-detect"
    );

    let mut all_ok = true;
    for strategy in EvasionStrategy::catalog() {
        let spec = AttackSpec::simple(rule.signature_bytes().to_vec());
        let packets = generate(&spec, strategy, victim, 4242);
        let delivered = receive_stream(packets.iter(), victim, spec.server) == spec.payload();
        let mut sd = build_split(rules.to_signatures(), args)?;
        let detected = run_trace(&mut sd, packets.iter().map(|p| p.as_slice()))
            .iter()
            .any(|a| a.source != AlertSource::Overload && a.signature == 0);
        all_ok &= detected;
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>12}",
            strategy.name(),
            if delivered { "yes" } else { "NO" },
            if detected { "DETECT" } else { "MISS" }
        );
    }
    if all_ok {
        let _ = writeln!(out, "all strategies detected");
        Ok(())
    } else {
        Err("some strategies were missed".into())
    }
}

fn replay_cmd(args: &ParsedArgs, path: &str, out: Out) -> Result<(), String> {
    let rules = load_rules(args, out)?;
    let trace = load_trace(path)?;
    let speed = if args.speed == 0.0 {
        f64::INFINITY
    } else {
        args.speed
    };
    let mut engine = build_split(rules.to_signatures(), args)?;
    let mut alerts = Vec::new();
    let report = sd_traffic::replay::replay(&trace, speed, |pkt, tick| {
        engine.process_packet(pkt, tick, &mut alerts)
    });
    engine.finish(&mut alerts);
    let _ = writeln!(
        out,
        "replayed {} packets in {:.3}s (target {:.3}s), max lateness {:.3} ms",
        report.packets,
        report.elapsed_secs,
        report.target_secs,
        report.max_lateness_secs * 1e3
    );
    let _ = writeln!(out, "{} alert(s)", alerts.len());
    for a in &alerts {
        if a.source == AlertSource::Overload {
            let _ = writeln!(
                out,
                "  [overload] slow-path lane full, flow={} shed",
                a.flow
            );
            continue;
        }
        let rule = &rules.rules[a.signature];
        let _ = writeln!(out, "  [{}] {} flow={}", rule.sid, rule.name(), a.flow);
    }
    let _ = write!(out, "{}", splitdetect::RunReport::new(engine.stats()));
    for failure in engine.slow_failures() {
        let _ = writeln!(out, "WARNING: {failure}");
    }
    Ok(())
}

/// `sd fuzz`: the differential oracle as a front-end command.
///
/// Default mode runs a campaign of random adversarial trace programs; on a
/// failure the (optionally shrunk) reproducer is written to
/// `--trace-out` and the command errors. `--replay-trace` re-runs one
/// saved trace instead. `--sabotage` cripples a fast-path rule so the
/// oracle's catch can be demonstrated end to end.
fn fuzz_cmd(args: &ParsedArgs, out: Out) -> Result<(), String> {
    let tweaks = match args.sabotage {
        None => sd_oracle::EngineTweaks::NONE,
        Some(SabotageKind::OutOfOrder) => sd_oracle::EngineTweaks {
            disable_out_of_order: true,
            ..sd_oracle::EngineTweaks::NONE
        },
        Some(SabotageKind::Fragments) => sd_oracle::EngineTweaks {
            disable_fragments: true,
            ..sd_oracle::EngineTweaks::NONE
        },
    };

    if let Some(path) = &args.replay_trace {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
        let program = sd_oracle::TraceProgram::from_text(&text)?;
        let sigs = sd_oracle::campaign_signatures(args.rules_seed);
        let outcome = sd_oracle::run_program_with(&program, tweaks, &sigs);
        let _ = writeln!(
            out,
            "replayed {path}: {} packets, delivered {}, split-detect alerted {}, \
             conventional alerted {}{}",
            outcome.packets,
            outcome.delivered,
            outcome.split_alerted,
            outcome.conventional_alerted,
            if outcome.excused {
                " (excused by divert accounting)"
            } else {
                ""
            }
        );
        if outcome.ok() {
            let _ = writeln!(out, "all invariants held");
            return Ok(());
        }
        for v in &outcome.violations {
            let _ = writeln!(out, "VIOLATION: {v}");
        }
        return Err(format!(
            "{} invariant violation(s)",
            outcome.violations.len()
        ));
    }

    let _ = writeln!(
        out,
        "fuzzing: {} iterations, seed {}{}{}{}",
        args.iters,
        args.seed,
        match args.rules_seed {
            None => String::new(),
            Some(s) => format!(
                ", {}-rule corpus (rules-seed {s})",
                sd_oracle::CAMPAIGN_CORPUS_RULES
            ),
        },
        if args.minimize { ", minimizing" } else { "" },
        match args.sabotage {
            None => String::new(),
            Some(k) => format!(
                ", SABOTAGE: {} rule disabled",
                match k {
                    SabotageKind::OutOfOrder => "out-of-order",
                    SabotageKind::Fragments => "fragment",
                }
            ),
        }
    );
    let config = sd_oracle::CampaignConfig {
        iters: args.iters,
        seed: args.seed,
        minimize: args.minimize,
        tweaks,
        max_failures: 1,
        rules_seed: args.rules_seed,
    };
    let result = sd_oracle::run_campaign(config, |_, _| {});
    let s = result.stats;
    let _ = writeln!(
        out,
        "ran {} traces ({} packets): {} delivered, split-detect caught {}, \
         conventional caught {}, {} excused by divert accounting",
        s.iters, s.packets, s.delivered, s.split_caught, s.conventional_caught, s.excused
    );
    if result.clean() {
        let _ = writeln!(out, "no invariant violations, no sharded divergence");
        return Ok(());
    }
    for failure in &result.failures {
        let repro = failure.reproducer();
        let _ = writeln!(
            out,
            "FAILURE: {} mutation(s){} reproduce:",
            repro.mutations.len(),
            if failure.shrunk.is_some() {
                format!(" (shrunk from {})", failure.program.mutations.len())
            } else {
                String::new()
            }
        );
        for v in &failure.violations {
            let _ = writeln!(out, "  VIOLATION: {v}");
        }
        std::fs::write(&args.trace_out, repro.to_text())
            .map_err(|e| format!("cannot write {}: {e}", args.trace_out))?;
        let _ = writeln!(
            out,
            "reproducer written to {} (re-run: sd fuzz --replay-trace {})",
            args.trace_out, args.trace_out
        );
    }
    Err(format!(
        "{} failing trace(s) out of {}",
        s.failing_traces, s.iters
    ))
}

fn generate_cmd(args: &ParsedArgs, path: &str, out: Out) -> Result<(), String> {
    let rules = load_rules(args, out)?;
    let benign = BenignGenerator::new(BenignConfig {
        flows: args.flows,
        seed: args.seed,
        ..Default::default()
    })
    .generate();

    let victim = VictimConfig::default();
    let catalog = EvasionStrategy::catalog();
    let attacks: Vec<(Vec<Vec<u8>>, usize, &'static str)> = (0..args.attacks)
        .map(|i| {
            let strategy = catalog[i % catalog.len()];
            let rule = &rules.rules[i % rules.rules.len()];
            let mut spec = AttackSpec::simple(rule.signature_bytes().to_vec());
            spec.client.1 = 40_000 + i as u16;
            (
                generate(&spec, strategy, victim, args.seed + i as u64),
                i % rules.rules.len(),
                strategy.name(),
            )
        })
        .collect();
    let labeled = mix(benign, attacks, args.seed ^ 0x5eed);
    pcap::save(path, &labeled.trace).map_err(|e| format!("cannot write {path}: {e}"))?;
    let _ = writeln!(
        out,
        "wrote {path}: {} packets, {} flows, {} labelled attack(s)",
        labeled.trace.len(),
        labeled.trace.flow_count(),
        labeled.attacks.len()
    );
    for a in &labeled.attacks {
        let rule = &rules.rules[a.signature];
        let _ = writeln!(
            out,
            "  {} via {} carries sid {}",
            a.flow, a.strategy, rule.sid
        );
    }
    Ok(())
}

/// `sd generate-rules`: write a seeded Snort-subset corpus to disk.
fn generate_rules_cmd(args: &ParsedArgs, path: &str, out: Out) -> Result<(), String> {
    let cfg = RuleCorpusConfig {
        malformed: args.malformed,
        ..RuleCorpusConfig::sized(args.count, args.seed)
    };
    let text = generate_rule_corpus(&cfg);
    std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
    let _ = writeln!(
        out,
        "wrote {path}: {} alert rule(s), {} malformed line(s), {} bytes (seed {})",
        args.count,
        args.malformed,
        text.len(),
        args.seed
    );
    Ok(())
}

/// Benign workload scanned for hit attribution: enough HTTP-like payload
/// that hot rules separate from cold ones, small enough to stay instant.
const ANALYZE_CHUNKS: usize = 512;
const ANALYZE_CHUNK_BYTES: usize = 1460;

/// `sd analyze-rules`: corpus diagnostics, the piece automaton's cost and
/// tier layout, piece-dedup savings, and per-rule fast-path hit counts
/// over a seeded benign workload.
fn analyze_rules_cmd(args: &ParsedArgs, path: &str, out: Out) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (set, errors) = parse_rules_lenient(&text);
    if !errors.is_empty() {
        let _ = writeln!(out, "{} parse error(s):", errors.len());
        for e in &errors {
            let _ = writeln!(out, "  {e}");
        }
    }
    if set.rules.is_empty() {
        return Err("rule file contains no usable alert rules".into());
    }
    let sigs = set.to_signatures();
    let config = SplitDetectConfig::default();
    let plan = SplitPlan::compile(&sigs, &config).map_err(|e| e.to_string())?;
    let content_bytes: usize = set.rules.iter().map(|r| r.signature_bytes().len()).sum();
    let _ = writeln!(
        out,
        "{path}: {} alert rule(s), {} content bytes, k = {} pieces/signature",
        set.rules.len(),
        content_bytes,
        config.pieces_per_signature
    );

    // Automaton cost, next to what a dense DFA (1 KB per state) over the
    // same trie would occupy.
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>9} {:>10} {:>9}",
        "automaton", "bytes", "states", "build-ms", "vs-dense"
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>9} {:>10.2} {:>8.1}%",
        "tiered",
        plan.memory_bytes(),
        plan.state_count(),
        plan.build_time().as_secs_f64() * 1e3,
        plan.memory_bytes() as f64 * 100.0 / (plan.state_count() * 1024) as f64
    );

    // Trie depth occupancy: distinct piece prefixes per depth = automaton
    // states per level. The tiered heuristic fronts the shallow, populous
    // levels (where benign traffic spends its time) with dense rows.
    let mut levels: Vec<std::collections::HashSet<&[u8]>> = Vec::new();
    for (_, sig) in sigs.iter() {
        let k_here = config.pieces_per_signature.min(sig.bytes.len()).max(1);
        for (s, e) in splitdetect::split::balanced_cuts(sig.bytes.len(), k_here) {
            let piece = &sig.bytes[s..e];
            for d in 1..=piece.len() {
                if levels.len() < d {
                    levels.push(std::collections::HashSet::new());
                }
                levels[d - 1].insert(&piece[..d]);
            }
        }
    }
    let total_states: usize = 1 + levels.iter().map(|l| l.len()).sum::<usize>();
    let _ = writeln!(
        out,
        "trie depth occupancy (root + {} states):",
        total_states - 1
    );
    let _ = writeln!(
        out,
        "{:<6} {:>9} {:>11} {:>7}",
        "depth", "states", "cum", "cum%"
    );
    let mut cum = 1usize; // the root
    for (d, level) in levels.iter().enumerate() {
        cum += level.len();
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>11} {:>6.1}%",
            d + 1,
            level.len(),
            cum,
            cum as f64 * 100.0 / total_states as f64
        );
    }
    let t = plan.tier_stats();
    let _ = writeln!(
        out,
        "tiered split (budget heuristic): {} hot state(s) as dense rows ({} B, {} classes), \
         {} cold in CSR ({} B)",
        t.hot_states, t.hot_bytes, t.class_count, t.cold_states, t.cold_bytes
    );

    // Piece dedup: shared prefixes across rule families collapse into one
    // automaton pattern each.
    let raw_pieces = set.rules.len() * config.pieces_per_signature;
    let _ = writeln!(
        out,
        "piece dedup: {} raw pieces -> {} distinct ({:.1}% saved)",
        raw_pieces,
        plan.piece_count(),
        (raw_pieces - plan.piece_count()) as f64 * 100.0 / raw_pieces.max(1) as f64
    );

    // Per-rule fast-path hits on seeded benign HTTP-like payload: which
    // rules would divert benign flows, and how often.
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xA11A);
    let mut hits = vec![0u64; set.rules.len()];
    let mut total_hits = 0u64;
    let mut chunk = Vec::new();
    for _ in 0..ANALYZE_CHUNKS {
        PayloadModel::HttpLike.fill(&mut rng, ANALYZE_CHUNK_BYTES, &mut chunk);
        for m in plan.scan_all(&chunk) {
            for origin in plan.origins(m.pattern) {
                hits[origin.signature] += 1;
                total_hits += 1;
            }
        }
    }
    let scanned = ANALYZE_CHUNKS * ANALYZE_CHUNK_BYTES;
    let _ = writeln!(
        out,
        "fast-path hits on benign payload ({} chunks, {} B, seed {}): {} total",
        ANALYZE_CHUNKS, scanned, args.seed, total_hits
    );
    let mut ranked: Vec<(usize, u64)> = hits
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, h)| h > 0)
        .collect();
    ranked.sort_by_key(|&(i, h)| (std::cmp::Reverse(h), i));
    if ranked.is_empty() {
        let _ = writeln!(out, "no rule's pieces hit benign payload");
    } else {
        let _ = writeln!(out, "{:<8} {:>10} {:>12}  rule", "sid", "hits", "hits/MB");
        for &(i, h) in ranked.iter().take(args.top) {
            let rule = &set.rules[i];
            let _ = writeln!(
                out,
                "{:<8} {:>10} {:>12.2}  {}",
                rule.sid,
                h,
                h as f64 * 1e6 / scanned as f64,
                rule.name()
            );
        }
        if ranked.len() > args.top {
            let _ = writeln!(
                out,
                "... and {} more rule(s) with hits",
                ranked.len() - args.top
            );
        }
    }
    Ok(())
}

/// The loopback daemon's offered load: the same seeded labelled
/// workload `sd generate` writes to disk, kept in memory.
fn demo_workload(args: &ParsedArgs, rules: &RuleSet) -> Trace {
    let benign = BenignGenerator::new(BenignConfig {
        flows: args.flows,
        seed: args.seed,
        ..Default::default()
    })
    .generate();
    let victim = VictimConfig::default();
    let catalog = EvasionStrategy::catalog();
    let attacks: Vec<(Vec<Vec<u8>>, usize, &'static str)> = (0..args.attacks)
        .map(|i| {
            let strategy = catalog[i % catalog.len()];
            let rule = &rules.rules[i % rules.rules.len()];
            let mut spec = AttackSpec::simple(rule.signature_bytes().to_vec());
            spec.client.1 = 40_000 + i as u16;
            (
                generate(&spec, strategy, victim, args.seed + i as u64),
                i % rules.rules.len(),
                strategy.name(),
            )
        })
        .collect();
    mix(benign, attacks, args.seed ^ 0x5eed).trace
}

/// `sd serve`: the live capture daemon. See [`crate::serve`].
fn serve_cmd(args: &ParsedArgs, out: Out) -> Result<(), String> {
    let rules = load_rules(args, out)?;
    let sigs = rules.to_signatures();
    let engine = if args.shards > 1 {
        ServeEngine::Sharded(Box::new(build_sharded(sigs, args)?))
    } else {
        ServeEngine::Single(Box::new(build_split(sigs, args)?))
    };
    let scrape = match &args.scrape {
        Some(addr) => Some(
            sd_telemetry::ScrapeServer::bind(addr)
                .map_err(|e| format!("cannot bind scrape endpoint {addr}: {e}"))?,
        ),
        None => None,
    };
    let opts = ServeOptions {
        rules_path: args.rules.clone(),
        scrape,
        max_duration: args.duration_secs.map(std::time::Duration::from_secs),
        ..Default::default()
    };
    // Signals land on the global control (the binary installs handlers
    // for `serve` only); everything else just polls these flags.
    let control = serve::global_control().clone();

    match args.source {
        ServeSource::Loopback => {
            let (handle, mut src) = sd_traffic::loopback(1024);
            let trace = demo_workload(args, &rules);
            let _ = writeln!(
                out,
                "loopback load: {} packets/pass, {} flows, {} labelled attack(s){}",
                trace.len(),
                trace.flow_count(),
                args.attacks,
                match args.duration_secs {
                    Some(s) => format!(", looping for {s}s"),
                    None => ", one pass".to_string(),
                }
            );
            let deadline = args
                .duration_secs
                .map(|s| std::time::Instant::now() + std::time::Duration::from_secs(s));
            let producer = std::thread::spawn(move || {
                let mut base = 0u64;
                loop {
                    for (i, p) in trace.iter_bytes().enumerate() {
                        if !handle.send(base + i as u64, p) {
                            return;
                        }
                    }
                    base += trace.len() as u64;
                    // Without a deadline the trace plays once and the
                    // dropped handle closes the source (drain).
                    match deadline {
                        Some(d) if std::time::Instant::now() < d => continue,
                        _ => return,
                    }
                }
            });
            let result = serve::serve(engine, &mut src, &control, opts, out);
            // Unblock a producer stuck on a full channel before joining.
            drop(src);
            let _ = producer.join();
            result?;
        }
        ServeSource::AfPacket => {
            #[cfg(all(feature = "afpacket", target_os = "linux"))]
            {
                let iface = args.iface.as_deref().expect("parser enforces --iface");
                let mut src = sd_traffic::afpacket::AfPacketSource::open(iface, Default::default())
                    .map_err(|e| format!("cannot open AF_PACKET on {iface}: {e}"))?;
                serve::serve(engine, &mut src, &control, opts, out)?;
            }
            #[cfg(not(all(feature = "afpacket", target_os = "linux")))]
            return Err(
                "this build lacks AF_PACKET capture; rebuild with --features afpacket (Linux only)"
                    .into(),
            );
        }
    }
    Ok(())
}
