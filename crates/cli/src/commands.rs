//! Command implementations.

use std::io::Write;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_ips::api::run_trace;
use sd_ips::conventional::ConventionalConfig;
use sd_ips::rules::{parse_rules, parse_rules_lenient, RuleSet, DEMO_RULES};
use sd_ips::{Alert, AlertSource, ConventionalIps, Ips, NaivePacketIps, SignatureSet};
use sd_reassembly::OverlapPolicy;
use sd_traffic::benign::{BenignConfig, BenignGenerator};
use sd_traffic::evasion::{generate, AttackSpec, EvasionStrategy};
use sd_traffic::mixer::{mix, LabeledTrace};
use sd_traffic::payload::PayloadModel;
use sd_traffic::rulegen::{generate_rule_corpus, RuleCorpusConfig};
use sd_traffic::victim::{receive_stream, VictimConfig};
use sd_traffic::{pcap, Trace, TraceSource};
use splitdetect::{CompiledRules, ShardedSplitDetect, SplitDetect, SplitDetectConfig};

use crate::opts::{
    Command, EngineArgs, EngineKind, FuzzArgs, ScanArgs, ServeArgs, ServeSource, WorkloadArgs,
};
use crate::serve::{self, ServeControl, ServeEngine, ServeOptions};

type Out<'a> = &'a mut dyn Write;

/// Run the parsed command; returns the process exit code.
pub fn dispatch(command: Command, out: Out) -> i32 {
    let result = match &command {
        Command::Scan(args) => scan(args, out),
        Command::Compare {
            pcap,
            rules,
            policy,
        } => compare(pcap, rules.as_deref(), *policy, out),
        Command::Stats(path) => stats_cmd(path, out),
        Command::Rules(path) => lint_rules(path, out),
        Command::Gauntlet { rules, policy } => gauntlet(rules.as_deref(), *policy, out),
        Command::Generate {
            path,
            rules,
            workload,
        } => generate_cmd(path, rules.as_deref(), workload, out),
        Command::Fuzz(args) => fuzz_cmd(args, out),
        Command::GenerateRules {
            path,
            count,
            malformed,
            seed,
        } => generate_rules_cmd(path, *count, *malformed, *seed, out),
        Command::AnalyzeRules { path, top, seed } => analyze_rules_cmd(path, *top, *seed, out),
        Command::Serve(args) => serve_cmd(args, out),
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            1
        }
    }
}

/// Load the rule file, or the embedded demo rules when there is none.
/// Notes about the rules go to `out`.
pub(crate) fn load_rules(path: Option<&str>, out: Out) -> Result<RuleSet, String> {
    let text = match path {
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

fn unusable(e: impl std::fmt::Display) -> String {
    format!("rules not usable with Split-Detect: {e}")
}

fn build_split(sigs: SignatureSet, policy: OverlapPolicy) -> Result<SplitDetect, String> {
    let config = SplitDetectConfig {
        slow_path_policy: policy,
        ..Default::default()
    };
    SplitDetect::with_config(sigs, config).map_err(unusable)
}

fn conventional(sigs: SignatureSet, policy: OverlapPolicy) -> ConventionalIps {
    ConventionalIps::with_config(
        sigs,
        ConventionalConfig {
            policy,
            ..Default::default()
        },
    )
}

/// The Split-Detect engine `scan` and `serve` run: flow-sharded when
/// `--shards` > 1.
fn split_engine(sigs: SignatureSet, args: &EngineArgs) -> Result<ServeEngine, String> {
    let config = SplitDetectConfig {
        slow_path_policy: args.policy,
        slow_path_workers: args.slow_workers,
        slow_path_lane_depth: args.slow_lane_depth,
        flow_hash_seed: args.flow_hash_seed,
        ..Default::default()
    };
    Ok(if args.shards > 1 {
        let engine = ShardedSplitDetect::new(sigs, config, args.shards).map_err(unusable)?;
        ServeEngine::Sharded(Box::new(engine))
    } else {
        let engine = SplitDetect::with_config(sigs, config).map_err(unusable)?;
        ServeEngine::Single(Box::new(engine))
    })
}

/// `sd scan`: run one engine over the capture, then print its report
/// and alerts. Split-Detect runs through [`serve::serve`], the loop the
/// daemon runs; the baselines run through [`run_trace`].
fn scan(args: &ScanArgs, out: Out) -> Result<(), String> {
    let e = &args.engine;
    let rules = load_rules(e.rules.as_deref(), out)?;
    let sigs = rules.to_signatures();
    let trace = load_trace(&args.pcap)?;
    let _ = writeln!(
        out,
        "scanning {}: {} packets, {} flows, {} rules",
        args.pcap,
        trace.len(),
        trace.flow_count(),
        rules.rules.len()
    );

    let alerts = match args.kind {
        EngineKind::Split => {
            let engine = split_engine(sigs, e)?;
            let mut source = TraceSource::new(&trace.packets);
            let control = ServeControl::new();
            let opts = ServeOptions::default();
            let summary = serve::serve(engine, &mut source, &control, opts, out)?;
            if let Some(base) = &args.metrics_out {
                let path = format!("{base}.prom");
                std::fs::write(&path, sd_telemetry::to_prometheus(&summary.metrics))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                let _ = writeln!(out, "metrics written to {path}");
            }
            summary.alerts
        }
        EngineKind::Conventional => {
            run_trace(&mut conventional(sigs, e.policy), trace.iter_bytes())
        }
        EngineKind::Naive => run_trace(&mut NaivePacketIps::new(sigs), trace.iter_bytes()),
    };
    print_alerts(&rules, &alerts, out);
    Ok(())
}

fn print_alerts(rules: &RuleSet, alerts: &[Alert], out: Out) {
    let _ = writeln!(out, "{} alert(s)", alerts.len());
    for a in alerts {
        let (flow, off) = (&a.flow, a.offset);
        // Overload alerts are synthetic (shed slow-path lanes); their
        // `signature` field is meaningless and must not index the rule set.
        let _ = if a.source == AlertSource::Overload {
            writeln!(out, "  [overload] slow-path lane full, flow={flow} shed")
        } else {
            let rule = &rules.rules[a.signature];
            let (sid, name) = (rule.sid, rule.name());
            writeln!(out, "  [{sid}] {name} flow={flow} off={off}")
        };
    }
}

fn compare(pcap: &str, rules: Option<&str>, policy: OverlapPolicy, out: Out) -> Result<(), String> {
    let rules = load_rules(rules, out)?;
    let trace = load_trace(pcap)?;
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
    row(
        "naive-packet",
        &mut NaivePacketIps::new(rules.to_signatures()),
    );
    row(
        "conventional",
        &mut conventional(rules.to_signatures(), policy),
    );
    row(
        "split-detect",
        &mut build_split(rules.to_signatures(), policy)?,
    );
    Ok(())
}

fn stats_cmd(path: &str, out: Out) -> Result<(), String> {
    let trace = load_trace(path)?;
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

fn gauntlet(rules: Option<&str>, policy: OverlapPolicy, out: Out) -> Result<(), String> {
    let rules = load_rules(rules, out)?;
    // The gauntlet carries the first rule's signature through every evasion.
    let rule = &rules.rules[0];
    let victim = VictimConfig {
        policy,
        ..Default::default()
    };
    let _ = writeln!(
        out,
        "gauntlet signature: [{}] {} ({} bytes); victim policy {}",
        rule.sid,
        rule.name(),
        rule.signature_bytes().len(),
        policy
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
        let mut sd = build_split(rules.to_signatures(), policy)?;
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

/// `sd fuzz`: the differential oracle as a front-end command.
///
/// Default mode runs a campaign of random adversarial trace programs; on a
/// failure the (optionally shrunk) reproducer is written to
/// `--trace-out` and the command errors. `--replay-trace` re-runs one
/// saved trace instead. `--sabotage` cripples a fast-path rule so the
/// oracle's catch can be demonstrated end to end.
fn fuzz_cmd(args: &FuzzArgs, out: Out) -> Result<(), String> {
    let tweaks = args.tweaks;
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
        match (tweaks.disable_out_of_order, tweaks.disable_fragments) {
            (true, _) => ", SABOTAGE: out-of-order rule disabled",
            (_, true) => ", SABOTAGE: fragment rule disabled",
            _ => "",
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

/// Attack `i` of a generated workload connects from client port
/// `FIRST_ATTACK_PORT + i`.
const FIRST_ATTACK_PORT: u16 = 40_000;

/// The most attacks a workload holds with a client port each.
pub const MAX_ATTACKS: usize = (u16::MAX - FIRST_ATTACK_PORT) as usize;

/// The seeded labelled workload `sd generate` writes and the loopback
/// daemon serves: benign flows mixed with attacks, attack `i` carrying
/// rule `i mod rules` through evasion `i mod catalog`. The parser bounds
/// `attacks` by [`MAX_ATTACKS`].
fn workload(rules: &RuleSet, w: &WorkloadArgs) -> LabeledTrace {
    let benign = BenignGenerator::new(BenignConfig {
        flows: w.flows,
        seed: w.seed,
        ..Default::default()
    })
    .generate();
    let victim = VictimConfig::default();
    let catalog = EvasionStrategy::catalog();
    let attacks = (0..w.attacks)
        .map(|i| {
            let strategy = catalog[i % catalog.len()];
            let rule = i % rules.rules.len();
            let mut spec = AttackSpec::simple(rules.rules[rule].signature_bytes().to_vec());
            spec.client.1 = FIRST_ATTACK_PORT + i as u16;
            let packets = generate(&spec, strategy, victim, w.seed.wrapping_add(i as u64));
            (packets, rule, strategy.name())
        })
        .collect();
    mix(benign, attacks, w.seed ^ 0x5eed)
}

fn generate_cmd(path: &str, rules: Option<&str>, w: &WorkloadArgs, out: Out) -> Result<(), String> {
    let rules = load_rules(rules, out)?;
    let labeled = workload(&rules, w);
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
fn generate_rules_cmd(
    path: &str,
    count: usize,
    malformed: usize,
    seed: u64,
    out: Out,
) -> Result<(), String> {
    let cfg = RuleCorpusConfig {
        malformed,
        ..RuleCorpusConfig::sized(count, seed)
    };
    let text = generate_rule_corpus(&cfg);
    std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
    let _ = writeln!(
        out,
        "wrote {path}: {} alert rule(s), {} malformed line(s), {} bytes (seed {})",
        count,
        malformed,
        text.len(),
        seed
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
fn analyze_rules_cmd(path: &str, top: usize, seed: u64, out: Out) -> Result<(), String> {
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
    let config = SplitDetectConfig::default();
    let sigs = set.to_signatures();
    let rules = CompiledRules::compile(&sigs, &config).map_err(|e| e.to_string())?;
    let plan = rules.plan();
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
    let _ = match plan.filter_shape() {
        Some((window, stride, bytes, avx2)) => writeln!(
            out,
            "window filter: w={window}, stride {stride}, bitmap {bytes} B, {}",
            if avx2 { "avx2 ×8" } else { "scalar" }
        ),
        None => writeln!(out, "window filter: off (1-byte piece)"),
    };

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
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11A);
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
        ANALYZE_CHUNKS, scanned, seed, total_hits
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
        for &(i, h) in ranked.iter().take(top) {
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
        if ranked.len() > top {
            let _ = writeln!(out, "... and {} more rule(s) with hits", ranked.len() - top);
        }
    }
    Ok(())
}

/// `sd serve`: the live capture daemon. See [`crate::serve`].
fn serve_cmd(args: &ServeArgs, out: Out) -> Result<(), String> {
    let rules = load_rules(args.engine.rules.as_deref(), out)?;
    let engine = split_engine(rules.to_signatures(), &args.engine)?;
    let scrape = match &args.scrape {
        Some(addr) => Some(
            sd_telemetry::ScrapeServer::bind(addr)
                .map_err(|e| format!("cannot bind scrape endpoint {addr}: {e}"))?,
        ),
        None => None,
    };
    let opts = ServeOptions {
        rules_path: args.engine.rules.clone(),
        scrape,
        max_duration: args.duration_secs.map(std::time::Duration::from_secs),
        ..Default::default()
    };
    // Signals land on the global control (the binary installs handlers
    // for `serve` only); everything else just polls these flags.
    let control = serve::global_control().clone();

    match args.source {
        ServeSource::Loopback => {
            let trace = workload(&rules, &args.workload).trace;
            let _ = writeln!(
                out,
                "loopback load: {} packets/pass, {} flows, {} labelled attack(s){}",
                trace.len(),
                trace.flow_count(),
                args.workload.attacks,
                match args.duration_secs {
                    Some(s) => format!(", looping for {s}s"),
                    None => ", one pass".to_string(),
                }
            );
            // With a deadline the trace loops until `max_duration` drains
            // the loop; without one it plays once and the source closes.
            let mut src = match args.duration_secs {
                Some(_) => TraceSource::cycling(&trace.packets),
                None => TraceSource::new(&trace.packets),
            };
            serve::serve(engine, &mut src, &control, opts, out)?;
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
