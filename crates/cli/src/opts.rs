//! Argument parsing — by hand, flag-order independent, no dependencies.

use std::fmt;

/// Usage text printed on parse errors.
pub const USAGE: &str = "\
usage:
  sd scan <capture.pcap> [--rules FILE] [--engine split|conventional|naive]
                         [--policy first|last|bsd|linux]
                         [--shards N] [--shard-batch PKTS]
                         [--slow-workers N] [--slow-lane-depth PKTS]
                         [--shed-policy block|shed-flow|alert-overload]
                         [--flow-hash-seed S]
  sd run <capture.pcap>  [--rules FILE] [--policy P] [--shards N]
                         [--shard-batch PKTS] [--metrics-out PATH]
                         [--slow-workers N] [--slow-lane-depth PKTS]
                         [--shed-policy S]
  sd compare <capture.pcap> [--rules FILE] [--policy P]
  sd stats <capture.pcap> [--shards N] [--shard-batch PKTS]
           [--format human|prom|json]
  sd rules <FILE>
  sd gauntlet [--rules FILE] [--policy P]
  sd replay <capture.pcap> [--rules FILE] [--speed X (default 1.0, 0 = unpaced)]
  sd generate <out.pcap> [--flows N] [--attacks N] [--seed S]
  sd fuzz [--iters N] [--seed S] [--minimize] [--sabotage ooo|frag]
          [--trace-out FILE] [--replay-trace FILE] [--rules-seed S]
  sd generate-rules <out.rules> [--count N] [--seed S] [--malformed N]
  sd analyze-rules <FILE> [--top N] [--seed S]
  sd serve [--rules FILE] [--source loopback|afpacket] [--iface IF]
           [--scrape ADDR] [--duration-secs N] [--shards N]
           [--flows N] [--attacks N] [--seed S] [--slow-workers N]
           [--slow-lane-depth PKTS] [--shed-policy S]
  sd lab record [--journal FILE] < sd-e2e-output
  sd lab list [--journal FILE]

Without --rules, the embedded demo rule set is used.
run drives Split-Detect over the capture and, with --metrics-out PATH,
writes the telemetry registry as PATH.prom (Prometheus text exposition)
and PATH.json. stats --format prom|json drives the engine and emits the
same registry instead of the human workload summary.
--shards N > 1 runs the flow-sharded engine; --shard-batch sets how many
packets the dispatcher accumulates per shard before each channel send
(default 64; 1 degrades to per-packet dispatch).
--flow-hash-seed S pins the flow-table hash key for bit-reproducible
runs; without it every engine draws a process-random key, so collision
floods against the table cannot be precomputed.
--slow-workers N >= 1 moves the slow path to N asynchronous worker
threads behind bounded lanes (--slow-lane-depth packets each, default
512) so diverted flows never stall the fast path; 0 (default) keeps it
inline. --shed-policy picks the full-lane behaviour: block (fast path
waits), shed-flow (drop + count), or alert-overload (drop + count +
synthetic overload alert; the default).
fuzz runs the differential oracle: random adversarial traces checked
against the victim model, Split-Detect (single and sharded) and the
conventional IPS. --sabotage disables a fast-path rule to prove the
oracle catches a broken engine; --minimize shrinks failures; the failing
trace is written to --trace-out (default fuzz-failure.trace);
--replay-trace re-runs one saved .trace file instead of a campaign;
--rules-seed S loads the engines under test with a generated rule
corpus (seed S) on top of the oracle signature, so campaigns exercise
realistic automaton sizes.
generate-rules writes a seeded Snort-subset signature corpus
(--count rules, --malformed appended broken lines for loader tests).
analyze-rules loads a rule file leniently (line-numbered diagnostics),
compiles the piece automaton, and reports its hot/cold tier layout, piece-dedup savings and per-rule fast-path
hit counts over a seeded benign workload (--top N rows, --seed S).
serve runs the engine as a long-lived daemon. --source loopback (the
default) feeds a seeded labelled workload (--flows/--attacks/--seed)
through an in-process source, looping it until --duration-secs elapses
(one pass when omitted); --source afpacket captures from --iface via an
AF_PACKET ring (requires a build with --features afpacket and
CAP_NET_RAW). --scrape ADDR serves Prometheus metrics at
http://ADDR/metrics. SIGHUP re-reads --rules and swaps the automaton
without dropping flow state; SIGTERM (or end of source) drains and
prints the final report.
lab journals the results of the sd-e2e benchmark (benchmark/).
`lab record` reads sd-e2e output on stdin and appends one row per
workload and mode (config, every metric, git commit + dirty flag,
rustc version) to an append-only JSONL journal (--journal, default
lab-journal.jsonl); input that is not sd-e2e output exits 2 and
journals nothing. `lab list` prints the journal's runs.";

/// Which engine `scan` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Split-Detect (the default).
    Split,
    /// The conventional reassembling IPS.
    Conventional,
    /// The naive per-packet strawman.
    Naive,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EngineKind::Split => "split-detect",
            EngineKind::Conventional => "conventional",
            EngineKind::Naive => "naive-packet",
        })
    }
}

/// Output format for `stats` (`--format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Human-readable workload summary (the default).
    Human,
    /// Prometheus text exposition of the engine's telemetry registry.
    Prom,
    /// JSON snapshot of the engine's telemetry registry.
    Json,
}

/// Which packet source `serve` captures from (`--source`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeSource {
    /// In-process loopback fed with a seeded labelled workload (the
    /// default; what CI and the soak harness drive).
    Loopback,
    /// AF_PACKET mmap-ring capture from `--iface` (Linux; needs a build
    /// with `--features afpacket`).
    AfPacket,
}

/// Which fast-path rule `fuzz --sabotage` disables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SabotageKind {
    /// Disable the out-of-order divert rule.
    OutOfOrder,
    /// Disable the fragment divert rule.
    Fragments,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedArgs {
    /// The subcommand with its positional arguments.
    pub command: Command,
    /// `--rules FILE`.
    pub rules: Option<String>,
    /// `--policy P`.
    pub policy: sd_reassembly::OverlapPolicy,
    /// `--engine E` (scan only).
    pub engine: EngineKind,
    /// `--flows N` (generate).
    pub flows: usize,
    /// `--attacks N` (generate).
    pub attacks: usize,
    /// `--seed S` (generate).
    pub seed: u64,
    /// `--speed X` (replay); 0 means unpaced.
    pub speed: f64,
    /// `--shards N` (scan/stats); 1 = single engine.
    pub shards: usize,
    /// `--shard-batch PKTS` (scan/stats): dispatcher batch size.
    pub shard_batch: usize,
    /// `--iters N` (fuzz): campaign length.
    pub iters: u64,
    /// `--minimize` (fuzz): shrink failing traces.
    pub minimize: bool,
    /// `--sabotage ooo|frag` (fuzz): deliberately cripple the engine.
    pub sabotage: Option<SabotageKind>,
    /// `--trace-out FILE` (fuzz): where the failing trace is written.
    pub trace_out: String,
    /// `--replay-trace FILE` (fuzz): replay one saved trace instead of a
    /// campaign.
    pub replay_trace: Option<String>,
    /// `--metrics-out PATH` (run): write telemetry as PATH.prom + PATH.json.
    pub metrics_out: Option<String>,
    /// `--format human|prom|json` (stats).
    pub format: OutputFormat,
    /// `--slow-workers N`: asynchronous slow-path worker threads
    /// (0 = inline slow path, the default).
    pub slow_workers: usize,
    /// `--slow-lane-depth PKTS`: bound of each slow-path worker lane.
    pub slow_lane_depth: usize,
    /// `--shed-policy block|shed-flow|alert-overload`: full-lane policy.
    pub shed_policy: splitdetect::ShedPolicy,
    /// `--flow-hash-seed S`: pin the flow-table hash key (reproducible
    /// runs); absent, the engine draws a process-random key.
    pub flow_hash_seed: Option<u64>,
    /// `--count N` (generate-rules): alert rules to emit.
    pub count: usize,
    /// `--malformed N` (generate-rules): broken trailing lines to append.
    pub malformed: usize,
    /// `--top N` (analyze-rules): rows in the per-rule hit table.
    pub top: usize,
    /// `--rules-seed S` (fuzz): run the campaign against a generated rule
    /// corpus (plus the oracle signature) instead of the signature alone.
    pub rules_seed: Option<u64>,
    /// `--source loopback|afpacket` (serve): the capture source.
    pub source: ServeSource,
    /// `--iface IF` (serve --source afpacket): interface to capture from.
    pub iface: Option<String>,
    /// `--scrape ADDR` (serve): bind a Prometheus endpoint here.
    pub scrape: Option<String>,
    /// `--duration-secs N` (serve): drain after N seconds of wall clock.
    pub duration_secs: Option<u64>,
}

/// `sd lab` action, with its own flag namespace.
#[derive(Debug, Clone, PartialEq)]
pub enum LabAction {
    /// Journal the `sd-e2e` output read on stdin.
    Record {
        /// `--journal FILE`: where the rows are appended.
        journal: String,
    },
    /// Print the journal's runs.
    List {
        /// `--journal FILE`: the journal to summarize.
        journal: String,
    },
}

/// Default journal path for `sd lab`.
pub const DEFAULT_JOURNAL: &str = "lab-journal.jsonl";

/// The subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Scan a capture.
    Scan(String),
    /// Run Split-Detect over a capture with telemetry export.
    Run(String),
    /// Compare all three engines on a capture.
    Compare(String),
    /// Print workload statistics of a capture.
    Stats(String),
    /// Lint a rule file.
    Rules(String),
    /// Run the evasion gauntlet.
    Gauntlet,
    /// Generate a labelled workload.
    Generate(String),
    /// Replay a capture at its recorded pacing (scaled by --speed).
    Replay(String),
    /// Run the differential fuzzing oracle.
    Fuzz,
    /// Write a seeded Snort-subset rule corpus.
    GenerateRules(String),
    /// Analyze a rule corpus: parse diagnostics, piece-automaton cost and
    /// tier layout, piece dedup, per-rule fast-path hits.
    AnalyzeRules(String),
    /// Run the live capture daemon.
    Serve,
}

/// Parse `args` (without the program name). Every subcommand but `lab`
/// shares one flag loop; `lab` has its own namespace ([`parse_lab`]).
pub fn parse(args: &[String]) -> Result<ParsedArgs, String> {
    let mut it = args.iter();
    let sub = it.next().ok_or("missing subcommand")?;

    let mut positional: Vec<String> = Vec::new();
    let mut rules = None;
    let mut policy = sd_reassembly::OverlapPolicy::First;
    let mut engine = EngineKind::Split;
    let mut flows = 100usize;
    let mut attacks = 3usize;
    let mut seed = 1u64;
    let mut speed = 1.0f64;
    let mut shards = 1usize;
    let mut shard_batch = 64usize;
    let mut iters = 256u64;
    let mut minimize = false;
    let mut sabotage = None;
    let mut trace_out = "fuzz-failure.trace".to_string();
    let mut replay_trace = None;
    let mut metrics_out = None;
    let mut format = OutputFormat::Human;
    let mut slow_workers = 0usize;
    let mut slow_lane_depth = 512usize;
    let mut shed_policy = splitdetect::ShedPolicy::default();
    let mut flow_hash_seed = None;
    let mut count = 1000usize;
    let mut malformed = 0usize;
    let mut top = 10usize;
    let mut rules_seed = None;
    let mut source = ServeSource::Loopback;
    let mut iface = None;
    let mut scrape = None;
    let mut duration_secs = None;

    while let Some(arg) = it.next() {
        let mut value_of = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--rules" => rules = Some(value_of("--rules")?.clone()),
            "--policy" => {
                policy = match value_of("--policy")?.as_str() {
                    "first" => sd_reassembly::OverlapPolicy::First,
                    "last" => sd_reassembly::OverlapPolicy::Last,
                    "bsd" => sd_reassembly::OverlapPolicy::Bsd,
                    "linux" => sd_reassembly::OverlapPolicy::Linux,
                    other => return Err(format!("unknown policy {other:?}")),
                }
            }
            "--engine" => {
                engine = match value_of("--engine")?.as_str() {
                    "split" | "split-detect" | "sd" => EngineKind::Split,
                    "conventional" | "conv" => EngineKind::Conventional,
                    "naive" => EngineKind::Naive,
                    other => return Err(format!("unknown engine {other:?}")),
                }
            }
            "--flows" => {
                flows = value_of("--flows")?
                    .parse()
                    .map_err(|_| "bad --flows value".to_string())?
            }
            "--attacks" => {
                attacks = value_of("--attacks")?
                    .parse()
                    .map_err(|_| "bad --attacks value".to_string())?
            }
            "--seed" => {
                seed = value_of("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed value".to_string())?
            }
            "--speed" => {
                speed = value_of("--speed")?
                    .parse()
                    .map_err(|_| "bad --speed value".to_string())?;
                if speed < 0.0 {
                    return Err("--speed must be >= 0".into());
                }
            }
            "--shards" => {
                shards = value_of("--shards")?
                    .parse()
                    .map_err(|_| "bad --shards value".to_string())?;
                if shards == 0 {
                    return Err("--shards must be >= 1".into());
                }
            }
            "--shard-batch" => {
                shard_batch = value_of("--shard-batch")?
                    .parse()
                    .map_err(|_| "bad --shard-batch value".to_string())?;
                if shard_batch == 0 {
                    return Err("--shard-batch must be >= 1".into());
                }
            }
            "--iters" => {
                iters = value_of("--iters")?
                    .parse()
                    .map_err(|_| "bad --iters value".to_string())?;
                if iters == 0 {
                    return Err("--iters must be >= 1".into());
                }
            }
            "--minimize" => minimize = true,
            "--sabotage" => {
                sabotage = Some(match value_of("--sabotage")?.as_str() {
                    "ooo" | "out-of-order" => SabotageKind::OutOfOrder,
                    "frag" | "fragments" => SabotageKind::Fragments,
                    other => return Err(format!("unknown sabotage {other:?}")),
                })
            }
            "--trace-out" => trace_out = value_of("--trace-out")?.clone(),
            "--replay-trace" => replay_trace = Some(value_of("--replay-trace")?.clone()),
            "--metrics-out" => metrics_out = Some(value_of("--metrics-out")?.clone()),
            "--format" => {
                format = match value_of("--format")?.as_str() {
                    "human" => OutputFormat::Human,
                    "prom" | "prometheus" => OutputFormat::Prom,
                    "json" => OutputFormat::Json,
                    other => return Err(format!("unknown format {other:?}")),
                }
            }
            "--slow-workers" => {
                slow_workers = value_of("--slow-workers")?
                    .parse()
                    .map_err(|_| "bad --slow-workers value".to_string())?
            }
            "--slow-lane-depth" => {
                slow_lane_depth = value_of("--slow-lane-depth")?
                    .parse()
                    .map_err(|_| "bad --slow-lane-depth value".to_string())?;
                if slow_lane_depth == 0 {
                    return Err("--slow-lane-depth must be >= 1".into());
                }
            }
            "--shed-policy" => {
                let v = value_of("--shed-policy")?;
                shed_policy = splitdetect::ShedPolicy::from_name(v)
                    .ok_or_else(|| format!("unknown shed policy {v:?}"))?;
            }
            "--flow-hash-seed" => {
                flow_hash_seed = Some(
                    value_of("--flow-hash-seed")?
                        .parse()
                        .map_err(|_| "bad --flow-hash-seed value".to_string())?,
                )
            }
            "--count" => {
                count = value_of("--count")?
                    .parse()
                    .map_err(|_| "bad --count value".to_string())?;
                if count == 0 {
                    return Err("--count must be >= 1".into());
                }
            }
            "--malformed" => {
                malformed = value_of("--malformed")?
                    .parse()
                    .map_err(|_| "bad --malformed value".to_string())?
            }
            "--top" => {
                top = value_of("--top")?
                    .parse()
                    .map_err(|_| "bad --top value".to_string())?;
                if top == 0 {
                    return Err("--top must be >= 1".into());
                }
            }
            "--rules-seed" => {
                rules_seed = Some(
                    value_of("--rules-seed")?
                        .parse()
                        .map_err(|_| "bad --rules-seed value".to_string())?,
                )
            }
            "--source" => {
                source = match value_of("--source")?.as_str() {
                    "loopback" => ServeSource::Loopback,
                    "afpacket" | "af-packet" => ServeSource::AfPacket,
                    other => return Err(format!("unknown source {other:?}")),
                }
            }
            "--iface" => iface = Some(value_of("--iface")?.clone()),
            "--scrape" => scrape = Some(value_of("--scrape")?.clone()),
            "--duration-secs" => {
                let v: u64 = value_of("--duration-secs")?
                    .parse()
                    .map_err(|_| "bad --duration-secs value".to_string())?;
                if v == 0 {
                    return Err("--duration-secs must be >= 1".into());
                }
                duration_secs = Some(v);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            pos => positional.push(pos.to_string()),
        }
    }

    let need_one = |what: &str, positional: &[String]| -> Result<String, String> {
        match positional {
            [one] => Ok(one.clone()),
            [] => Err(format!("{sub} needs a {what}")),
            _ => Err(format!("{sub} takes exactly one {what}")),
        }
    };

    let command = match sub.as_str() {
        "scan" => Command::Scan(need_one("pcap path", &positional)?),
        "run" => Command::Run(need_one("pcap path", &positional)?),
        "compare" => Command::Compare(need_one("pcap path", &positional)?),
        "stats" => Command::Stats(need_one("pcap path", &positional)?),
        "rules" => Command::Rules(need_one("rules path", &positional)?),
        "gauntlet" => {
            if !positional.is_empty() {
                return Err("gauntlet takes no positional arguments".into());
            }
            Command::Gauntlet
        }
        "generate" => Command::Generate(need_one("output path", &positional)?),
        "replay" => Command::Replay(need_one("pcap path", &positional)?),
        "fuzz" => {
            if !positional.is_empty() {
                return Err("fuzz takes no positional arguments".into());
            }
            Command::Fuzz
        }
        "generate-rules" => Command::GenerateRules(need_one("output path", &positional)?),
        "analyze-rules" => Command::AnalyzeRules(need_one("rules path", &positional)?),
        "serve" => {
            if !positional.is_empty() {
                return Err("serve takes no positional arguments".into());
            }
            if source == ServeSource::AfPacket && iface.is_none() {
                return Err("--source afpacket needs --iface".into());
            }
            Command::Serve
        }
        other => return Err(format!("unknown subcommand {other:?}")),
    };

    Ok(ParsedArgs {
        command,
        rules,
        policy,
        engine,
        flows,
        attacks,
        seed,
        speed,
        shards,
        shard_batch,
        iters,
        minimize,
        sabotage,
        trace_out,
        replay_trace,
        metrics_out,
        format,
        slow_workers,
        slow_lane_depth,
        shed_policy,
        flow_hash_seed,
        count,
        malformed,
        top,
        rules_seed,
        source,
        iface,
        scrape,
        duration_secs,
    })
}

/// Parse `sd lab <action> [--journal FILE]` (the arguments after `lab`).
pub fn parse_lab(args: &[String]) -> Result<LabAction, String> {
    let mut it = args.iter();
    let action = it.next().ok_or("lab needs an action: record|list")?;
    let make: fn(String) -> LabAction = match action.as_str() {
        "record" => |journal| LabAction::Record { journal },
        "list" => |journal| LabAction::List { journal },
        other => return Err(format!("unknown lab action {other:?} (record|list)")),
    };
    let mut journal = DEFAULT_JOURNAL.to_string();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--journal" => journal = it.next().ok_or("--journal needs a value")?.clone(),
            flag if flag.starts_with("--") => return Err(format!("unknown lab flag {flag}")),
            _ => return Err(format!("lab {action} takes no positional arguments")),
        }
    }
    Ok(make(journal))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn scan_with_flags() {
        let p = parse(&args("scan cap.pcap --engine conv --policy linux")).unwrap();
        assert_eq!(p.command, Command::Scan("cap.pcap".into()));
        assert_eq!(p.engine, EngineKind::Conventional);
        assert_eq!(p.policy, sd_reassembly::OverlapPolicy::Linux);
    }

    #[test]
    fn generate_defaults_and_overrides() {
        let p = parse(&args("generate out.pcap")).unwrap();
        assert_eq!((p.flows, p.attacks, p.seed), (100, 3, 1));
        let p = parse(&args("generate out.pcap --flows 5 --attacks 2 --seed 9")).unwrap();
        assert_eq!((p.flows, p.attacks, p.seed), (5, 2, 9));
    }

    #[test]
    fn flag_order_is_free() {
        let a = parse(&args("scan --rules r.rules cap.pcap")).unwrap();
        let b = parse(&args("scan cap.pcap --rules r.rules")).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rule_corpus_commands_parse() {
        let p = parse(&args("generate-rules out.rules")).unwrap();
        assert_eq!(p.command, Command::GenerateRules("out.rules".into()));
        assert_eq!((p.count, p.malformed, p.seed), (1000, 0, 1));

        let p = parse(&args(
            "generate-rules out.rules --count 10000 --seed 42 --malformed 5",
        ))
        .unwrap();
        assert_eq!((p.count, p.malformed, p.seed), (10000, 5, 42));

        let p = parse(&args("analyze-rules corpus.rules")).unwrap();
        assert_eq!(p.command, Command::AnalyzeRules("corpus.rules".into()));
        assert_eq!(p.top, 10);
        let p = parse(&args("analyze-rules corpus.rules --top 25")).unwrap();
        assert_eq!(p.top, 25);

        let p = parse(&args("fuzz --rules-seed 7")).unwrap();
        assert_eq!(p.rules_seed, Some(7));
        let p = parse(&args("fuzz")).unwrap();
        assert_eq!(p.rules_seed, None);
    }

    #[test]
    fn slow_path_flags_default_and_parse() {
        use splitdetect::ShedPolicy;
        let p = parse(&args("scan cap.pcap")).unwrap();
        assert_eq!(
            (p.slow_workers, p.slow_lane_depth, p.shed_policy),
            (0, 512, ShedPolicy::AlertOverload)
        );
        let p = parse(&args(
            "scan cap.pcap --slow-workers 4 --slow-lane-depth 64 --shed-policy block",
        ))
        .unwrap();
        assert_eq!(
            (p.slow_workers, p.slow_lane_depth, p.shed_policy),
            (4, 64, ShedPolicy::Block)
        );
        let p = parse(&args("run cap.pcap --shed-policy shed-flow")).unwrap();
        assert_eq!(p.shed_policy, ShedPolicy::ShedFlow);
        let p = parse(&args("run cap.pcap --shed-policy alert-overload")).unwrap();
        assert_eq!(p.shed_policy, ShedPolicy::AlertOverload);
    }

    #[test]
    fn shard_flags_default_and_parse() {
        let p = parse(&args("scan cap.pcap")).unwrap();
        assert_eq!((p.shards, p.shard_batch), (1, 64));
        let p = parse(&args("scan cap.pcap --shards 4 --shard-batch 256")).unwrap();
        assert_eq!((p.shards, p.shard_batch), (4, 256));
        let p = parse(&args("stats cap.pcap --shards 2")).unwrap();
        assert_eq!((p.shards, p.shard_batch), (2, 64));
    }

    #[test]
    fn fuzz_defaults_and_flags() {
        let p = parse(&args("fuzz")).unwrap();
        assert_eq!(p.command, Command::Fuzz);
        assert_eq!((p.iters, p.seed, p.minimize), (256, 1, false));
        assert_eq!(p.sabotage, None);
        assert_eq!(p.trace_out, "fuzz-failure.trace");
        assert_eq!(p.replay_trace, None);

        let p = parse(&args(
            "fuzz --iters 5000 --seed 7 --minimize --sabotage ooo --trace-out f.trace",
        ))
        .unwrap();
        assert_eq!((p.iters, p.seed, p.minimize), (5000, 7, true));
        assert_eq!(p.sabotage, Some(SabotageKind::OutOfOrder));
        assert_eq!(p.trace_out, "f.trace");

        let p = parse(&args("fuzz --sabotage frag --replay-trace saved.trace")).unwrap();
        assert_eq!(p.sabotage, Some(SabotageKind::Fragments));
        assert_eq!(p.replay_trace.as_deref(), Some("saved.trace"));
    }

    #[test]
    fn run_and_format_flags() {
        let p = parse(&args("run cap.pcap")).unwrap();
        assert_eq!(p.command, Command::Run("cap.pcap".into()));
        assert_eq!(p.metrics_out, None);
        assert_eq!(p.format, OutputFormat::Human);

        let p = parse(&args("run cap.pcap --metrics-out m --shards 2")).unwrap();
        assert_eq!(p.metrics_out.as_deref(), Some("m"));
        assert_eq!(p.shards, 2);

        let p = parse(&args("stats cap.pcap --format prom")).unwrap();
        assert_eq!(p.format, OutputFormat::Prom);
        let p = parse(&args("stats cap.pcap --format json")).unwrap();
        assert_eq!(p.format, OutputFormat::Json);
        let p = parse(&args("stats cap.pcap --format human")).unwrap();
        assert_eq!(p.format, OutputFormat::Human);
    }

    #[test]
    fn serve_defaults_and_flags() {
        let p = parse(&args("serve")).unwrap();
        assert_eq!(p.command, Command::Serve);
        assert_eq!(p.source, ServeSource::Loopback);
        assert_eq!((p.iface, p.scrape, p.duration_secs), (None, None, None));

        let p = parse(&args(
            "serve --source afpacket --iface eth0 --scrape 127.0.0.1:9100 \
             --duration-secs 30 --rules r.rules --shards 4",
        ))
        .unwrap();
        assert_eq!(p.source, ServeSource::AfPacket);
        assert_eq!(p.iface.as_deref(), Some("eth0"));
        assert_eq!(p.scrape.as_deref(), Some("127.0.0.1:9100"));
        assert_eq!(p.duration_secs, Some(30));
        assert_eq!(p.shards, 4);
    }

    #[test]
    fn lab_actions_parse() {
        assert_eq!(
            parse_lab(&args("record")).unwrap(),
            LabAction::Record {
                journal: DEFAULT_JOURNAL.into()
            }
        );
        assert_eq!(
            parse_lab(&args("record --journal j.jsonl")).unwrap(),
            LabAction::Record {
                journal: "j.jsonl".into()
            }
        );
        assert_eq!(
            parse_lab(&args("list")).unwrap(),
            LabAction::List {
                journal: DEFAULT_JOURNAL.into()
            }
        );
        assert_eq!(
            parse_lab(&args("list --journal j.jsonl")).unwrap(),
            LabAction::List {
                journal: "j.jsonl".into()
            }
        );
    }

    #[test]
    fn lab_errors_are_helpful() {
        for bad in [
            "",
            "frobnicate",
            "record stray",
            "list stray",
            "record --journal",
            "record --unknown-flag",
            // The baseline machinery is gone: its actions and flags with it.
            "run flowstate-occupancy",
            "emit",
            "compare j.jsonl b.json",
            "import b.json",
            "record --smoke",
            "record --rounds 3",
            "list --out-dir d",
            "record --threshold 0.1",
            "record --mem-threshold 0.1",
        ] {
            assert!(parse_lab(&args(bad)).is_err(), "should reject {bad:?}");
        }
        // `lab` is not a flag-loop subcommand: `sd_cli::run` routes it.
        assert!(parse(&args("lab list")).is_err());
    }

    #[test]
    fn errors_are_helpful() {
        for bad in [
            "",
            "scan",
            "scan a b",
            "scan cap.pcap --engine warp",
            "scan cap.pcap --policy strict",
            "frobnicate x",
            "scan cap.pcap --rules",
            "generate out.pcap --flows many",
            "gauntlet stray",
            "scan cap.pcap --shards 0",
            "scan cap.pcap --shard-batch 0",
            "scan cap.pcap --shards x",
            "fuzz stray",
            "fuzz --iters 0",
            "fuzz --iters many",
            "fuzz --sabotage everything",
            "fuzz --trace-out",
            "run",
            "run a b",
            "run cap.pcap --metrics-out",
            "stats cap.pcap --format yaml",
            // One piece automaton: its former selector flags are gone.
            "scan cap.pcap --matcher tiered",
            "serve --tiered-hot 4096",
            "scan cap.pcap --slow-workers many",
            "scan cap.pcap --slow-lane-depth 0",
            "scan cap.pcap --shed-policy coin-flip",
            "scan cap.pcap --shed-policy",
            "generate-rules",
            "generate-rules a b",
            "generate-rules out.rules --count 0",
            "generate-rules out.rules --count many",
            "analyze-rules",
            "analyze-rules corpus.rules --top 0",
            "fuzz --rules-seed",
            "fuzz --rules-seed maybe",
            "serve stray",
            "serve --source carrier-pigeon",
            "serve --source afpacket",
            "serve --duration-secs 0",
            "serve --duration-secs soon",
            "serve --scrape",
        ] {
            assert!(parse(&args(bad)).is_err(), "should reject {bad:?}");
        }
    }
}
