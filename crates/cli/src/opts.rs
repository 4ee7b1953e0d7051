//! Argument parsing — by hand, flag-order independent, no dependencies.
//!
//! Each subcommand takes exactly the flags on its usage line: its parser
//! takes them out of [`Args`] one by one, and a flag left over at the end
//! is an `unknown flag`.

use std::num::NonZeroU64;
use std::str::FromStr;

use sd_oracle::EngineTweaks;
use sd_reassembly::OverlapPolicy;
use splitdetect::SplitDetectConfig;

use crate::commands::MAX_ATTACKS;

/// Usage text printed on parse errors.
pub const USAGE: &str = "\
usage:
  sd scan <capture.pcap> [--rules FILE] [--engine split|conventional|naive]
                         [--policy first|last|bsd|linux]
                         [--shards N]
                         [--slow-workers N] [--slow-lane-depth PKTS]
                         [--flow-hash-seed S] [--metrics-out BASE]
  sd compare <capture.pcap> [--rules FILE] [--policy P]
  sd stats <capture.pcap>
  sd rules <FILE>
  sd gauntlet [--rules FILE] [--policy P]
  sd generate <out.pcap> [--rules FILE] [--flows N] [--attacks N] [--seed S]
  sd fuzz [--iters N] [--seed S] [--minimize] [--sabotage ooo|frag]
          [--trace-out FILE] [--replay-trace FILE] [--rules-seed S]
  sd generate-rules <out.rules> [--count N] [--seed S] [--malformed N]
  sd analyze-rules <FILE> [--top N] [--seed S]
  sd serve [--rules FILE] [--policy P] [--shards N]
           [--slow-workers N] [--slow-lane-depth PKTS] [--flow-hash-seed S]
           [--source loopback|afpacket] [--iface IF] [--scrape ADDR]
           [--duration-secs N] [--flows N] [--attacks N] [--seed S]

Without --rules, the embedded demo rule set is used.
scan runs one engine over the capture; split-detect runs through the
loop serve runs. --metrics-out BASE (split engine) writes the run's
metrics to BASE.prom (Prometheus text format).
--shards N > 1 runs the flow-sharded engine, sending 64 packets per
dispatch. --flow-hash-seed S pins the
flow-table hash key (default: process-random, so collision floods
cannot be precomputed). --slow-workers N >= 1 runs the slow path on N
threads behind lanes of --slow-lane-depth packets (default 512); a
packet meeting a full lane is shed and counted, with one overload alert
per episode. 0 (default) keeps the slow path inline.
stats describes a capture's workload; rules lints a rule file.
fuzz checks random adversarial traces against the victim model,
Split-Detect (single and sharded) and the conventional IPS. --sabotage
disables a fast-path rule, --minimize shrinks failures, the failing
trace goes to --trace-out (default fuzz-failure.trace), --replay-trace
re-runs one, and --rules-seed S adds a generated rule corpus.
generate-rules writes a seeded Snort-subset corpus (--malformed appends
broken lines); analyze-rules reports its parse diagnostics, automaton
cost and tier layout, piece dedup, and per-rule hits on seeded benign
payload (--top rows).
serve runs the engine as a daemon. --source loopback (default) loops
generate's workload until --duration-secs (one pass without it);
afpacket captures from --iface (build with --features afpacket; needs
CAP_NET_RAW). --scrape ADDR serves http://ADDR/metrics. SIGHUP reloads
--rules without dropping flow state; SIGTERM drains and reports.";

/// Which engine `scan` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Split,
    Conventional,
    Naive,
}

/// Which packet source `serve` captures from: the `generate` workload
/// played from memory (the default), or an AF_PACKET ring on
/// `--iface` (Linux; needs a build with `--features afpacket`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeSource {
    Loopback,
    AfPacket,
}

/// The engine flags `scan` and `serve` share.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineArgs {
    /// `None`: the embedded demo rules.
    pub rules: Option<String>,
    pub policy: OverlapPolicy,
    /// 1 runs the single engine.
    pub shards: usize,
    /// 0 keeps the slow path inline.
    pub slow_workers: usize,
    pub slow_lane_depth: usize,
    /// `None`: each engine draws a process-random flow-table hash key.
    pub flow_hash_seed: Option<u64>,
}

/// The labelled workload `generate` writes and `serve` loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadArgs {
    pub flows: usize,
    /// At most [`MAX_ATTACKS`].
    pub attacks: usize,
    pub seed: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ScanArgs {
    pub pcap: String,
    pub kind: EngineKind,
    pub engine: EngineArgs,
    /// Split engine only: write `BASE.prom`.
    pub metrics_out: Option<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct FuzzArgs {
    pub iters: u64,
    pub seed: u64,
    pub minimize: bool,
    /// `--sabotage`: the fast-path divert rule to disable.
    pub tweaks: EngineTweaks,
    pub trace_out: String,
    /// Replay one saved trace instead of running a campaign.
    pub replay_trace: Option<String>,
    pub rules_seed: Option<u64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    pub engine: EngineArgs,
    /// What the loopback source feeds.
    pub workload: WorkloadArgs,
    pub source: ServeSource,
    pub iface: Option<String>,
    pub scrape: Option<String>,
    pub duration_secs: Option<u64>,
}

/// A subcommand with the values it reads.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Scan(ScanArgs),
    Compare {
        pcap: String,
        rules: Option<String>,
        policy: OverlapPolicy,
    },
    Stats(String),
    Rules(String),
    Gauntlet {
        rules: Option<String>,
        /// The victim's overlap policy.
        policy: OverlapPolicy,
    },
    Generate {
        path: String,
        rules: Option<String>,
        workload: WorkloadArgs,
    },
    Fuzz(FuzzArgs),
    GenerateRules {
        path: String,
        count: usize,
        malformed: usize,
        seed: u64,
    },
    AnalyzeRules {
        path: String,
        top: usize,
        seed: u64,
    },
    Serve(ServeArgs),
}

const POLICIES: &[(&str, OverlapPolicy)] = &[
    ("first", OverlapPolicy::First),
    ("last", OverlapPolicy::Last),
    ("bsd", OverlapPolicy::Bsd),
    ("linux", OverlapPolicy::Linux),
];

const OUT_OF_ORDER: EngineTweaks = EngineTweaks {
    disable_out_of_order: true,
    ..EngineTweaks::NONE
};
const FRAGMENTS: EngineTweaks = EngineTweaks {
    disable_fragments: true,
    ..EngineTweaks::NONE
};

/// Flags that take no value.
const SWITCHES: &[&str] = &["--minimize"];

/// Parse `args` (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let (sub, rest) = args.split_first().ok_or("missing subcommand")?;
    let mut a = Args::new(sub, rest);
    let command = match sub.as_str() {
        "scan" => {
            let scan = ScanArgs {
                pcap: a.one("pcap path")?,
                kind: a.choice(
                    "--engine",
                    EngineKind::Split,
                    &[
                        ("split", EngineKind::Split),
                        ("split-detect", EngineKind::Split),
                        ("sd", EngineKind::Split),
                        ("conventional", EngineKind::Conventional),
                        ("conv", EngineKind::Conventional),
                        ("naive", EngineKind::Naive),
                    ],
                )?,
                engine: a.engine()?,
                metrics_out: a.opt("--metrics-out")?,
            };
            if scan.metrics_out.is_some() && scan.kind != EngineKind::Split {
                return Err("--metrics-out needs the split engine".into());
            }
            Command::Scan(scan)
        }
        "compare" => Command::Compare {
            pcap: a.one("pcap path")?,
            rules: a.opt("--rules")?,
            policy: a.policy()?,
        },
        "stats" => Command::Stats(a.one("pcap path")?),
        "rules" => Command::Rules(a.one("rules path")?),
        "gauntlet" => Command::Gauntlet {
            rules: a.opt("--rules")?,
            policy: a.policy()?,
        },
        "generate" => Command::Generate {
            path: a.one("output path")?,
            rules: a.opt("--rules")?,
            workload: a.workload()?,
        },
        "fuzz" => Command::Fuzz(FuzzArgs {
            iters: a.nonzero("--iters", 256)?,
            seed: a.get("--seed", 1)?,
            minimize: a.take("--minimize").is_some(),
            tweaks: a.choice(
                "--sabotage",
                EngineTweaks::NONE,
                &[
                    ("ooo", OUT_OF_ORDER),
                    ("out-of-order", OUT_OF_ORDER),
                    ("frag", FRAGMENTS),
                    ("fragments", FRAGMENTS),
                ],
            )?,
            trace_out: a.get("--trace-out", "fuzz-failure.trace".to_string())?,
            replay_trace: a.opt("--replay-trace")?,
            rules_seed: a.opt("--rules-seed")?,
        }),
        "generate-rules" => Command::GenerateRules {
            path: a.one("output path")?,
            count: a.nonzero("--count", 1000)?,
            malformed: a.get("--malformed", 0)?,
            seed: a.get("--seed", 1)?,
        },
        "analyze-rules" => Command::AnalyzeRules {
            path: a.one("rules path")?,
            top: a.nonzero("--top", 10)?,
            seed: a.get("--seed", 1)?,
        },
        "serve" => {
            let serve = ServeArgs {
                engine: a.engine()?,
                workload: a.workload()?,
                source: a.choice(
                    "--source",
                    ServeSource::Loopback,
                    &[
                        ("loopback", ServeSource::Loopback),
                        ("afpacket", ServeSource::AfPacket),
                        ("af-packet", ServeSource::AfPacket),
                    ],
                )?,
                iface: a.opt("--iface")?,
                scrape: a.opt("--scrape")?,
                duration_secs: a.opt("--duration-secs")?.map(NonZeroU64::get),
            };
            if serve.source == ServeSource::AfPacket && serve.iface.is_none() {
                return Err("--source afpacket needs --iface".into());
            }
            Command::Serve(serve)
        }
        other => return Err(format!("unknown subcommand {other:?}")),
    };
    a.done()?;
    Ok(command)
}

/// One subcommand's arguments, split into positionals and `--flag value`
/// pairs; its parser takes the flags on its usage line out one by one.
struct Args<'a> {
    sub: &'a str,
    positional: Vec<String>,
    /// `(flag, value)`; `None` for a switch or a flag missing its value.
    flags: Vec<(String, Option<String>)>,
}

impl<'a> Args<'a> {
    fn new(sub: &'a str, rest: &[String]) -> Self {
        let (mut positional, mut flags) = (Vec::new(), Vec::new());
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                positional.push(arg.clone());
            } else if SWITCHES.contains(&arg.as_str()) {
                flags.push((arg.clone(), None));
            } else {
                flags.push((arg.clone(), it.next().cloned()));
            }
        }
        Args {
            sub,
            positional,
            flags,
        }
    }

    /// Remove every `name` flag; the last one's value wins.
    fn take(&mut self, name: &str) -> Option<Option<String>> {
        let last = self.flags.iter().rposition(|(f, _)| f == name)?;
        let value = self.flags.remove(last).1;
        self.flags.retain(|(f, _)| f != name);
        Some(value)
    }

    /// `name`'s value parsed as `T`, or `None` when it is not given.
    fn opt<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.take(name) {
            None => Ok(None),
            Some(None) => Err(format!("{name} needs a value")),
            Some(Some(v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad {name} value {v:?}")),
        }
    }

    fn get<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// [`Args::get`] for a count that must be at least 1.
    fn nonzero<T: FromStr + Default + PartialEq>(
        &mut self,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        let v = self.get(name, default)?;
        if v == T::default() {
            return Err(format!("{name} must be >= 1"));
        }
        Ok(v)
    }

    /// `name`'s value looked up among `(value, T)` choices.
    fn choice<T: Copy>(&mut self, name: &str, default: T, of: &[(&str, T)]) -> Result<T, String> {
        let Some(v) = self.opt::<String>(name)? else {
            return Ok(default);
        };
        let found = of.iter().find(|(k, _)| *k == v).map(|&(_, t)| t);
        found.ok_or_else(|| format!("unknown {} {v:?}", name.trim_start_matches('-')))
    }

    fn policy(&mut self) -> Result<OverlapPolicy, String> {
        self.choice("--policy", OverlapPolicy::First, POLICIES)
    }

    fn engine(&mut self) -> Result<EngineArgs, String> {
        let d = SplitDetectConfig::default();
        Ok(EngineArgs {
            rules: self.opt("--rules")?,
            policy: self.policy()?,
            shards: self.nonzero("--shards", 1)?,
            slow_workers: self.get("--slow-workers", d.slow_path_workers)?,
            slow_lane_depth: self.nonzero("--slow-lane-depth", d.slow_path_lane_depth)?,
            flow_hash_seed: self.opt("--flow-hash-seed")?,
        })
    }

    fn workload(&mut self) -> Result<WorkloadArgs, String> {
        let w = WorkloadArgs {
            flows: self.get("--flows", 100)?,
            attacks: self.get("--attacks", 3)?,
            seed: self.get("--seed", 1)?,
        };
        if w.attacks > MAX_ATTACKS {
            return Err(format!("--attacks must be <= {MAX_ATTACKS}"));
        }
        Ok(w)
    }

    /// Take the one positional argument.
    fn one(&mut self, what: &str) -> Result<String, String> {
        match self.positional.len() {
            1 => Ok(self.positional.remove(0)),
            0 => Err(format!("{} needs a {what}", self.sub)),
            _ => Err(format!("{} takes exactly one {what}", self.sub)),
        }
    }

    /// Reject whatever the subcommand did not take.
    fn done(self) -> Result<(), String> {
        if let Some(extra) = self.positional.first() {
            return Err(format!("{}: unexpected argument {extra:?}", self.sub));
        }
        match self.flags.first() {
            Some((flag, _)) => Err(format!("unknown flag {flag}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// Parse a command line that must be the `$variant` command.
    macro_rules! parse_as {
        ($variant:ident, $line:expr) => {
            match parse(&args($line)).unwrap() {
                Command::$variant(a) => a,
                other => panic!("{other:?}"),
            }
        };
    }

    #[test]
    fn scan_with_flags() {
        let p = parse_as!(Scan, "scan cap.pcap --engine conv --policy linux");
        assert_eq!(p.pcap, "cap.pcap");
        assert_eq!(p.kind, EngineKind::Conventional);
        assert_eq!(p.engine.policy, OverlapPolicy::Linux);
    }

    #[test]
    fn generate_defaults_and_overrides() {
        let workload = |s: &str| match parse(&args(s)).unwrap() {
            Command::Generate { workload: w, .. } => (w.flows, w.attacks, w.seed),
            other => panic!("{other:?}"),
        };
        assert_eq!(workload("generate out.pcap"), (100, 3, 1));
        assert_eq!(
            workload("generate out.pcap --flows 5 --attacks 2 --seed 9"),
            (5, 2, 9)
        );
        assert_eq!(workload("generate out.pcap --attacks 25535").1, MAX_ATTACKS);
    }

    #[test]
    fn flag_order_is_free() {
        let a = parse(&args("scan --rules r.rules cap.pcap")).unwrap();
        let b = parse(&args("scan cap.pcap --rules r.rules")).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rule_corpus_commands_parse() {
        let parsed = |line: &str| format!("{:?}", parse(&args(line)));
        assert_eq!(
            parsed("generate-rules out.rules"),
            r#"Ok(GenerateRules { path: "out.rules", count: 1000, malformed: 0, seed: 1 })"#
        );
        assert_eq!(
            parsed("generate-rules out.rules --count 10000 --seed 42 --malformed 5"),
            r#"Ok(GenerateRules { path: "out.rules", count: 10000, malformed: 5, seed: 42 })"#
        );
        assert_eq!(
            parsed("analyze-rules corpus.rules"),
            r#"Ok(AnalyzeRules { path: "corpus.rules", top: 10, seed: 1 })"#
        );
        assert_eq!(
            parsed("analyze-rules corpus.rules --top 25"),
            r#"Ok(AnalyzeRules { path: "corpus.rules", top: 25, seed: 1 })"#
        );

        assert_eq!(parse_as!(Fuzz, "fuzz --rules-seed 7").rules_seed, Some(7));
        assert_eq!(parse_as!(Fuzz, "fuzz").rules_seed, None);
    }

    #[test]
    fn slow_path_flags_default_and_parse() {
        let p = parse_as!(Scan, "scan cap.pcap").engine;
        assert_eq!((p.slow_workers, p.slow_lane_depth), (0, 512));
        let p = parse_as!(Scan, "scan cap.pcap --slow-workers 4 --slow-lane-depth 64").engine;
        assert_eq!((p.slow_workers, p.slow_lane_depth), (4, 64));
        let p = parse_as!(Serve, "serve --slow-workers 2").engine;
        assert_eq!((p.slow_workers, p.slow_lane_depth), (2, 512));
    }

    #[test]
    fn shard_flags_default_and_parse() {
        assert_eq!(parse_as!(Scan, "scan cap.pcap").engine.shards, 1);
        assert_eq!(parse_as!(Scan, "scan cap.pcap --shards 4").engine.shards, 4);
        assert_eq!(parse_as!(Serve, "serve --shards 2").engine.shards, 2);
    }

    #[test]
    fn fuzz_defaults_and_flags() {
        let p = parse_as!(Fuzz, "fuzz");
        assert_eq!((p.iters, p.seed, p.minimize), (256, 1, false));
        assert_eq!(p.tweaks, EngineTweaks::NONE);
        assert_eq!(p.trace_out, "fuzz-failure.trace");
        assert_eq!(p.replay_trace, None);

        let p = parse_as!(
            Fuzz,
            "fuzz --iters 5000 --seed 7 --minimize --sabotage ooo --trace-out f.trace"
        );
        assert_eq!((p.iters, p.seed, p.minimize), (5000, 7, true));
        assert_eq!(p.tweaks, OUT_OF_ORDER);
        assert_eq!(p.trace_out, "f.trace");

        let p = parse_as!(Fuzz, "fuzz --sabotage frag --replay-trace saved.trace");
        assert_eq!(p.tweaks, FRAGMENTS);
        assert_eq!(p.replay_trace.as_deref(), Some("saved.trace"));
    }

    #[test]
    fn scan_metrics_flag() {
        let p = parse_as!(Scan, "scan cap.pcap");
        assert_eq!(p.metrics_out, None);

        let p = parse_as!(Scan, "scan cap.pcap --metrics-out m --shards 2");
        assert_eq!(p.metrics_out.as_deref(), Some("m"));
        assert_eq!(p.engine.shards, 2);
    }

    #[test]
    fn serve_defaults_and_flags() {
        let p = parse_as!(Serve, "serve");
        assert_eq!(p.source, ServeSource::Loopback);
        assert_eq!((p.iface, p.scrape, p.duration_secs), (None, None, None));

        let p = parse_as!(
            Serve,
            "serve --source afpacket --iface eth0 --scrape 127.0.0.1:9100 \
             --duration-secs 30 --rules r.rules --shards 4"
        );
        assert_eq!(p.source, ServeSource::AfPacket);
        assert_eq!(p.iface.as_deref(), Some("eth0"));
        assert_eq!(p.scrape.as_deref(), Some("127.0.0.1:9100"));
        assert_eq!(p.duration_secs, Some(30));
        assert_eq!(p.engine.shards, 4);
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
            // The dispatch batch is a constant.
            "scan cap.pcap --shard-batch 64",
            "serve --shard-batch 16",
            "scan cap.pcap --shards x",
            "fuzz stray",
            "fuzz --iters 0",
            "fuzz --iters many",
            "fuzz --sabotage everything",
            "fuzz --trace-out",
            // `run`, `replay` and `stats --format|--shards` became `scan`.
            "run",
            "run a b",
            "replay cap.pcap",
            // `sd lab` and its journal are gone.
            "lab list",
            "stats cap.pcap --format prom",
            "scan cap.pcap --metrics-out",
            "scan cap.pcap --engine naive --metrics-out m",
            "generate out.pcap --attacks 25536",
            // One piece automaton: its former selector flags are gone.
            "scan cap.pcap --matcher tiered",
            "serve --tiered-hot 4096",
            "scan cap.pcap --slow-workers many",
            "scan cap.pcap --slow-lane-depth 0",
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

    /// The usage text is the contract: every flag on a subcommand's
    /// usage line parses with a valid value, and every other flag the
    /// usage text names is an `unknown flag` for that subcommand.
    #[test]
    fn usage_lines_match_the_parser() {
        // Each entry: the command words with placeholder positionals, and
        // the flags on its usage lines.
        let mut commands: Vec<(Vec<String>, Vec<String>)> = Vec::new();
        for line in USAGE.lines().skip(1).take_while(|l| !l.is_empty()) {
            if line.starts_with("  sd ") {
                let command = line
                    .split_whitespace()
                    .skip(1)
                    .take_while(|w| !w.starts_with('['))
                    .map(|w| if w.starts_with('<') { "x" } else { w }.to_string())
                    .collect();
                commands.push((command, Vec::new()));
            }
            let flags = &mut commands.last_mut().expect("usage starts with a command").1;
            for word in line.split(|c: char| !(c.is_ascii_lowercase() || c == '-')) {
                if word.starts_with("--") {
                    flags.push(word.to_string());
                }
            }
        }
        assert_eq!(commands.len(), 10, "{commands:?}");
        let mut known: Vec<&String> = commands.iter().flat_map(|(_, flags)| flags).collect();
        known.sort();
        known.dedup();
        let value = |flag: &str| match flag {
            "--engine" => "naive",
            "--policy" => "bsd",
            "--sabotage" => "frag",
            "--source" => "loopback",
            _ => "3",
        };
        for (command, flags) in &commands {
            for flag in &known {
                let mut line = command.clone();
                line.push(flag.to_string());
                if !SWITCHES.contains(&flag.as_str()) {
                    line.push(value(flag).into());
                }
                let parsed = parse(&line);
                if flags.contains(flag) {
                    assert!(parsed.is_ok(), "{line:?}: {parsed:?}");
                } else {
                    assert_eq!(parsed, Err(format!("unknown flag {flag}")), "{line:?}");
                }
            }
        }
    }
}
