//! End-to-end CLI tests: drive `sd_cli::run` exactly as the binary does,
//! against real files in a temp directory.

use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sd-cli-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> (i32, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let code = sd_cli::run(&args, &mut out);
    (code, String::from_utf8(out).unwrap())
}

#[test]
fn usage_on_bad_args() {
    let (code, out) = run(&[]);
    assert_eq!(code, 2);
    assert!(out.contains("usage:"));
    let (code, out) = run(&["scan"]);
    assert_eq!(code, 2);
    assert!(out.contains("scan needs a pcap path"));
    // One piece automaton: the flags that used to select another are gone.
    for flag in ["--matcher", "--tiered-hot"] {
        let (code, out) = run(&["scan", "x.pcap", flag, "dense"]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains(&format!("unknown flag {flag}")), "{out}");
    }
}

#[test]
fn generate_then_scan_detects_labelled_attacks() {
    let dir = tmpdir("roundtrip");
    let pcap = dir.join("t.pcap");
    let pcap_s = pcap.to_str().unwrap();

    let (code, out) = run(&[
        "generate",
        pcap_s,
        "--flows",
        "20",
        "--attacks",
        "3",
        "--seed",
        "5",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("3 labelled attack(s)"), "{out}");

    let (code, out) = run(&["scan", pcap_s]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("3 alert(s)"), "{out}");
    assert!(out.contains("sid-"), "{out}");

    // The naive engine misses the evaded attacks on the same capture.
    let (code, out) = run(&["scan", pcap_s, "--engine", "naive"]);
    assert_eq!(code, 0);
    assert!(
        !out.contains("3 alert(s)"),
        "the strawman should not match split-detect: {out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scan_with_async_slow_path_matches_inline_alerts() {
    let dir = tmpdir("slowpool");
    let pcap = dir.join("t.pcap");
    let pcap_s = pcap.to_str().unwrap();
    run(&[
        "generate",
        pcap_s,
        "--flows",
        "20",
        "--attacks",
        "3",
        "--seed",
        "5",
    ]);

    let (code, inline_out) = run(&["scan", pcap_s]);
    assert_eq!(code, 0, "{inline_out}");
    let (code, pool_out) = run(&["scan", pcap_s, "--slow-workers", "2"]);
    assert_eq!(code, 0, "{pool_out}");
    // Deep lanes (default 512) mean no shedding, so the pooled scan must
    // report exactly the inline alert count.
    assert!(pool_out.contains("3 alert(s)"), "{pool_out}");
    assert!(inline_out.contains("3 alert(s)"), "{inline_out}");
    assert!(!pool_out.contains("[overload]"), "{pool_out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_prints_all_three_engines() {
    let dir = tmpdir("compare");
    let pcap = dir.join("c.pcap");
    let pcap_s = pcap.to_str().unwrap();
    run(&["generate", pcap_s, "--flows", "10", "--attacks", "1"]);

    let (code, out) = run(&["compare", pcap_s]);
    assert_eq!(code, 0, "{out}");
    for engine in ["naive-packet", "conventional", "split-detect"] {
        assert!(out.contains(engine), "missing {engine} in {out}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rules_lint_reports_counts_and_short_rules() {
    let dir = tmpdir("rules");
    let path = dir.join("mixed.rules");
    std::fs::write(
        &path,
        "# comment\n\
         alert tcp any any -> any any (msg:\"ok\"; content:\"long_enough_signature\"; sid:1;)\n\
         alert tcp any any -> any any (msg:\"short\"; content:\"tiny\"; sid:2;)\n\
         pass tcp any any -> any any (content:\"whatever11\"; sid:3;)\n",
    )
    .unwrap();
    let (code, out) = run(&["rules", path.to_str().unwrap()]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("2 alert rule(s)"), "{out}");
    assert!(out.contains("1 skipped action(s)"), "{out}");
    assert!(out.contains("sid 2"), "short rule must be flagged: {out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rules_lint_rejects_broken_files() {
    let dir = tmpdir("badrules");
    let path = dir.join("bad.rules");
    std::fs::write(
        &path,
        "alert tcp any any -> any any (content:\"x\"; sid:borked;)\n",
    )
    .unwrap();
    let (code, out) = run(&["rules", path.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(out.contains("line 1"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gauntlet_with_demo_rules_detects_everything() {
    let (code, out) = run(&["gauntlet"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("all strategies detected"), "{out}");
    assert!(!out.contains("MISS"), "{out}");
}

#[test]
fn scan_with_custom_rules_file() {
    let dir = tmpdir("custom");
    let rules = dir.join("my.rules");
    std::fs::write(
        &rules,
        "alert tcp any any -> any any (msg:\"custom\"; content:\"EVIL_SIGNATURE_BYTES\"; sid:777;)\n",
    )
    .unwrap();
    let pcap = dir.join("x.pcap");
    // Generate with the same rules so the injected attack carries sid 777.
    let (code, out) = run(&[
        "generate",
        pcap.to_str().unwrap(),
        "--flows",
        "5",
        "--attacks",
        "1",
        "--rules",
        rules.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{out}");
    let (code, out) = run(&[
        "scan",
        pcap.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("[777]"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_describes_a_capture() {
    let dir = tmpdir("stats");
    let pcap = dir.join("s.pcap");
    run(&[
        "generate",
        pcap.to_str().unwrap(),
        "--flows",
        "15",
        "--attacks",
        "0",
    ]);
    let (code, out) = run(&["stats", pcap.to_str().unwrap()]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("size mix"), "{out}");
    assert!(out.contains("entropy"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scan_writes_valid_prometheus_metrics() {
    let dir = tmpdir("metrics");
    let pcap = dir.join("m.pcap");
    let pcap_s = pcap.to_str().unwrap();
    run(&["generate", pcap_s, "--flows", "12", "--attacks", "2"]);

    let base = dir.join("metrics");
    let base_s = base.to_str().unwrap();
    let (code, out) = run(&["scan", pcap_s, "--shards", "2", "--metrics-out", base_s]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("metrics written to"), "{out}");

    let prom = std::fs::read_to_string(format!("{base_s}.prom")).unwrap();
    sd_telemetry::promcheck::validate(&prom).unwrap_or_else(|errs| {
        panic!("invalid Prometheus exposition: {errs:?}\n{prom}");
    });
    let sharded_prom = prom.clone();
    // Per-stage latency histograms and per-shard lane counters both made
    // it through the shard merge into the export.
    assert!(
        prom.contains("sd_stage_latency_ns_bucket{stage=\"fast_path\""),
        "{prom}"
    );
    assert!(
        prom.contains("sd_shard_packets_total{shard=\"0\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("sd_shard_packets_total{shard=\"1\"}"),
        "{prom}"
    );
    assert!(prom.contains("sd_packets_total"), "{prom}");
    assert!(prom.contains("sd_stage_packets_total"), "{prom}");

    // The single engine exports the same registry, without lane counters.
    let (code, out) = run(&["scan", pcap_s, "--metrics-out", base_s]);
    assert_eq!(code, 0, "{out}");
    let prom = std::fs::read_to_string(format!("{base_s}.prom")).unwrap();
    sd_telemetry::promcheck::validate(&prom).unwrap_or_else(|errs| {
        panic!("invalid Prometheus exposition: {errs:?}\n{prom}");
    });
    assert!(prom.contains("sd_stage_packets_total"), "{prom}");
    assert!(!prom.contains("sd_shard_packets_total"), "{prom}");

    // Every shard shares one compiled plan: the sharded export counts it
    // once, as the single engine does.
    let sharded = samples(&sharded_prom);
    let single = samples(&prom);
    for name in ["sd_automaton_hot_states", "sd_automaton_cold_states"] {
        assert!(single[name] > 0 || name.contains("cold"), "{name}");
        assert_eq!(sharded[name], single[name], "{name}");
    }
    for name in [
        "sd_automaton_bytes",
        "sd_automaton_hot_bytes",
        "sd_automaton_cold_bytes",
    ] {
        assert_eq!(sharded[name], single[name], "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Sample lines of a Prometheus exposition: `name{labels}` → value.
fn samples(prom: &str) -> std::collections::HashMap<String, u64> {
    prom.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[test]
fn exported_counters_equal_the_engine_stats() {
    use sd_ips::Ips;
    use splitdetect::fastpath::DivertReason;
    use splitdetect::{ShardedSplitDetect, SplitDetect, SplitDetectConfig, SplitDetectStats};

    let dir = tmpdir("stats-export");
    let pcap = dir.join("e.pcap");
    let pcap_s = pcap.to_str().unwrap();
    let (code, out) = run(&["generate", pcap_s, "--flows", "40", "--attacks", "4"]);
    assert_eq!(code, 0, "{out}");
    let trace = sd_traffic::pcap::load(pcap_s).unwrap();
    let sigs = || {
        sd_ips::rules::parse_rules(sd_ips::rules::DEMO_RULES)
            .unwrap()
            .to_signatures()
    };
    // A one-deep lane behind one slow-path worker, so shedding is possible.
    let config = SplitDetectConfig {
        slow_path_workers: 1,
        slow_path_lane_depth: 1,
        ..Default::default()
    };

    let check = |label: &str, stats: SplitDetectStats, registry: splitdetect::Registry| {
        let prom = sd_telemetry::to_prometheus(&registry);
        sd_telemetry::promcheck::validate(&prom).unwrap_or_else(|errs| {
            panic!("{label}: invalid Prometheus exposition: {errs:?}\n{prom}");
        });
        let m = samples(&prom);
        assert_eq!(m["sd_packets_total"], stats.fast.packets, "{label}");
        assert_eq!(m["sd_packets_total"], trace.len() as u64, "{label}");
        assert_eq!(m["sd_parse_errors_total"], stats.fast.malformed, "{label}");
        for reason in DivertReason::ALL {
            let key = format!("sd_diverts_total{{reason=\"{}\"}}", reason.name());
            assert_eq!(m[&key], stats.diverts_by(reason), "{label}: {key}");
        }
        assert!(stats.fast.total_diverts() > 0, "{label}");
        assert_eq!(
            m["sd_slowpath_shed_total"], stats.divert.shed_packets,
            "{label}"
        );
        assert_eq!(
            m["sd_stage_packets_total{stage=\"slow_path\"}"],
            stats.packets_to_slow + stats.divert.shed_packets,
            "{label}"
        );
    };

    let mut single = SplitDetect::with_config(sigs(), config).unwrap();
    sd_ips::api::run_trace(&mut single, trace.iter_bytes());
    check("single", single.stats(), single.metrics());

    let mut sharded = ShardedSplitDetect::new(sigs(), config, 2).unwrap();
    let mut alerts = Vec::new();
    for (tick, p) in trace.iter_bytes().enumerate() {
        sharded.process_packet(p, tick as u64, &mut alerts);
    }
    sharded.finish(&mut alerts);
    let stats = SplitDetectStats::aggregate(&sharded.stats()).unwrap();
    check("2 shards", stats, sharded.metrics().unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

/// `sd scan` and a one-pass `sd serve` run the same loop, `serve()`, so on
/// one workload they print the same verdicts; and at 1 and 2 shards that
/// loop alerts exactly where the bare engine loop does.
#[test]
fn scan_and_one_pass_serve_agree_with_the_bare_loop() {
    use splitdetect::{SplitDetect, SplitDetectConfig};

    let dir = tmpdir("one-loop");
    let pcap = dir.join("w.pcap");
    let pcap_s = pcap.to_str().unwrap();
    let workload = ["--flows", "20", "--attacks", "3", "--seed", "5"];
    let seed = ["--flow-hash-seed", "9"];
    let (code, out) = run(&[&["generate", pcap_s][..], &workload].concat());
    assert_eq!(code, 0, "{out}");
    let (code, served) = run(&[&["serve"][..], &workload, &seed].concat());
    assert_eq!(code, 0, "{served}");

    let rules = sd_ips::rules::parse_rules(sd_ips::rules::DEMO_RULES).unwrap();
    let config = SplitDetectConfig {
        flow_hash_seed: Some(9),
        ..Default::default()
    };
    let mut bare = SplitDetect::with_config(rules.to_signatures(), config).unwrap();
    let trace = sd_traffic::pcap::load(pcap_s).unwrap();
    let mut want: Vec<String> = sd_ips::api::run_trace(&mut bare, trace.iter_bytes())
        .iter()
        .map(|a| {
            let (rule, flow, off) = (&rules.rules[a.signature], a.flow, a.offset);
            format!("  [{}] {} flow={flow} off={off}", rule.sid, rule.name())
        })
        .collect();
    want.sort();
    assert_eq!(want.len(), 3, "{want:?}");

    // The drain line minus its wall clock (packets, alerts, reloads), and
    // the report's family lines minus their padding.
    let line = |out: &str, prefix: &str| -> String {
        let l = out.lines().find(|l| l.starts_with(prefix));
        let l = l.unwrap_or_else(|| panic!("no {prefix:?} line:\n{out}"));
        match prefix {
            "drained after" => l.split_once("s: ").expect("drain line").1.to_string(),
            _ => l.split_whitespace().collect::<Vec<_>>().join(" "),
        }
    };
    for shards in ["1", "2"] {
        let (code, scanned) = run(&[&["scan", pcap_s, "--shards", shards][..], &seed].concat());
        assert_eq!(code, 0, "{scanned}");
        assert!(scanned.contains("\n3 alert(s)\n"), "{scanned}");
        for prefix in [
            "drained after",
            "sd_flows_seen_total ",
            "sd_flows_diverted_total ",
            "sd_diverts_total{reason} ",
            "sd_payload_bytes_total ",
            "sd_slowpath_packets_total ",
            "sd_slowpath_bytes_total ",
        ] {
            assert_eq!(
                line(&scanned, prefix),
                line(&served, prefix),
                "{shards} shard(s)"
            );
        }
        let mut got: Vec<String> = scanned
            .lines()
            .filter(|l| l.starts_with("  ["))
            .map(String::from)
            .collect();
        got.sort();
        assert_eq!(got, want, "{shards} shard(s)");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_scan_prints_one_dispatch_line_per_shard() {
    let dir = tmpdir("shards");
    let pcap = dir.join("s.pcap");
    let pcap_s = pcap.to_str().unwrap();
    run(&["generate", pcap_s, "--flows", "10", "--attacks", "2"]);
    let (code, out) = run(&["scan", pcap_s, "--shards", "3"]);
    assert_eq!(code, 0, "{out}");
    // One series per shard on each lane family's line.
    let lanes = |family: &str| -> Vec<String> {
        let l = out.lines().find(|l| l.starts_with(family));
        let l = l.unwrap_or_else(|| panic!("no {family} line:\n{out}"));
        let series = l.split_whitespace().skip(1);
        series
            .map(|v| v.split_once('=').expect("shard=value").0.to_string())
            .collect()
    };
    for family in [
        "sd_shard_batches_total{shard} ",
        "sd_shard_packets_total{shard} ",
    ] {
        assert_eq!(lanes(family), ["0", "1", "2"], "{out}");
    }
    assert!(out.contains("2 alert(s)"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The report `sd scan` prints and the `.prom` file it writes are one
/// registry: every counter or gauge the report prints has the same value
/// in the file, and every counter or gauge in the file is in the report.
#[test]
fn scan_report_and_prometheus_file_agree() {
    let dir = tmpdir("report-prom");
    let pcap = dir.join("r.pcap");
    let pcap_s = pcap.to_str().unwrap();
    run(&["generate", pcap_s, "--flows", "40", "--attacks", "3"]);
    let base = dir.join("m");
    let base_s = base.to_str().unwrap();
    let (code, out) = run(&["scan", pcap_s, "--shards", "2", "--metrics-out", base_s]);
    assert_eq!(code, 0, "{out}");
    let prom = std::fs::read_to_string(format!("{base_s}.prom")).unwrap();
    sd_telemetry::promcheck::validate(&prom).unwrap_or_else(|errs| {
        panic!("invalid Prometheus exposition: {errs:?}\n{prom}");
    });

    // The report's lines as `name{key="value"}` → value.
    let mut printed = std::collections::HashMap::new();
    for line in out.lines().filter(|l| l.starts_with("sd_")) {
        let mut words = line.split_whitespace();
        let head = words.next().unwrap();
        match head.split_once('{') {
            None => {
                let value = words.next().expect("value");
                printed.insert(head.to_string(), value.parse::<u64>().unwrap());
            }
            Some((family, key)) => {
                let key = key.trim_end_matches('}');
                for series in words {
                    let (label, value) = series.split_once('=').expect("label=value");
                    let name = format!("{family}{{{key}=\"{label}\"}}");
                    printed.insert(name, value.parse::<u64>().unwrap());
                }
            }
        }
    }
    let families: Vec<&str> = prom
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.strip_suffix(" counter").or(l.strip_suffix(" gauge")))
        .collect();
    let exported: std::collections::HashMap<String, u64> = samples(&prom)
        .into_iter()
        .filter(|(name, _)| families.contains(&name.split('{').next().unwrap()))
        .collect();
    assert!(printed.len() > 40, "{out}");
    assert_eq!(printed, exported, "report:\n{out}\nfile:\n{prom}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merged_and_misplaced_flags_exit_2() {
    for args in [
        &["scan", "x.pcap", "--engine", "naive", "--metrics-out", "m"][..],
        &["run", "x.pcap"],
        &["replay", "x.pcap"],
        &["lab"],
        &["lab", "record"],
        &["stats", "x.pcap", "--format", "prom"],
        &["stats", "x.pcap", "--shards", "2"],
        &["rules", "x.rules", "--shards", "2"],
        &["generate", "x.pcap", "--attacks", "25536"],
    ] {
        let (code, out) = run(args);
        assert_eq!(code, 2, "{args:?}: {out}");
        assert!(out.contains("usage:"), "{args:?}: {out}");
    }
}

#[test]
fn missing_files_fail_cleanly() {
    let (code, out) = run(&["scan", "/definitely/not/here.pcap"]);
    assert_eq!(code, 1);
    assert!(out.contains("cannot read"), "{out}");
    let (code, _) = run(&["rules", "/definitely/not/here.rules"]);
    assert_eq!(code, 1);
}

#[test]
fn fuzz_smoke_is_clean_and_deterministic() {
    let (code, out) = run(&["fuzz", "--iters", "40", "--seed", "1"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("no invariant violations"), "{out}");
    assert!(out.contains("40 traces"), "{out}");
    let (code2, out2) = run(&["fuzz", "--iters", "40", "--seed", "1"]);
    assert_eq!(code2, 0);
    assert_eq!(out, out2, "same seed must print the same campaign");
}

#[test]
fn generate_rules_then_analyze_reports_the_automaton() {
    let dir = tmpdir("rulegen");
    let path = dir.join("corpus.rules");
    let path_s = path.to_str().unwrap();

    let (code, out) = run(&["generate-rules", path_s, "--count", "120", "--seed", "11"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("120 alert rule(s)"), "{out}");

    // The generated corpus lints clean and is Split-Detect admissible.
    let (code, out) = run(&["rules", path_s]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("all rules usable"), "{out}");

    let (code, out) = run(&["analyze-rules", path_s, "--top", "3"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("120 alert rule(s)"), "{out}");
    assert!(out.contains("vs-dense"), "missing automaton table: {out}");
    assert!(out.contains("trie depth occupancy"), "{out}");
    assert!(out.contains("tiered split (budget heuristic)"), "{out}");
    // Generated pieces are at least 5 bytes: 4-byte windows, stride 2,
    // 64 bits per inserted window; the loop is the CPU's.
    assert!(
        ["avx2 ×8", "scalar"].iter().any(|lp| out.contains(&format!(
            "window filter: w=4, stride 2, bitmap 8192 B, {lp}\n"
        ))),
        "{out}"
    );
    assert!(out.contains("piece dedup:"), "{out}");
    assert!(out.contains("fast-path hits"), "{out}");
    assert!(!out.contains("parse error"), "{out}");

    // Determinism: same corpus, same seed, same report.
    let (_, again) = run(&["analyze-rules", path_s, "--top", "3"]);
    // Build times vary run to run; everything else must not. Compare with
    // the timing column blanked.
    let blank = |s: &str| {
        s.lines()
            .map(|l| l.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(blank(&out), blank(&again));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_rules_reports_lenient_diagnostics() {
    let dir = tmpdir("rulediag");
    let path = dir.join("tail.rules");
    let path_s = path.to_str().unwrap();

    let (code, out) = run(&[
        "generate-rules",
        path_s,
        "--count",
        "6",
        "--seed",
        "2",
        "--malformed",
        "4",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("4 malformed line(s)"), "{out}");

    // analyze-rules keeps going past the broken tail, with line numbers.
    let (code, out) = run(&["analyze-rules", path_s]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("4 parse error(s):"), "{out}");
    assert!(out.contains("line "), "{out}");
    assert!(out.contains("6 alert rule(s)"), "{out}");

    // The strict lint path rejects the same file outright.
    let (code, out) = run(&["rules", path_s]);
    assert_eq!(code, 1, "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_rules_seed_campaign_is_clean() {
    let (code, out) = run(&["fuzz", "--iters", "6", "--seed", "3", "--rules-seed", "3"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("rule corpus (rules-seed 3)"), "{out}");
    assert!(out.contains("no invariant violations"), "{out}");
}

#[test]
fn fuzz_sabotage_finds_minimizes_and_replays() {
    let dir = tmpdir("fuzz");
    let trace = dir.join("repro.trace");
    let trace_s = trace.to_str().unwrap();

    // A sabotaged engine must fail the campaign (exit 1) and leave a
    // replayable artifact behind.
    let (code, out) = run(&[
        "fuzz",
        "--iters",
        "64",
        "--seed",
        "1",
        "--sabotage",
        "ooo",
        "--minimize",
        "--trace-out",
        trace_s,
    ]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("VIOLATION"), "{out}");
    assert!(out.contains("shrunk from"), "{out}");
    let text = std::fs::read_to_string(&trace).expect("trace artifact written");
    assert!(
        text.contains("mutate"),
        "artifact must carry mutations:\n{text}"
    );

    // Replaying the artifact against the same sabotage reproduces the
    // failure; against the intact engine it passes.
    let (code, out) = run(&["fuzz", "--replay-trace", trace_s, "--sabotage", "ooo"]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("VIOLATION"), "{out}");
    let (code, out) = run(&["fuzz", "--replay-trace", trace_s]);
    assert_eq!(code, 0, "intact engine must pass the reproducer: {out}");
    std::fs::remove_dir_all(&dir).ok();
}
