//! `sd-e2e` — the repo's benchmark: wire bytes in, verdicts out, through
//! the real `sd serve` loop, with a per-layer packet budget.
//!
//! ```text
//! sd-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints a table and, as the last line of standard output, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones. Without
//! `--workload` every workload runs; without `--trace` both modes run, so
//! one command prints every metric by name and unit. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod e2e;
mod layers;
mod names;
mod report;
mod source;
mod span;
mod stats;
mod workload;

use std::process::ExitCode;

use names::END_TO_END;
use report::RunOutput;
use workload::{Workload, WORKLOADS};

/// Seed used while the benchmark was written. Confirm later claims on the
/// held-out seed 2006 as well, which no number in the README was tuned on.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: sd-e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
              [--smoke] [--check-repeat]
  --workload NAME   one of: bulk-benign, mice-churn, evasion-mix, rules10k-encrypted
                    (default: all four)
  --seed N          workload seed (default 1; 2006 is the held-out seed)
  --seconds S       timed work per end-to-end run, set-up included (default 10)
  --trace 0|1       0 = end-to-end metrics, 1 = per-layer metrics (default: both)
  --smoke           1/20-size workloads, one pass: the whole set in under 30 s
  --check-repeat    run the end-to-end set twice; fail if any metric moves by
                    more than its own bound between the two sets";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    traces: Vec<bool>,
    smoke: bool,
    check_repeat: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traces: vec![false, true],
        smoke: false,
        check_repeat: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WORKLOADS
                    .iter()
                    .find(|w| **w == name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                args.workloads = vec![known];
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds: {s} is not a duration"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.traces = match value("0 or 1")?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Generate one workload and run it in each requested mode, printing each
/// run's table and result line.
fn run_workload(name: &str, args: &Args, outputs: &mut Vec<RunOutput>) -> Result<(), String> {
    let (scale, seconds, min_passes) = if args.smoke {
        (20, 0.0, 1)
    } else {
        (1, args.seconds, e2e::MIN_PASSES)
    };
    let w = Workload::generate(name, args.seed, scale)?;
    for &traced in &args.traces {
        let out = if traced {
            layers::run(&w, args.seed, Some(layers::TRACE_DIR))?
        } else {
            e2e::run(&w, args.seed, seconds, min_passes)?
        };
        out.check_names()?;
        print!("{}", out.table());
        println!("{}", out.json_line());
        outputs.push(out);
    }
    Ok(())
}

/// Compare two end-to-end sets of the same code: every metric on every
/// workload must agree within its own bound, fingerprints and count
/// metrics exactly.
fn compare_sets(first: &[RunOutput], second: &[RunOutput]) -> Vec<String> {
    let mut problems = Vec::new();
    for (a, b) in first.iter().zip(second) {
        if a.fingerprint != b.fingerprint {
            problems.push(format!(
                "{}: fingerprint differs between sets ({} vs {})",
                a.workload, a.fingerprint, b.fingerprint
            ));
        }
        if (a.attempted, a.failed) != (b.attempted, b.failed) {
            problems.push(format!(
                "{}: attempted/failed differ between sets ({}/{} vs {}/{})",
                a.workload, a.attempted, a.failed, b.attempted, b.failed
            ));
        }
        for def in &END_TO_END {
            let (Some(x), Some(y)) = (a.value(def.name), b.value(def.name)) else {
                problems.push(format!("{}: {} missing from a set", a.workload, def.name));
                continue;
            };
            // Either direction is a disagreement: neither set is "the
            // change", so the metric's better/worse sense does not matter.
            let moved = ((y - x) / x).abs();
            let verdict = if def.name == "state_bytes" && x != y {
                "NOT EXACT"
            } else if moved > def.bound {
                "OUTSIDE BOUND"
            } else {
                "ok"
            };
            println!(
                "repeat {:<20} {:<12} {:>16.4} {:>16.4}  moved {:>6.2} %  bound {:>4.1} %  {verdict}",
                a.workload,
                def.name,
                x,
                y,
                moved * 100.0,
                def.bound * 100.0
            );
            if verdict != "ok" {
                problems.push(format!(
                    "{}: {} moved {:.2} % between two sets of the same code (bound {:.1} %)",
                    a.workload,
                    def.name,
                    moved * 100.0,
                    def.bound * 100.0
                ));
            }
        }
    }
    problems
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    println!(
        "sd-e2e: threads ≤ 2 (serve thread; second thread only in the pool-of-one and one-shard \
         per-layer passes), available parallelism {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let mut ok = true;
    if args.check_repeat {
        args.traces = vec![false];
        let mut sets = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for name in args.workloads.clone() {
                run_workload(name, &args, set)?;
            }
        }
        let problems = compare_sets(&sets[0], &sets[1]);
        for p in &problems {
            println!("REPEAT FAIL {p}");
        }
        ok &= problems.is_empty();
        ok &= sets.iter().flatten().all(RunOutput::correct);
    } else {
        let mut outputs = Vec::new();
        for name in args.workloads.clone() {
            run_workload(name, &args, &mut outputs)?;
        }
        ok &= outputs.iter().all(RunOutput::correct);
        // The driver reads the last line: keep the result line last.
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("sd-e2e: FAILED (see FAIL lines above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("sd-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use names::{MetricDef, PER_LAYER};
    use sd_lab::json::Value;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn declared(section: &str) -> Vec<(String, String, String, Option<f64>)> {
        let root = Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        root.get(section)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} array"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    fn in_code(defs: &[MetricDef], bounded: bool) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                    bounded.then_some(d.bound),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_and_emitted_names_are_the_same_set() {
        assert_eq!(declared("end_to_end"), in_code(&END_TO_END, true));
        assert_eq!(declared("per_layer"), in_code(&PER_LAYER, false));
        let root = Value::parse(BENCHMARK_JSON).unwrap();
        let workloads: Vec<&str> = root
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert!(declared("end_to_end").iter().any(|m| m.0 == "setup_s"));
    }

    #[test]
    fn benchmark_json_meets_the_drivers_limits() {
        let root = Value::parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = root
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit, better, bound) in declared("end_to_end")
            .into_iter()
            .chain(declared("per_layer"))
        {
            assert!(name_ok(&name), "bad metric name {name:?}");
            assert!(unit_ok(&unit), "bad unit {unit:?} on {name}");
            assert!(better == "higher" || better == "lower", "{name}: {better}");
            assert!(
                bound.map_or(true, |b| b > 0.0 && b <= 0.25),
                "{name}: {bound:?}"
            );
            assert!(seen.insert(name.clone()), "{name} declared twice");
        }
        for w in WORKLOADS {
            assert!(name_ok(w) && seen.insert(w.to_string()));
        }
        let secs = root.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn generators_are_deterministic_in_the_seed() {
        for name in WORKLOADS {
            let a = Workload::generate(name, 5, 200).unwrap();
            let b = Workload::generate(name, 5, 200).unwrap();
            let c = Workload::generate(name, 6, 200).unwrap();
            assert_eq!(
                a.fingerprint, b.fingerprint,
                "{name}: same seed, same bytes"
            );
            assert_eq!(a.rules_text, b.rules_text, "{name}: same seed, same rules");
            assert_eq!(
                a.expected, b.expected,
                "{name}: same seed, same ground truth"
            );
            assert_ne!(a.fingerprint, c.fingerprint, "{name}: seed must matter");
            assert_eq!(
                a.unparsable, 0,
                "{name}: generators emit well-formed packets"
            );
            assert!(a.fingerprint.packets > 0);
        }
        assert!(Workload::generate("no-such-workload", 1, 1).is_err());
    }

    #[test]
    fn smoke_run_reports_every_declared_metric_and_no_failure() {
        // The smallest whole run: every name a mode declares is emitted,
        // verdicts match ground truth, the result line parses.
        let w = Workload::generate("evasion-mix", 3, 100).unwrap();
        assert!(!w.expected.is_empty(), "the mix must carry attacks");
        for traced in [false, true] {
            let out = if traced {
                layers::run(&w, 3, None).unwrap()
            } else {
                e2e::run(&w, 3, 0.0, 1).unwrap()
            };
            out.check_names().unwrap();
            assert!(out.correct(), "{:?}", out.messages);
            assert!(out.attempted >= w.fingerprint.packets);
            let line = Value::parse(&out.json_line()).unwrap();
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                assert!(names::lookup(m.name).is_some());
            }
        }
    }

    #[test]
    fn a_wrong_verdict_is_counted_and_named() {
        let w = Workload::generate("evasion-mix", 3, 100).unwrap();
        let mut verdicts: e2e::Verdicts =
            w.expected.iter().map(|x| (x.flow, x.signature)).collect();
        let mut messages = Vec::new();
        assert_eq!(
            e2e::wrong_verdict_packets(&w, "t", &verdicts, None, &mut messages),
            0
        );
        let missed = w.expected[0].clone();
        verdicts.remove(&(missed.flow, missed.signature));
        let failed = e2e::wrong_verdict_packets(&w, "t", &verdicts, None, &mut messages);
        assert!(failed > 0, "a missed attack must fail its packets");
        assert!(
            messages[0].contains(&missed.flow.to_string()),
            "{messages:?}"
        );
    }

    #[test]
    fn argument_parsing_follows_the_driver_contract() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload mice-churn --seed 9 --seconds 4 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workloads, ["mice-churn"]);
        assert_eq!((a.seed, a.seconds, a.traces.clone()), (9, 4.0, vec![true]));
        let all = parse_args(&[]).unwrap();
        assert_eq!(all.workloads, WORKLOADS);
        assert_eq!(all.traces, [false, true]);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }
}
