//! The declared experiment registry: every sweep the repo measures, as
//! data — name, E-number lineage, axes, and a runner that executes the
//! shared measurement core (`sd_bench::sweeps`) and returns journal-ready
//! trial rows. `sd lab run <name>` is the only way sweeps run now; the
//! `SD_*_SWEEP` env-var paths are gone.

use std::time::{SystemTime, UNIX_EPOCH};

use sd_bench::sweeps::{self, mib_per_s};
use splitdetect::ShedPolicy;

use crate::journal::{fresh_run_id, Journal, TrialRow, SCHEMA_VERSION};
use crate::json::Value;
use crate::provenance::Provenance;

/// Runner knobs: the smoke profile trims rounds for the CI gate without
/// changing row coverage; `rounds` force-overrides both profiles.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOpts {
    pub smoke: bool,
    pub rounds: Option<usize>,
}

/// One journal-ready trial produced by a runner (experiment name, run id
/// and provenance are stamped by [`run_experiment`]).
pub struct Trial {
    pub section: &'static str,
    pub config: Vec<(String, Value)>,
    pub metrics: Vec<(String, Value)>,
}

/// One declared experiment.
pub struct Experiment {
    /// Canonical name (`sd lab run <name>`).
    pub name: &'static str,
    /// EXPERIMENTS.md lineage this supersedes.
    pub e_numbers: &'static str,
    /// One-line description for `sd lab list`.
    pub description: &'static str,
    /// The `BENCH_*.json` baseline this experiment's journal rows emit,
    /// if any.
    pub baseline: Option<&'static str>,
    /// Execute the sweep and return rows in emit order.
    pub run: fn(&RunOpts) -> Vec<Trial>,
}

/// Composite experiment name: the three baseline-feeding sweeps at the
/// smoke profile, journaled under their canonical names so emit and
/// compare need no special cases.
pub const CI_SMOKE: &str = "ci-smoke";

/// Every declared experiment, in registry order.
pub static EXPERIMENTS: [Experiment; 5] = [
    Experiment {
        name: "fastpath-matcher-mix",
        e_numbers: "E18, E21",
        description: "piece-automaton scan/classify throughput per payload mix, plus automaton footprints at 1-rule and 10k-rule scale",
        baseline: Some("BENCH_fastpath.json"),
        run: run_fastpath,
    },
    Experiment {
        name: "slowpath-lane-shed",
        e_numbers: "E19",
        description: "slow-path pool dispatch under divert flood, plus the lane-depth x shed-policy coverage sweep",
        baseline: Some("BENCH_slowpath.json"),
        run: run_slowpath,
    },
    Experiment {
        name: "flowstate-occupancy",
        e_numbers: "E20",
        description: "1M-slot flow table at 50/75/90% occupancy: lookup latency, CLOCK eviction, Bloom FPR, exact bytes/flow",
        baseline: Some("BENCH_flowstate.json"),
        run: run_flowstate,
    },
    Experiment {
        name: "shard-batch",
        e_numbers: "E15",
        description: "flow-sharded engine throughput across shard count x dispatcher batch size on the mixed trace",
        baseline: None,
        run: run_shard_batch,
    },
    Experiment {
        name: "tiered-hot-ladder",
        e_numbers: "E22",
        description: "piece-automaton footprint/throughput ladder over hot-tier sizes at 1k and 10k rules, from the all-cold to the all-hot endpoint",
        baseline: None,
        run: run_tier_ladder,
    },
];

pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

fn n(x: f64) -> Value {
    Value::Num(x)
}

fn s(x: impl Into<String>) -> Value {
    Value::Str(x.into())
}

fn kv(k: &str, v: Value) -> (String, Value) {
    (k.to_string(), v)
}

/// The `matcher` key every fast-path journal row and `BENCH_fastpath.json`
/// entry carries. There is one piece automaton; the key stays so row keys
/// line up with journals recorded while there were six.
const MATCHER: &str = "tiered";

fn run_fastpath(opts: &RunOpts) -> Vec<Trial> {
    let mut params = if opts.smoke {
        sweeps::fastpath::Params::smoke()
    } else {
        sweeps::fastpath::Params::full()
    };
    if let Some(r) = opts.rounds {
        params.rounds = r;
        params.rounds_10k = r.min(params.rounds_10k);
    }
    let report = sweeps::fastpath::run(&params);

    let mut trials = vec![Trial {
        section: "meta",
        config: vec![
            kv("bench", s("fastpath")),
            kv("rounds", n(params.rounds as f64)),
            kv("segment_bytes", n(sweeps::fastpath::SEGMENT as f64)),
        ],
        metrics: Vec::new(),
    }];
    let matcher = || kv("matcher", s(MATCHER));
    let a = &report.automaton;
    trials.push(Trial {
        section: "automaton",
        config: vec![matcher()],
        metrics: vec![
            kv("bytes", n(a.bytes as f64)),
            kv("classes", n(a.classes as f64)),
            kv("escape_bytes", n(a.escape_bytes as f64)),
        ],
    });
    let a = &report.automaton_10k;
    trials.push(Trial {
        section: "automaton_10k",
        config: vec![matcher()],
        metrics: vec![
            kv("bytes", n(a.bytes as f64)),
            kv("hot_bytes", n(a.hot_bytes as f64)),
            kv("cold_bytes", n(a.cold_bytes as f64)),
            kv("states", n(a.states as f64)),
            kv("build_ms", n(a.build.as_secs_f64() * 1e3)),
        ],
    });
    for r in &report.rows {
        trials.push(Trial {
            section: "results",
            config: vec![kv("mix", s(r.mix.clone())), matcher()],
            metrics: vec![
                kv("median_secs", n(r.median.as_secs_f64())),
                kv("mib_per_s", n(r.mib_per_s())),
            ],
        });
    }
    trials
}

fn run_slowpath(opts: &RunOpts) -> Vec<Trial> {
    let mut params = if opts.smoke {
        sweeps::slowpath::Params::smoke()
    } else {
        sweeps::slowpath::Params::full()
    };
    if let Some(r) = opts.rounds {
        params.rounds = r;
    }
    let report = sweeps::slowpath::run(&params);
    let bytes = sweeps::slowpath::payload_bytes();

    let mut trials = vec![Trial {
        section: "meta",
        config: vec![
            kv("bench", s("slowpath")),
            kv("rounds", n(params.rounds as f64)),
            kv("flows", n(sweeps::slowpath::FLOWS as f64)),
            kv("follow_packets", n(sweeps::slowpath::FOLLOW as f64)),
            kv("segment_bytes", n(sweeps::slowpath::SEGMENT as f64)),
            kv("payload_bytes", n(bytes as f64)),
        ],
        metrics: Vec::new(),
    }];
    let inline = report.inline_ingest_secs();
    for r in &report.rows {
        trials.push(Trial {
            section: "results",
            config: vec![kv("mode", s(r.mode.clone()))],
            metrics: vec![
                kv("ingest_secs", n(r.ingest.as_secs_f64())),
                kv("ingest_mib_per_s", n(mib_per_s(bytes, r.ingest))),
                kv("total_secs", n(r.total.as_secs_f64())),
                kv("total_mib_per_s", n(mib_per_s(bytes, r.total))),
                kv(
                    "ingest_speedup_vs_inline",
                    n(inline / r.ingest.as_secs_f64()),
                ),
            ],
        });
    }

    // The lane-depth x shed-policy sweep rides in the same experiment
    // (journal-only; no baseline section). Smoke trims the grid — the
    // gate only consumes the mode rows above.
    let depths: &[usize] = if opts.smoke {
        &[1, 64, 4096]
    } else {
        &sweeps::slowpath::SHED_DEPTHS
    };
    let policies: &[ShedPolicy] = if opts.smoke {
        &[ShedPolicy::AlertOverload]
    } else {
        &[ShedPolicy::ShedFlow, ShedPolicy::AlertOverload]
    };
    for r in sweeps::slowpath::shed_sweep(depths, policies) {
        trials.push(Trial {
            section: "lane_shed",
            config: vec![
                kv("policy", s(r.policy.to_string())),
                kv("lane_depth", n(r.lane_depth as f64)),
            ],
            metrics: vec![
                kv("shed_packets", n(r.shed_packets as f64)),
                kv("shed_frac", n(r.shed_frac)),
                kv("ingest_mib_per_s", n(r.ingest_mib_per_s)),
            ],
        });
    }
    trials
}

fn run_flowstate(opts: &RunOpts) -> Vec<Trial> {
    let mut params = if opts.smoke {
        sweeps::flowstate::Params::smoke()
    } else {
        sweeps::flowstate::Params::full()
    };
    if let Some(r) = opts.rounds {
        params.rounds = r;
    }
    let report = sweeps::flowstate::run(&params);

    let mut trials = vec![Trial {
        section: "meta",
        config: vec![
            kv("bench", s("flowstate")),
            kv("capacity", n(sweeps::flowstate::CAPACITY as f64)),
            kv("probe_window", n(sweeps::flowstate::PROBE_WINDOW as f64)),
            kv("rounds", n(params.rounds as f64)),
            kv("lookups", n(sweeps::flowstate::LOOKUPS as f64)),
            kv(
                "state_bytes_per_flow",
                n(std::mem::size_of::<sweeps::flowstate::State>() as f64),
            ),
            kv("slot_bytes", n(report.slot_bytes as f64)),
            kv(
                "table_mib",
                n(report.table_bytes() as f64 / (1 << 20) as f64),
            ),
            kv("bloom_cells", n(sweeps::flowstate::BLOOM_CELLS as f64)),
            kv("bloom_hashes", n(sweeps::flowstate::BLOOM_HASHES as f64)),
        ],
        metrics: Vec::new(),
    }];
    for r in &report.rows {
        trials.push(Trial {
            section: "results",
            config: vec![kv("occupancy", s(r.occupancy))],
            metrics: vec![
                kv("resident_flows", n(r.resident as f64)),
                kv("lookup_ns", n(r.lookup_ns)),
                kv("lookup_throughput_mops", n(r.lookup_mops)),
                kv("insert_ns", n(r.insert_ns)),
                kv("eviction_rate", n(r.eviction_rate)),
                kv("fill_evictions", n(r.fill_evictions as f64)),
                kv("bloom_fpr", n(r.bloom_fpr)),
                kv("bloom_fill_ratio", n(r.bloom_fill)),
            ],
        });
    }
    trials
}

fn run_shard_batch(opts: &RunOpts) -> Vec<Trial> {
    let mut params = if opts.smoke {
        sweeps::shard_batch::Params::smoke()
    } else {
        sweeps::shard_batch::Params::full()
    };
    if let Some(r) = opts.rounds {
        params.rounds = r;
    }
    let rows = sweeps::shard_batch::run(&params);

    let mut trials = vec![Trial {
        section: "meta",
        config: vec![kv("rounds", n(params.rounds as f64))],
        metrics: Vec::new(),
    }];
    for r in &rows {
        trials.push(Trial {
            section: "results",
            config: vec![
                kv("shards", n(r.shards as f64)),
                kv("batch", n(r.batch as f64)),
            ],
            metrics: vec![
                kv("median_secs", n(r.median.as_secs_f64())),
                kv("mib_per_s", n(r.mib_per_s())),
                kv("packets_per_s", n(r.packets_per_s())),
            ],
        });
    }
    trials
}

fn run_tier_ladder(opts: &RunOpts) -> Vec<Trial> {
    let mut params = sweeps::tier_ladder::Params::full();
    if opts.smoke {
        params.rounds = 3;
    }
    if let Some(r) = opts.rounds {
        params.rounds = r;
    }
    let reports = sweeps::tier_ladder::run(&params);

    let mut trials = vec![Trial {
        section: "meta",
        config: vec![
            kv("rounds", n(params.rounds as f64)),
            kv("corpus_seed", n(params.corpus_seed as f64)),
        ],
        metrics: Vec::new(),
    }];
    for report in &reports {
        for r in &report.rows {
            trials.push(Trial {
                section: "ladder",
                config: vec![
                    kv("rules", n(report.rules as f64)),
                    kv("build", s(r.build.clone())),
                ],
                metrics: vec![
                    kv("bytes", n(r.bytes as f64)),
                    kv("median_secs", n(r.median.as_secs_f64())),
                    kv(
                        "mib_per_s",
                        n(mib_per_s(sweeps::tier_ladder::VOLUME as u64, r.median)),
                    ),
                    kv("vs_cold", n(r.vs_cold)),
                    kv("hot_states", n(r.hot_states as f64)),
                    kv("classes", n(r.classes as f64)),
                ],
            });
        }
    }
    trials
}

/// What one `sd lab run` invocation appended.
#[derive(Debug)]
pub struct RunRecord {
    pub run_id: String,
    /// (experiment name, rows appended) per member, in execution order.
    pub members: Vec<(&'static str, usize)>,
}

/// Execute an experiment (or the [`CI_SMOKE`] composite) and append its
/// rows to `journal`, stamped with one run id and fresh provenance.
pub fn run_experiment(name: &str, opts: &RunOpts, journal: &Journal) -> Result<RunRecord, String> {
    let (members, opts) = if name == CI_SMOKE {
        // The composite: every baseline-feeding sweep, smoke profile,
        // canonical experiment names — one journal that emit and compare
        // consume with no special cases.
        let members: Vec<&'static Experiment> = EXPERIMENTS
            .iter()
            .filter(|e| e.baseline.is_some())
            .collect();
        (
            members,
            RunOpts {
                smoke: true,
                ..*opts
            },
        )
    } else {
        let exp = find(name).ok_or_else(|| {
            format!("unknown experiment '{name}' (try `sd lab list`; composite: {CI_SMOKE})")
        })?;
        (vec![exp], *opts)
    };

    let unix_secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_err(|e| e.to_string())?
        .as_secs();
    let run_id = fresh_run_id(unix_secs);
    let provenance = Provenance::capture();

    let mut record = RunRecord {
        run_id: run_id.clone(),
        members: Vec::new(),
    };
    for exp in members {
        let trials = (exp.run)(&opts);
        let rows: Vec<TrialRow> = trials
            .into_iter()
            .enumerate()
            .map(|(i, t)| TrialRow {
                schema: SCHEMA_VERSION,
                run_id: run_id.clone(),
                experiment: exp.name.to_string(),
                seq: i as f64,
                section: t.section.to_string(),
                unix_secs: unix_secs as f64,
                provenance: provenance.clone(),
                config: t.config,
                metrics: t.metrics,
            })
            .collect();
        journal.append(&rows)?;
        record.members.push((exp.name, rows.len()));
    }
    Ok(record)
}

/// Compile-time check that the registry names stay in sync with the
/// pinned baseline schemas.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SCHEMAS;

    #[test]
    fn baseline_experiments_match_pinned_schemas() {
        for schema in &SCHEMAS {
            let exp = find(schema.experiment).expect("registry covers every schema");
            assert_eq!(exp.baseline, Some(schema.file));
        }
        for exp in EXPERIMENTS.iter().filter(|e| e.baseline.is_some()) {
            assert!(SCHEMAS.iter().any(|s| s.experiment == exp.name));
        }
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        let journal = Journal::new("/nonexistent/never-written.jsonl");
        let err = run_experiment("nope", &RunOpts::default(), &journal).unwrap_err();
        assert!(err.contains("unknown experiment"), "{err}");
    }
}
