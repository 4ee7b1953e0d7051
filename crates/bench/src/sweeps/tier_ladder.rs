//! Tier-threshold ladder core (E22): the piece automaton built with
//! `TieredNfa::with_hot_states` at a ladder of hot-tier sizes — from the
//! all-cold endpoint (`H = 1`, a CSR NFA under a dense root row) to the
//! all-hot one (a byte-classed DFA) — plus the budget heuristic, scanned
//! over the benign HTTP-like mix. This is the measurement behind the
//! `tiered-hot-ladder` lab experiment.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_match::TieredNfa;
use sd_traffic::payload::PayloadModel;
use splitdetect::split::SplitPlan;
use splitdetect::SplitDetectConfig;

use super::median;

/// Scan corpus size.
pub const VOLUME: usize = 1 << 20;
/// Per-scan segment size.
pub const SEGMENT: usize = 1400;
/// Rule-corpus sizes walked (the E21/E22 corpora, seed 42).
pub const RULE_COUNTS: [usize; 2] = [1_000, 10_000];
/// Hot-state counts walked: the all-cold anchor, the interior ladder, and
/// the all-hot anchor (`usize::MAX` clamps to the state count).
pub const HOT_LADDER: [usize; 6] = [1, 256, 1024, 4096, 16_384, usize::MAX];

/// Ladder parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Rounds (median taken; the E22 table used 7).
    pub rounds: usize,
    /// Corpus generator seed.
    pub corpus_seed: u64,
}

impl Params {
    /// The E22 recipe.
    pub fn full() -> Self {
        Params {
            rounds: 7,
            corpus_seed: 42,
        }
    }
}

/// One ladder row: a pinned hot-tier size or the heuristic.
pub struct Row {
    /// Build label ("H=1", "H=256", …, "H=all", "heuristic").
    pub build: String,
    /// Hot-tier states the build ended up with.
    pub hot_states: usize,
    /// Exact automaton bytes.
    pub bytes: usize,
    /// Byte classes over the hot rows.
    pub classes: usize,
    /// Median scan time over the rounds.
    pub median: Duration,
    /// Throughput relative to the all-cold anchor (`H=1`).
    pub vs_cold: f64,
}

/// One corpus size's ladder.
pub struct LadderReport {
    /// Rule-corpus size.
    pub rules: usize,
    /// Rows in ladder order (`HOT_LADDER`, then the heuristic).
    pub rows: Vec<Row>,
}

fn scan_once(nfa: &TieredNfa, corpus: &[u8]) -> Duration {
    let start = Instant::now();
    let mut hits = 0u64;
    for seg in corpus.chunks(SEGMENT) {
        hits += u64::from(nfa.find_first_id(seg).is_some());
    }
    std::hint::black_box(hits);
    start.elapsed()
}

/// Run the ladder for every corpus size in `RULE_COUNTS`.
pub fn run(params: &Params) -> Vec<LadderReport> {
    let mut rng = StdRng::seed_from_u64(3);
    let corpus = PayloadModel::HttpLike.generate(&mut rng, VOLUME);
    let k = SplitDetectConfig::default().pieces_per_signature;

    RULE_COUNTS
        .iter()
        .map(|&rules| {
            let sigs = crate::corpus_signature_set(rules, params.corpus_seed);
            let pieces = SplitPlan::compile_unchecked(&sigs, k).pieces().clone();

            let mut builds: Vec<(String, TieredNfa)> = HOT_LADDER
                .iter()
                .map(|&hot| {
                    let label = if hot == usize::MAX {
                        "H=all".to_string()
                    } else {
                        format!("H={hot}")
                    };
                    (label, TieredNfa::with_hot_states(pieces.clone(), hot))
                })
                .collect();
            builds.push(("heuristic".into(), TieredNfa::new(pieces)));

            for (_, nfa) in &builds {
                scan_once(nfa, &corpus);
            }
            // Alternate builds inside each round so thermal/scheduler
            // drift cancels; compare medians.
            let mut samples: Vec<Vec<Duration>> = vec![Vec::new(); builds.len()];
            for _ in 0..params.rounds {
                for (bi, (_, nfa)) in builds.iter().enumerate() {
                    samples[bi].push(scan_once(nfa, &corpus));
                }
            }

            let medians: Vec<Duration> = samples.into_iter().map(median).collect();
            let cold_secs = medians[0].as_secs_f64();
            let rows = builds
                .iter()
                .zip(&medians)
                .map(|((name, nfa), med)| Row {
                    build: name.clone(),
                    hot_states: nfa.hot_state_count(),
                    bytes: nfa.memory_bytes(),
                    classes: nfa.class_count(),
                    median: *med,
                    vs_cold: cold_secs / med.as_secs_f64(),
                })
                .collect();
            LadderReport { rules, rows }
        })
        .collect()
}
