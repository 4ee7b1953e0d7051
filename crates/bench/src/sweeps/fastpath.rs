//! Fast-path mix sweep core: per-segment scan throughput of the piece
//! automaton across three payload mixes, the full classify path on the
//! standard benign trace, and the 10k-rule corpus scan and footprint.
//! This is the measurement behind the `fastpath` bench main, the
//! `fastpath-matcher-mix` lab experiment and `BENCH_fastpath.json`.
//!
//! The mixes:
//!
//! * **benign** — HTTP-like traffic with no signature material; the mix
//!   the prefilter's skip loop is built for,
//! * **pieces** — benign bytes with a signature piece planted in every
//!   segment, so every scan ends in an automaton hit,
//! * **adversarial** — benign bytes salted with ~25 % escape bytes, the
//!   attacker's best attempt at defeating the skip loop.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_ips::{Signature, SignatureSet};
use sd_traffic::payload::PayloadModel;
use splitdetect::fastpath::{FastPath, FastPathParams};
use splitdetect::split::SplitPlan;
use splitdetect::SplitDetectConfig;

use super::median;
use crate::benign_trace;

/// Scan corpus size (split into segment-sized scans).
pub const VOLUME: usize = 1 << 20;
/// Model MTU-ish payload per scan call.
pub const SEGMENT: usize = 1400;

/// Sweep parameters. `full()` is what regenerates the checked-in
/// baseline; `smoke()` trims rounds for the CI gate (same rows, slightly
/// noisier medians — well inside the 15 % compare tolerance).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Rounds for the small-corpus mixes and the classify path.
    pub rounds: usize,
    /// Rounds for the 10k-rule scan (the plan build dominates).
    pub rounds_10k: usize,
    /// Generated corpus size for the scale rows.
    pub corpus_rules: usize,
    /// Corpus generator seed (42 everywhere in EXPERIMENTS.md).
    pub corpus_seed: u64,
}

impl Params {
    /// Baseline-quality measurement (the `BENCH_fastpath.json` recipe).
    pub fn full() -> Self {
        Params {
            rounds: 9,
            rounds_10k: 5,
            corpus_rules: 10_000,
            corpus_seed: 42,
        }
    }

    /// CI-smoke profile: fewer rounds, identical row coverage.
    pub fn smoke() -> Self {
        Params {
            rounds: 7,
            rounds_10k: 3,
            ..Params::full()
        }
    }
}

/// The single-signature set the small-corpus mixes scan for.
pub fn sigs() -> SignatureSet {
    SignatureSet::from_signatures([Signature::new("one", crate::SIG)])
}

/// Compile the default-corpus plan.
pub fn plan() -> SplitPlan {
    SplitPlan::compile(&sigs(), &SplitDetectConfig::default()).expect("admissible")
}

/// Build a full fast path (plan + flow table).
pub fn build_fastpath(sigs: &SignatureSet) -> FastPath {
    let config = SplitDetectConfig::default();
    let cutoff = config.validate(sigs).expect("admissible");
    let plan = SplitPlan::compile(sigs, &config).expect("admissible");
    FastPath::new(
        plan,
        FastPathParams {
            cutoff,
            budget: config.small_segment_budget,
            table_capacity: 1 << 14,
            ..Default::default()
        },
    )
}

/// The benched signature's pieces, cut exactly as `SplitPlan` cuts them.
fn sig_pieces() -> Vec<&'static [u8]> {
    splitdetect::split::balanced_cuts(crate::SIG.len(), 3)
        .into_iter()
        .map(|(a, b)| &crate::SIG[a..b])
        .collect()
}

/// Benign mix: HTTP-like bytes, no signature material.
pub fn benign_corpus() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(3);
    PayloadModel::HttpLike.generate(&mut rng, VOLUME)
}

/// Piece-bearing mix: one signature piece planted per segment, so every
/// scan call terminates in a match.
pub fn piece_corpus() -> Vec<u8> {
    let mut corpus = benign_corpus();
    let mut rng = StdRng::seed_from_u64(11);
    let pieces = sig_pieces();
    let mut seg = 0;
    while seg + SEGMENT <= corpus.len() {
        let piece = pieces[rng.gen_range(0..pieces.len())];
        let at = seg + rng.gen_range(0..SEGMENT - piece.len());
        corpus[at..at + piece.len()].copy_from_slice(piece);
        seg += SEGMENT;
    }
    corpus
}

/// Adversarial mix: ~25 % of bytes replaced with escape bytes (piece
/// first-bytes), flooding the prefilter with candidates.
pub fn adversarial_corpus() -> Vec<u8> {
    let mut corpus = benign_corpus();
    let escapes: Vec<u8> = sig_pieces().iter().map(|p| p[0]).collect();
    let mut rng = StdRng::seed_from_u64(29);
    for b in corpus.iter_mut() {
        if rng.gen_range(0..4u8) == 0 {
            *b = escapes[rng.gen_range(0..escapes.len())];
        }
    }
    corpus
}

/// One timed pass of `SplitPlan::scan` over `corpus` in segment chunks.
pub fn scan_once(plan: &SplitPlan, corpus: &[u8]) -> Duration {
    let start = Instant::now();
    let mut hits = 0u64;
    for seg in corpus.chunks(SEGMENT) {
        hits += u64::from(plan.scan(std::hint::black_box(seg)).is_some());
    }
    std::hint::black_box(hits);
    start.elapsed()
}

/// One timed pass of the full classify path over the benign packet trace.
pub fn classify_once(trace: &sd_traffic::trace::Trace) -> Duration {
    let mut fp = build_fastpath(&sigs());
    let start = Instant::now();
    let mut diverts = 0u64;
    for pkt in trace.iter_bytes() {
        let (_, v) = fp.classify(std::hint::black_box(pkt), |_| false);
        diverts += u64::from(matches!(v, splitdetect::fastpath::Verdict::Divert(_)));
    }
    std::hint::black_box(diverts);
    start.elapsed()
}

/// One throughput result row.
pub struct MixRow {
    /// Mix label (`scan/benign`, `classify/benign`, `scan10k/benign`, …).
    pub mix: String,
    /// Median over the rounds.
    pub median: Duration,
    /// Bytes processed per pass (the throughput denominator).
    pub bytes: u64,
}

impl MixRow {
    /// Throughput in MiB/s.
    pub fn mib_per_s(&self) -> f64 {
        super::mib_per_s(self.bytes, self.median)
    }
}

/// Default-corpus automaton footprint.
pub struct AutomatonRow {
    /// Exact table bytes.
    pub bytes: usize,
    /// Byte classes over the hot rows.
    pub classes: usize,
    /// Prefilter escape set size.
    pub escape_bytes: usize,
}

/// 10k-rule corpus automaton footprint.
pub struct Automaton10kRow {
    /// Exact table bytes.
    pub bytes: usize,
    /// Hot-tier bytes.
    pub hot_bytes: usize,
    /// Cold-tier bytes.
    pub cold_bytes: usize,
    /// Automaton states.
    pub states: usize,
    /// Wall-clock build time.
    pub build: Duration,
}

/// Everything one sweep run measured.
pub struct Report {
    /// Parameters the run used.
    pub params: Params,
    /// Throughput rows, sorted by mix — the order `BENCH_fastpath.json`
    /// records.
    pub rows: Vec<MixRow>,
    /// Default-corpus automaton footprint.
    pub automaton: AutomatonRow,
    /// 10k-corpus automaton footprint.
    pub automaton_10k: Automaton10kRow,
}

impl Report {
    /// Print the human table the bench main has always printed.
    pub fn print(&self) {
        println!(
            "\nfast-path throughput (median of {} rounds):",
            self.params.rounds
        );
        println!("{:<18} {:>10}", "mix", "MiB/s");
        for r in &self.rows {
            println!("{:<18} {:>10.1}", r.mix, r.mib_per_s());
        }
        let a = &self.automaton_10k;
        println!(
            "\n10k-rule corpus automaton: {} B ({} hot + {} cold), {} states, built in {:.2} ms",
            a.bytes,
            a.hot_bytes,
            a.cold_bytes,
            a.states,
            a.build.as_secs_f64() * 1e3
        );
    }
}

/// Run the full sweep: small-corpus mixes + classify + 10k-corpus scan
/// and footprints. One measurement implementation for bench and lab.
pub fn run(params: &Params) -> Report {
    let scan_mixes: [(&'static str, Vec<u8>); 3] = [
        ("scan/benign", benign_corpus()),
        ("scan/pieces", piece_corpus()),
        ("scan/adversarial", adversarial_corpus()),
    ];
    let trace = benign_trace(200, 17);
    let plan = plan();

    // Warm every path once before measuring.
    for (_, corpus) in &scan_mixes {
        scan_once(&plan, corpus);
    }
    classify_once(&trace);

    // Interleave the mixes inside each round so thermal/scheduler drift
    // spreads evenly across them.
    let mut scan_samples: Vec<Vec<Duration>> = vec![Vec::new(); scan_mixes.len()];
    let mut classify_samples = Vec::new();
    for _ in 0..params.rounds {
        for ((_, corpus), samples) in scan_mixes.iter().zip(&mut scan_samples) {
            samples.push(scan_once(&plan, corpus));
        }
        classify_samples.push(classify_once(&trace));
    }

    // 10k-rule corpus: the production-scale mix. Scan-only (the classify
    // path's flow table is rule-count independent) and fewer rounds — the
    // point is how throughput and footprint hold up as the corpus grows,
    // not another microbenchmark. Benign bytes trip corpus pieces early
    // and often at this scale.
    let sigs10k = crate::corpus_signature_set(params.corpus_rules, params.corpus_seed);
    let plan10k = SplitPlan::compile(&sigs10k, &SplitDetectConfig::default()).expect("admissible");
    let benign10k = &scan_mixes[0].1;
    scan_once(&plan10k, benign10k);
    let samples10k: Vec<Duration> = (0..params.rounds_10k)
        .map(|_| scan_once(&plan10k, benign10k))
        .collect();

    let mut rows: Vec<MixRow> = scan_mixes
        .iter()
        .zip(scan_samples)
        .map(|((mix, _), samples)| MixRow {
            mix: mix.to_string(),
            median: median(samples),
            bytes: VOLUME as u64,
        })
        .collect();
    rows.push(MixRow {
        mix: "classify/benign".to_string(),
        median: median(classify_samples),
        bytes: trace.total_bytes(),
    });
    rows.push(MixRow {
        mix: "scan10k/benign".to_string(),
        median: median(samples10k),
        bytes: VOLUME as u64,
    });
    rows.sort_by(|a, b| a.mix.cmp(&b.mix));

    let tiers = plan10k.tier_stats();
    Report {
        params: *params,
        rows,
        automaton: AutomatonRow {
            bytes: plan.memory_bytes(),
            classes: plan.class_count(),
            escape_bytes: plan.escape_byte_count(),
        },
        automaton_10k: Automaton10kRow {
            bytes: plan10k.memory_bytes(),
            hot_bytes: tiers.hot_bytes,
            cold_bytes: tiers.cold_bytes,
            states: plan10k.state_count(),
            build: plan10k.build_time(),
        },
    }
}
