//! Rule compilation in isolation: the piece plan, the whole-signature
//! scanner and both together, timed at the three rule-set sizes the
//! benchmark and the experiments compile, with the clone of the compiled
//! rules and the drop of their last reference.
//!
//! ```console
//! cargo test --release -p splitdetect --test compile_cells -- --ignored --nocapture
//! ```
//!
//! Rule sets: 200 = `SignatureSet::generate(2006, 200, 16..40)`, the
//! random rules of `bulk-benign`, `mice-churn` and `evasion-mix`; 1k =
//! `generate_rule_corpus` seed 7; 10k = `generate_rule_corpus` seed 2006,
//! the corpus of `rules10k-encrypted`. Each cell prints the median of
//! [`RUNS`] runs in ms: the rule text to a `SignatureSet`
//! (`parse_rules_lenient` then `to_signatures`; the 200-rule set, which
//! has no text, is written out as a corpus of as many rules),
//! `SplitPlan::compile`, `StreamScanner::new` (those two columns add up
//! to the sequential build), `CompiledRules::compile` (the validation
//! and both automata, side by side on a large set: what an engine build
//! and every reload pay), `CompiledRules::clone` (two reference-count
//! bumps: what every shard build pays) and dropping the last reference
//! to a compile (what a reload's retire costs the thread that lets the old
//! rules go). The timings are for reading, not gating.

use std::hint::black_box;
use std::time::Instant;

use sd_ips::rules::parse_rules_lenient;
use sd_ips::stream::StreamScanner;
use sd_ips::SignatureSet;
use sd_traffic::{generate_rule_corpus, RuleCorpusConfig};
use splitdetect::{CompiledRules, SplitDetectConfig, SplitPlan};

/// Timed runs per cell; the median is reported.
const RUNS: usize = 7;

/// The median of `ms`.
fn median(mut ms: Vec<f64>) -> f64 {
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

/// The median of [`RUNS`] calls of `compile`, in ms, each with the drop
/// of what it built.
fn median_ms<T>(mut compile: impl FnMut() -> T) -> f64 {
    median(
        (0..RUNS)
            .map(|_| {
                let start = Instant::now();
                black_box(compile());
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

/// The medians, in ms, of [`RUNS`] clones of a fresh `compile()` and of
/// the drops of its last reference, each timed on its own.
fn clone_and_drop_ms(compile: impl Fn() -> CompiledRules) -> (f64, f64) {
    let ms = |since: Instant| since.elapsed().as_secs_f64() * 1e3;
    let (clone, dropped) = (0..RUNS)
        .map(|_| {
            let rules = compile();
            let start = Instant::now();
            let clone = black_box(rules.clone());
            let cloned = ms(start);
            drop(clone);
            let start = Instant::now();
            drop(rules);
            (cloned, ms(start))
        })
        .unzip();
    (median(clone), median(dropped))
}

fn load(text: &str) -> SignatureSet {
    let (corpus, errors) = parse_rules_lenient(text);
    assert!(errors.is_empty(), "the generated corpus parses cleanly");
    corpus.to_signatures()
}

#[test]
#[ignore = "timing: run in release with --ignored --nocapture"]
fn compile_cells() {
    // Each rule text with the signature set it loads as.
    let corpus = |rules, seed| {
        let text = generate_rule_corpus(&RuleCorpusConfig::sized(rules, seed));
        let sigs = load(&text);
        (text, sigs)
    };
    let sets = [
        (
            "200",
            (
                corpus(200, 2006).0,
                SignatureSet::generate(2006, 200, 16..40),
            ),
        ),
        ("1k", corpus(1_000, 7)),
        ("10k", corpus(10_000, 2006)),
    ];
    let config = SplitDetectConfig::default();
    println!(
        "{:<5} {:>15} {:>16} {:>20} {:>23} {:>10} {:>9}",
        "rules",
        "rules text ms",
        "SplitPlan ms",
        "StreamScanner ms",
        "CompiledRules ms",
        "clone ms",
        "drop ms"
    );
    for (name, (text, sigs)) in &sets {
        let loaded = median_ms(|| load(text));
        let plan = median_ms(|| SplitPlan::compile(sigs, &config).expect("admissible"));
        let scanner = median_ms(|| StreamScanner::new(sigs));
        let compile = || CompiledRules::compile(sigs, &config).expect("admissible");
        let both = median_ms(compile);
        let (clone, dropped) = clone_and_drop_ms(compile);
        println!(
            "{name:<5} {loaded:>15.1} {plan:>16.1} {scanner:>20.1} {both:>23.1} {clone:>10.5} {dropped:>9.3}"
        );
    }
}
