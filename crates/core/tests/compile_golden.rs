//! The compiled automata, pinned: a digest of every array of the piece
//! plan (`SplitPlan`) and the whole-signature scanner (`StreamScanner`)
//! for the three rule sets the benchmark and the experiments compile,
//! both taken from one `CompiledRules::compile`, the build every engine
//! runs: on one thread at 200 rules, with the scanner built on a helper
//! thread at 1k and 10k.
//! The automaton builder may change how it gets there; what it builds may
//! not move by one byte without a new digest here.
//!
//! Each digest is FNV-1a over the value's `Debug` text, with two fields
//! normalised because they are not the automaton: the plan's wall-clock
//! `build_time`, and whether the window filter runs its AVX2 loop (a fact
//! about the CPU).

use std::fmt::Debug;

use sd_ips::rules::parse_rules_lenient;
use sd_ips::SignatureSet;
use sd_traffic::{generate_rule_corpus, RuleCorpusConfig};
use splitdetect::{CompiledRules, SplitDetectConfig};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digest of `value`'s `Debug` text, its filter loop read as scalar
/// and everything from `cut` (when given) on dropped.
fn digest(value: &impl Debug, cut: Option<&str>) -> u64 {
    let mut text = format!("{value:?}").replace("wide: Some(Avx2(()))", "wide: None");
    if let Some(cut) = cut {
        let at = text.find(cut).expect("the field to cut is printed");
        text.truncate(at);
    }
    fnv1a(text.as_bytes())
}

/// `(plan, scanner)` digests of `sigs` under the default configuration.
fn digests(sigs: &SignatureSet) -> (u64, u64) {
    let rules = CompiledRules::compile(sigs, &SplitDetectConfig::default())
        .expect("the default configuration admits the set");
    // `build_time` is the plan's last field.
    let plan = digest(rules.plan(), Some(", build_time: "));
    let scanner = digest(rules.scanner(), None);
    (plan, scanner)
}

fn corpus(rules: usize, seed: u64) -> SignatureSet {
    let (corpus, errors) =
        parse_rules_lenient(&generate_rule_corpus(&RuleCorpusConfig::sized(rules, seed)));
    assert!(errors.is_empty(), "the generated corpus parses cleanly");
    corpus.to_signatures()
}

fn check(name: &str, sigs: &SignatureSet, want: (u64, u64)) {
    let got = digests(sigs);
    assert_eq!(
        got, want,
        "{name}: compiled automata moved; (plan, scanner) digests are now \
         ({:#018x}, {:#018x})",
        got.0, got.1
    );
}

/// The random rules of `bulk-benign`, `mice-churn` and `evasion-mix`.
#[test]
fn compiled_automata_are_pinned_at_200_rules() {
    check(
        "200",
        &SignatureSet::generate(2006, 200, 16..40),
        (0x5268_1af2_6c32_f8b7, 0x3778_5a60_7dbf_d0ad),
    );
}

#[test]
fn compiled_automata_are_pinned_at_1k_rules() {
    check(
        "1k",
        &corpus(1_000, 7),
        (0x87b3_dea8_594f_ffa2, 0xb512_7524_a330_db8b),
    );
}

/// The corpus of `rules10k-encrypted`.
#[test]
fn compiled_automata_are_pinned_at_10k_rules() {
    check(
        "10k",
        &corpus(10_000, 2006),
        (0x53de_06db_be4f_3f1d, 0x26da_0884_4445_5c82),
    );
}
