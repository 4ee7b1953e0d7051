//! Bounded fuzzing smoke: the oracle's own health check.
//!
//! Three layers: random programs uphold the theorem (proptest), a fixed
//! campaign is clean and bit-for-bit deterministic, and a deliberately
//! sabotaged engine is caught *and* shrunk to a small reproducer — the
//! end-to-end proof that the oracle can find a real miss, not just agree
//! with a correct engine.

use proptest::prelude::*;
use sd_ips::SignatureSet;
use sd_oracle::{
    campaign_signatures, run_campaign, run_program, CampaignConfig, EngineTweaks, TraceProgram,
    CAMPAIGN_CORPUS_RULES,
};
use splitdetect::{SplitDetectConfig, SplitPlan};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any random program passes the differential check on the shipping
    /// engine: delivery implies detection, sharded equals single, nobody
    /// panics, decoys stay silent.
    #[test]
    fn random_programs_uphold_the_theorem(seed in any::<u64>()) {
        let program = TraceProgram::random(seed);
        let outcome = run_program(&program, EngineTweaks::NONE);
        prop_assert!(
            outcome.ok(),
            "seed {seed}: {:?}\n{}",
            outcome.violations,
            program.to_text()
        );
    }

    /// The `.trace` artifact format is lossless for any random program.
    #[test]
    fn trace_format_round_trips(seed in any::<u64>()) {
        let program = TraceProgram::random(seed);
        let parsed = TraceProgram::from_text(&program.to_text())
            .expect("render output must parse");
        prop_assert_eq!(parsed, program);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `sd fuzz --replay-trace` reads untrusted files: arbitrary text, a
    /// valid trace with one line replaced by junk, and a mutation line
    /// with junk arguments all parse to `Ok` or `Err`, never a panic.
    #[test]
    fn trace_parser_never_panics(
        seed in any::<u64>(),
        line in any::<usize>(),
        junk in "\\PC{0,60}",
    ) {
        let _ = TraceProgram::from_text(&junk);
        let text = TraceProgram::random(seed).to_text();
        let mut lines: Vec<&str> = text.lines().collect();
        let at = line % lines.len();
        lines[at] = &junk;
        let _ = TraceProgram::from_text(&lines.join("\n"));
        let _ = TraceProgram::from_text(&format!("{text}mutate {junk}\n"));
        let _ = TraceProgram::from_text(&format!("{text}mutate split {junk}\n"));
    }
}

#[test]
fn fixed_campaign_is_clean_and_deterministic() {
    let config = CampaignConfig {
        iters: 32,
        seed: 9,
        minimize: false,
        tweaks: EngineTweaks::NONE,
        max_failures: 0,
        rules_seed: None,
    };
    let a = run_campaign(config, |_, _| {});
    let b = run_campaign(config, |_, _| {});
    assert!(a.clean(), "campaign found violations: {:?}", a.failures);
    assert_eq!(a.stats, b.stats, "campaigns must be deterministic");
    assert!(a.stats.delivered > 0, "campaign never reached the victim");
    assert_eq!(
        a.stats.split_caught, a.stats.delivered,
        "every delivered signature must be caught"
    );
}

/// Campaigns whose engines carry a generated rule corpus alongside the
/// oracle signature (`--rules-seed`): the ballast must change the
/// automaton the fast path scans with — not ground truth, not any
/// invariant. Pinned after the corpus-parameterized campaigns over
/// rules-seeds 1..=4 (`sd fuzz --rules-seed S`) came back clean.
#[test]
fn corpus_ballast_campaign_is_clean_and_deterministic() {
    let sigs = campaign_signatures(Some(7));
    assert_eq!(
        sigs.len(),
        1 + CAMPAIGN_CORPUS_RULES,
        "ballast corpus must actually load"
    );

    // Each iteration rebuilds seven engines around a 65-signature
    // automaton; keep the debug-profile run short so tier-1 stays fast.
    let config = CampaignConfig {
        iters: if cfg!(debug_assertions) { 6 } else { 24 },
        seed: 9,
        minimize: false,
        tweaks: EngineTweaks::NONE,
        max_failures: 0,
        rules_seed: Some(7),
    };
    let a = run_campaign(config, |_, _| {});
    let b = run_campaign(config, |_, _| {});
    assert!(
        a.clean(),
        "corpus ballast broke an invariant: {:?}",
        a.failures
    );
    assert_eq!(a.stats, b.stats, "ballast campaigns must be deterministic");
    assert!(a.stats.delivered > 0, "campaign never reached the victim");
    assert_eq!(
        a.stats.split_caught, a.stats.delivered,
        "ballast must not erode detection"
    );

    // Same traces, no ballast: the verdict-level statistics agree — the
    // corpus changed the automaton, not the outcome.
    let lone = run_campaign(
        CampaignConfig {
            rules_seed: None,
            ..config
        },
        |_, _| {},
    );
    assert_eq!(a.stats, lone.stats, "ballast must be invisible in verdicts");
}

/// The differential campaigns must exercise the strided window filter
/// (stride `s > 1`), not just the stride-1 case: the oracle signature's
/// pieces are 7/7/6 bytes (`s = 3`), and the `--rules-seed 42` ballast and
/// the 200-rule benchmark set both bottom out at 5-byte pieces (`s = 2`).
/// A change to the oracle signature or the corpus lengths that drops a
/// campaign back to stride 1 fails here instead of silently.
#[test]
fn campaign_automata_run_the_strided_filter() {
    let stride = |sigs: &SignatureSet| {
        let plan = SplitPlan::compile(sigs, &SplitDetectConfig::default()).expect("admissible");
        let (window, stride, _, _) = plan.filter_shape().expect("filtered scan");
        assert_eq!(window, 4);
        stride
    };
    assert_eq!(stride(&campaign_signatures(None)), 3, "sd fuzz --seed 1");
    assert_eq!(
        stride(&campaign_signatures(Some(42))),
        2,
        "sd fuzz --rules-seed 42"
    );
    assert_eq!(
        stride(&SignatureSet::generate(2006, 200, 16..40)),
        2,
        "sd-e2e's 200-rule set"
    );
}

/// The acceptance gate: disable one fast-path rule, and the fuzzer must
/// find the resulting miss and delta-debug it down to a tiny reproducer
/// that survives a `.trace` round trip.
#[test]
fn sabotaged_engine_is_caught_and_shrunk() {
    let tweaks = EngineTweaks {
        disable_out_of_order: true,
        disable_fragments: false,
    };
    let config = CampaignConfig {
        iters: 64,
        seed: 1,
        minimize: true,
        tweaks,
        max_failures: 1,
        rules_seed: None,
    };
    let result = run_campaign(config, |_, _| {});
    assert!(
        !result.clean(),
        "a sabotaged engine must be caught within the smoke budget"
    );
    let failure = &result.failures[0];
    let repro = failure.reproducer();
    assert!(
        repro.mutations.len() <= 6,
        "shrinker left {} mutations: {}",
        repro.mutations.len(),
        repro.to_text()
    );
    assert!(
        !failure.violations.is_empty(),
        "failure must carry its violations"
    );

    // The artifact a user would replay reproduces the miss byte-for-byte.
    let replayed = TraceProgram::from_text(&repro.to_text()).unwrap();
    assert_eq!(&replayed, repro);
    assert!(
        !run_program(&replayed, tweaks).ok(),
        "replayed reproducer no longer fails"
    );
    // And the *untweaked* engine passes it — the bug is the sabotage.
    assert!(
        run_program(&replayed, EngineTweaks::NONE).ok(),
        "reproducer must implicate the disabled rule, not the engine"
    );
}
