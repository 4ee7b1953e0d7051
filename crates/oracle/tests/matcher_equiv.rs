//! Piece-automaton equivalence over adversarial traces.
//!
//! The fast path reaches its automaton through one pure function,
//! `SplitPlan::scan(payload)`, so two automata that agree on every
//! payload make identical engines: same divert decisions, same alerts,
//! same accounting. The tiered automaton has one structural axis — how
//! many shallow states are laid out as dense rows — whose endpoints are a
//! CSR NFA under a dense root (`hot = 1`) and a dense DFA behind the
//! window filter (`hot = all`). This suite walks that axis (`1`, `2`,
//! the heuristic's floor, the heuristic itself, `all`) and checks every
//! point against the naive reference and the dense DFA on the payloads
//! of the oracle's adversarial traces, where the signature arrives
//! fragmented, overlapped, chaffed and out of order — and does it again
//! at rule-corpus scale, where the tiers genuinely split (dedup'd shared
//! prefixes, a populated cold tail).

use sd_ips::api::run_trace;
use sd_ips::rules::parse_rules;
use sd_ips::{Signature, SignatureSet};
use sd_match::tiered::MIN_HOT_STATES;
use sd_match::{naive, AcDfa, AhoCorasick, PatternSet, TieredNfa};
use sd_oracle::{CompiledTrace, TraceProgram, ORACLE_SIGNATURE};
use sd_packet::parse::{parse_ipv4, Transport};
use sd_traffic::{generate_rule_corpus, RuleCorpusConfig};
use splitdetect::{SplitDetect, SplitDetectConfig, SplitPlan};

/// The pinned regression traces from `regression.rs`: shrunk reproducers
/// of real engine bugs, i.e. exactly the wire shapes that have fooled
/// this engine before.
const PINNED: [&str; 3] = [
    "# split-detect fuzz trace\n\
     seed 77\n\
     policy first\n\
     prefix 40\n\
     suffix 30\n\
     mutate split-sig 9\n\
     mutate frag 0 24\n",
    "# split-detect fuzz trace\n\
     seed 13968259953709020894\n\
     policy first\n\
     prefix 1\n\
     suffix 2\n\
     mutate chaff-cksum 1501928558060025601\n\
     mutate frag 3759307373701782754 43\n",
    "# split-detect fuzz trace\n\
     seed 5770459859425060368\n\
     policy linux\n\
     prefix 1\n\
     suffix 2\n\
     mutate retransmit-bad 9843630119496533149\n\
     mutate frag-overlap 71580601167850740\n",
];

/// Hot-tier sizes walked: the all-cold endpoint, a boundary inside the
/// first trie level, the heuristic's floor, the heuristic (`None`), and
/// the all-hot endpoint.
const HOT_SWEEP: [Option<usize>; 5] = [
    Some(1),
    Some(2),
    Some(MIN_HOT_STATES),
    None,
    Some(usize::MAX),
];

fn signatures() -> SignatureSet {
    SignatureSet::from_signatures([Signature::new("oracle-evil", ORACLE_SIGNATURE)])
}

fn compile(sigs: &SignatureSet) -> SplitPlan {
    SplitPlan::compile(sigs, &SplitDetectConfig::default()).expect("oracle config is admissible")
}

fn hot_sweep(pieces: &PatternSet, hots: &[Option<usize>]) -> Vec<TieredNfa> {
    let nfa = AhoCorasick::new(pieces.clone());
    hots.iter()
        .map(|&hot| TieredNfa::from_nfa(&nfa, hot))
        .collect()
}

/// Everything in a trace the automaton could be asked to scan: each raw
/// IP packet (headers are as good a source of arbitrary bytes as any) and
/// the transport payload the fast path actually scans.
fn scan_inputs(compiled: &CompiledTrace) -> Vec<&[u8]> {
    let mut inputs: Vec<&[u8]> = Vec::new();
    for packet in &compiled.packets {
        inputs.push(packet);
        if let Ok(parsed) = parse_ipv4(packet) {
            match parsed.transport {
                Transport::Tcp(t) => inputs.push(t.payload),
                Transport::Udp(u) => inputs.push(u.payload),
                Transport::Fragment(raw) | Transport::Other(raw) => inputs.push(raw),
            }
        }
    }
    inputs
}

/// The production plan and every sweep point against one reference.
struct Subject {
    plan: SplitPlan,
    sweep: Vec<TieredNfa>,
    dense: AcDfa,
}

impl Subject {
    fn new(sigs: &SignatureSet) -> Self {
        let plan = compile(sigs);
        let sweep = hot_sweep(plan.pieces(), &HOT_SWEEP);
        let dense = AcDfa::new(plan.pieces().clone());
        Subject { plan, sweep, dense }
    }

    /// Dense-DFA agreement on every scan input of a trace; returns how
    /// many inputs tripped a piece.
    fn assert_agree(&self, compiled: &CompiledTrace, label: &str) -> usize {
        let mut hits = 0;
        for (i, hay) in scan_inputs(compiled).into_iter().enumerate() {
            let first = self.dense.find_first_id(hay);
            let mut all = self.dense.find_all(hay);
            all.sort();
            hits += usize::from(first.is_some());
            assert_eq!(
                self.plan.scan(hay),
                first,
                "{label}: plan first-match diverges on input {i}"
            );
            for tiered in &self.sweep {
                let hot = tiered.hot_state_count();
                assert_eq!(
                    tiered.find_first_id(hay),
                    first,
                    "{label}: hot={hot} first-match diverges on input {i}"
                );
                let mut got = tiered.find_all(hay);
                got.sort();
                assert_eq!(
                    got, all,
                    "{label}: hot={hot} match list diverges on input {i}"
                );
            }
        }
        hits
    }

    /// [`Subject::assert_agree`], with the dense DFA itself checked
    /// against the naive reference first (small pattern sets only — naive
    /// is `O(pieces × bytes)`).
    fn assert_agree_with_naive(&self, compiled: &CompiledTrace, label: &str) -> usize {
        for (i, hay) in scan_inputs(compiled).into_iter().enumerate() {
            let mut want = naive::find_all(self.plan.pieces(), hay);
            want.sort();
            let mut got = self.dense.find_all(hay);
            got.sort();
            assert_eq!(got, want, "{label}: dense diverges from naive on input {i}");
        }
        self.assert_agree(compiled, label)
    }
}

#[test]
fn pinned_regressions_agree_at_every_hot_count() {
    let subject = Subject::new(&signatures());
    for (i, text) in PINNED.iter().enumerate() {
        let program = TraceProgram::from_text(text).expect("pinned trace must parse");
        let compiled = program.compile();
        // The pins must keep their teeth: each one delivers the signature
        // and the engine alerts, so the agreement below is about traffic
        // that matters, not five automata all saying nothing.
        let config = SplitDetectConfig {
            slow_path_policy: compiled.victim.policy,
            ..Default::default()
        };
        let mut engine =
            SplitDetect::with_config(signatures(), config).expect("oracle config is admissible");
        let alerts = run_trace(&mut engine, compiled.packets.iter().map(|p| p.as_slice()));
        assert!(!alerts.is_empty(), "pin {i} no longer triggers any alert");
        subject.assert_agree_with_naive(&compiled, &format!("pin {i}"));
    }
}

#[test]
fn random_adversarial_programs_agree_at_every_hot_count() {
    let subject = Subject::new(&signatures());
    let mut hits = 0;
    for seed in 0..48u64 {
        let compiled = TraceProgram::random(seed).compile();
        hits += subject.assert_agree_with_naive(&compiled, &format!("random program seed {seed}"));
    }
    assert!(hits > 0, "no random program ever carried a whole piece");
}

/// Rules in the scale corpus: trimmed in the debug profile so tier-1
/// stays quick, the full 1k in release (CI runs this suite in release).
const CORPUS_RULES: usize = if cfg!(debug_assertions) { 200 } else { 1000 };

/// A generated corpus as the engine's rule set, with the oracle signature
/// appended so adversarial traces still carry planted pieces.
fn corpus_signatures(rules: usize, seed: u64) -> SignatureSet {
    let text = generate_rule_corpus(&RuleCorpusConfig::sized(rules, seed));
    let set = parse_rules(&text).expect("generated corpus parses cleanly");
    let mut sigs: Vec<Signature> = set
        .rules
        .iter()
        .enumerate()
        .map(|(i, r)| Signature::new(format!("corpus-{i}"), r.signature_bytes().to_vec()))
        .collect();
    sigs.push(Signature::new("oracle-evil", ORACLE_SIGNATURE));
    SignatureSet::from_signatures(sigs)
}

/// The scale version: every sweep point loaded with a seeded corpus,
/// driven over the pinned regressions and fresh adversarial programs —
/// exactly the traces whose fragments and splits straddle signatures
/// across packet boundaries. At this scale the tiers genuinely differ
/// inside (piece dedup kicks in, `hot = 256` leaves most of the trie
/// cold), so agreement here is the proof the heuristic is free to put the
/// boundary wherever the byte budget says.
#[test]
fn corpus_scale_automata_agree_at_every_hot_count() {
    let subject = Subject::new(&corpus_signatures(CORPUS_RULES, 0xC0FFEE));
    assert!(
        subject.sweep.iter().any(|t| t.cold_state_count() > 0)
            && subject.sweep.iter().any(|t| t.cold_state_count() == 0),
        "the sweep must cover both split and all-hot layouts"
    );
    for (i, text) in PINNED.iter().enumerate() {
        let program = TraceProgram::from_text(text).expect("pinned trace must parse");
        subject.assert_agree(&program.compile(), &format!("corpus pin {i}"));
    }
    for seed in 100..104u64 {
        let compiled = TraceProgram::random(seed).compile();
        subject.assert_agree(&compiled, &format!("corpus random seed {seed}"));
    }
}

/// A corpus signature placed at every offset `0..16`: each of its pieces
/// meets the window filter at every alignment, and a walk that stops at
/// depth ≤ 1 inside one piece resumes right where the next begins; the
/// match lists must stay identical to the naive reference at every sweep
/// point.
#[test]
fn corpus_scale_automata_agree_on_straddling_offsets() {
    let sigs = corpus_signatures(CORPUS_RULES, 0xC0FFEE);
    let subject = Subject::new(&sigs);
    for want in [0usize, CORPUS_RULES / 2, CORPUS_RULES - 1] {
        let bytes = &sigs
            .iter()
            .find(|(id, _)| *id == want)
            .expect("probe signature exists")
            .1
            .bytes;
        for shift in 0..16usize {
            let mut payload = vec![b'.'; shift];
            payload.extend_from_slice(bytes);
            payload.extend_from_slice(b" trailing benign tail bytes");
            let mut base = naive::find_all(subject.plan.pieces(), &payload);
            base.sort();
            assert!(
                !base.is_empty(),
                "a whole signature must trip its own pieces"
            );
            let mut got = subject.plan.scan_all(&payload);
            got.sort();
            assert_eq!(got, base, "plan full-scan diverges at shift {shift}");
            for tiered in &subject.sweep {
                let hot = tiered.hot_state_count();
                let mut got = tiered.find_all(&payload);
                got.sort();
                assert_eq!(got, base, "hot={hot} full-scan diverges at shift {shift}");
                assert_eq!(
                    tiered.find_first_id(&payload),
                    subject.plan.scan(&payload),
                    "hot={hot} first-match diverges at shift {shift}"
                );
            }
        }
    }
}

/// The 10k-rule memory ceiling: on a full-size corpus the heuristic must
/// keep the automaton within 10% of what a dense DFA (1 KB per state)
/// would occupy and within 2× of its own all-cold layout, with identical
/// structure and identical scan results at every sweep point. The
/// all-hot endpoint is left out here: at 10k rules it *is* the ~175 MB
/// table the tiers exist to avoid.
#[test]
fn heuristic_stays_small_and_exact_at_10k_rules() {
    let sigs = corpus_signatures(10_000, 42);
    let plan = compile(&sigs);
    let sweep = hot_sweep(plan.pieces(), &HOT_SWEEP[..4]);

    let mut payload = b"benign preamble ".to_vec();
    payload.extend_from_slice(&sigs.iter().next().expect("corpus is non-empty").1.bytes);
    payload.extend_from_slice(b" interstitial filler ");
    payload.extend_from_slice(ORACLE_SIGNATURE);
    let mut base = naive::find_all(plan.pieces(), &payload);
    base.sort();
    assert!(!base.is_empty());
    let mut got = plan.scan_all(&payload);
    got.sort();
    assert_eq!(got, base, "plan diverges from naive at 10k rules");

    for tiered in &sweep {
        let hot = tiered.hot_state_count();
        assert_eq!(
            tiered.state_count(),
            plan.state_count(),
            "hot={hot} must encode the same automaton"
        );
        let mut got = tiered.find_all(&payload);
        got.sort();
        assert_eq!(got, base, "hot={hot} diverges at 10k rules");
    }

    let dense_bytes = plan.state_count() * 1024;
    assert!(
        plan.memory_bytes() * 10 <= dense_bytes,
        "automaton is {} B, over 10% of a dense table's {dense_bytes} B",
        plan.memory_bytes()
    );
    let all_cold = &sweep[0];
    assert_eq!(all_cold.hot_state_count(), 1);
    assert!(
        plan.memory_bytes() <= 2 * all_cold.memory_bytes(),
        "heuristic is {} B, over 2x the all-cold {} B at 10k rules",
        plan.memory_bytes(),
        all_cold.memory_bytes()
    );
    let tiers = plan.tier_stats();
    assert!(tiers.hot_states > 0 && tiers.cold_states > 0);
}
