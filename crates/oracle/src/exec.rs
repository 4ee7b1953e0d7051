//! The differential executor: one program, five engines, three invariants.
//!
//! Ground truth comes from the victim model — *did the signature arrive
//! contiguously in the delivered stream?* — and the theorem is judged
//! against it:
//!
//! 1. **Detection** — delivered ⇒ Split-Detect alerts on the attack flow,
//!    *modulo the documented slow-path divert accounting*: a run that
//!    evicts from the diverted set has explicitly traded the guarantee
//!    for bounded state (`DivertStats::set_evictions` — the engine itself
//!    reports the erosion), and is counted as excused, not failed.
//!    Delay-line overflow is not counted on the flow yet, so it excuses
//!    nothing.
//! 2. **Shard equivalence** — `ShardedSplitDetect` with 1, 2 and 4 shards
//!    produces the same alert multiset as the single engine.
//! 3. **No panics** — every engine survives every trace (worker panics
//!    contained by the shard supervisor count as failures here too), and
//!    no engine alerts on a signature-free decoy flow.
//!
//! `ConventionalIps` runs alongside for campaign statistics (the paper's
//! cost-not-coverage comparison), but is not an invariant: its verdict is
//! reported, not asserted.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use sd_flow::FlowKey;
use sd_ips::api::run_trace;
use sd_ips::conventional::ConventionalConfig;
use sd_ips::rules::parse_rules;
use sd_ips::{Alert, ConventionalIps, Signature, SignatureSet};
use sd_reassembly::OverlapPolicy;
use sd_traffic::victim::receive_stream;
use sd_traffic::{generate_rule_corpus, RuleCorpusConfig};
use splitdetect::{ShardedSplitDetect, SplitDetect, SplitDetectConfig, SplitDetectStats};

use crate::program::{CompiledTrace, TraceProgram, ORACLE_SIGNATURE};

/// Shard counts the equivalence invariant covers.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Deliberate engine sabotage, used to prove the oracle *can* fail: the
/// acceptance test disables one anomaly rule and the fuzzer must find and
/// shrink a miss. Routed through `SplitDetectConfig`, so the sabotaged
/// engine is exactly the shipping engine minus one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineTweaks {
    /// Disable the sequence-monotonicity divert rule.
    pub disable_out_of_order: bool,
    /// Disable the fragment divert rule.
    pub disable_fragments: bool,
}

impl EngineTweaks {
    /// The untweaked engine.
    pub const NONE: EngineTweaks = EngineTweaks {
        disable_out_of_order: false,
        disable_fragments: false,
    };

    /// True if any rule is disabled.
    pub fn sabotaged(&self) -> bool {
        *self != EngineTweaks::NONE
    }

    fn config(&self, policy: OverlapPolicy) -> SplitDetectConfig {
        SplitDetectConfig {
            slow_path_policy: policy,
            divert_on_out_of_order: !self.disable_out_of_order,
            divert_on_fragments: !self.disable_fragments,
            // Pinned so campaigns are bit-deterministic and so the
            // collision-flood primitive's brute-forced keys actually
            // collide in the engine under test.
            flow_hash_seed: Some(crate::program::ORACLE_FLOW_HASH_SEED),
            ..Default::default()
        }
    }
}

/// One broken invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The victim received the signature but Split-Detect stayed silent
    /// (and the run was not excused by divert accounting).
    MissedDelivery {
        /// The victim policy the attack was crafted against.
        policy: OverlapPolicy,
    },
    /// A sharded engine's alert multiset differs from the single engine's.
    ShardDivergence {
        /// Shard count of the diverging engine.
        shards: usize,
        /// Alert count from the single engine.
        single_alerts: usize,
        /// Alert count from the sharded engine.
        sharded_alerts: usize,
    },
    /// An engine (or a shard worker) panicked.
    EnginePanic {
        /// Which engine died.
        engine: String,
        /// Panic payload, when it was a string.
        detail: String,
    },
    /// An engine alerted on a signature-free decoy flow.
    FalseAlert {
        /// Which engine raised it.
        engine: String,
        /// The innocent flow.
        flow: FlowKey,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MissedDelivery { policy } => {
                write!(f, "signature delivered to {policy} victim but not detected")
            }
            Violation::ShardDivergence {
                shards,
                single_alerts,
                sharded_alerts,
            } => write!(
                f,
                "{shards}-shard engine diverged: {sharded_alerts} alert(s) vs {single_alerts} single"
            ),
            Violation::EnginePanic { engine, detail } => {
                write!(f, "{engine} panicked: {detail}")
            }
            Violation::FalseAlert { engine, flow } => {
                write!(f, "{engine} alerted on decoy flow {flow}")
            }
        }
    }
}

/// Everything the oracle learned from one trace.
#[derive(Debug, Clone)]
pub struct TraceOutcome {
    /// The victim received the signature contiguously.
    pub delivered: bool,
    /// Split-Detect (single engine) alerted on the attack flow.
    pub split_alerted: bool,
    /// The conventional reassembling IPS alerted (statistics only).
    pub conventional_alerted: bool,
    /// The detection invariant was excused by divert accounting
    /// (diverted-set evictions).
    pub excused: bool,
    /// Broken invariants (empty = the trace passed).
    pub violations: Vec<Violation>,
    /// Packets in the compiled trace.
    pub packets: usize,
}

impl TraceOutcome {
    /// True when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

fn oracle_signatures() -> SignatureSet {
    SignatureSet::from_signatures([Signature::new("oracle-evil", ORACLE_SIGNATURE)])
}

/// Rules in a `--rules-seed` campaign corpus. Small on purpose: every
/// iteration rebuilds seven engines from scratch, so the corpus prices in
/// realistic automaton *structure* (shared prefixes, mixed alphabets)
/// without making each iteration a compile benchmark.
pub const CAMPAIGN_CORPUS_RULES: usize = 64;

/// The signature set a campaign runs: the planted oracle signature, plus —
/// when `rules_seed` is given — a generated rule corpus as ballast. The
/// ballast signatures never occur in generated traces (filler is lowercase,
/// corpus contents are ≥ 12 structured bytes), so ground truth and every
/// invariant are unchanged; what changes is the automaton the fast path
/// actually scans with.
pub fn campaign_signatures(rules_seed: Option<u64>) -> SignatureSet {
    let mut sigs = vec![Signature::new("oracle-evil", ORACLE_SIGNATURE)];
    if let Some(seed) = rules_seed {
        let text = generate_rule_corpus(&RuleCorpusConfig::sized(CAMPAIGN_CORPUS_RULES, seed));
        let set = parse_rules(&text).expect("generated corpus parses cleanly");
        for (i, rule) in set.rules.iter().enumerate() {
            sigs.push(Signature::new(
                format!("corpus-{i}"),
                rule.signature_bytes().to_vec(),
            ));
        }
    }
    SignatureSet::from_signatures(sigs)
}

/// Sort key making alert lists comparable across engines: flow identity,
/// signature, stream offset and source stage.
fn alert_key(a: &Alert) -> (FlowKey, usize, u64, u8) {
    (a.flow, a.signature, a.offset, a.source as u8)
}

fn sorted_keys(alerts: &[Alert]) -> Vec<(FlowKey, usize, u64, u8)> {
    let mut keys: Vec<_> = alerts.iter().map(alert_key).collect();
    keys.sort_unstable();
    keys
}

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Excused when the engine's own accounting says the guarantee was eroded
/// by bounded state: diverted-set eviction.
fn accounting_excuse(stats: &SplitDetectStats) -> bool {
    stats.divert.set_evictions > 0
}

/// Run one compiled trace through every engine and judge the invariants.
pub fn run_compiled(compiled: &CompiledTrace, tweaks: EngineTweaks) -> TraceOutcome {
    run_compiled_with(compiled, tweaks, &oracle_signatures())
}

/// [`run_compiled`] with an explicit signature set (see
/// [`campaign_signatures`]): the set must contain the oracle signature,
/// and any extra signatures must not occur in generated traces.
pub fn run_compiled_with(
    compiled: &CompiledTrace,
    tweaks: EngineTweaks,
    sigs: &SignatureSet,
) -> TraceOutcome {
    let mut violations = Vec::new();

    // Ground truth: what does the victim's stack deliver?
    let stream = receive_stream(compiled.packets.iter(), compiled.victim, compiled.server);
    let delivered = stream
        .windows(ORACLE_SIGNATURE.len())
        .any(|w| w == ORACLE_SIGNATURE);
    let (attack_flow, _) = FlowKey::from_endpoints(6, compiled.client, compiled.server);

    let config = tweaks.config(compiled.victim.policy);

    // Single engine (also the excuse source for the detection invariant).
    let single = catch_unwind(AssertUnwindSafe(|| {
        let mut engine =
            SplitDetect::with_config(sigs.clone(), config).expect("oracle config is admissible");
        let alerts = run_trace(&mut engine, compiled.packets.iter().map(|p| p.as_slice()));
        (alerts, engine.stats())
    }));
    let (single_alerts, single_stats) = match single {
        Ok(pair) => pair,
        Err(payload) => {
            violations.push(Violation::EnginePanic {
                engine: "split-detect".into(),
                detail: panic_detail(payload),
            });
            return TraceOutcome {
                delivered,
                split_alerted: false,
                conventional_alerted: false,
                excused: false,
                violations,
                packets: compiled.packets.len(),
            };
        }
    };
    let split_alerted = single_alerts.iter().any(|a| a.flow == attack_flow);
    let excused = accounting_excuse(&single_stats);

    for a in &single_alerts {
        if a.flow != attack_flow {
            violations.push(Violation::FalseAlert {
                engine: "split-detect".into(),
                flow: a.flow,
            });
        }
    }

    if delivered && !split_alerted && !excused {
        violations.push(Violation::MissedDelivery {
            policy: compiled.victim.policy,
        });
    }

    // Shard equivalence against the single engine's verdicts.
    let single_keys = sorted_keys(&single_alerts);
    for shards in SHARD_COUNTS {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut engine = ShardedSplitDetect::new(sigs.clone(), config, shards)
                .expect("oracle config is admissible");
            let alerts = run_trace(&mut engine, compiled.packets.iter().map(|p| p.as_slice()));
            let failures: Vec<String> = engine.failures().iter().map(|f| f.to_string()).collect();
            let stats = engine.stats();
            (alerts, failures, stats)
        }));
        let (alerts, failures, shard_stats) = match run {
            Ok(t) => t,
            Err(payload) => {
                violations.push(Violation::EnginePanic {
                    engine: format!("sharded({shards})"),
                    detail: panic_detail(payload),
                });
                continue;
            }
        };
        for failure in failures {
            violations.push(Violation::EnginePanic {
                engine: format!("sharded({shards})"),
                detail: failure,
            });
        }
        if sorted_keys(&alerts) != single_keys {
            // Shards split the delay-line budget, so a trace that already
            // eroded the accounting may legitimately differ; everything
            // else must be byte-identical.
            let shard_excuse = shard_stats.iter().any(accounting_excuse);
            if !(excused || shard_excuse) {
                violations.push(Violation::ShardDivergence {
                    shards,
                    single_alerts: single_alerts.len(),
                    sharded_alerts: alerts.len(),
                });
            }
        }
    }

    // Conventional IPS, policy-matched: campaign statistics only.
    let conventional_alerted = catch_unwind(AssertUnwindSafe(|| {
        let mut engine = ConventionalIps::with_config(
            sigs.clone(),
            ConventionalConfig {
                policy: compiled.victim.policy,
                ..Default::default()
            },
        );
        run_trace(&mut engine, compiled.packets.iter().map(|p| p.as_slice()))
            .iter()
            .any(|a| a.flow == attack_flow)
    }))
    .unwrap_or_else(|payload| {
        violations.push(Violation::EnginePanic {
            engine: "conventional".into(),
            detail: panic_detail(payload),
        });
        false
    });

    TraceOutcome {
        delivered,
        split_alerted,
        conventional_alerted,
        excused,
        violations,
        packets: compiled.packets.len(),
    }
}

/// Compile and judge one program.
pub fn run_program(program: &TraceProgram, tweaks: EngineTweaks) -> TraceOutcome {
    run_compiled(&program.compile(), tweaks)
}

/// [`run_program`] with an explicit signature set.
pub fn run_program_with(
    program: &TraceProgram,
    tweaks: EngineTweaks,
    sigs: &SignatureSet,
) -> TraceOutcome {
    run_compiled_with(&program.compile(), tweaks, sigs)
}

/// Campaign configuration for [`run_campaign`].
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Programs to draw and judge.
    pub iters: u64,
    /// Base seed; iteration `i` uses a seed derived from `(seed, i)`.
    pub seed: u64,
    /// Shrink failing programs before reporting them.
    pub minimize: bool,
    /// Engine sabotage (testing the oracle itself).
    pub tweaks: EngineTweaks,
    /// Stop after this many failures (0 = never stop early).
    pub max_failures: usize,
    /// Load engines with a generated rule corpus (seeded here) alongside
    /// the oracle signature; `None` runs the lone-signature classic.
    pub rules_seed: Option<u64>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            iters: 256,
            seed: 1,
            minimize: false,
            tweaks: EngineTweaks::NONE,
            max_failures: 1,
            rules_seed: None,
        }
    }
}

/// Aggregate counters over a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Programs judged.
    pub iters: u64,
    /// Traces whose signature reached the victim.
    pub delivered: u64,
    /// Delivered traces Split-Detect alerted on.
    pub split_caught: u64,
    /// Delivered traces the conventional IPS alerted on.
    pub conventional_caught: u64,
    /// Traces excused by slow-path divert accounting.
    pub excused: u64,
    /// Total packets compiled.
    pub packets: u64,
    /// Traces with at least one violation.
    pub failing_traces: u64,
}

/// One failing trace, as reported by a campaign.
#[derive(Debug, Clone)]
pub struct FailureCase {
    /// The program as originally drawn.
    pub program: TraceProgram,
    /// The shrunk reproducer (when minimization ran).
    pub shrunk: Option<TraceProgram>,
    /// Rendered violations from the (shrunk, if available) program.
    pub violations: Vec<Violation>,
}

impl FailureCase {
    /// The smallest known reproducer.
    pub fn reproducer(&self) -> &TraceProgram {
        self.shrunk.as_ref().unwrap_or(&self.program)
    }
}

/// The result of a fuzzing campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Aggregate counters.
    pub stats: CampaignStats,
    /// Failing traces found (bounded by `max_failures`).
    pub failures: Vec<FailureCase>,
}

impl CampaignResult {
    /// True when no invariant broke anywhere in the campaign.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

fn iter_seed(base: u64, i: u64) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i)
        .wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Run a fuzzing campaign: draw `iters` random programs, judge each, and
/// (optionally) shrink failures. `progress` is called after every
/// iteration with `(done, stats)` — front ends use it for status lines.
pub fn run_campaign(
    config: CampaignConfig,
    mut progress: impl FnMut(u64, &CampaignStats),
) -> CampaignResult {
    let mut stats = CampaignStats::default();
    let mut failures = Vec::new();
    let sigs = campaign_signatures(config.rules_seed);
    for i in 0..config.iters {
        let program = TraceProgram::random(iter_seed(config.seed, i));
        let outcome = run_program_with(&program, config.tweaks, &sigs);
        stats.iters += 1;
        stats.packets += outcome.packets as u64;
        if outcome.delivered {
            stats.delivered += 1;
            if outcome.split_alerted {
                stats.split_caught += 1;
            }
            if outcome.conventional_alerted {
                stats.conventional_caught += 1;
            }
        }
        if outcome.excused {
            stats.excused += 1;
        }
        if !outcome.ok() {
            stats.failing_traces += 1;
            let shrunk = if config.minimize {
                Some(crate::shrink::shrink(&program, |candidate| {
                    !run_program_with(candidate, config.tweaks, &sigs).ok()
                }))
            } else {
                None
            };
            let violations =
                run_program_with(shrunk.as_ref().unwrap_or(&program), config.tweaks, &sigs)
                    .violations;
            failures.push(FailureCase {
                program,
                shrunk,
                violations,
            });
            if config.max_failures > 0 && failures.len() >= config.max_failures {
                progress(i + 1, &stats);
                break;
            }
        }
        progress(i + 1, &stats);
    }
    CampaignResult { stats, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Mutation;

    #[test]
    fn pinned_stitch_program_is_caught_by_the_real_engine() {
        for policy in OverlapPolicy::ALL {
            let p = TraceProgram {
                seed: 11,
                policy,
                prefix_len: 90,
                suffix_len: 60,
                mutations: vec![Mutation::OverlapStitch { index: 0, chunk: 4 }],
            };
            let o = run_program(&p, EngineTweaks::NONE);
            assert!(o.delivered, "stitch must deliver under {policy}");
            assert!(
                o.split_alerted,
                "split-detect must catch stitch under {policy}"
            );
            assert!(o.ok(), "violations under {policy}: {:?}", o.violations);
        }
    }

    #[test]
    fn sabotaged_engine_misses_the_stitch() {
        let p = TraceProgram {
            seed: 12,
            policy: OverlapPolicy::First,
            prefix_len: 90,
            suffix_len: 60,
            mutations: vec![Mutation::OverlapStitch { index: 0, chunk: 4 }],
        };
        let tweaks = EngineTweaks {
            disable_out_of_order: true,
            ..EngineTweaks::NONE
        };
        let o = run_program(&p, tweaks);
        assert!(o.delivered);
        assert!(
            o.violations
                .iter()
                .any(|v| matches!(v, Violation::MissedDelivery { .. })),
            "disabling the out-of-order rule must be caught, got {:?}",
            o.violations
        );
    }

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let config = CampaignConfig {
            iters: 24,
            seed: 5,
            ..Default::default()
        };
        let a = run_campaign(config, |_, _| {});
        let b = run_campaign(config, |_, _| {});
        assert!(a.clean(), "violations: {:?}", a.failures);
        assert_eq!(a.stats, b.stats, "campaigns must be deterministic");
        assert!(a.stats.delivered > 0, "some traces must deliver");
        assert_eq!(
            a.stats.split_caught, a.stats.delivered,
            "split-detect must catch every delivered trace"
        );
    }

    #[test]
    fn collision_flood_cannot_unstick_a_diverted_flow() {
        use crate::program::{collision_flood_packets, ORACLE_FLOW_HASH_SEED};

        // A stitch attack diverts the flow almost immediately (its train
        // regresses behind the delivered edge). Splice a 32-flow collision
        // flood into the middle of the stream against a small table at
        // occupancy: the flood fills the attack flow's probe window and
        // forces CLOCK evictions, but diversion is sticky — the evicted
        // *table* entry must not turn into a false negative.
        let p = TraceProgram {
            seed: 31,
            policy: OverlapPolicy::First,
            prefix_len: 90,
            suffix_len: 60,
            mutations: vec![Mutation::OverlapStitch { index: 0, chunk: 4 }],
        };
        let compiled = p.compile();
        let mut packets = compiled.packets.clone();
        let at = packets.len() / 3;
        packets.splice(at..at, collision_flood_packets(32, 7));

        let config = SplitDetectConfig {
            slow_path_policy: OverlapPolicy::First,
            flow_table_capacity: 1 << 10,
            flow_hash_seed: Some(ORACLE_FLOW_HASH_SEED),
            ..Default::default()
        };
        let mut engine = SplitDetect::with_config(oracle_signatures(), config)
            .expect("flood config is admissible");
        let alerts = run_trace(&mut engine, packets.iter().map(|p| p.as_slice()));
        let (attack_flow, _) = FlowKey::from_endpoints(6, compiled.client, compiled.server);
        assert!(
            alerts.iter().any(|a| a.flow == attack_flow),
            "diverted attack flow must still alert through a collision flood"
        );
        assert!(
            alerts.iter().all(|a| a.flow == attack_flow),
            "signature-free flood flows must not alert"
        );
    }

    #[test]
    fn violations_render() {
        let v = Violation::MissedDelivery {
            policy: OverlapPolicy::Last,
        };
        assert!(v.to_string().contains("last"));
        let v = Violation::ShardDivergence {
            shards: 4,
            single_alerts: 1,
            sharded_alerts: 0,
        };
        assert!(v.to_string().contains("4-shard"));
    }
}
