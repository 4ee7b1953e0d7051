//! The end-to-end run: wire bytes in, verdicts out, through the real
//! daemon loop (`sd_cli::serve::serve`), tracing off.
//!
//! Closed loop, one client: the serve thread pulls the next packet when
//! the previous verdict is done. A run is one untimed warm-up — the bare
//! `SplitDetect` loop, whose alerts are also the reference the daemon's
//! are compared with — then N timed passes over the same in-memory trace,
//! each with a freshly built engine. Every metric is the median over the
//! passes.

use std::collections::{BTreeSet, HashSet};
use std::time::Instant;

use sd_cli::serve::{serve, ServeControl, ServeEngine, ServeOptions};
use sd_flow::FlowKey;
use sd_ips::alert::AlertSource;
use sd_ips::api::run_trace;
use sd_ips::rules::parse_rules_lenient;
use sd_ips::{Alert, SignatureSet};
use splitdetect::{SplitDetect, SplitDetectConfig, SplitDetectStats};

use crate::report::{Metric, RunOutput};
use crate::source::TraceSource;
use crate::stats::{percentile, Summary};
use crate::workload::Workload;

/// Fewest timed passes in a run (one in `--smoke`).
pub const MIN_PASSES: usize = 3;
/// Most timed passes, however short the trace.
const MAX_PASSES: usize = 12;

/// A flow's final verdict: which signature alerted on which connection.
pub type Verdicts = BTreeSet<(FlowKey, usize)>;

/// Rule text → signatures, as the daemon loads them (lenient loader;
/// the generated corpora contain no malformed rule, so a diagnostic here
/// is a loader regression and fails the run).
pub fn load_signatures(rules_text: &str) -> Result<SignatureSet, String> {
    let (rules, errors) = parse_rules_lenient(rules_text);
    if let Some(e) = errors.first() {
        return Err(format!(
            "rule loader rejected {} generated rule(s), first: {e}",
            errors.len()
        ));
    }
    Ok(rules.to_signatures())
}

/// Set-up as a user pays it: rule text → `SignatureSet` → piece plan →
/// engine ready for its first packet. Returns the engine and the seconds
/// it took.
pub fn build_engine(
    rules_text: &str,
    config: SplitDetectConfig,
) -> Result<(SplitDetect, f64), String> {
    let start = Instant::now();
    let sigs = load_signatures(rules_text)?;
    let engine = SplitDetect::with_config(sigs, config).map_err(|e| e.to_string())?;
    Ok((engine, start.elapsed().as_secs_f64()))
}

/// The set of per-flow verdicts in an alert stream. Overload alerts are
/// admissions of shed load, not detections; they are counted as refused
/// packets instead.
pub fn verdicts(alerts: &[Alert]) -> Verdicts {
    alerts
        .iter()
        .filter(|a| a.source != AlertSource::Overload)
        .map(|a| (a.flow, a.signature))
        .collect()
}

/// Packets of one pass the engine refused: never accepted by the loop,
/// counted `malformed` although the generator emitted them well-formed, or
/// shed at a full slow-path lane. An operation is a packet offered; a
/// refused packet is a failed one.
pub fn refused_packets(
    w: &Workload,
    label: &str,
    accepted: u64,
    stats: &SplitDetectStats,
    messages: &mut Vec<String>,
) -> u64 {
    let offered = w.packets.len() as u64;
    let refused = offered.saturating_sub(accepted)
        + stats.fast.malformed.saturating_sub(w.unparsable)
        + stats.divert.shed_packets;
    if refused > 0 {
        messages.push(format!(
            "{label}: {refused} packet(s) refused (accepted {accepted}/{offered}, malformed {}, shed {})",
            stats.fast.malformed, stats.divert.shed_packets
        ));
    }
    refused
}

/// Packets of one pass whose flow got a wrong final verdict: an attack the
/// victim model receives but no alert, an alert on a flow that carries no
/// attack, or a verdict that differs from `reference` (the bare-loop run
/// of the same trace). Each wrong flow is described, with its key, in
/// `messages`.
pub fn wrong_verdict_packets(
    w: &Workload,
    label: &str,
    got: &Verdicts,
    reference: Option<&Verdicts>,
    messages: &mut Vec<String>,
) -> u64 {
    let expected: Verdicts = w.expected.iter().map(|x| (x.flow, x.signature)).collect();
    let mut bad_flows: HashSet<FlowKey> = HashSet::new();
    for x in &w.expected {
        if !got.contains(&(x.flow, x.signature)) {
            messages.push(format!(
                "{label}: missed attack ({}) sig {} on flow {}",
                x.strategy, x.signature, x.flow
            ));
            bad_flows.insert(x.flow);
        }
    }
    for (flow, sig) in got.difference(&expected) {
        messages.push(format!("{label}: false alert sig {sig} on flow {flow}"));
        bad_flows.insert(*flow);
    }
    if let Some(reference) = reference {
        for (flow, sig) in got.symmetric_difference(reference) {
            messages.push(format!(
                "{label}: verdict differs from the bare SplitDetect loop: sig {sig} on flow {flow}"
            ));
            bad_flows.insert(*flow);
        }
    }
    if bad_flows.is_empty() {
        0
    } else {
        w.packets_of(&bad_flows)
    }
}

/// Failed operations of one pass: refused packets plus packets of flows
/// with a wrong verdict.
pub fn failed_packets(
    w: &Workload,
    label: &str,
    accepted: u64,
    stats: &SplitDetectStats,
    got: &Verdicts,
    reference: Option<&Verdicts>,
    messages: &mut Vec<String>,
) -> u64 {
    refused_packets(w, label, accepted, stats, messages)
        + wrong_verdict_packets(w, label, got, reference, messages)
}

/// Percentile `p` of sampled per-packet service times, ns.
pub fn gap_percentile(gaps_ns: &[u32], p: f64) -> f64 {
    let mut gaps = gaps_ns.to_vec();
    gaps.sort_unstable();
    f64::from(percentile(&gaps, p))
}

/// `state_bytes`: the paper's storage axis for the whole engine.
pub fn state_bytes(stats: &SplitDetectStats) -> u64 {
    stats.fast_state_bytes + stats.divert_state_bytes + stats.slow_state_peak_bytes
}

/// What one pass through the daemon loop measured.
pub struct Pass {
    /// Wall time of the whole `serve()` call, drain and finish included.
    pub secs: f64,
    /// Sampled per-packet service times, ns.
    pub gaps_ns: Vec<u32>,
    /// The engine's final statistics.
    pub stats: SplitDetectStats,
}

/// One pass through the real daemon loop with a fresh engine. Returns the
/// pass and the number of failed packets.
pub fn serve_pass(
    w: &Workload,
    engine: SplitDetect,
    label: &str,
    reference: &Verdicts,
    messages: &mut Vec<String>,
) -> Result<(Pass, u64), String> {
    let mut source = TraceSource::timing_gaps(&w.packets);
    let control = ServeControl::new();
    let mut report = std::io::sink();
    let start = Instant::now();
    let summary = serve(
        ServeEngine::Single(Box::new(engine)),
        &mut source,
        &control,
        ServeOptions::default(),
        &mut report,
    )?;
    let secs = start.elapsed().as_secs_f64();
    let stats = summary
        .stats
        .ok_or_else(|| format!("{label}: serve() returned no engine stats"))?;
    let failed = failed_packets(
        w,
        label,
        summary.packets,
        &stats,
        &verdicts(&summary.alerts),
        Some(reference),
        messages,
    );
    let pass = Pass {
        secs,
        gaps_ns: source.into_gaps_ns(),
        stats,
    };
    Ok((pass, failed))
}

/// Run the end-to-end measurement of `w` for about `seconds` of timed
/// work (set-up plus serving), at least `min_passes` passes.
pub fn run(w: &Workload, seed: u64, seconds: f64, min_passes: usize) -> Result<RunOutput, String> {
    let mut messages = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let offered = w.packets.len() as u64;
    let mut setups = Vec::new();

    // Warm-up and reference in one: the bare engine loop, untimed. It
    // faults in the trace's memory and its verdicts are checked against
    // ground truth, so the serve passes need only agree with it.
    let (mut bare, setup_s) = build_engine(&w.rules_text, w.config)?;
    setups.push(setup_s);
    let bare_alerts = run_trace(&mut bare, w.packets.iter().map(|p| p.data.as_slice()));
    let reference = verdicts(&bare_alerts);
    attempted += offered;
    failed += failed_packets(
        w,
        "bare loop",
        offered,
        &bare.stats(),
        &reference,
        None,
        &mut messages,
    );
    drop(bare);

    let mut passes: Vec<Pass> = Vec::new();
    let mut spent = 0.0;
    while passes.len() < min_passes.max(1) || (spent < seconds && passes.len() < MAX_PASSES) {
        let (engine, setup_s) = build_engine(&w.rules_text, w.config)?;
        let label = format!("serve pass {}", passes.len() + 1);
        let (pass, pass_failed) = serve_pass(w, engine, &label, &reference, &mut messages)?;
        attempted += offered;
        failed += pass_failed;
        spent += setup_s + pass.secs;
        setups.push(setup_s);
        passes.push(pass);
    }

    // Count metrics must repeat exactly from pass to pass: same packets,
    // same pinned hash seed.
    let state = state_bytes(&passes[0].stats);
    if let Some(p) = passes.iter().find(|p| state_bytes(&p.stats) != state) {
        messages.push(format!(
            "state_bytes not deterministic across passes: {state} vs {}",
            state_bytes(&p.stats)
        ));
        failed = failed.max(1);
    }

    let bytes = w.fingerprint.bytes as f64;
    let pps: Vec<f64> = passes.iter().map(|p| offered as f64 / p.secs).collect();
    let gbps: Vec<f64> = passes.iter().map(|p| bytes * 8.0 / p.secs / 1e9).collect();
    let p99: Vec<f64> = passes
        .iter()
        .map(|p| gap_percentile(&p.gaps_ns, 99.0))
        .collect();
    let samples = passes[0].gaps_ns.len();

    let metrics = vec![
        Metric::summarized("pps", Summary::of(&pps)),
        Metric::summarized("gbps", Summary::of(&gbps)),
        Metric::summarized("pkt_p99_ns", Summary::of(&p99)),
        Metric::exact("state_bytes", state as f64),
        Metric::summarized("setup_s", Summary::of(&setups)),
    ];
    Ok(RunOutput {
        workload: w.name,
        seed,
        traced: false,
        fingerprint: w.fingerprint,
        gen_s: w.gen_s,
        attempted,
        failed,
        messages,
        metrics,
        notes: vec![
            format!(
                "{} timed passes, {} set-ups, {samples} latency samples per pass (1-in-8 packets), {} expected alerts, {} reference verdicts",
                passes.len(),
                setups.len(),
                w.expected.len(),
                reference.len()
            ),
            format!(
                "pass seconds, in order: {}",
                passes
                    .iter()
                    .map(|p| format!("{:.3}", p.secs))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            format!(
                "set-up seconds, in order: {}",
                setups
                    .iter()
                    .map(|s| format!("{s:.3}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
        ],
    })
}
