//! The full Split-Detect engine.
//!
//! Wires the fast path, the diversion manager, and a conventional IPS as
//! the slow path into one [`Ips`]-trait engine, so experiments can swap it
//! head-to-head with the baselines. The control flow per packet is exactly
//! the paper's data path:
//!
//! ```text
//!            ┌────────────┐ benign   ┌────────────┐
//!  packet ──▶│ fast path  │─────────▶│ delay line │──▶ forwarded
//!            │ piece scan │          └────────────┘
//!            │ + 3 rules  │ divert / already-diverted
//!            └────────────┘───────────────┐
//!                                         ▼
//!                      replay history ┌───────────┐
//!                      then packets──▶│ slow path │──▶ alerts
//!                                     │ (conv IPS)│
//!                                     └───────────┘
//! ```

use sd_flow::FlowKey;
use sd_ips::alert::AlertSource;
use sd_ips::conventional::{ConventionalConfig, ConventionalIps};
use sd_ips::{Alert, Ips, ResourceUsage, SignatureSet};
use sd_packet::parse::{parse_ipv4, Transport};
use sd_telemetry::{PipelineTelemetry, Registry, Stage};

use crate::config::{ConfigError, SplitDetectConfig};
use crate::divert::DiversionManager;
use crate::fastpath::{FastPath, FastPathParams, Verdict};
use crate::lane::WorkerFailure;
use crate::report::metrics_registry;
use crate::slowpath::SlowPathPool;
use crate::split::{CompiledRules, SplitPlan};
use crate::stats::SplitDetectStats;

/// How diverted packets reach the conventional slow path: inline on the
/// hot thread (synchronous alerts — the default), or enqueued to the
/// asynchronous bounded worker pool (`slow_path_workers ≥ 1`), whose
/// alerts surface at [`SplitDetect::poll`] / `finish()`.
// One instance per engine, never collected — boxing the big variant
// would buy nothing but an extra indirection on the hot path.
#[allow(clippy::large_enum_variant)]
enum SlowPathDispatch {
    Inline(ConventionalIps),
    Pool(SlowPathPool),
}

/// The Split-Detect engine.
///
/// ```
/// use sd_ips::{Ips, Signature, SignatureSet};
/// use sd_packet::builder::{ip_of_frame, TcpPacketSpec};
/// use splitdetect::SplitDetect;
///
/// let sigs = SignatureSet::from_signatures([
///     Signature::new("demo", &b"EVIL_SIGNATURE_BYTES"[..]),
/// ]);
/// let mut engine = SplitDetect::new(sigs).expect("admissible defaults");
///
/// let frame = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
///     .seq(1000)
///     .payload(b"...EVIL_SIGNATURE_BYTES...")
///     .build();
/// let mut alerts = Vec::new();
/// engine.process_packet(ip_of_frame(&frame), 0, &mut alerts);
/// assert_eq!(alerts.len(), 1);
/// assert!(engine.stats().divert.flows_diverted >= 1);
/// ```
pub struct SplitDetect {
    fast: FastPath,
    divert: DiversionManager,
    slow: SlowPathDispatch,
    config: SplitDetectConfig,
    usage: ResourceUsage,
    packets_to_slow: u64,
    bytes_to_slow: u64,
    telemetry: PipelineTelemetry,
}

impl SplitDetect {
    /// Build from a signature set with the default configuration.
    pub fn new(sigs: SignatureSet) -> Result<Self, ConfigError> {
        Self::with_config(sigs, SplitDetectConfig::default())
    }

    /// Build from a signature set and an explicit configuration.
    ///
    /// Fails loudly if the configuration violates assumption A3 — an
    /// inadmissible Split-Detect silently loses its detection guarantee, so
    /// there is deliberately no unchecked constructor. (E3 and E10 bypass
    /// this through [`SplitDetect::with_config_unchecked`] to measure what
    /// each constraint buys.)
    pub fn with_config(sigs: SignatureSet, config: SplitDetectConfig) -> Result<Self, ConfigError> {
        let rules = CompiledRules::compile(&sigs, &config)?;
        Ok(Self::build(rules, config))
    }

    /// Build *without* admissibility checks: for ablation experiments only.
    /// The cutoff falls back to the longest piece when unset.
    pub fn with_config_unchecked(sigs: SignatureSet, config: SplitDetectConfig) -> Self {
        Self::build(CompiledRules::compile_unchecked(&sigs, &config), config)
    }

    /// Build from rules compiled under `config`, sharing their automata
    /// (the shard engine builds every shard from one compile).
    pub(crate) fn build(rules: CompiledRules, config: SplitDetectConfig) -> Self {
        let fast = FastPath::new(
            rules.plan,
            FastPathParams {
                cutoff: rules.cutoff,
                budget: config.small_segment_budget,
                divert_on_out_of_order: config.divert_on_out_of_order,
                divert_on_fragments: config.divert_on_fragments,
                divert_on_urgent: config.divert_on_urgent,
                table_capacity: config.flow_table_capacity,
                hash_seed: config.flow_hash_seed.unwrap_or_else(sd_flow::random_seed),
                small_counter: config.small_counter,
            },
        );
        let conv = ConventionalConfig {
            policy: config.slow_path_policy,
            max_connections: config.slow_path_max_connections,
            urgent: config.slow_path_urgent,
        };
        let slow = if config.slow_path_workers == 0 {
            SlowPathDispatch::Inline(ConventionalIps::with_scanner(rules.scanner, conv))
        } else {
            SlowPathDispatch::Pool(SlowPathPool::new(
                rules.scanner,
                conv,
                config.slow_path_workers,
                config.slow_path_lane_depth,
            ))
        };
        SplitDetect {
            fast,
            divert: DiversionManager::with_policy(
                config.delay_line_packets,
                config.max_diverted_flows,
                config.divert_eviction,
            ),
            slow,
            config,
            usage: ResourceUsage::default(),
            packets_to_slow: 0,
            bytes_to_slow: 0,
            telemetry: PipelineTelemetry::new(config.stage_timing_sample_shift),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> SplitDetectConfig {
        self.config
    }

    /// The compiled piece plan.
    pub fn plan(&self) -> &SplitPlan {
        self.fast.plan()
    }

    /// Install a new rule set (live rule reload), compiled under this
    /// engine's configuration: `CompiledRules::compile(&sigs,
    /// &engine.config())`, on any thread.
    ///
    /// Swaps the fast path's piece plan and cutoff (flow table,
    /// small-segment counters, and diversion stickiness all survive — a
    /// flow diverted under the old rules stays diverted) and hands the
    /// scanner to the slow path, whose connection and reassembly state
    /// also carries across. Nothing is compiled or copied here: the
    /// caller's thread pays for the swap, and for freeing the retired
    /// automata when it held their last reference.
    pub fn install(&mut self, rules: CompiledRules) {
        debug_assert_eq!(
            rules.plan.pieces_per_signature(),
            self.config.pieces_per_signature,
            "rules compiled under another configuration"
        );
        self.fast.swap_plan(rules.plan, rules.cutoff);
        match &mut self.slow {
            SlowPathDispatch::Inline(slow) => slow.install(rules.scanner),
            SlowPathDispatch::Pool(pool) => pool.install(rules.scanner),
        }
    }

    /// Resource usage of the slow-path engine(s). In asynchronous pool
    /// mode the worker engines own their state until `finish()` joins
    /// them, so live readings are zero mid-run and settle at finish.
    fn slow_resources(&self) -> ResourceUsage {
        match &self.slow {
            SlowPathDispatch::Inline(slow) => slow.resources(),
            SlowPathDispatch::Pool(pool) => pool.usage(),
        }
    }

    /// Snapshot of everything the experiments measure.
    pub fn stats(&self) -> SplitDetectStats {
        let slow_res = self.slow_resources();
        let table = self.fast.table_stats();
        let mut divert = self.divert.stats();
        let mut slow_queue_depth = 0;
        if let SlowPathDispatch::Pool(pool) = &self.slow {
            // Shedding happens at the pool's lanes, but it is part of the
            // diversion story — surface it where the report reads it.
            let p = pool.stats();
            divert.shed_packets = p.shed_packets;
            divert.shed_bytes = p.shed_bytes;
            slow_queue_depth = pool.queue_depth();
        }
        SplitDetectStats {
            fast: self.fast.stats(),
            divert,
            flows_seen: table.insertions,
            flow_table_evictions: table.evictions,
            flow_table_entries: self.fast.table_len() as u64,
            packets_to_slow: self.packets_to_slow,
            bytes_to_slow: self.bytes_to_slow,
            payload_bytes: self.usage.payload_bytes,
            fast_state_bytes: self.fast.table_memory_bytes() as u64,
            divert_state_bytes: self.divert.memory_bytes() as u64,
            slow_state_bytes: slow_res.state_bytes,
            slow_state_peak_bytes: slow_res.state_bytes_peak,
            automaton_bytes: self.fast.automaton_bytes() as u64,
            slow_queue_depth,
        }
    }

    /// The engine's sampled histograms (stage latency, packet size,
    /// slow-path delivery latency), for merging shard instances.
    pub fn telemetry(&self) -> &PipelineTelemetry {
        &self.telemetry
    }

    /// Everything the engine counts, named for export: [`Self::stats`]
    /// and the telemetry histograms rendered into one registry.
    pub fn metrics(&self) -> Registry {
        metrics_registry(&self.stats(), &self.telemetry, Some(self.plan()), &[])
    }

    /// Decay the fast path's small-segment Bloom counters (no-op for the
    /// exact backend). Safe at any time: diversion stickiness lives in the
    /// `DiversionManager`, never in these counters.
    pub fn decay_small_counters(&mut self) {
        self.fast.decay_small_counters();
    }

    /// Workers of the asynchronous slow-path pool that failed to spawn or
    /// panicked (empty in inline mode; panics appear at `finish()`). A
    /// failed worker degrades — its flows' packets are shed and counted —
    /// it never aborts the run.
    pub fn slow_failures(&self) -> &[WorkerFailure] {
        match &self.slow {
            SlowPathDispatch::Inline(_) => &[],
            SlowPathDispatch::Pool(pool) => pool.failures(),
        }
    }

    /// Drain slow-path alerts delivered so far into `out` (asynchronous
    /// pool mode; a no-op inline, where alerts are synchronous). Mid-run
    /// drains are best-effort — whatever has arrived is merged in
    /// deterministic `(tick, worker, seq)` order; `finish()` performs the
    /// complete merge.
    pub fn poll(&mut self, out: &mut Vec<Alert>) {
        if let SlowPathDispatch::Pool(pool) = &mut self.slow {
            let before = out.len();
            for ns in pool.poll(out) {
                self.telemetry.observe_slowpath_latency(ns);
            }
            self.usage.alerts += (out.len() - before) as u64;
        }
    }

    /// Hand one packet of a diverted flow to the slow path. `payload_len`
    /// feeds best-effort accounting: each packet is counted exactly once —
    /// replayed history packets arrive here individually, the live
    /// packet afterwards with its classification's length.
    fn hand_to_slow(
        &mut self,
        key: FlowKey,
        packet: &[u8],
        payload_len: usize,
        tick: u64,
        out: &mut Vec<Alert>,
    ) {
        match &mut self.slow {
            SlowPathDispatch::Inline(slow) => {
                self.packets_to_slow += 1;
                self.bytes_to_slow += payload_len as u64;
                let before = out.len();
                slow.process_packet(packet, tick, out);
                // Slow-path alerts are re-labelled so reports can attribute
                // them.
                for alert in &mut out[before..] {
                    alert.source = AlertSource::SlowPath;
                }
                self.usage.alerts += (out.len() - before) as u64;
            }
            SlowPathDispatch::Pool(pool) => {
                let outcome = pool.enqueue(key, packet, payload_len, tick);
                if outcome.accepted {
                    // `packets/bytes_to_slow` count what the slow path
                    // actually receives; the pool counts shed traffic.
                    self.packets_to_slow += 1;
                    self.bytes_to_slow += payload_len as u64;
                }
                if let Some(alert) = outcome.overload_alert {
                    out.push(alert);
                    self.usage.alerts += 1;
                }
            }
        }
    }
}

/// Payload length of a replayed delay-line packet, as
/// `classify_instrumented` measures it for a live one (0 when unparsable
/// — counting is best-effort for accounting, never for correctness).
fn payload_len(packet: &[u8]) -> usize {
    match parse_ipv4(packet) {
        Ok(p) => match p.transport {
            Transport::Tcp(t) => t.payload.len(),
            Transport::Udp(u) => u.payload.len(),
            Transport::Fragment(raw) | Transport::Other(raw) => raw.len(),
            Transport::NonIp => 0,
        },
        Err(_) => 0,
    }
}

impl Ips for SplitDetect {
    fn name(&self) -> &'static str {
        "split-detect"
    }

    fn process_packet(&mut self, packet: &[u8], tick: u64, out: &mut Vec<Alert>) {
        let mut clock = self.telemetry.begin_packet(packet.len() as u64);
        let divert_ref = &self.divert;
        let tel = &mut self.telemetry;
        let c = self.fast.classify_instrumented(
            packet,
            |k| divert_ref.is_diverted(k),
            || tel.stage_lap(&mut clock, Stage::Parse),
        );
        self.telemetry.stage_lap(&mut clock, Stage::FastPath);
        self.usage.payload_bytes += c.payload_len as u64;
        let (key, verdict) = (c.key, c.verdict);

        match verdict {
            Verdict::Benign | Verdict::NonFlow => {
                if let Some(key) = key {
                    if c.keep {
                        self.divert.record(key, packet);
                        self.telemetry.stage_lap(&mut clock, Stage::Divert);
                    }
                }
            }
            Verdict::AlreadyDiverted => {
                let key = key.expect("already-diverted verdicts carry a key");
                self.hand_to_slow(key, packet, c.payload_len, tick, out);
                self.telemetry.stage_lap(&mut clock, Stage::SlowPath);
            }
            Verdict::Divert(_reason) => {
                let key = key.expect("divert verdicts carry a key");
                let history = self.divert.divert(key);
                self.telemetry.stage_lap(&mut clock, Stage::Divert);
                for old in history {
                    self.hand_to_slow(key, &old, payload_len(&old), tick, out);
                }
                self.hand_to_slow(key, packet, c.payload_len, tick, out);
                self.telemetry.stage_lap(&mut clock, Stage::SlowPath);
            }
            Verdict::Drop => {}
        }

        let state = self.fast.table_memory_bytes() as u64
            + self.divert.memory_bytes() as u64
            + self.slow_resources().state_bytes;
        self.usage.observe_state(state);
    }

    fn finish(&mut self, out: &mut Vec<Alert>) {
        match &mut self.slow {
            SlowPathDispatch::Inline(slow) => slow.finish(out),
            SlowPathDispatch::Pool(pool) => {
                let before = out.len();
                for ns in pool.finish(out) {
                    self.telemetry.observe_slowpath_latency(ns);
                }
                self.usage.alerts += (out.len() - before) as u64;
                // Joined worker state is now visible; fold the peak in so
                // post-finish resource readings are comparable to inline.
                let state = self.fast.table_memory_bytes() as u64
                    + self.divert.memory_bytes() as u64
                    + pool.usage().state_bytes;
                self.usage.observe_state(state);
            }
        }
    }

    fn resources(&self) -> ResourceUsage {
        let slow = self.slow_resources();
        ResourceUsage {
            packets: self.fast.stats().packets,
            payload_bytes: self.usage.payload_bytes,
            bytes_scanned: self.fast.stats().bytes_scanned + slow.bytes_scanned,
            bytes_buffered_total: slow.bytes_buffered_total,
            state_bytes: self.usage.state_bytes,
            state_bytes_peak: self.usage.state_bytes_peak,
            alerts: self.usage.alerts,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use sd_ips::api::run_trace;
    use sd_ips::Signature;
    use sd_packet::builder::{ip_of_frame, TcpPacketSpec};
    use sd_packet::tcp::TcpFlags;

    const SIG: &[u8] = b"EVIL_SIGNATURE_BYTES_24!"; // 24 bytes → pieces of 8

    fn engine() -> SplitDetect {
        let sigs = SignatureSet::from_signatures([Signature::new("evil", SIG)]);
        SplitDetect::new(sigs).unwrap()
    }

    fn pkt(seq: u32, payload: &[u8]) -> Vec<u8> {
        let f = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
            .seq(seq)
            .flags(TcpFlags::ACK.union(TcpFlags::PSH))
            .payload(payload)
            .build();
        ip_of_frame(&f).to_vec()
    }

    #[test]
    fn whole_signature_detected_via_slow_path() {
        let mut e = engine();
        let mut payload = b"....".to_vec();
        payload.extend_from_slice(SIG);
        payload.extend_from_slice(b"....");
        let alerts = run_trace(&mut e, [pkt(1000, &payload).as_slice()]);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].source, AlertSource::SlowPath);
        assert_eq!(alerts[0].signature, 0);
    }

    #[test]
    fn split_signature_detected_via_history_replay() {
        // The signature is split so packet 1 carries piece 0 whole (divert
        // fires on packet 1) but the match completes only with packet 2.
        let mut e = engine();
        let p1 = pkt(1000, &SIG[..10]); // contains piece 0 (8 bytes) whole
        let p2 = pkt(1010, &SIG[10..]);
        let alerts = run_trace(&mut e, [p1.as_slice(), p2.as_slice()]);
        assert_eq!(alerts.len(), 1, "slow path must see both halves");
    }

    #[test]
    fn tiny_segment_evasion_diverted_and_detected() {
        let mut e = engine();
        // 4-byte segments: below the cutoff 2·8 − 1 = 15 for 8-byte
        // pieces, budget T=1 → diverted on the second small segment, well
        // before the signature completes.
        let mut pkts = Vec::new();
        let payload: Vec<u8> = {
            let mut p = b"prefix--".to_vec();
            p.extend_from_slice(SIG);
            p.extend_from_slice(b"--suffix");
            p
        };
        let mut off = 0;
        while off < payload.len() {
            let end = (off + 4).min(payload.len());
            pkts.push(pkt(1000 + off as u32, &payload[off..end]));
            off = end;
        }
        let alerts = run_trace(&mut e, pkts.iter().map(|p| p.as_slice()));
        assert_eq!(alerts.len(), 1, "tiny-segment evasion must be detected");
        let stats = e.stats();
        assert!(stats.divert.flows_diverted >= 1);
        assert!(stats.diverts_by(crate::fastpath::DivertReason::SmallSegments) >= 1);
    }

    #[test]
    fn benign_traffic_stays_on_fast_path() {
        let mut e = engine();
        let pkts: Vec<Vec<u8>> = (0..50u32)
            .map(|i| pkt(1000 + i * 1000, &[b'n'; 1000]))
            .collect();
        let alerts = run_trace(&mut e, pkts.iter().map(|p| p.as_slice()));
        assert!(alerts.is_empty());
        let s = e.stats();
        assert_eq!(s.packets_to_slow, 0);
        assert_eq!(s.slow_packet_fraction(), 0.0);
        assert_eq!(s.divert.flows_diverted, 0);
    }

    #[test]
    fn divert_is_sticky_across_table_pressure() {
        let sigs = SignatureSet::from_signatures([Signature::new("evil", SIG)]);
        let config = SplitDetectConfig {
            flow_table_capacity: 16, // tiny: heavy eviction churn
            ..Default::default()
        };
        let mut e = SplitDetect::with_config(sigs, config).unwrap();
        let mut out = Vec::new();
        // Divert flow A with a piece hit.
        e.process_packet(&pkt(1000, &SIG[..10]), 0, &mut out);
        assert!(e.stats().divert.flows_diverted == 1);
        // Hammer with hundreds of other flows to churn the table.
        for i in 0..300u16 {
            let f = TcpPacketSpec::new(&format!("10.9.{}.{}:999", i / 250, i % 250), "10.0.0.2:80")
                .seq(1)
                .flags(TcpFlags::ACK)
                .payload(&[b'x'; 64])
                .build();
            e.process_packet(ip_of_frame(&f), 1 + i as u64, &mut out);
        }
        // Flow A's continuation still goes to the slow path and alerts.
        e.process_packet(&pkt(1010, &SIG[10..]), 999, &mut out);
        assert_eq!(out.len(), 1, "stickiness survived table eviction");
    }

    #[test]
    fn delay_zero_misses_split_signature() {
        // Divert-from-now ablation: without history replay, the slow path
        // never sees the first half of the signature.
        let sigs = SignatureSet::from_signatures([Signature::new("evil", SIG)]);
        let config = SplitDetectConfig {
            delay_line_packets: 0,
            ..Default::default()
        };
        let mut e = SplitDetect::with_config(sigs, config).unwrap();
        let p1 = pkt(1000, &SIG[..10]);
        let p2 = pkt(1010, &SIG[10..]);
        let alerts = run_trace(&mut e, [p1.as_slice(), p2.as_slice()]);
        // The diverting packet itself is still forwarded to the slow path,
        // but the replayed history is empty. The signature spans p1+p2 and
        // p1 *is* the diverting packet, so it is seen; craft a 3-packet
        // variant where the signature starts before the diverting packet.
        let _ = alerts;
        let mut e2 = SplitDetect::with_config(
            SignatureSet::from_signatures([Signature::new("evil", SIG)]),
            config,
        )
        .unwrap();
        // Packet 1: benign but carries the first 7 bytes of the signature
        // (no whole piece, not small — pad to cutoff size 8).
        let mut head = SIG[..7].to_vec();
        head.splice(0..0, b"x".iter().copied()); // 8 bytes: x + sig[0..7]
        let q1 = pkt(1000, &head);
        // Packet 2: carries sig[7..17] — includes piece 1 (bytes 8..16)
        // whole → diverts here.
        let q2 = pkt(1008, &SIG[7..17]);
        let q3 = pkt(1018, &SIG[17..]);
        let alerts2 = run_trace(&mut e2, [q1.as_slice(), q2.as_slice(), q3.as_slice()]);
        assert!(
            alerts2.is_empty(),
            "divert-from-now must miss (that is what the delay line buys)"
        );
    }

    #[test]
    fn with_delay_line_the_same_attack_is_caught() {
        let mut e = engine(); // default config: delay line 1024
        let mut head = SIG[..7].to_vec();
        head.splice(0..0, b"x".iter().copied());
        let q1 = pkt(1000, &head);
        let q2 = pkt(1008, &SIG[7..17]);
        let q3 = pkt(1018, &SIG[17..]);
        let alerts = run_trace(&mut e, [q1.as_slice(), q2.as_slice(), q3.as_slice()]);
        assert_eq!(alerts.len(), 1);
        assert!(e.stats().divert.replayed_packets >= 1);
    }

    #[test]
    fn state_is_fraction_of_conventional() {
        use sd_ips::ConventionalIps;
        // Same benign out-of-order-free workload through both engines; the
        // conventional engine holds buffers, Split-Detect holds ~12 B/flow.
        let sigs = || SignatureSet::from_signatures([Signature::new("evil", SIG)]);
        let mut sd = SplitDetect::with_config(
            sigs(),
            SplitDetectConfig {
                flow_table_capacity: 64,
                ..Default::default()
            },
        )
        .unwrap();
        let mut conv = ConventionalIps::new(sigs());
        let mut out = Vec::new();
        for f in 0..20u16 {
            for j in 0..5u32 {
                let frame = TcpPacketSpec::new(&format!("10.0.1.{}:2000", f), "10.0.0.2:80")
                    .seq(1000 + j * 5000) // gaps → conventional buffers OoO data
                    .flags(TcpFlags::ACK)
                    .payload(&[b'd'; 1400])
                    .build();
                let pkt = ip_of_frame(&frame);
                let tick = (f as u64) * 5 + j as u64;
                conv.process_packet(pkt, tick, &mut out);
            }
        }
        // Conventional is buffering 20 flows × ~4 out-of-order segments.
        assert!(conv.resources().state_bytes > 50_000);
        // Split-Detect's provisioned table is 64 slots × 26 B ≈ 1.7 kB
        // (flows divert on the gap, but fast-path state stays tiny).
        let mut out2 = Vec::new();
        let frame = TcpPacketSpec::new("10.0.1.1:2000", "10.0.0.2:80")
            .seq(1)
            .flags(TcpFlags::ACK)
            .payload(&[b'd'; 1400])
            .build();
        sd.process_packet(ip_of_frame(&frame), 0, &mut out2);
        assert!(sd.stats().fast_state_bytes < 4096);
    }

    fn pool_config(workers: usize) -> SplitDetectConfig {
        SplitDetectConfig {
            slow_path_workers: workers,
            ..Default::default()
        }
    }

    /// Run a trace through an engine, polling between packets like a live
    /// deployment would, and return sorted alert identity keys.
    fn run_async(
        config: SplitDetectConfig,
        pkts: &[Vec<u8>],
    ) -> Vec<(sd_flow::FlowKey, usize, u64, u8)> {
        let sigs = SignatureSet::from_signatures([Signature::new("evil", SIG)]);
        let mut e = SplitDetect::with_config(sigs, config).unwrap();
        let mut out = Vec::new();
        for (tick, p) in pkts.iter().enumerate() {
            e.process_packet(p, tick as u64, &mut out);
            e.poll(&mut out);
        }
        e.finish(&mut out);
        assert!(e.slow_failures().is_empty());
        let mut keys: Vec<_> = out
            .iter()
            .map(|a| (a.flow, a.signature, a.offset, a.source as u8))
            .collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn async_pool_is_alert_equivalent_to_inline() {
        // Whole signature, split signature, and history-replay shapes, all
        // through inline and 1/2/4-worker pools: identical alert sets.
        let mut whole = b"....".to_vec();
        whole.extend_from_slice(SIG);
        let traces: Vec<Vec<Vec<u8>>> = vec![
            vec![pkt(1000, &whole)],
            vec![pkt(1000, &SIG[..10]), pkt(1010, &SIG[10..])],
            {
                let mut head = SIG[..7].to_vec();
                head.splice(0..0, b"x".iter().copied());
                vec![
                    pkt(1000, &head),
                    pkt(1008, &SIG[7..17]),
                    pkt(1018, &SIG[17..]),
                ]
            },
        ];
        for (i, trace) in traces.iter().enumerate() {
            let inline = run_async(pool_config(0), trace);
            assert!(!inline.is_empty(), "trace {i} must alert inline");
            for workers in [1usize, 2, 4] {
                let pooled = run_async(pool_config(workers), trace);
                assert_eq!(pooled, inline, "trace {i}: {workers} workers diverge");
            }
        }
    }

    #[test]
    fn bytes_to_slow_counts_each_packet_exactly_once() {
        // Pins the accounting in hand_to_slow: payload bytes are measured
        // per delivered packet — replayed history packets once each, the
        // live diverting packet once — and unparsable bytes never count.
        let mut e = engine();
        let mut out = Vec::new();
        // q1: benign 8-byte payload, recorded to the delay line.
        let mut head = SIG[..7].to_vec();
        head.splice(0..0, b"x".iter().copied());
        let q1 = pkt(1000, &head); // 8 payload bytes
        let q2 = pkt(1008, &SIG[7..17]); // 10 bytes, diverts (piece hit)
        let q3 = pkt(1018, &SIG[17..]); // 7 bytes, already diverted
        e.process_packet(&q1, 0, &mut out);
        assert_eq!(e.stats().bytes_to_slow, 0, "benign packet not counted");
        e.process_packet(&q2, 1, &mut out);
        // Divert replays q1 from the delay line (8 B) then hands q2 (10 B):
        // each exactly once, even though q1 was both recorded and replayed.
        assert_eq!(e.stats().bytes_to_slow, 18);
        assert_eq!(e.stats().packets_to_slow, 2);
        e.process_packet(&q3, 2, &mut out);
        assert_eq!(e.stats().bytes_to_slow, 25);
        assert_eq!(e.stats().packets_to_slow, 3);
        // Garbage and truncated packets parse to no payload: whatever path
        // they take, they must not inflate the slow-path byte accounting.
        let garbage = vec![0xFFu8; 40];
        e.process_packet(&garbage, 3, &mut out);
        let truncated = &q3[..q3.len().min(24)]; // IP header only
        e.process_packet(truncated, 4, &mut out);
        assert_eq!(
            e.stats().bytes_to_slow,
            25,
            "unparsable diverted traffic must count zero payload bytes"
        );
    }

    #[test]
    fn exported_stage_counters_follow_the_packet_path() {
        let mut e = engine();
        let mut out = Vec::new();
        let mut head = SIG[..7].to_vec();
        head.splice(0..0, b"x".iter().copied());
        e.process_packet(&pkt(1000, &head), 0, &mut out); // recorded
        e.process_packet(&pkt(1008, &SIG[7..17]), 1, &mut out); // diverts, replays 1
        e.process_packet(&pkt(1018, &SIG[17..]), 2, &mut out); // already diverted
        e.process_packet(&[0xFF; 40], 3, &mut out); // fails header decode
        let m = e.metrics();
        let stage = |s: &str| m.value_of(&format!("sd_stage_packets_total{{stage=\"{s}\"}}"));
        assert_eq!(stage("parse"), Some(3));
        assert_eq!(stage("fast_path"), Some(4));
        assert_eq!(
            stage("divert"),
            Some(2),
            "one delay-line record, one divert"
        );
        assert_eq!(stage("slow_path"), Some(3), "one replayed, two live");
        assert_eq!(m.value_of("sd_parse_errors_total"), Some(1));
        assert_eq!(m.value_of("sd_diverted_flows"), Some(1));
        let wire = m
            .histograms()
            .iter()
            .find(|h| h.meta.name == "sd_packet_bytes");
        assert_eq!(wire.map(|h| h.value.count), Some(4));
    }

    fn fpkt(src: &str, seq: u32, payload: &[u8]) -> Vec<u8> {
        let f = TcpPacketSpec::new(src, "10.0.0.2:80")
            .seq(seq)
            .flags(TcpFlags::ACK.union(TcpFlags::PSH))
            .payload(payload)
            .build();
        ip_of_frame(&f).to_vec()
    }

    fn key_of(packet: &[u8]) -> sd_flow::FlowKey {
        // Alerts carry the 5-tuple key (the slow path's canonical key).
        let parsed = sd_packet::parse::parse_ipv4(packet).unwrap();
        sd_flow::FlowKey::from_parsed(&parsed).unwrap().0
    }

    #[test]
    fn reload_swaps_rules_without_dropping_flow_or_divert_state() {
        const SIG2: &[u8] = b"FRESH_RULE_SIGNATURE_24!"; // 24 bytes, like SIG
                                                         // Inline and pooled slow paths must both survive the reload.
        for workers in [0usize, 2] {
            let sigs = SignatureSet::from_signatures([Signature::new("evil", SIG)]);
            let mut e = SplitDetect::with_config(sigs, pool_config(workers)).unwrap();
            let mut out = Vec::new();
            // Flow A: benign, seeds fast-path sequence state (1000..1064).
            e.process_packet(&fpkt("10.0.0.1:4000", 1000, &[b'n'; 64]), 0, &mut out);
            // Flow B: diverts under the old rules (whole piece in-packet).
            e.process_packet(&fpkt("10.0.0.9:4000", 2000, &SIG[..10]), 1, &mut out);
            assert_eq!(e.stats().divert.flows_diverted, 1);

            let fresh = SignatureSet::from_signatures([Signature::new("fresh", SIG2)]);
            e.install(CompiledRules::compile(&fresh, &e.config()).unwrap());

            // Divert stickiness survives: flow B's continuation still
            // reaches the slow path though the rule that diverted it is
            // gone.
            let before = e.stats().packets_to_slow;
            e.process_packet(&fpkt("10.0.0.9:4000", 2010, &[b'x'; 32]), 2, &mut out);
            assert!(
                e.stats().packets_to_slow > before,
                "{workers} workers: diverted flow fell off the slow path"
            );

            // Fast-path sequence state survives: a non-monotonic packet on
            // flow A diverts OutOfOrder — a dropped table would have
            // adopted seq 900 mid-stream as benign.
            e.process_packet(&fpkt("10.0.0.1:4000", 900, &[b'o'; 32]), 3, &mut out);
            assert!(
                e.stats()
                    .diverts_by(crate::fastpath::DivertReason::OutOfOrder)
                    >= 1,
                "{workers} workers: flow table state lost across reload"
            );

            // Old rules are gone: the retired signature no longer alerts on
            // a fresh flow; the new one matches end-to-end.
            let old_sig_pkt = fpkt("10.0.0.7:4000", 3000, SIG);
            let old_flow = key_of(&old_sig_pkt);
            e.process_packet(&old_sig_pkt, 4, &mut out);
            let mut new_payload = b"..".to_vec();
            new_payload.extend_from_slice(SIG2);
            let new_sig_pkt = fpkt("10.0.0.5:4000", 5000, &new_payload);
            let new_flow = key_of(&new_sig_pkt);
            e.process_packet(&new_sig_pkt, 5, &mut out);
            e.finish(&mut out);
            assert!(
                out.iter()
                    .any(|a| a.flow == new_flow && a.source == AlertSource::SlowPath),
                "{workers} workers: new rules must match after reload"
            );
            assert!(
                !out.iter().any(|a| a.flow == old_flow),
                "{workers} workers: retired rules must stop matching"
            );
        }
    }

    #[test]
    fn reload_rejects_inadmissible_rules_and_keeps_old_set() {
        // A rule set is validated where it compiles, before any engine
        // sees it; the old rules stay live.
        let mut e = engine();
        let mut out = Vec::new();
        assert!(CompiledRules::compile(&SignatureSet::default(), &e.config()).is_err());
        let mut payload = b"..".to_vec();
        payload.extend_from_slice(SIG);
        e.process_packet(&pkt(1000, &payload), 0, &mut out);
        e.finish(&mut out);
        assert_eq!(out.len(), 1, "failed reload must not disturb the engine");
    }

    #[test]
    fn engines_built_from_one_compile_share_one_plan_and_scanner() {
        let sigs = SignatureSet::from_signatures([Signature::new("evil", SIG)]);
        let config = SplitDetectConfig::default();
        let rules = CompiledRules::compile(&sigs, &config).unwrap();
        let a = SplitDetect::build(rules.clone(), config);
        let b = SplitDetect::build(rules.clone(), config);
        let scanner = |e: &SplitDetect| match &e.slow {
            SlowPathDispatch::Inline(slow) => Arc::clone(slow.scanner()),
            SlowPathDispatch::Pool(_) => unreachable!("the default slow path is inline"),
        };
        assert!(Arc::ptr_eq(a.fast.plan(), &rules.plan));
        assert!(Arc::ptr_eq(b.fast.plan(), &rules.plan));
        assert!(Arc::ptr_eq(&scanner(&a), &rules.scanner));
        assert!(Arc::ptr_eq(&scanner(&b), &rules.scanner));
        // One plan and one scanner: held by the rules and the two engines.
        assert_eq!(Arc::strong_count(&rules.plan), 3);
        assert_eq!(Arc::strong_count(&rules.scanner), 3);
        drop((a, b));
        assert_eq!(Arc::strong_count(&rules.plan), 1);
        assert_eq!(Arc::strong_count(&rules.scanner), 1);
    }

    #[test]
    fn finish_twice_is_idempotent_in_both_modes() {
        for workers in [0usize, 2] {
            let sigs = SignatureSet::from_signatures([Signature::new("evil", SIG)]);
            let mut e = SplitDetect::with_config(sigs, pool_config(workers)).unwrap();
            let mut payload = b"..".to_vec();
            payload.extend_from_slice(SIG);
            let mut out = Vec::new();
            e.process_packet(&pkt(1000, &payload), 0, &mut out);
            e.finish(&mut out);
            assert_eq!(out.len(), 1, "{workers} workers: one alert after finish");
            e.finish(&mut out);
            assert_eq!(out.len(), 1, "{workers} workers: second finish re-emitted");
        }
    }

    #[test]
    fn drop_with_in_flight_slow_work_is_safe() {
        let sigs = SignatureSet::from_signatures([Signature::new("evil", SIG)]);
        let mut e = SplitDetect::with_config(sigs, pool_config(4)).unwrap();
        let mut out = Vec::new();
        // Divert many flows and keep feeding them so work is queued when
        // the engine drops without finish().
        for f in 0..32u16 {
            let src = format!("10.3.{}.{}:4000", f / 200, f % 200 + 1);
            let first = TcpPacketSpec::new(&src, "10.0.0.2:80")
                .seq(1000)
                .flags(TcpFlags::ACK.union(TcpFlags::PSH))
                .payload(&SIG[..10])
                .build();
            e.process_packet(ip_of_frame(&first), f as u64, &mut out);
            for j in 0..8u32 {
                let follow = TcpPacketSpec::new(&src, "10.0.0.2:80")
                    .seq(1010 + j * 1400)
                    .flags(TcpFlags::ACK)
                    .payload(&[b'm'; 1400])
                    .build();
                e.process_packet(ip_of_frame(&follow), 100 + j as u64, &mut out);
            }
        }
        drop(e); // must join worker threads without panicking or hanging
    }

    #[test]
    fn overload_shed_is_counted_and_alerted() {
        let sigs = SignatureSet::from_signatures([Signature::new("evil", SIG)]);
        let config = SplitDetectConfig {
            slow_path_workers: 1,
            slow_path_lane_depth: 1,
            ..Default::default()
        };
        let mut e = SplitDetect::with_config(sigs, config).unwrap();
        let mut out = Vec::new();
        // Divert one flow, then flood it far past what a depth-1 lane and
        // one reassembling worker can absorb.
        e.process_packet(&pkt(1000, &SIG[..10]), 0, &mut out);
        let n = 2000u32;
        for i in 0..n {
            e.process_packet(&pkt(1010 + i * 1400, &[b'f'; 1400]), 1 + i as u64, &mut out);
        }
        e.finish(&mut out);
        let s = e.stats();
        // Conservation: every diverted packet was either delivered or shed.
        assert_eq!(
            s.packets_to_slow + s.divert.shed_packets,
            1 + n as u64,
            "delivered + shed must cover every diverted packet"
        );
        assert!(
            s.divert.shed_packets > 0,
            "a depth-1 lane cannot absorb a {n}-packet flood"
        );
        assert_eq!(s.divert.shed_bytes % 1400, 0, "only flood packets shed");
        assert!(
            out.iter().any(|a| a.source == AlertSource::Overload),
            "default policy must surface the overload in the alert stream"
        );
        let report = sd_telemetry::to_text(&e.metrics(), &crate::EROSION_FAMILIES);
        let warning = format!("WARNING: sd_slowpath_shed_total {}:", s.divert.shed_packets);
        assert!(report.contains(&warning), "{report}");
    }

    #[test]
    fn resources_aggregate_fast_and_slow() {
        let mut e = engine();
        let mut payload = SIG.to_vec();
        payload.extend_from_slice(b"tail");
        let _ = run_trace(&mut e, [pkt(1, &payload).as_slice()]);
        let r = e.resources();
        assert_eq!(r.packets, 1);
        assert!(
            r.bytes_scanned >= payload.len() as u64 * 2,
            "fast + slow scans"
        );
        assert_eq!(r.alerts, 1);
    }
}
