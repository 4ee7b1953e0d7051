//! Flow-sharded parallel Split-Detect.
//!
//! The paper's 20 Gbps figure assumes hardware parallelism; the software
//! equivalent is flow sharding — hash each connection to one of N
//! independent engine instances, each on its own core. Flow affinity makes
//! this *correct by construction*: every rule Split-Detect applies (small
//! counts, sequence tracking, diversion stickiness, slow-path reassembly)
//! is per-flow state, so as long as all packets of one flow reach the same
//! shard, N engines behave exactly like one. Dispatch hashes the IP pair
//! only ([`FlowKey::from_ip_pair`]): non-first fragments carry no ports,
//! so a 5-tuple hash would separate a connection's fragments from its
//! stream segments — the differential fuzzing oracle found exactly that
//! divergence against the port-aware hash this dispatcher originally used.
//!
//! The rule set is compiled once and every shard shares its automata; a
//! live reload ([`ShardedSplitDetect::install`]) hands every shard the
//! rules the caller compiled, so no worker ever compiles or copies them.
//!
//! ## Batched, pooled dispatch
//!
//! A per-packet channel send plus a per-packet `Vec` allocation would make
//! the dispatcher, not the engines, the bottleneck (experiment E15
//! measures exactly this). The dispatcher therefore accumulates packets
//! into per-shard `PacketBatch` buffers — one contiguous byte arena plus
//! a span index — and sends whole batches. Workers return drained batches
//! through the lanes' recycle channel, so steady-state operation performs
//! **zero heap allocations per packet**: every byte is copied once into a
//! pooled arena and the pool cycles between dispatcher and workers.
//!
//! A batch is [`SHARD_BATCH_PACKETS`] packets. E15's journaled sweep read
//! 2.78× over per-packet dispatch at 16, 4.00× at 64 and 4.13× at 256.
//!
//! ## Failure containment
//!
//! A shard whose worker failed to spawn or panicked is dead: the
//! dispatcher counts the packets it can no longer deliver and keeps the
//! other lanes running, and the failure is reported as a
//! [`WorkerFailure`], never as a propagated panic.
//!
//! The trade-off measured by experiment E15: per-shard state is provisioned
//! N times (each shard gets its own flow table and delay line), so memory
//! scales with cores while throughput does — the same provisioning trade a
//! multi-lane line card makes.

use sd_flow::{hash, FlowKey};
use sd_ips::{Alert, Ips, ResourceUsage, SignatureSet};
use sd_packet::parse::parse_ipv4;
use sd_telemetry::{PipelineTelemetry, Registry};

use crate::config::{ConfigError, SplitDetectConfig};
use crate::engine::SplitDetect;
use crate::lane::{sum_usage, Lanes, Worker, WorkerFailure, WorkerKind};
use crate::report::metrics_registry;
use crate::split::CompiledRules;
use crate::stats::SplitDetectStats;

/// Packets the dispatcher accumulates per shard before one channel send.
pub const SHARD_BATCH_PACKETS: usize = 64;

/// Bounded per-shard queue depth, in batches. Small enough that a stalled
/// worker exerts backpressure on the dispatcher instead of buffering
/// unboundedly; large enough to ride out scheduling jitter.
const SHARD_QUEUE_BATCHES: usize = 8;

/// A pooled buffer of packets travelling dispatcher → worker → (recycle)
/// → dispatcher. One contiguous arena for payload bytes plus a span
/// index; clearing retains both capacities, so a warmed-up batch is
/// allocation-free to refill.
#[derive(Debug, Default)]
struct PacketBatch {
    /// Concatenated raw packets.
    data: Vec<u8>,
    /// `(start, end, tick)` for each packet in `data`.
    spans: Vec<(usize, usize, u64)>,
}

impl PacketBatch {
    fn push(&mut self, packet: &[u8], tick: u64) {
        let start = self.data.len();
        self.data.extend_from_slice(packet);
        self.spans.push((start, self.data.len(), tick));
    }

    fn clear(&mut self) {
        self.data.clear();
        self.spans.clear();
    }

    fn len(&self) -> usize {
        self.spans.len()
    }
}

enum Job {
    Batch(PacketBatch),
    /// Live rule reload, installed in lane order: batches sent before it
    /// are scanned under the old rules. Every shard shares the one compile.
    Install(CompiledRules),
    /// Test/chaos hook: make the worker panic with this message.
    Poison(String),
}

/// Dispatcher-side counters for one shard lane — the backpressure and
/// pool-occupancy observability surfaced by `sd scan --shards` and
/// `experiments e15`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardDispatchStats {
    /// Batches sent over the channel.
    pub batches_sent: u64,
    /// Packets accepted for this shard: sent in a batch, or pending in the
    /// one being filled. A batch that fails to send moves its packets to
    /// `packets_dropped`.
    pub packets_enqueued: u64,
    /// Raw bytes of `packets_enqueued`.
    pub bytes_enqueued: u64,
    /// Packets dropped because the shard worker had died.
    pub packets_dropped: u64,
    /// Batch buffers obtained from the recycle pool.
    pub recycle_hits: u64,
    /// Batch buffers freshly allocated (pool empty — cold start or a
    /// worker holding more batches than the pool anticipated).
    pub recycle_misses: u64,
    /// Highest number of batches simultaneously in flight to this shard
    /// (bounded by the channel depth; hitting the bound means the worker
    /// is the bottleneck and the dispatcher blocked on it).
    pub queue_depth_high_water: u64,
    /// Whether the worker died before `finish`.
    pub dead: bool,
}

impl ShardDispatchStats {
    /// Element-wise sum over lanes (high-water is the max, `dead` the OR).
    pub fn aggregate(lanes: &[ShardDispatchStats]) -> ShardDispatchStats {
        let mut total = ShardDispatchStats::default();
        for l in lanes {
            total.batches_sent += l.batches_sent;
            total.packets_enqueued += l.packets_enqueued;
            total.bytes_enqueued += l.bytes_enqueued;
            total.packets_dropped += l.packets_dropped;
            total.recycle_hits += l.recycle_hits;
            total.recycle_misses += l.recycle_misses;
            total.queue_depth_high_water =
                total.queue_depth_high_water.max(l.queue_depth_high_water);
            total.dead |= l.dead;
        }
        total
    }

    /// Mean packets per sent batch (0 when nothing was sent). Exact after
    /// `finish`, when no packet is left pending.
    pub fn mean_batch_fill(&self) -> f64 {
        if self.batches_sent == 0 {
            0.0
        } else {
            self.packets_enqueued as f64 / self.batches_sent as f64
        }
    }
}

struct Finished {
    /// Surviving engines (`None` where the worker panicked), indexed by shard.
    engines: Vec<Option<SplitDetect>>,
    usage: ResourceUsage,
    /// The surviving shards' histograms, merged.
    telemetry: PipelineTelemetry,
}

/// N independent [`SplitDetect`] engines behind a flow-hash dispatcher
/// with batched, pooled (zero-allocation steady state) dispatch.
///
/// Unlike the single-threaded engine, alerts are produced asynchronously:
/// [`process_packet`](Ips::process_packet) enqueues, and alerts surface at
/// [`finish`](Ips::finish) — the deployment model of a multi-queue NIC,
/// where per-packet verdicts are per-lane and reporting is aggregated.
pub struct ShardedSplitDetect {
    lanes: Lanes<Job, PacketBatch, (SplitDetect, Vec<Alert>)>,
    /// The batch being filled for each shard.
    pending: Vec<PacketBatch>,
    /// Dispatcher counters per shard (`dead` is read from the lanes).
    dispatch: Vec<ShardDispatchStats>,
    /// Ready-to-fill batch buffers.
    pool: Vec<PacketBatch>,
    /// The configuration the engine was built with; rules installed
    /// later are compiled under it.
    config: SplitDetectConfig,
    finished: Option<Finished>,
}

impl ShardedSplitDetect {
    /// Spawn `shards` engine instances, each configured with `config`.
    ///
    /// Per-shard capacities are `config`'s values divided by the shard
    /// count (rounded up), so total provisioned state matches what a
    /// single-instance engine with `config` would hold. The rule set is
    /// compiled once and every shard shares it. The dispatcher batches
    /// [`SHARD_BATCH_PACKETS`] packets per channel send.
    ///
    /// When `config.slow_path_workers ≥ 1`, each shard owns its own
    /// slow-path worker pool (so the process runs `shards ×
    /// slow_path_workers` slow-path threads). Per-shard — not shared —
    /// pools are deliberate: a shard *is* a complete single engine over
    /// its flow partition, so the flow-affinity argument that makes
    /// sharding alert-equivalent to a single engine carries over with
    /// zero cross-shard coordination, no shared-channel contention on the
    /// divert path, and shard-local shed accounting. The cost is worker
    /// threads that cannot steal load across shards; the divert path is
    /// ~10 % of traffic by design, so idle workers are cheap and an
    /// overloaded shard is already visible in its own shed counters.
    pub fn new(
        sigs: SignatureSet,
        config: SplitDetectConfig,
        shards: usize,
    ) -> Result<Self, ConfigError> {
        let shards = shards.max(1);
        let per_shard = SplitDetectConfig {
            flow_table_capacity: config.flow_table_capacity.div_ceil(shards),
            slow_path_max_connections: config.slow_path_max_connections.div_ceil(shards),
            delay_line_packets: config.delay_line_packets.div_ceil(shards),
            max_diverted_flows: config.max_diverted_flows.div_ceil(shards),
            ..config
        };
        let rules = CompiledRules::compile(&sigs, &config)?;
        let engines = (0..shards).map(|i| {
            // A pinned seed still gets a distinct per-shard derivation so
            // shard tables do not share collision sets; `None` stays `None`
            // (each shard draws its own random key at build).
            let flow_hash_seed = per_shard
                .flow_hash_seed
                .map(|s| s.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            SplitDetect::build(
                rules.clone(),
                SplitDetectConfig {
                    flow_hash_seed,
                    ..per_shard
                },
            )
        });
        let lanes = Lanes::spawn(
            WorkerKind::Shard,
            SHARD_QUEUE_BATCHES,
            engines.map(|engine| move |worker: Worker<Job, PacketBatch>| run_shard(engine, worker)),
        );
        Ok(ShardedSplitDetect {
            lanes,
            pending: (0..shards).map(|_| PacketBatch::default()).collect(),
            dispatch: vec![ShardDispatchStats::default(); shards],
            pool: Vec::new(),
            config,
            finished: None,
        })
    }

    /// The configuration the engine was built with (before its capacities
    /// were divided among the shards).
    pub fn config(&self) -> SplitDetectConfig {
        self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.lanes.len()
    }

    /// A cleared batch buffer for `shard`: recycled when possible,
    /// freshly allocated otherwise.
    fn acquire_batch(&mut self, shard: usize) -> PacketBatch {
        let pool = &mut self.pool;
        self.lanes.recycled(|batch| pool.push(batch));
        match self.pool.pop() {
            Some(mut batch) => {
                self.dispatch[shard].recycle_hits += 1;
                batch.clear();
                batch
            }
            None => {
                self.dispatch[shard].recycle_misses += 1;
                PacketBatch::default()
            }
        }
    }

    /// Send `shard`'s pending batch (if non-empty), blocking while its
    /// lane is full. A dead lane drops the batch, counted.
    fn flush_shard(&mut self, shard: usize) {
        if self.pending[shard].len() == 0 {
            return;
        }
        let fresh = self.acquire_batch(shard);
        let batch = std::mem::replace(&mut self.pending[shard], fresh);
        let (packets, bytes) = (batch.len() as u64, batch.data.len() as u64);
        let stats = &mut self.dispatch[shard];
        match self.lanes.send(shard, Job::Batch(batch)) {
            Ok(()) => {
                stats.batches_sent += 1;
                stats.queue_depth_high_water = stats
                    .queue_depth_high_water
                    .max(self.lanes.in_flight(shard));
            }
            Err(job) => {
                // The worker is gone: these packets never reach it.
                stats.packets_enqueued -= packets;
                stats.bytes_enqueued -= bytes;
                stats.packets_dropped += packets;
                if let Job::Batch(mut batch) = job {
                    batch.clear();
                    self.pool.push(batch);
                }
            }
        }
    }

    fn flush_all(&mut self) {
        for shard in 0..self.lanes.len() {
            self.flush_shard(shard);
        }
    }

    /// Per-shard dispatcher counters (available before and after
    /// [`Ips::finish`]).
    pub fn dispatch_stats(&self) -> Vec<ShardDispatchStats> {
        self.dispatch
            .iter()
            .enumerate()
            .map(|(i, d)| ShardDispatchStats {
                dead: self.lanes.is_dead(i),
                ..*d
            })
            .collect()
    }

    /// Workers that failed, with their messages: spawn failures are
    /// visible immediately, panic failures are added by [`Ips::finish`].
    pub fn failures(&self) -> &[WorkerFailure] {
        self.lanes.failures()
    }

    /// Aggregate statistics across surviving shards (after [`Ips::finish`]).
    ///
    /// # Panics
    /// Panics if called before `finish` — per-shard state lives on the
    /// worker threads until then.
    pub fn stats(&self) -> Vec<SplitDetectStats> {
        let f = self
            .finished
            .as_ref()
            .expect("stats() is available after finish()");
        f.engines.iter().flatten().map(|e| e.stats()).collect()
    }

    /// The surviving shards' sampled histograms, merged. `None` before
    /// [`Ips::finish`].
    pub fn telemetry(&self) -> Option<&PipelineTelemetry> {
        self.finished.as_ref().map(|f| &f.telemetry)
    }

    /// Everything the surviving shards counted, aggregated and named for
    /// export, with the dispatcher's per-lane counters and gauges
    /// (`sd_shard_*{shard="i"}`). `None` before [`Ips::finish`] —
    /// per-shard state lives on the worker threads until then.
    pub fn metrics(&self) -> Option<Registry> {
        let f = self.finished.as_ref()?;
        let stats = SplitDetectStats::aggregate(&self.stats()).unwrap_or_default();
        // Every shard holds the one plan `install` gave them all.
        let plan = f.engines.iter().flatten().next().map(|e| e.plan());
        Some(metrics_registry(
            &stats,
            &f.telemetry,
            plan,
            &self.dispatch_stats(),
        ))
    }

    /// Install a new rule set on every live shard (live rule reload),
    /// compiled under [`Self::config`]. Each lane's pending batch is
    /// flushed ahead of the install job, so packets accepted before this
    /// call are scanned under the old rules and packets after it under the
    /// new; per-shard flow, diversion, and reassembly state all survive
    /// the swap. Dead lanes are skipped.
    pub fn install(&mut self, rules: CompiledRules) {
        assert!(self.finished.is_none(), "engine already finished");
        self.flush_all();
        self.lanes.broadcast(|| Job::Install(rules.clone()));
    }

    /// Chaos/test hook: make `shard`'s worker panic on its next job, as a
    /// hardware lane failure would. Hidden from docs; used by the
    /// fault-containment tests.
    #[doc(hidden)]
    pub fn poison_shard(&mut self, shard: usize) {
        self.lanes.control(
            shard,
            Job::Poison(format!("injected fault: shard {shard} worker poisoned")),
        );
    }
}

/// One shard worker: scan every batch in lane order, recycle it, and
/// return the engine with its alerts once the lane closes.
fn run_shard(
    mut engine: SplitDetect,
    worker: Worker<Job, PacketBatch>,
) -> (SplitDetect, Vec<Alert>) {
    let mut alerts = Vec::new();
    for job in worker.jobs() {
        match job {
            Job::Batch(mut batch) => {
                for &(s, e, tick) in &batch.spans {
                    engine.process_packet(&batch.data[s..e], tick, &mut alerts);
                }
                batch.clear();
                worker.recycle(batch);
            }
            Job::Install(rules) => engine.install(rules),
            Job::Poison(msg) => panic!("{msg}"),
        }
    }
    engine.finish(&mut alerts);
    (engine, alerts)
}

impl Ips for ShardedSplitDetect {
    fn name(&self) -> &'static str {
        "split-detect-sharded"
    }

    fn process_packet(&mut self, packet: &[u8], tick: u64, _out: &mut Vec<Alert>) {
        assert!(self.finished.is_none(), "engine already finished");
        let idx = shard_of(packet, self.lanes.len());
        let stats = &mut self.dispatch[idx];
        if self.lanes.is_dead(idx) {
            // Worker died earlier: count, don't crash. The failure itself
            // is reported by failures().
            stats.packets_dropped += 1;
            return;
        }
        stats.packets_enqueued += 1;
        stats.bytes_enqueued += packet.len() as u64;
        let pending = &mut self.pending[idx];
        pending.push(packet, tick);
        if pending.len() >= SHARD_BATCH_PACKETS {
            self.flush_shard(idx);
        }
    }

    /// Flush every lane, join every worker and collect their alerts.
    /// Idempotent. Dropping the engine without calling this still joins
    /// the workers (their alerts are discarded).
    fn finish(&mut self, out: &mut Vec<Alert>) {
        if self.finished.is_some() {
            return;
        }
        // Flush partial batches first (dead lanes just count the drops).
        self.flush_all();
        let engines: Vec<Option<SplitDetect>> = self
            .lanes
            .finish()
            .into_iter()
            .map(|joined| {
                joined.map(|(engine, alerts)| {
                    out.extend(alerts);
                    engine
                })
            })
            .collect();
        let usage = sum_usage(engines.iter().flatten().map(Ips::resources));
        let mut telemetry = PipelineTelemetry::new(None);
        for engine in engines.iter().flatten() {
            telemetry.merge_from(engine.telemetry());
        }
        self.finished = Some(Finished {
            engines,
            usage,
            telemetry,
        });
    }

    fn resources(&self) -> ResourceUsage {
        match &self.finished {
            Some(f) => f.usage,
            None => {
                let d = ShardDispatchStats::aggregate(&self.dispatch);
                ResourceUsage {
                    packets: d.packets_enqueued + d.packets_dropped,
                    ..Default::default()
                }
            }
        }
    }
}

/// The shard of `shards` that `packet` dispatches to. Dispatch is on the
/// IP pair, not the 5-tuple: non-first fragments carry no ports, so a
/// port-aware hash would split a connection's fragments from its stream
/// segments across shards and the sharded engine would diverge from the
/// single engine on fragmented flows.
fn shard_of(packet: &[u8], shards: usize) -> usize {
    match parse_ipv4(packet)
        .ok()
        .and_then(|p| FlowKey::from_ip_pair(&p))
    {
        Some(key) => (hash::hash_key_seeded(0x51AD, &key) as usize) % shards,
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use sd_ips::api::run_trace;
    use sd_ips::Signature;
    use sd_traffic::benign::{BenignConfig, BenignGenerator};
    use sd_traffic::evasion::{generate, AttackSpec, EvasionStrategy};
    use sd_traffic::mixer::mix;
    use sd_traffic::victim::VictimConfig;

    const SIG: &[u8] = b"EVIL_SIGNATURE_BYTES";

    fn sigs() -> SignatureSet {
        SignatureSet::from_signatures([Signature::new("evil", SIG)])
    }

    impl ShardedSplitDetect {
        /// Like `new`, but shard `i`'s worker fails to spawn when bit `i`
        /// of `fail_mask` is set.
        fn new_with_spawn_failures(
            sigs: SignatureSet,
            config: SplitDetectConfig,
            shards: usize,
            fail_mask: u64,
        ) -> Result<Self, ConfigError> {
            crate::lane::with_spawn_failures(fail_mask, || Self::new(sigs, config, shards))
        }
    }

    fn mixed_trace(n_attacks: usize) -> sd_traffic::mixer::LabeledTrace {
        trace(40, n_attacks)
    }

    /// Long enough that every lane of 2 or 4 shards fills several
    /// `SHARD_BATCH_PACKETS` batches.
    fn long_trace() -> sd_traffic::mixer::LabeledTrace {
        trace(400, 6)
    }

    fn trace(flows: usize, n_attacks: usize) -> sd_traffic::mixer::LabeledTrace {
        let benign = BenignGenerator::new(BenignConfig {
            flows,
            seed: 61,
            ..Default::default()
        })
        .generate();
        let victim = VictimConfig::default();
        let catalog = EvasionStrategy::catalog();
        let attacks = (0..n_attacks)
            .map(|i| {
                let mut spec = AttackSpec::simple(SIG);
                spec.client.1 = 47_000 + i as u16;
                (
                    generate(&spec, catalog[i % catalog.len()], victim, i as u64),
                    0usize,
                    catalog[i % catalog.len()].name(),
                )
            })
            .collect();
        mix(benign, attacks, 5)
    }

    /// Full identity of an alert, as a sortable key.
    fn keys(alerts: &[Alert]) -> Vec<(FlowKey, usize, u64, u8)> {
        let mut v: Vec<_> = alerts
            .iter()
            .map(|a| (a.flow, a.signature, a.offset, a.source as u8))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn sharded_equals_single_engine_detection() {
        // Every lane sends at least two full batches, so this compares the
        // steady-state dispatch path, not only the flush at finish().
        let labeled = long_trace();
        let mut single = SplitDetect::new(sigs()).unwrap();
        let reference = keys(&run_trace(&mut single, labeled.trace.iter_bytes()));
        for label in &labeled.attacks {
            assert!(
                reference.iter().any(|k| k.0 == label.flow),
                "the single engine missed {}",
                label.strategy
            );
        }
        assert!(
            reference.iter().all(|k| labeled.is_attack(&k.0)),
            "false alert"
        );
        for shards in [2usize, 4] {
            let mut engine =
                ShardedSplitDetect::new(sigs(), SplitDetectConfig::default(), shards).unwrap();
            let alerts = run_trace(&mut engine, labeled.trace.iter_bytes());
            assert!(engine.failures().is_empty());
            assert_eq!(keys(&alerts), reference, "{shards} shards diverged");
            assert_eq!(engine.shard_count(), shards);
            for (i, lane) in engine.dispatch_stats().iter().enumerate() {
                // Only a full batch is sent before finish(), which sends
                // the one partial remainder.
                let batch = SHARD_BATCH_PACKETS as u64;
                assert_eq!(lane.batches_sent, lane.packets_enqueued.div_ceil(batch));
                assert!(
                    lane.packets_enqueued / batch >= 2,
                    "{shards} shards: lane {i} sent {} full batch(es)",
                    lane.packets_enqueued / batch
                );
            }
        }
    }

    #[test]
    fn alerts_surface_at_finish_not_before() {
        let labeled = mixed_trace(2);
        let mut engine = ShardedSplitDetect::new(sigs(), SplitDetectConfig::default(), 2).unwrap();
        let mut out = Vec::new();
        for (tick, p) in labeled.trace.iter_bytes().enumerate() {
            engine.process_packet(p, tick as u64, &mut out);
        }
        // Asynchronous contract: nothing promised until finish().
        engine.finish(&mut out);
        assert!(out.iter().any(|a| a.signature == 0));
        // finish() is idempotent.
        let before = out.len();
        engine.finish(&mut out);
        assert_eq!(out.len(), before);
    }

    #[test]
    fn resources_aggregate_across_shards() {
        let labeled = mixed_trace(1);
        let mut engine = ShardedSplitDetect::new(sigs(), SplitDetectConfig::default(), 4).unwrap();
        let mut out = Vec::new();
        let n = labeled.trace.len() as u64;
        for (tick, p) in labeled.trace.iter_bytes().enumerate() {
            engine.process_packet(p, tick as u64, &mut out);
        }
        engine.finish(&mut out);
        let r = engine.resources();
        assert_eq!(r.packets, n);
        assert!(r.bytes_scanned > 0);
        let stats = engine.stats();
        assert_eq!(stats.len(), 4);
        let diverted: u64 = stats.iter().map(|s| s.divert.flows_diverted).sum();
        assert!(diverted >= 1);
    }

    #[test]
    fn dispatch_stats_count_batches_and_recycling() {
        let labeled = long_trace();
        let mut engine = ShardedSplitDetect::new(sigs(), SplitDetectConfig::default(), 2).unwrap();
        let mut out = Vec::new();
        let n = labeled.trace.len() as u64;
        for (tick, p) in labeled.trace.iter_bytes().enumerate() {
            engine.process_packet(p, tick as u64, &mut out);
        }
        engine.finish(&mut out);
        let lanes = engine.dispatch_stats();
        assert_eq!(lanes.len(), 2);
        let total = ShardDispatchStats::aggregate(&lanes);
        assert_eq!(total.packets_enqueued, n);
        assert_eq!(total.packets_dropped, 0);
        let batch = SHARD_BATCH_PACKETS as u64;
        assert!(total.batches_sent >= n / batch, "batches cover the trace");
        assert!(
            total.batches_sent < n,
            "batching must send fewer messages than packets"
        );
        // The pool bounds allocations: misses can never exceed what the
        // queue can hold in flight (plus the pending buffer per lane).
        let bound = (SHARD_QUEUE_BATCHES as u64 + 2) * 2 + 2;
        assert!(
            total.recycle_misses <= bound,
            "misses {} exceed pool bound {bound}",
            total.recycle_misses
        );
        assert!(total.queue_depth_high_water >= 1);
        assert!(!total.dead);
        assert_eq!(
            total.mean_batch_fill(),
            n as f64 / total.batches_sent as f64
        );
        // Batches recycle in steady state.
        assert!(
            total.recycle_hits > total.recycle_misses,
            "steady state must be pool hits (hits {}, misses {})",
            total.recycle_hits,
            total.recycle_misses
        );
    }

    #[test]
    fn batch_fill_counts_only_packets_sent_after_a_shard_dies() {
        // Shard 1 dies on the job after its first batch. Its lane holds
        // only SHARD_QUEUE_BATCHES batches, so a later send meets the
        // closed channel and the rest of its packets drop at intake: they
        // must not dilute the fill of the batches actually sent. The
        // poison goes in only once a batch is sent, so that send does not
        // race the worker's death.
        let labeled = long_trace();
        let mut engine = ShardedSplitDetect::new(sigs(), SplitDetectConfig::default(), 2).unwrap();
        let mut packets = labeled.trace.iter_bytes().enumerate();
        let mut out = Vec::new();
        for (tick, p) in packets.by_ref() {
            engine.process_packet(p, tick as u64, &mut out);
            if engine.dispatch_stats()[1].batches_sent > 0 {
                break;
            }
        }
        engine.poison_shard(1);
        for (tick, p) in packets {
            engine.process_packet(p, tick as u64, &mut out);
        }
        engine.finish(&mut out);
        let lanes = engine.dispatch_stats();
        let total = ShardDispatchStats::aggregate(&lanes);
        assert!(lanes[1].dead && lanes[1].packets_dropped > 0);
        let sent = labeled.trace.len() as u64 - total.packets_dropped;
        assert_eq!(total.packets_enqueued, sent);
        // The dead lane sent only full batches: its partial remainder
        // dropped at finish() with everything after the failed send.
        assert!(lanes[1].batches_sent > 0);
        assert_eq!(lanes[1].mean_batch_fill(), SHARD_BATCH_PACKETS as f64);
    }

    #[test]
    fn merged_telemetry_covers_all_shards() {
        let labeled = mixed_trace(3);
        let mut engine = ShardedSplitDetect::new(sigs(), SplitDetectConfig::default(), 3).unwrap();
        assert!(
            engine.metrics().is_none(),
            "per-shard state lives on the workers until finish"
        );
        let mut out = Vec::new();
        let n = labeled.trace.len() as u64;
        for (tick, p) in labeled.trace.iter_bytes().enumerate() {
            engine.process_packet(p, tick as u64, &mut out);
        }
        engine.finish(&mut out);
        let reg = engine.metrics().unwrap();
        assert_eq!(
            reg.value_of("sd_packets_total"),
            Some(n),
            "every delivered packet counted"
        );
        let per_shard: u64 = (0..3)
            .map(|i| {
                reg.value_of(&format!("sd_shard_packets_total{{shard=\"{i}\"}}"))
                    .unwrap()
            })
            .sum();
        assert_eq!(per_shard, n, "per-lane dispatch counters cover the trace");
        // The three shards share one plan: its state counts and bytes
        // are exported once.
        let one = SplitDetect::new(sigs()).unwrap().metrics();
        for name in [
            "sd_automaton_hot_states",
            "sd_automaton_cold_states",
            "sd_automaton_bytes",
            "sd_automaton_hot_bytes",
            "sd_automaton_cold_bytes",
        ] {
            assert_eq!(reg.value_of(name), one.value_of(name), "{name}");
        }
        // The export is valid Prometheus text with the per-stage
        // histograms of every shard merged in.
        let text = sd_telemetry::to_prometheus(&reg);
        sd_telemetry::promcheck::validate(&text).unwrap();
        assert!(text.contains("sd_stage_latency_ns_bucket"), "{text}");
        assert!(
            text.contains(&format!("sd_packet_bytes_count {n}")),
            "{text}"
        );
    }

    #[test]
    fn per_shard_capacity_divides_total() {
        let config = SplitDetectConfig {
            flow_table_capacity: 1 << 12,
            ..Default::default()
        };
        let mut engine = ShardedSplitDetect::new(sigs(), config, 4).unwrap();
        let mut out = Vec::new();
        engine.finish(&mut out);
        let total_table: u64 = engine.stats().iter().map(|s| s.fast_state_bytes).sum();
        // 4 shards × 1024 slots ≈ one engine with 4096 slots.
        let single = SplitDetect::with_config(sigs(), config).unwrap();
        assert_eq!(total_table, single.stats().fast_state_bytes);
    }

    #[test]
    fn drop_without_finish_does_not_hang() {
        let engine = ShardedSplitDetect::new(sigs(), SplitDetectConfig::default(), 3).unwrap();
        drop(engine); // must join cleanly
    }

    #[test]
    fn poisoned_shard_degrades_instead_of_aborting() {
        let labeled = mixed_trace(4);
        let mut engine = ShardedSplitDetect::new(sigs(), SplitDetectConfig::default(), 4).unwrap();
        let mut out = Vec::new();
        let packets: Vec<&[u8]> = labeled.trace.iter_bytes().collect();
        let half = packets.len() / 2;
        for (tick, p) in packets[..half].iter().enumerate() {
            engine.process_packet(p, tick as u64, &mut out);
        }
        engine.poison_shard(1);
        // Keep feeding: the engine must absorb the dead lane gracefully.
        for (tick, p) in packets[half..].iter().enumerate() {
            engine.process_packet(p, (half + tick) as u64, &mut out);
        }
        engine.finish(&mut out);
        let failures = engine.failures().to_vec();
        assert_eq!(failures.len(), 1, "exactly one worker failed");
        assert_eq!(failures[0].worker, 1);
        assert!(failures[0].message.contains("injected fault"));
        assert!(failures[0].to_string().contains("shard 1"));
        // Surviving shards still report and still detected their flows.
        assert_eq!(engine.stats().len(), 3);
        let lanes = engine.dispatch_stats();
        assert!(lanes[1].dead);
        // finish() stays idempotent after a failure.
        let before = out.len();
        engine.finish(&mut out);
        assert_eq!(out.len(), before);
    }

    #[test]
    fn spawn_failure_degrades_to_dead_lane_instead_of_panicking() {
        // One shard's worker never spawns. Construction must not panic (the
        // documented contract: failures surface at finish(), never as a
        // propagated panic); its packets drop (counted) while surviving
        // shards keep detecting. Every attack shares one IP pair, hence
        // one shard; the dead one is its neighbour, so the survivors have
        // attacks to detect.
        use sd_packet::builder::TcpPacketSpec;
        let labeled = mixed_trace(4);
        let spec = AttackSpec::simple(SIG);
        let endpoint = |(addr, port)| std::net::SocketAddrV4::new(addr, port);
        let attack = TcpPacketSpec::between(endpoint(spec.client), endpoint(spec.server)).build();
        let dead = (shard_of(&attack, 4) + 1) % 4;
        let mut engine = ShardedSplitDetect::new_with_spawn_failures(
            sigs(),
            SplitDetectConfig::default(),
            4,
            1 << dead,
        )
        .unwrap();
        assert_eq!(engine.failures().len(), 1, "spawn failure visible early");
        let mut out = Vec::new();
        for (tick, p) in labeled.trace.iter_bytes().enumerate() {
            engine.process_packet(p, tick as u64, &mut out);
        }
        engine.finish(&mut out);
        let failures = engine.failures().to_vec();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].worker, dead);
        assert!(failures[0].message.contains("spawn failed"));
        assert_eq!(engine.stats().len(), 3, "three survivors");
        let lanes = engine.dispatch_stats();
        assert_eq!(lanes.len(), 4, "dispatch slots stay index-aligned");
        assert!(lanes[dead].dead);
        assert!(
            lanes[dead].packets_dropped > 0,
            "dead lane's packets counted as dropped"
        );
        assert!(!out.is_empty(), "survivors still alert");
    }

    #[test]
    fn reload_rules_swaps_detection_across_shards() {
        use sd_packet::builder::TcpPacketSpec;
        use sd_packet::tcp::TcpFlags;
        const SIG2: &[u8] = b"FRESH_RULE_SIGNATURE_24!";
        let mk = |src: &str, payload: &[u8]| -> Vec<u8> {
            TcpPacketSpec::new(src, "10.0.0.2:80")
                .seq(1000)
                .flags(TcpFlags::ACK.union(TcpFlags::PSH))
                .payload(payload)
                .build()
        };
        // Alerts carry the 5-tuple key (the slow path's canonical key),
        // unlike the IP-pair key the dispatcher shards on.
        let key_of = |packet: &[u8]| -> FlowKey {
            let parsed = parse_ipv4(packet).unwrap();
            FlowKey::from_parsed(&parsed).unwrap().0
        };
        let mut engine = ShardedSplitDetect::new(sigs(), SplitDetectConfig::default(), 2).unwrap();
        let mut out = Vec::new();
        // Old rules live: flow A carries the old signature whole.
        let a = mk("10.1.0.1:4000", SIG);
        engine.process_packet(&a, 0, &mut out);

        // An inadmissible set is rejected where it compiles, before any
        // shard sees it; the old rules stay live.
        assert!(CompiledRules::compile(&SignatureSet::default(), &engine.config()).is_err());

        let fresh = SignatureSet::from_signatures([Signature::new("fresh", SIG2)]);
        engine.install(CompiledRules::compile(&fresh, &engine.config()).unwrap());

        // After the reload: the retired signature stops matching, the new
        // one matches, on every shard.
        let b = mk("10.1.0.2:4000", SIG);
        let c = mk("10.1.0.3:4000", SIG2);
        let d = mk("10.1.0.4:4000", SIG2);
        for (tick, p) in [&b, &c, &d].into_iter().enumerate() {
            engine.process_packet(p, 1 + tick as u64, &mut out);
        }
        engine.finish(&mut out);
        assert!(engine.failures().is_empty());
        assert!(
            out.iter().any(|x| x.flow == key_of(&a)),
            "pre-reload packet must be scanned under the old rules"
        );
        assert!(
            !out.iter().any(|x| x.flow == key_of(&b)),
            "retired rules must stop matching after reload"
        );
        for p in [&c, &d] {
            assert!(
                out.iter().any(|x| x.flow == key_of(p)),
                "new rules must match after reload"
            );
        }
    }

    #[test]
    fn poisoned_shard_drop_does_not_double_panic() {
        let labeled = mixed_trace(2);
        let mut engine = ShardedSplitDetect::new(sigs(), SplitDetectConfig::default(), 2).unwrap();
        let mut out = Vec::new();
        for (tick, p) in labeled.trace.iter_bytes().enumerate() {
            engine.process_packet(p, tick as u64, &mut out);
        }
        engine.poison_shard(0);
        engine.poison_shard(1);
        // Drop without finish(): must join the panicked workers quietly.
        drop(engine);
    }

    #[test]
    fn dispatcher_survives_dead_shard_under_load() {
        // Poison immediately, then push the whole trace: every send path
        // (pending fill, batch flush, finish flush) must tolerate the
        // closed channel.
        let labeled = long_trace();
        let mut engine = ShardedSplitDetect::new(sigs(), SplitDetectConfig::default(), 2).unwrap();
        engine.poison_shard(0);
        engine.poison_shard(1);
        // Give the workers a moment to die so sends actually fail.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut out = Vec::new();
        for (tick, p) in labeled.trace.iter_bytes().enumerate() {
            engine.process_packet(p, tick as u64, &mut out);
        }
        engine.finish(&mut out);
        assert_eq!(engine.failures().len(), 2);
        let total = ShardDispatchStats::aggregate(&engine.dispatch_stats());
        assert!(
            total.packets_dropped > 0,
            "drops are counted, not lost silently"
        );
        assert_eq!(engine.stats().len(), 0, "no survivors");
    }

    #[test]
    fn shards_share_one_compile_across_a_reload() {
        let mut engine = ShardedSplitDetect::new(sigs(), SplitDetectConfig::default(), 4).unwrap();
        let fresh =
            SignatureSet::from_signatures([Signature::new("fresh", &b"FRESH_RULE_BYTES"[..])]);
        let rules = CompiledRules::compile(&fresh, &engine.config()).unwrap();
        engine.install(rules.clone());
        engine.finish(&mut Vec::new());
        let finished = engine.finished.as_ref().unwrap();
        let shards: Vec<&SplitDetect> = finished.engines.iter().flatten().collect();
        assert_eq!(shards.len(), 4);
        for shard in shards {
            assert!(std::ptr::eq(shard.plan(), Arc::as_ptr(&rules.plan)));
        }
        // One plan and one scanner: held here and by each of the four
        // shards.
        assert_eq!(Arc::strong_count(&rules.plan), 5);
        assert_eq!(Arc::strong_count(&rules.scanner), 5);
    }
}
