//! `sd serve` — the long-running capture daemon, and the one loop that
//! feeds packets to Split-Detect.
//!
//! [`serve`] keeps a Split-Detect engine alive against a
//! [`PacketSource`] until a drain or the end of the source. `sd scan`
//! runs it over a capture in memory, with no scrape endpoint; the daemon
//! adds the three things a long run needs:
//!
//! * a **scrape endpoint**: one [`Registry`] of the engine's metrics and
//!   the daemon's own `sd_serve_*` counters, published to a
//!   [`ScrapeServer`] at `GET /metrics` at a cadence the packet loop
//!   controls (a slow or hostile scraper can never stall intake),
//! * **live rule reload** (SIGHUP): the rule file is re-read and both
//!   automata compiled on a spawned thread ([`CompiledRules::compile`]),
//!   then installed at a packet boundary, the same way for the single and
//!   the sharded engine. Flow, diversion and reassembly state all survive
//!   the swap — only the rules change,
//! * **graceful drain** (SIGTERM): intake stops, slow-path lanes flush,
//!   and the daemon prints the final registry with [`to_text`] — the
//!   report `scan` prints, every number in it the one the last scrape
//!   serves — so a drained daemon is auditable like a batch run.
//!
//! All of the logic lives here as a library function driven by a
//! [`ServeControl`]; real signal delivery is a two-line handler in the
//! binary that pokes the same flags the tests poke directly.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sd_ips::{Alert, AlertSource, Ips, ResourceUsage};
use sd_telemetry::{to_prometheus, to_text, Registry, ScrapeServer};
use sd_traffic::{PacketSource, SourceEvent};
use splitdetect::{
    CompiledRules, ShardedSplitDetect, SplitDetect, SplitDetectConfig, SplitDetectStats,
    WorkerFailure, EROSION_FAMILIES,
};

use crate::commands::load_rules;

/// Shared run-state flags connecting signal handlers (or tests) to the
/// serve loop. Cheap to clone; all methods are async-signal-safe (plain
/// atomic stores, no locks, no allocation).
#[derive(Clone, Default)]
pub struct ServeControl {
    inner: Arc<Flags>,
}

#[derive(Default)]
struct Flags {
    reload: AtomicBool,
    drain: AtomicBool,
}

impl ServeControl {
    /// A fresh control with no requests pending.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ask the daemon to re-read its rule file and swap the automaton
    /// (what SIGHUP requests). Coalesces: many requests before the loop
    /// notices collapse into one reload.
    pub fn request_reload(&self) {
        self.inner.reload.store(true, Ordering::SeqCst);
    }

    /// Ask the daemon to stop intake, flush the slow path, and emit the
    /// final report (what SIGTERM requests). Irrevocable.
    pub fn request_drain(&self) {
        self.inner.drain.store(true, Ordering::SeqCst);
    }

    /// True once a drain has been requested.
    pub fn drain_requested(&self) -> bool {
        self.inner.drain.load(Ordering::SeqCst)
    }

    /// Called once per packet: a relaxed load, and the clearing swap
    /// (a locked read-modify-write) only once a reload is pending.
    fn take_reload(&self) -> bool {
        self.inner.reload.load(Ordering::Relaxed) && self.inner.reload.swap(false, Ordering::SeqCst)
    }
}

/// The process-wide control that the binary's signal handlers poke.
/// Initialized on first call — the binary calls this once *before*
/// installing handlers so the handler path is a pure atomic store.
pub fn global_control() -> &'static ServeControl {
    static GLOBAL: OnceLock<ServeControl> = OnceLock::new();
    GLOBAL.get_or_init(ServeControl::new)
}

/// Knobs for one [`serve`] run.
pub struct ServeOptions {
    /// Rule file re-read on every reload request; `None` reloads the
    /// embedded demo rules.
    pub rules_path: Option<String>,
    /// Metrics endpoint; the caller binds it (and so knows the address)
    /// and `serve` owns publishing and shutdown.
    pub scrape: Option<ScrapeServer>,
    /// How long one source poll may block. Bounds control-signal latency
    /// when the wire is quiet.
    pub poll_timeout: Duration,
    /// Publish a fresh scrape snapshot every this many packets (idle
    /// gaps always publish).
    pub publish_every: u64,
    /// Optional wall-clock cap: request a drain once elapsed.
    pub max_duration: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            rules_path: None,
            scrape: None,
            poll_timeout: Duration::from_millis(20),
            publish_every: 1024,
            max_duration: None,
        }
    }
}

/// What a drained daemon hands back, beyond what it wrote to `out`.
pub struct ServeSummary {
    /// Packets accepted from the source.
    pub packets: u64,
    /// Rule reloads applied.
    pub reloads: u64,
    /// Reload requests rejected (unreadable file, parse error,
    /// inadmissible rules). The old rules stay in force.
    pub reload_failures: u64,
    /// Every alert raised over the daemon's lifetime, in delivery order.
    pub alerts: Vec<Alert>,
    /// The final engine statistics (aggregated across shards; `None` when
    /// no shard survived).
    pub stats: Option<SplitDetectStats>,
    /// The engine's final metrics and the daemon's counters, built once at
    /// drain: the report renders this registry and the last scrape
    /// snapshot publishes it.
    pub metrics: Registry,
    /// The final report text, exactly as written to `out`.
    pub report: String,
}

/// The Split-Detect engine a daemon serves and `scan` drives: the
/// single-threaded engine polls slow-path alerts and exposes live
/// metrics mid-run; the sharded engine buffers per-worker alerts and
/// stats until the drain joins its workers (its scrape mid-run carries
/// the daemon counters only).
pub enum ServeEngine {
    /// One [`SplitDetect`] on the serve thread.
    Single(Box<SplitDetect>),
    /// A [`ShardedSplitDetect`] dispatcher.
    Sharded(Box<ShardedSplitDetect>),
}

/// A reload compiling on its own thread.
type Compiling = JoinHandle<Result<CompiledRules, String>>;

impl Ips for ServeEngine {
    fn name(&self) -> &'static str {
        "split-detect"
    }

    fn process_packet(&mut self, packet: &[u8], tick: u64, out: &mut Vec<Alert>) {
        match self {
            ServeEngine::Single(e) => e.process_packet(packet, tick, out),
            ServeEngine::Sharded(e) => e.process_packet(packet, tick, out),
        }
    }

    fn finish(&mut self, out: &mut Vec<Alert>) {
        match self {
            ServeEngine::Single(e) => e.finish(out),
            ServeEngine::Sharded(e) => e.finish(out),
        }
    }

    fn resources(&self) -> ResourceUsage {
        match self {
            ServeEngine::Single(e) => e.resources(),
            ServeEngine::Sharded(e) => e.resources(),
        }
    }
}

impl ServeEngine {
    /// Drain asynchronous slow-path alerts mid-run (single engine only;
    /// sharded workers deliver at finish).
    fn poll(&mut self, out: &mut Vec<Alert>) {
        if let ServeEngine::Single(e) = self {
            e.poll(out);
        }
    }

    /// The engine's metrics, when they are readable right now.
    fn metrics(&self) -> Option<Registry> {
        match self {
            ServeEngine::Single(e) => Some(e.metrics()),
            ServeEngine::Sharded(e) => e.metrics(),
        }
    }

    /// The configuration new rules are compiled under.
    fn config(&self) -> SplitDetectConfig {
        match self {
            ServeEngine::Single(e) => e.config(),
            ServeEngine::Sharded(e) => e.config(),
        }
    }

    fn install(&mut self, rules: CompiledRules) {
        match self {
            ServeEngine::Single(e) => e.install(rules),
            ServeEngine::Sharded(e) => e.install(rules),
        }
    }

    /// Final stats, aggregated across shards. Valid only after
    /// [`Ips::finish`].
    fn stats(&self) -> Option<SplitDetectStats> {
        match self {
            ServeEngine::Single(e) => Some(e.stats()),
            ServeEngine::Sharded(e) => SplitDetectStats::aggregate(&e.stats()),
        }
    }

    /// Workers that failed: the slow-path pool's or the shards'.
    fn failures(&self) -> &[WorkerFailure] {
        match self {
            ServeEngine::Single(e) => e.slow_failures(),
            ServeEngine::Sharded(e) => e.failures(),
        }
    }
}

/// The drain report: the registry's counters and gauges, a warning for
/// each eroded detection guarantee, and one for each failed worker.
fn report(metrics: &Registry, failures: &[WorkerFailure]) -> String {
    let mut text = to_text(metrics, &EROSION_FAMILIES);
    for failure in failures {
        text.push_str(&format!("WARNING: {failure}\n"));
    }
    text
}

/// Run the daemon until a drain is requested or the source closes.
///
/// The loop interleaves packet intake with control work: every idle gap
/// (and every `publish_every` packets) it drains slow-path alerts,
/// refreshes the scrape snapshot, and checks the [`ServeControl`] flags.
/// Reload keeps serving packets under the old rules while a spawned
/// thread reads and compiles the new ones; an in-flight compile still
/// pending at drain time is joined and applied before the final report
/// so the reload counters are deterministic.
pub fn serve(
    mut engine: ServeEngine,
    source: &mut dyn PacketSource,
    control: &ServeControl,
    mut opts: ServeOptions,
    out: &mut dyn Write,
) -> Result<ServeSummary, String> {
    let start = Instant::now();
    let scrape = opts.scrape.take();
    let mut counts = Counts::default();
    let publish = |engine: &ServeEngine, counts: Counts| {
        if let Some(server) = &scrape {
            let mut metrics = engine.metrics().unwrap_or_default();
            counts.register(&mut metrics, start.elapsed(), false);
            server.publish(to_prometheus(&metrics));
        }
    };

    let mut alerts: Vec<Alert> = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut pending: Option<Compiling> = None;
    let mut since_publish = 0u64;

    let _ = writeln!(
        out,
        "serving from {} ({})",
        source.name(),
        match &scrape {
            Some(s) => format!("metrics at http://{}/metrics", s.addr()),
            None => "no scrape endpoint".to_string(),
        }
    );
    publish(&engine, counts);

    'run: loop {
        if let Some(limit) = opts.max_duration {
            if start.elapsed() >= limit {
                control.request_drain();
            }
        }
        if control.drain_requested() {
            break 'run;
        }

        // A reload that finished compiling is installed here — a packet
        // boundary by construction.
        if pending.as_ref().is_some_and(|h| h.is_finished()) {
            let handle = pending.take().expect("checked is_some");
            finish_compile(handle, &mut engine, &mut counts, out);
            publish(&engine, counts);
        }

        if control.take_reload() {
            if pending.is_some() {
                // A rebuild is already in flight; re-arm the flag so the
                // newest file is picked up right after it lands.
                control.request_reload();
            } else {
                let (path, config) = (opts.rules_path.clone(), engine.config());
                pending = Some(std::thread::spawn(move || {
                    let rules = load_rules(path.as_deref(), &mut std::io::sink())?;
                    CompiledRules::compile(&rules.to_signatures(), &config)
                        .map_err(|e| e.to_string())
                }));
                let _ = writeln!(out, "reload: rebuilding automaton off-thread");
            }
        }

        match source.poll(&mut buf, opts.poll_timeout) {
            SourceEvent::Packet { tick } => {
                engine.process_packet(&buf, tick, &mut alerts);
                counts.packets += 1;
                since_publish += 1;
                if since_publish >= opts.publish_every {
                    since_publish = 0;
                    engine.poll(&mut alerts);
                    publish(&engine, counts);
                }
            }
            SourceEvent::Idle => {
                engine.poll(&mut alerts);
                publish(&engine, counts);
            }
            SourceEvent::Closed => {
                let _ = writeln!(out, "source closed; draining");
                break 'run;
            }
        }
    }

    // Drain: intake has stopped. Settle any in-flight rebuild first so
    // reload accounting is deterministic, then flush and report.
    if let Some(handle) = pending.take() {
        finish_compile(handle, &mut engine, &mut counts, out);
    }
    engine.finish(&mut alerts);
    let stats = engine.stats();
    let mut metrics = engine.metrics().unwrap_or_default();
    counts.register(&mut metrics, start.elapsed(), true);
    let report = report(&metrics, engine.failures());

    let Counts {
        packets,
        reloads,
        reload_failures,
    } = counts;
    let overloads = alerts
        .iter()
        .filter(|a| a.source == AlertSource::Overload)
        .count();
    let _ = writeln!(
        out,
        "drained after {:.1}s: {} packets, {} alert(s) ({} overload), {} reload(s), {} rejected",
        start.elapsed().as_secs_f64(),
        packets,
        alerts.len(),
        overloads,
        reloads,
        reload_failures,
    );
    let _ = out.write_all(report.as_bytes());

    // One last snapshot (the sharded engine's metrics only exist now),
    // then take the endpoint down.
    if let Some(mut server) = scrape {
        server.publish(to_prometheus(&metrics));
        server.shutdown();
    }

    Ok(ServeSummary {
        packets,
        reloads,
        reload_failures,
        alerts,
        stats,
        metrics,
        report,
    })
}

/// The serve loop's own counters.
#[derive(Clone, Copy, Default)]
struct Counts {
    packets: u64,
    reloads: u64,
    reload_failures: u64,
}

impl Counts {
    /// Add the daemon's counters to the engine's registry.
    fn register(self, r: &mut Registry, uptime: Duration, draining: bool) {
        r.counter(
            "sd_serve_packets_total",
            "Packets accepted from the capture source",
            self.packets,
        );
        r.counter(
            "sd_serve_reloads_total",
            "Rule reloads applied",
            self.reloads,
        );
        r.counter(
            "sd_serve_reload_failures_total",
            "Rule reloads rejected (old rules kept)",
            self.reload_failures,
        );
        r.gauge(
            "sd_serve_uptime_seconds",
            "Seconds since the daemon started",
            uptime.as_secs(),
        );
        r.gauge(
            "sd_serve_draining",
            "1 once a drain has been requested",
            u64::from(draining),
        );
    }
}

/// Join a finished (or drain-forced) rule compile and install it.
fn finish_compile(
    handle: Compiling,
    engine: &mut ServeEngine,
    counts: &mut Counts,
    out: &mut dyn Write,
) {
    let compiled = handle
        .join()
        .unwrap_or_else(|_| Err("rebuild thread panicked".into()));
    match compiled {
        Ok(rules) => {
            engine.install(rules);
            counts.reloads += 1;
            let _ = writeln!(out, "reload: new automaton installed");
        }
        Err(e) => {
            counts.reload_failures += 1;
            let _ = writeln!(out, "reload rejected ({e}); old rules kept");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitdetect::WorkerKind;

    #[test]
    fn drain_report_warns_on_each_failed_worker() {
        let mut r = Registry::new();
        r.counter("sd_slowpath_shed_total", "Shed", 0);
        let failure = WorkerFailure {
            kind: WorkerKind::Shard,
            worker: 1,
            message: "boom".into(),
        };
        let text = report(&r, &[failure]);
        assert!(
            text.contains("WARNING: shard 1 worker failed: boom"),
            "{text}"
        );
        assert_eq!(text.matches("WARNING").count(), 1, "{text}");
    }
}
