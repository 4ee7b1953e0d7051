//! # splitdetect — detecting evasion attacks at high speeds without reassembly
//!
//! Reproduction of the SIGCOMM 2006 paper's primary contribution
//! (G. Varghese, J. A. Fingerhut, F. Bonomi). The idea in one breath: split
//! every exact-string signature into `k` pieces and scan each packet
//! *independently* for pieces. An attacker delivering the signature must
//! either leave one piece whole inside some in-order packet — caught by the
//! piece automaton — or chop every piece with a segment boundary, which
//! forces small/out-of-order segments — caught by cheap per-flow
//! anomaly rules. Either way the flow is *diverted* to a slow path (a
//! conventional reassembling IPS applied to that flow alone), which is
//! sound. Benign traffic almost never diverts, so the fast path carries the
//! load with 12 bytes of state per flow instead of kilobytes.
//!
//! ## Module map
//!
//! * [`config`] — parameters and the admissibility checks (assumption A3),
//! * [`split`] — signature → piece compilation with provenance, and
//!   [`CompiledRules`], the one compile every engine is built from,
//! * [`fastpath`] — the per-packet engine: piece scan + anomaly rules over
//!   a compact flow table,
//! * [`divert`] — sticky per-flow diversion plus the bounded delay line
//!   that lets the slow path see the packets that *caused* diversion,
//! * [`engine`] — [`SplitDetect`], the full `Ips`-trait engine wiring fast
//!   path, diversion and slow path together,
//! * [`slowpath`] — the asynchronous bounded slow-path worker pool with
//!   load shedding: decouples diverted-flow reassembly from the hot
//!   thread (inline remains the default),
//! * [`shard`] — flow-hash sharding across N engine instances: the
//!   software form of the parallelism the 20 Gbps argument assumes,
//! * `lane` (crate-private) — the worker threads, bounded lanes, buffer
//!   recycling and failure handling both of those pools run on, reporting
//!   dead workers as [`WorkerFailure`]s,
//! * [`theory`] — the detection theorem: machine-checkable statement of the
//!   parameter constraints and the pigeonhole bound behind the proof,
//! * [`stats`] — the measurement surface the experiments read, and
//!   [`report`] — the one table that names those numbers, for the scrape
//!   and the drain report alike.
//!
//! ## The detection theorem (informal)
//!
//! Under assumptions A1–A4 (see `DESIGN.md` §1.3) with `k ≥ 3` pieces,
//! small-segment cutoff `c ≥ ⌈L/k⌉`, and small-segment budget `T ≤ k − 2`:
//! any flow that delivers a signature `S` (|S| = L) contiguously to the
//! victim is either piece-detected or anomaly-diverted before the last byte
//! of `S` passes — so the slow path, which is a sound conventional IPS,
//! raises the alert. [`theory`] states this precisely and the E9 grid
//! exercises it exhaustively.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod divert;
pub mod engine;
pub mod fastpath;
mod lane;
pub mod report;
pub mod shard;
pub mod slowpath;
pub mod split;
pub mod stats;
pub mod theory;

pub use config::SplitDetectConfig;
pub use divert::{DivertStats, EvictionPolicy};
pub use engine::SplitDetect;
pub use lane::{WorkerFailure, WorkerKind};
pub use report::EROSION_FAMILIES;
pub use shard::{ShardDispatchStats, ShardedSplitDetect};
pub use slowpath::SlowPathPool;
pub use split::{CompiledRules, SplitPlan, TierStats};
pub use stats::SplitDetectStats;

// The telemetry types engines hand out; re-exported so downstream crates
// need not depend on `sd-telemetry` directly to read an engine's metrics.
pub use sd_telemetry::{PipelineTelemetry, Registry, Stage};
