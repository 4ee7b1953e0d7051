//! `sd-telemetry`: allocation-free metrics for the Split-Detect pipeline.
//!
//! The paper's feasibility argument is quantitative — fast-path cost per
//! packet, diverted fraction, slow-path spill — so the reproduction has to
//! be able to measure itself without perturbing what it measures. This
//! crate provides:
//!
//! - [`Histogram`]: a fixed 64-bucket log₂ histogram; recording is an
//!   array index plus an add, no allocation, no atomics.
//! - [`PipelineTelemetry`]: one engine's sampled measurements — the
//!   1-in-`2^shift` sampling tick ([`StageClock`]), per-stage latency
//!   histograms, the packet-size histogram and the asynchronous slow
//!   path's delivery latency. Shard instances merge at `finish()`.
//! - [`Registry`]: a named snapshot of counters, gauges and histograms,
//!   built only at export time from numbers the engine already keeps.
//! - [`export`]: the Prometheus text-format rendering of a registry
//!   snapshot, and the plain-text one a drained run prints.
//! - [`promcheck`]: a dependency-free structural validator for the
//!   Prometheus exposition format, used by tests and CI to pin the
//!   exporter's output.
//! - [`scrape`]: a dependency-free blocking HTTP listener serving the
//!   latest published exposition snapshot at `GET /metrics`, for the
//!   `sd serve` daemon.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod pipeline;
pub mod promcheck;
pub mod registry;
pub mod scrape;

pub use export::{to_prometheus, to_text};
pub use pipeline::{PipelineTelemetry, Stage, StageClock};
pub use registry::{Histogram, MetricMeta, Registry, Series, HISTOGRAM_BUCKETS};
pub use scrape::ScrapeServer;
