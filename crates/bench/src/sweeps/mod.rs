//! Sweep measurement cores shared by the Criterion bench mains and the
//! `sd-lab` experiment runner.
//!
//! Each submodule owns one declared sweep: the workload builders, the
//! median measurement loop and the typed result rows. The bench mains
//! (`benches/fastpath.rs`, `benches/slowpath.rs`, `benches/flowstate.rs`)
//! call these cores to print tables; `sd-lab` calls the same cores to
//! journal every trial with config + git provenance and to regenerate the
//! `BENCH_*.json` baselines. There is exactly one implementation of every
//! measurement, so a bench row and a journaled trial can never disagree
//! about what was measured.
//!
//! Everything is seeded: running a sweep twice measures identical
//! workloads.

pub mod fastpath;
pub mod flowstate;
pub mod shard_batch;
pub mod slowpath;
pub mod tier_ladder;

use std::time::Duration;

/// Median of a sample set (consumed; the sweeps keep their raw samples).
pub fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// MiB/s for `bytes` processed in `d`.
pub fn mib_per_s(bytes: u64, d: Duration) -> f64 {
    bytes as f64 / (1 << 20) as f64 / d.as_secs_f64()
}
