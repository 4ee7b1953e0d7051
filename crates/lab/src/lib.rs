//! # sd-lab — the JSON value of `sd-e2e`
//!
//! The repo has one measurement system: the `sd-e2e` benchmark
//! (`benchmark/`), wire bytes in, verdicts out, through the real `serve()`
//! loop. It writes its result line, and reads `BENCHMARK.json`, through
//! the dependency-free JSON value in [`json`]: the workspace is
//! offline-only, so there is no serde.

pub mod json;
