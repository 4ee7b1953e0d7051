//! # sd-lab — journal of `sd-e2e` results
//!
//! The repo has one measurement system: the `sd-e2e` benchmark
//! (`benchmark/`), wire bytes in, verdicts out, through the real `serve()`
//! loop. This crate keeps its results: [`record`] pairs each table header
//! of `sd-e2e` output with its JSON result line, and each pair becomes one
//! provenance-stamped row — git commit and dirty flag, rustc version
//! ([`provenance`]) — in an append-only JSONL row store ([`journal`]).
//!
//! The crate is dependency-free beyond the workspace (no serde): the
//! journal format is hand-rolled JSON ([`json`]) because the line layout
//! is part of the contract and owning the writer is the cheapest way to
//! pin it.

pub mod journal;
pub mod json;
pub mod provenance;
pub mod record;
