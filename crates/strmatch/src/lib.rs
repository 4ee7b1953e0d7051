//! # sd-match — exact multi-pattern string matching
//!
//! The Split-Detect fast path scans every packet payload against the set of
//! *pieces* of all signatures; the slow path and the conventional IPS scan
//! reassembled streams against the full signatures. Both reduce to
//! multi-pattern exact matching, implemented here from scratch:
//!
//! * [`aho`] — Aho–Corasick automaton (goto/fail/output construction): the
//!   NFA both compiled forms below are built from,
//! * [`tiered`] — the automaton every engine runs, over pieces on the
//!   fast path and over whole signatures on the slow path, the
//!   conventional IPS and the per-packet strawman: dense byte-indexed
//!   rows for the hot shallow states (where benign traffic lives), CSR
//!   edges + failure links for the cold tail, entered only where a hashed
//!   filter over each pattern's leading (up to) 4-byte windows finds a
//!   candidate; the filter tests one position in every `shortest pattern
//!   − 3`, eight per branch where the CPU has AVX2. A small rule set is
//!   entirely hot (the dense DFA behind the filter); a 10k-rule
//!   corpus keeps only its shallow levels dense and stays within ~2× the
//!   `O(pattern bytes)` CSR footprint,
//! * `wide` (crate-private) — that eight-wide AVX2 filter loop, which
//!   returns exactly the scalar loop's candidates; the crate's only
//!   `unsafe`, compiled on x86-64 alone,
//! * [`dfa`] — a dense byte-indexed DFA compiled from the NFA: one table
//!   lookup per byte, 1 KB per state. What the paper's hardware argument is
//!   about, and the dense reference of the equivalence tests; no engine
//!   builds it,
//! * [`naive`] — the obviously-correct quadratic reference every engine is
//!   cross-checked against in unit and property tests.
//!
//! All engines report [`Match`] values identifying the pattern and the
//! *end* offset (one past the last byte), and find **all** occurrences,
//! including overlapping ones.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod aho;
pub mod dfa;
pub mod naive;
pub mod pattern;
pub mod tiered;
#[allow(unsafe_code)]
mod wide;

pub use aho::AhoCorasick;
pub use dfa::AcDfa;
pub use pattern::{FlatLists, Match, PatternId, PatternSet};
pub use tiered::TieredNfa;
