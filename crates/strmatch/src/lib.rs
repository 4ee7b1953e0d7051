//! # sd-match — exact multi-pattern string matching
//!
//! The Split-Detect fast path scans every packet payload against the set of
//! *pieces* of all signatures; the slow path and the conventional IPS scan
//! reassembled streams against the full signatures. Both reduce to
//! multi-pattern exact matching, implemented here from scratch:
//!
//! * [`aho`] — Aho–Corasick automaton (goto/fail/output construction): the
//!   NFA both compiled forms below are built from,
//! * [`tiered`] — the automaton both paths run, over pieces on the fast
//!   path and over whole signatures on the slow path: dense byte-classed
//!   rows for the hot shallow states (where benign traffic lives), CSR
//!   edges + failure links for the cold tail, entered only where a hashed
//!   filter over each pattern's leading (up to) 4-byte windows finds a
//!   candidate; the filter tests one position in every `shortest pattern
//!   − 3`. A small rule set is entirely hot (a byte-classed DFA behind the
//!   filter); a 10k-rule corpus keeps only its shallow levels dense and
//!   stays within ~2× the `O(pattern bytes)` CSR footprint,
//! * [`dfa`] — a dense byte-indexed DFA compiled from the NFA: one table
//!   lookup per byte, 1 KB per state. What the paper's hardware argument is
//!   about, the per-packet strawman's engine and the dense reference of
//!   the equivalence tests; no Split-Detect path builds it,
//! * [`naive`] — the obviously-correct quadratic reference every engine is
//!   cross-checked against in unit and property tests.
//!
//! All engines report [`Match`] values identifying the pattern and the
//! *end* offset (one past the last byte), and find **all** occurrences,
//! including overlapping ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aho;
pub mod dfa;
pub mod naive;
pub mod pattern;
pub mod tiered;

pub use aho::AhoCorasick;
pub use dfa::AcDfa;
pub use pattern::{Match, PatternId, PatternSet};
pub use tiered::TieredNfa;
