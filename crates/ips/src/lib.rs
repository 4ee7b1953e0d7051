//! # sd-ips — the `Ips` trait and the baseline engines
//!
//! Split-Detect is an argument about *relative* cost, so the comparison
//! points must be real implementations, not numbers copied from a paper:
//!
//! * [`signature`] — exact-string signatures with ids and names, plus a
//!   seeded generator for signature-count sweeps,
//! * [`alert`] — the alert model every engine emits,
//! * [`api`] — the [`Ips`] trait: packet in, alerts out, resources
//!   accounted, identical for all engines so experiments swap them freely,
//! * [`conventional`] — the classic IPS the paper wants to displace: full
//!   normalization, IPv4 defragmentation, per-connection TCP reassembly,
//!   streaming multi-pattern match over the reconstructed byte stream
//!   with the same tiered automaton the fast path runs,
//! * [`stream`] — full-signature matching over reassembled slices: a
//!   tail of `longest signature − 1` bytes per direction is the whole
//!   stream state,
//! * [`naive`] — the per-packet strawman (no reassembly at all) that
//!   Ptacek–Newsham evasions defeat; it anchors the detection matrix E1,
//! * [`rules`] — a Snort-subset rule parser, the adoption path from an
//!   existing content-rule corpus to a [`SignatureSet`].
//!
//! `splitdetect` (the contribution) implements the same [`Ips`] trait in its
//! own crate and reuses [`conventional`] as its slow path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod api;
pub mod conventional;
pub mod naive;
pub mod rules;
pub mod signature;
pub mod stream;

pub use alert::{Alert, AlertSource};
pub use api::{Ips, ResourceUsage};
pub use conventional::ConventionalIps;
pub use naive::NaivePacketIps;
pub use rules::{parse_rules, Rule, RuleSet};
pub use signature::{Signature, SignatureId, SignatureSet};
