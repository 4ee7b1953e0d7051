//! # sd-flow — flow identification and compact per-flow state
//!
//! Split-Detect's entire scalability argument is that fast-path per-flow
//! state is *tiny* (a handful of bytes) and lives in a fixed-size table,
//! while only diverted flows get expensive reassembly state. This crate
//! provides the substrate for both sides of that comparison:
//!
//! * [`key`] — canonical 5-tuple flow keys with direction handling,
//! * [`hash`] — a seeded one-multiply flow-key hash, the `BuildHasher`
//!   that gives std maps the same hash, and a process-random seed source;
//!   production keys every table and map with a random seed (collision
//!   floods cannot be precomputed), experiments pin one for
//!   reproducibility,
//! * [`table`] — a fixed-capacity open-addressing flow table with CLOCK
//!   (second-chance) eviction, allocation-free probing over 16-byte
//!   control groups, and byte-accurate memory accounting,
//! * `prefetch` (crate-private) — the cache-line prefetch behind
//!   [`FlowTable::probe`]; the crate's only `unsafe`, a no-op off x86-64,
//! * [`bloom`] — a counting Bloom filter, the alternative fast-path
//!   suspicion-counter backend evaluated in the ablations.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod bloom;
pub mod hash;
pub mod key;
#[allow(unsafe_code)]
mod prefetch;
pub mod table;

pub use bloom::CountingBloom;
pub use hash::{random_seed, SeededState};
pub use key::{Direction, FlowKey};
pub use table::FlowTable;
