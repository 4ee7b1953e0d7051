//! # sd-traffic — workloads for the Split-Detect experiments
//!
//! The paper evaluates on captured campus/backbone traces we do not have;
//! this crate substitutes a calibrated, seeded synthetic workload plus a
//! faithful implementation of the Ptacek–Newsham / FragRoute attack suite:
//!
//! * [`trace`] — the trace representation: timestamped IPv4 packets with
//!   ground-truth attack-flow labels,
//! * [`payload`] — payload byte models (HTTP-like text, uniform binary),
//!   which drive the piece false-match probability experiments,
//! * [`benign`] — benign traffic generation with the three statistics the
//!   experiments depend on: empirical packet-size mix, heavy-tailed flow
//!   sizes, and configurable concurrency/interleaving,
//! * [`evasion`] — the attack generator: one attack conversation carrying a
//!   signature, transformed by each evasion strategy (tiny segments, tiny
//!   and overlapping fragments, reordering, duplication, inconsistent
//!   retransmission, bad-checksum, low-TTL and urgent chaff), emitted by
//!   the one attack-flow emitter the fuzzing oracle shares,
//! * [`victim`] — the victim model used to *verify* every generated evasion
//!   still delivers its payload to the target stack (an evasion that fails
//!   to attack is not an evasion),
//! * [`heavytail`] — Zipf-sized, high-churn flow populations for the
//!   flow-state-at-occupancy sweeps (E20),
//! * [`mixer`] — interleaves benign and attack flows into labelled traces,
//! * [`stats`] — size-mix / flow-structure / payload-entropy statistics of
//!   any trace, making the generator's calibration claims checkable,
//! * [`rulegen`] — seeded Snort-subset rule-corpus generator (families
//!   with shared content prefixes, text/hex alphabet mixes, realistic
//!   length distributions) for the 1k/10k-rule scale work,
//! * [`replay`] — paced (timestamp-respecting) trace replay, for turning a
//!   capture back into an offered load,
//! * [`pcap`] — classic libpcap file I/O so real captures can be swapped in
//!   for the synthetic workloads,
//! * [`source`] — pluggable live packet sources for the `sd serve` daemon
//!   (in-process loopback; AF_PACKET mmap ring behind the `afpacket`
//!   feature).

// The afpacket capture backend is the single sanctioned unsafe island in
// the workspace (raw sockets + a kernel-shared mmap ring have no safe std
// equivalent); everything else stays forbidden.
#![cfg_attr(not(feature = "afpacket"), forbid(unsafe_code))]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

#[cfg(all(feature = "afpacket", target_os = "linux"))]
pub mod afpacket;
pub mod benign;
pub mod evasion;
pub mod heavytail;
pub mod mixer;
pub mod payload;
pub mod pcap;
pub mod replay;
pub mod rulegen;
pub mod source;
pub mod stats;
pub mod trace;
pub mod victim;

pub use benign::{BenignConfig, BenignGenerator};
pub use evasion::{AttackSpec, EvasionStrategy};
pub use heavytail::{HeavyTailConfig, HeavyTailGenerator, ZipfSizes};
pub use mixer::LabeledTrace;
pub use payload::PayloadModel;
pub use rulegen::{generate_rule_corpus, RuleCorpusConfig};
pub use source::{loopback, LoopbackHandle, LoopbackSource, PacketSource, SourceEvent};
pub use trace::{Trace, TracePacket};
pub use victim::VictimConfig;
