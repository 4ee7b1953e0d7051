//! # sd-oracle — the differential fuzzing oracle
//!
//! The paper's core claim is a theorem: under admissible parameters,
//! Split-Detect catches every byte-string evasion a full-reassembly IPS
//! would catch. The hand-written gauntlet exercises 13 known strategies;
//! this crate machine-checks the theorem against *compositions* nobody
//! enumerated:
//!
//! * [`program`] — seeded adversarial trace programs: a mutation grammar
//!   (segment splits at random and signature-straddling offsets, IP
//!   fragmentation, reordering, duplication, overlapping retransmits with
//!   consistent and inconsistent bytes, TTL/checksum chaff, decoy flows,
//!   collision floods, heavy-tail churn) with each mutation kind described
//!   once, plus the replayable `.trace` text format. Programs compile to a
//!   schedule of [`sd_traffic::evasion::Segment`]s emitted by
//!   [`sd_traffic::evasion::Conversation`], the same emitter the evasion
//!   catalog uses; this crate crafts no packets of its own;
//! * [`exec`] — the differential executor: victim-model ground truth,
//!   `SplitDetect`, `ShardedSplitDetect` (1/2/4 shards) and
//!   `ConventionalIps` run over each trace with the theorem invariants
//!   asserted (detection modulo documented divert accounting, sharded /
//!   unsharded verdict equality, no panics, no decoy alerts);
//! * [`mod@shrink`] — greedy delta debugging: failing programs are minimized
//!   to small reproducers and pinned as regression tests.
//!
//! The CLI front end is `sd fuzz`; CI runs a bounded smoke campaign.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod program;
pub mod shrink;

pub use exec::{
    campaign_signatures, run_campaign, run_compiled, run_compiled_with, run_program,
    run_program_with, CampaignConfig, CampaignResult, CampaignStats, EngineTweaks, FailureCase,
    TraceOutcome, Violation, CAMPAIGN_CORPUS_RULES,
};
pub use program::{
    collision_flood_packets, CompiledTrace, Mutation, TraceProgram, ORACLE_FLOW_HASH_SEED,
    ORACLE_SIGNATURE,
};
pub use shrink::shrink;
