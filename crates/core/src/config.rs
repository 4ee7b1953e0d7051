//! Split-Detect parameters and admissibility (assumption A3).
//!
//! The detection theorem holds only inside a parameter region; shipping a
//! config outside it silently voids the guarantee, so construction-time
//! validation is loud and precise. Experiment E10 deliberately violates
//! each constraint to show which evasion each one blocks.

use std::fmt;

use sd_ips::SignatureSet;
use sd_reassembly::{OverlapPolicy, UrgentSemantics};

use crate::divert::{EvictionPolicy, DEFAULT_MAX_DIVERTED};
use crate::fastpath::SmallCounterBackend;

/// Why a configuration is inadmissible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `pieces_per_signature` must be at least 3 (with k = 2 a single
    /// boundary cuts both pieces and no anomaly budget remains).
    TooFewPieces(usize),
    /// The small-segment budget `T` must be ≤ k − 2 for the pigeonhole
    /// argument to fire before the signature completes.
    BudgetTooLarge {
        /// Configured budget T.
        t: usize,
        /// Maximum admissible budget (k − 2).
        max: usize,
    },
    /// The small-segment cutoff must be at least `2·max_piece − 1`: a
    /// segment carrying that many consecutive signature bytes necessarily
    /// contains a whole piece, so any segment that dodges the piece scan
    /// while sitting inside the signature is shorter — and must register as
    /// "small". With a lower cutoff an attacker sends piece-length segments
    /// whose boundaries cut every piece yet never look small.
    CutoffBelowPieceLen {
        /// Configured cutoff.
        cutoff: usize,
        /// Minimum admissible cutoff (2·max_piece − 1).
        required: usize,
    },
    /// A signature is too short to be split into k pieces of at least
    /// `MIN_PIECE_LEN` bytes.
    SignatureTooShort {
        /// The offending signature (index in the set).
        signature: usize,
        /// Its length.
        len: usize,
        /// Required minimum (k × MIN_PIECE_LEN).
        required: usize,
    },
    /// The signature set is empty.
    NoSignatures,
    /// The sharded dispatcher's batch size must be at least one packet.
    ZeroBatchSize,
    /// The slow-path worker lanes must hold at least one packet.
    ZeroLaneDepth,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TooFewPieces(k) => {
                write!(f, "pieces_per_signature = {k}, need ≥ 3")
            }
            ConfigError::BudgetTooLarge { t, max } => {
                write!(f, "small-segment budget T = {t} exceeds k - 2 = {max}")
            }
            ConfigError::CutoffBelowPieceLen { cutoff, required } => {
                write!(
                    f,
                    "small-segment cutoff {cutoff} below admissible minimum {required} (= 2*max_piece - 1)"
                )
            }
            ConfigError::SignatureTooShort {
                signature,
                len,
                required,
            } => write!(
                f,
                "signature #{signature} has {len} bytes, need ≥ {required} for the configured split"
            ),
            ConfigError::NoSignatures => f.write_str("signature set is empty"),
            ConfigError::ZeroBatchSize => {
                f.write_str("shard_batch_packets = 0, need ≥ 1 packet per dispatch batch")
            }
            ConfigError::ZeroLaneDepth => {
                f.write_str("slow_path_lane_depth = 0, need ≥ 1 packet per worker lane")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Minimum piece length: pieces shorter than this false-match constantly
/// and the theorem's probabilistic side collapses (E5 quantifies).
pub const MIN_PIECE_LEN: usize = 4;

/// Full Split-Detect configuration.
#[derive(Debug, Clone, Copy)]
pub struct SplitDetectConfig {
    /// Pieces per signature, k (A3 requires ≥ 3).
    pub pieces_per_signature: usize,
    /// Data segments with `0 < payload < cutoff` count as "small". `None`
    /// derives the admissible minimum, `2·max_piece − 1`, at compile time
    /// (which also minimizes benign diversion).
    pub small_segment_cutoff: Option<usize>,
    /// How many small segments a flow may send before diversion (T).
    pub small_segment_budget: usize,
    /// Divert on any non-monotonic sequence number (reordering, overlap,
    /// retransmission). Disabling voids the theorem; E10 measures by how
    /// much.
    pub divert_on_out_of_order: bool,
    /// Divert every IP fragment. Same caveat.
    pub divert_on_fragments: bool,
    /// Fast-path flow table capacity (slots).
    pub flow_table_capacity: usize,
    /// Seed for the flow-table and small-counter-Bloom hashes. `None`
    /// (the default) draws a process-random key at engine build — an
    /// adversary can no longer precompute flow keys that collide into one
    /// probe window and evict tracked state. Pin a value for
    /// bit-reproducible runs (experiments, the differential-fuzz oracle);
    /// sharded engines derive a distinct per-shard seed from it.
    pub flow_hash_seed: Option<u64>,
    /// Delay line: how many recent data-bearing packets are held so the
    /// slow path can replay a diverted flow's history (0 = divert-from-now
    /// ablation). Sized to stay cache/SRAM-resident; pure ACKs are not
    /// recorded.
    pub delay_line_packets: usize,
    /// Overlap policy of the slow path's reassembler (match the protected
    /// hosts').
    pub slow_path_policy: OverlapPolicy,
    /// Slow-path connection cap.
    pub slow_path_max_connections: usize,
    /// Urgent-octet semantics of the protected hosts, applied by the slow
    /// path's reassembler.
    pub slow_path_urgent: UrgentSemantics,
    /// Divert any segment with the URG flag set. Benign URG traffic is
    /// vanishingly rare; the flag's delivery ambiguity is an evasion
    /// vector, so the fast path refuses to reason about it.
    pub divert_on_urgent: bool,
    /// Where small-segment counters live (exact table vs counting Bloom —
    /// the DESIGN §5 memory/diversion ablation, measured by E11).
    pub small_counter: SmallCounterBackend,
    /// Packets the sharded dispatcher accumulates per shard before sending
    /// one batch over the worker channel (the E15 sweep knob). 1 degrades
    /// to per-packet dispatch; larger values amortise channel and pool
    /// traffic at the cost of per-packet latency. Ignored by the
    /// single-instance engine.
    pub shard_batch_packets: usize,
    /// Bound on the sticky diverted set (flows). Diversions beyond it are
    /// handled per [`EvictionPolicy`]; either outcome erodes soundness and
    /// is counted loudly.
    pub max_diverted_flows: usize,
    /// What to do when a new diversion hits `max_diverted_flows`.
    pub divert_eviction: EvictionPolicy,
    /// Telemetry: sample per-stage latencies on one packet in `2^shift`.
    /// `None` disables latency timing entirely (counters and size
    /// histograms still run); the default 1-in-64 keeps the telemetry tax
    /// small (`sd-e2e` reports it as `telemetry.stage_timing_ns`).
    pub stage_timing_sample_shift: Option<u8>,
    /// Slow-path worker threads. `0` (the default) runs the slow path
    /// inline on the hot thread — synchronous alerts, the original
    /// behaviour. `≥ 1` moves diverted-flow reassembly to an asynchronous
    /// [`crate::slowpath::SlowPathPool`]: the fast path never blocks on
    /// it, and alerts return via [`crate::SplitDetect::poll`] /
    /// `finish()`.
    pub slow_path_workers: usize,
    /// Bound of each worker's packet lane (packets). The bound is what
    /// makes overload *visible*: a diverted packet meeting a full lane is
    /// shed — counted, with one overload alert per episode — instead of
    /// queueing without limit (E19 measured shed fraction against lane
    /// depth). Ignored when `slow_path_workers == 0`.
    pub slow_path_lane_depth: usize,
}

impl Default for SplitDetectConfig {
    fn default() -> Self {
        SplitDetectConfig {
            pieces_per_signature: 3,
            small_segment_cutoff: None,
            small_segment_budget: 1,
            divert_on_out_of_order: true,
            divert_on_fragments: true,
            flow_table_capacity: 1 << 16,
            flow_hash_seed: None,
            delay_line_packets: 1024,
            slow_path_policy: OverlapPolicy::First,
            slow_path_max_connections: 1 << 16,
            slow_path_urgent: UrgentSemantics::DiscardOne,
            divert_on_urgent: true,
            small_counter: SmallCounterBackend::Exact,
            shard_batch_packets: 64,
            max_diverted_flows: DEFAULT_MAX_DIVERTED,
            divert_eviction: EvictionPolicy::EvictOldest,
            stage_timing_sample_shift: Some(6),
            slow_path_workers: 0,
            slow_path_lane_depth: 512,
        }
    }
}

impl SplitDetectConfig {
    /// The longest piece a balanced split of `sig_len` produces.
    pub fn max_piece_len(&self, sig_len: usize) -> usize {
        sig_len.div_ceil(self.pieces_per_signature)
    }

    /// The effective small-segment cutoff for a signature set whose longest
    /// piece is `max_piece`: the configured value, or the admissible
    /// minimum `2·max_piece − 1`.
    pub fn effective_cutoff(&self, max_piece: usize) -> usize {
        self.small_segment_cutoff
            .unwrap_or_else(|| 2 * max_piece.max(1) - 1)
    }

    /// Check assumption A3 against a signature set. Returns the effective
    /// cutoff on success.
    pub fn validate(&self, sigs: &SignatureSet) -> Result<usize, ConfigError> {
        if sigs.is_empty() {
            return Err(ConfigError::NoSignatures);
        }
        if self.shard_batch_packets == 0 {
            return Err(ConfigError::ZeroBatchSize);
        }
        if self.slow_path_workers > 0 && self.slow_path_lane_depth == 0 {
            return Err(ConfigError::ZeroLaneDepth);
        }
        let k = self.pieces_per_signature;
        if k < 3 {
            return Err(ConfigError::TooFewPieces(k));
        }
        if self.small_segment_budget > k - 2 {
            return Err(ConfigError::BudgetTooLarge {
                t: self.small_segment_budget,
                max: k - 2,
            });
        }
        let required = k * MIN_PIECE_LEN;
        let mut max_piece = 0;
        for (id, sig) in sigs.iter() {
            let len = sig.bytes.len();
            if len < required {
                return Err(ConfigError::SignatureTooShort {
                    signature: id,
                    len,
                    required,
                });
            }
            max_piece = max_piece.max(self.max_piece_len(len));
        }
        let cutoff = self.effective_cutoff(max_piece);
        let required = 2 * max_piece.max(1) - 1;
        if cutoff < required {
            return Err(ConfigError::CutoffBelowPieceLen { cutoff, required });
        }
        Ok(cutoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_ips::Signature;

    fn sigs() -> SignatureSet {
        SignatureSet::from_signatures([Signature::new("s", vec![b'a'; 24])])
    }

    #[test]
    fn default_config_is_admissible() {
        let cutoff = SplitDetectConfig::default().validate(&sigs()).unwrap();
        assert_eq!(cutoff, 15, "24 bytes / 3 pieces of 8 → cutoff 2*8-1");
    }

    #[test]
    fn rejects_two_pieces() {
        let cfg = SplitDetectConfig {
            pieces_per_signature: 2,
            small_segment_budget: 0,
            ..Default::default()
        };
        assert_eq!(cfg.validate(&sigs()), Err(ConfigError::TooFewPieces(2)));
    }

    #[test]
    fn rejects_budget_above_k_minus_2() {
        let cfg = SplitDetectConfig {
            pieces_per_signature: 3,
            small_segment_budget: 2,
            ..Default::default()
        };
        assert_eq!(
            cfg.validate(&sigs()),
            Err(ConfigError::BudgetTooLarge { t: 2, max: 1 })
        );
    }

    #[test]
    fn rejects_cutoff_below_piece() {
        let cfg = SplitDetectConfig {
            small_segment_cutoff: Some(4),
            ..Default::default()
        };
        assert_eq!(
            cfg.validate(&sigs()),
            Err(ConfigError::CutoffBelowPieceLen {
                cutoff: 4,
                required: 15
            })
        );
    }

    #[test]
    fn rejects_short_signature() {
        let short = SignatureSet::from_signatures([Signature::new("tiny", &b"0123456789"[..])]);
        let err = SplitDetectConfig::default().validate(&short).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::SignatureTooShort { len: 10, .. }
        ));
    }

    #[test]
    fn rejects_zero_batch_size() {
        let cfg = SplitDetectConfig {
            shard_batch_packets: 0,
            ..Default::default()
        };
        assert_eq!(cfg.validate(&sigs()), Err(ConfigError::ZeroBatchSize));
    }

    #[test]
    fn rejects_zero_lane_depth_only_with_workers() {
        let cfg = SplitDetectConfig {
            slow_path_workers: 2,
            slow_path_lane_depth: 0,
            ..Default::default()
        };
        assert_eq!(cfg.validate(&sigs()), Err(ConfigError::ZeroLaneDepth));
        // Inline mode never reads the lane depth, so 0 is fine there.
        let inline = SplitDetectConfig {
            slow_path_workers: 0,
            slow_path_lane_depth: 0,
            ..Default::default()
        };
        assert!(inline.validate(&sigs()).is_ok());
    }

    #[test]
    fn rejects_empty_set() {
        assert_eq!(
            SplitDetectConfig::default().validate(&SignatureSet::new()),
            Err(ConfigError::NoSignatures)
        );
    }

    #[test]
    fn errors_are_printable() {
        for e in [
            ConfigError::TooFewPieces(1),
            ConfigError::BudgetTooLarge { t: 5, max: 1 },
            ConfigError::CutoffBelowPieceLen {
                cutoff: 2,
                required: 15,
            },
            ConfigError::SignatureTooShort {
                signature: 0,
                len: 3,
                required: 12,
            },
            ConfigError::NoSignatures,
            ConfigError::ZeroBatchSize,
            ConfigError::ZeroLaneDepth,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
