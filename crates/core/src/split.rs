//! Signature splitting.
//!
//! Each signature of length `L` is cut into `k` contiguous pieces of
//! near-equal length (every piece is `⌊L/k⌋` or `⌈L/k⌉` bytes) and all
//! pieces of all signatures are compiled into one multi-pattern automaton.
//! The plan keeps *provenance* — which signature and which position each
//! piece came from — so a fast-path hit can say what it suspects, and
//! duplicate piece strings across signatures are stored once with merged
//! provenance (keeping the automaton minimal). A piece is copied once, into
//! the [`PatternSet`]; the origin lists are one [`FlatLists`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use std::{panic, thread};

use sd_ips::stream::StreamScanner;
use sd_ips::{SignatureId, SignatureSet};
use sd_match::pattern::PatternSet;
use sd_match::{FlatLists, Match, PatternId, TieredNfa};

use crate::config::{ConfigError, SplitDetectConfig};

/// Where a piece occurs inside its signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PieceOrigin {
    /// The signature this piece was cut from.
    pub signature: SignatureId,
    /// Piece index within that signature (0-based).
    pub index: usize,
    /// Byte offset of the piece within the signature.
    pub offset: usize,
}

/// Per-tier layout of the piece automaton (the `sd_automaton_*` gauges
/// and `sd analyze-rules` report both tiers separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierStats {
    /// States laid out as dense byte-indexed rows.
    pub hot_states: usize,
    /// States kept in the CSR cold tail.
    pub cold_states: usize,
    /// Hot-tier bytes (dense rows, 1 KB per state).
    pub hot_bytes: usize,
    /// Cold-tier bytes (CSR arrays + failure links).
    pub cold_bytes: usize,
}

/// The compiled split: piece automaton plus provenance.
#[derive(Debug, Clone)]
pub struct SplitPlan {
    automaton: TieredNfa,
    /// origin lists parallel to pattern ids.
    origins: FlatLists<PieceOrigin>,
    pieces_per_signature: usize,
    /// Wall time spent compiling the automaton (the telemetry gauge and
    /// `sd analyze-rules` report it).
    build_time: Duration,
}

/// Total signature bytes from which [`CompiledRules`] builds the
/// whole-signature scanner on a helper thread while the piece plan builds
/// on the calling one. The helper pays only while the second core is
/// free. E35 (2-core host, one build per fresh process, medians): 200
/// random rules (5.5 KB) read 2.7 → 2.0 ms in parallel with that core
/// free and 2.9 → 3.7 ms with it busy, and with no gate `sd-e2e`'s three
/// 200-rule workloads lost `setup_s` in 25 of 30 pairs; at 1k rules
/// (27 KB) the gain (10.5 → 6.7 ms) is more than twice the loss (11.4 →
/// 12.9 ms). The crossover lies between; 16 KiB is about 600 rules.
const PARALLEL_BUILD_MIN_BYTES: usize = 16 * 1024;

/// A signature set compiled once for every engine that runs it: the
/// validated small-segment cutoff, the fast path's piece plan and the
/// slow path's whole-signature scanner. Both automata are immutable and
/// shared: every engine built from it and every engine a live reload
/// installs it on ([`crate::SplitDetect::install`]) holds the same two
/// allocations, so a clone is two reference-count bumps and the last
/// holder frees them. Rules compile on whatever thread calls
/// [`CompiledRules::compile`] (and, for a large set, one helper thread it
/// joins before returning).
#[derive(Debug, Clone)]
pub struct CompiledRules {
    pub(crate) cutoff: usize,
    pub(crate) plan: Arc<SplitPlan>,
    pub(crate) scanner: Arc<StreamScanner>,
}

impl CompiledRules {
    /// Validate `sigs` against `config` (assumption A3) and compile both
    /// automata, for engines running `config`.
    pub fn compile(sigs: &SignatureSet, config: &SplitDetectConfig) -> Result<Self, ConfigError> {
        let cutoff = config.validate(sigs)?;
        Ok(Self::build(sigs, cutoff, config.pieces_per_signature))
    }

    /// Compile without admissibility checks (the unchecked engine build
    /// of the ablation experiments). The cutoff falls back to the longest
    /// piece when unset.
    pub(crate) fn compile_unchecked(sigs: &SignatureSet, config: &SplitDetectConfig) -> Self {
        let max_piece = sigs
            .iter()
            .map(|(_, s)| config.max_piece_len(s.bytes.len()))
            .max()
            .unwrap_or(8);
        let cutoff = config.effective_cutoff(max_piece);
        Self::build(sigs, cutoff, config.pieces_per_signature)
    }

    /// Build the piece plan (`k` pieces per signature) and the scanner,
    /// side by side once the set reaches [`PARALLEL_BUILD_MIN_BYTES`].
    fn build(sigs: &SignatureSet, cutoff: usize, k: usize) -> Self {
        let bytes: usize = sigs.iter().map(|(_, s)| s.bytes.len()).sum();
        let (plan, scanner) = if bytes < PARALLEL_BUILD_MIN_BYTES {
            (
                SplitPlan::compile_unchecked(sigs, k),
                StreamScanner::new(sigs),
            )
        } else {
            thread::scope(|scope| {
                let helper = thread::Builder::new()
                    .name("sd-rules-build".into())
                    .spawn_scoped(scope, || StreamScanner::new(sigs));
                let plan = SplitPlan::compile_unchecked(sigs, k);
                let scanner = match helper {
                    // Cloned onto this thread: engines served packets about
                    // 3 % slower from the helper's own copy, which sits in
                    // that thread's allocator arena (E35).
                    Ok(helper) => helper
                        .join()
                        .unwrap_or_else(|p| panic::resume_unwind(p))
                        .clone(),
                    // No thread to be had: build it here instead.
                    Err(_) => StreamScanner::new(sigs),
                };
                (plan, scanner)
            })
        };
        CompiledRules {
            cutoff,
            plan: Arc::new(plan),
            scanner: Arc::new(scanner),
        }
    }

    /// The piece plan.
    pub fn plan(&self) -> &SplitPlan {
        &self.plan
    }

    /// The whole-signature scanner.
    pub fn scanner(&self) -> &StreamScanner {
        &self.scanner
    }
}

/// Cut `len` into `k` near-equal spans.
pub fn balanced_cuts(len: usize, k: usize) -> Vec<(usize, usize)> {
    assert!(k >= 1 && len >= k, "cannot cut {len} bytes into {k} pieces");
    let base = len / k;
    let extra = len % k; // first `extra` pieces get one more byte
    let mut cuts = Vec::with_capacity(k);
    let mut at = 0;
    for i in 0..k {
        let sz = base + usize::from(i < extra);
        cuts.push((at, at + sz));
        at += sz;
    }
    cuts
}

impl SplitPlan {
    /// Compile a signature set under a configuration. Validates A3.
    pub fn compile(sigs: &SignatureSet, config: &SplitDetectConfig) -> Result<Self, ConfigError> {
        config.validate(sigs)?;
        Ok(Self::compile_unchecked(sigs, config.pieces_per_signature))
    }

    /// Compile without admissibility checks (the unchecked engine build
    /// of the ablation experiments). A signature shorter than `k` bytes is
    /// split into fewer pieces.
    pub(crate) fn compile_unchecked(sigs: &SignatureSet, k: usize) -> Self {
        let mut set = PatternSet::new();
        // Each origin with its piece's id, in signature-then-piece order.
        let mut origins: Vec<(PatternId, PieceOrigin)> = Vec::new();
        let mut index: HashMap<&[u8], PatternId> = HashMap::new();

        for (sig_id, sig) in sigs.iter() {
            let k_here = k.min(sig.bytes.len()).max(1);
            for (i, (s, e)) in balanced_cuts(sig.bytes.len(), k_here)
                .into_iter()
                .enumerate()
            {
                let piece = &sig.bytes[s..e];
                let origin = PieceOrigin {
                    signature: sig_id,
                    index: i,
                    offset: s,
                };
                let id = *index.entry(piece).or_insert_with(|| set.add(piece));
                origins.push((id, origin));
            }
        }

        let origins = FlatLists::grouped(set.len(), origins);
        let started = Instant::now();
        let automaton = TieredNfa::new(set);
        SplitPlan {
            automaton,
            origins,
            pieces_per_signature: k,
            build_time: started.elapsed(),
        }
    }

    /// Hot/cold tier layout.
    pub fn tier_stats(&self) -> TierStats {
        let d = &self.automaton;
        TierStats {
            hot_states: d.hot_state_count(),
            cold_states: d.cold_state_count(),
            hot_bytes: d.hot_tier_bytes(),
            cold_bytes: d.cold_tier_bytes(),
        }
    }

    /// The scan's window filter as `(window, stride, bitmap bytes,
    /// eight-wide AVX2 loop)`, or `None` when it runs unfiltered (a
    /// one-byte piece); see [`TieredNfa::filter_shape`].
    pub fn filter_shape(&self) -> Option<(usize, usize, usize, bool)> {
        self.automaton.filter_shape()
    }

    /// The distinct piece strings, indexed by the [`PatternId`]s
    /// [`SplitPlan::scan`] reports.
    pub fn pieces(&self) -> &PatternSet {
        self.automaton.patterns()
    }

    /// Provenance of a matched piece pattern.
    pub fn origins(&self, id: PatternId) -> &[PieceOrigin] {
        self.origins.get(id as usize)
    }

    /// Number of distinct piece strings.
    pub fn piece_count(&self) -> usize {
        self.origins.len()
    }

    /// Longest piece length (the admissible small-segment cutoff floor).
    pub fn max_piece_len(&self) -> usize {
        self.pieces().max_len().unwrap_or(0)
    }

    /// Pieces per signature (k).
    pub fn pieces_per_signature(&self) -> usize {
        self.pieces_per_signature
    }

    /// Automaton memory (shared across all flows — this is control-plane
    /// memory, reported separately from per-flow state).
    pub fn memory_bytes(&self) -> usize {
        self.automaton.memory_bytes()
    }

    /// Automaton states (trie nodes incl. the root).
    pub fn state_count(&self) -> usize {
        self.automaton.state_count()
    }

    /// Wall time the automaton compilation took.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Does any piece occur in `payload`? The fast path's per-packet scan.
    /// Early-exits at the first match state without materializing a
    /// `Match` — the caller only ever wants the piece id.
    #[inline]
    pub fn scan(&self, payload: &[u8]) -> Option<PatternId> {
        self.automaton.find_first_id(payload)
    }

    /// Every piece occurrence in `payload`, including overlaps — the
    /// profiling scan `sd analyze-rules` uses for per-rule hit attribution.
    /// Not the hot path: allocates one `Match` per occurrence.
    pub fn scan_all(&self, payload: &[u8]) -> Vec<Match> {
        self.automaton.find_all(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_ips::Signature;

    fn set(strings: &[&[u8]]) -> SignatureSet {
        SignatureSet::from_signatures(
            strings
                .iter()
                .enumerate()
                .map(|(i, s)| Signature::new(format!("s{i}"), *s)),
        )
    }

    #[test]
    fn balanced_cuts_cover_exactly() {
        for len in 12..200 {
            for k in 1..=5 {
                if len < k {
                    continue;
                }
                let cuts = balanced_cuts(len, k);
                assert_eq!(cuts.len(), k);
                assert_eq!(cuts[0].0, 0);
                assert_eq!(cuts.last().unwrap().1, len);
                for w in cuts.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                }
                let sizes: Vec<usize> = cuts.iter().map(|(s, e)| e - s).collect();
                let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(mx - mn <= 1, "balanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn pieces_reassemble_to_signature() {
        let sigs = set(&[b"ABCDEFGHIJKLMNOPQRSTUVWX"]);
        let plan = SplitPlan::compile(&sigs, &SplitDetectConfig::default()).unwrap();
        assert_eq!(plan.piece_count(), 3);
        assert_eq!(plan.max_piece_len(), 8);
        // Each piece scans positive against the full signature.
        let sig = b"ABCDEFGHIJKLMNOPQRSTUVWX";
        assert!(plan.scan(sig).is_some());
        assert!(plan.scan(&sig[0..8]).is_some(), "piece 0 alone");
        assert!(plan.scan(&sig[8..16]).is_some(), "piece 1 alone");
        assert!(plan.scan(&sig[16..24]).is_some(), "piece 2 alone");
        assert!(plan.scan(&sig[1..8]).is_none(), "7/8 of a piece is nothing");
    }

    #[test]
    fn provenance_points_back() {
        let sigs = set(&[b"ABCDEFGHIJKLMNOPQRSTUVWX", b"abcdefghijklmnopqrstuvwx"]);
        let plan = SplitPlan::compile(&sigs, &SplitDetectConfig::default()).unwrap();
        let hit = plan.scan(b"...mnop...qrstuvwx").expect("piece 2 of sig 1");
        let origins = plan.origins(hit);
        assert_eq!(origins.len(), 1);
        assert_eq!(origins[0].signature, 1);
    }

    #[test]
    fn duplicate_pieces_merge_provenance() {
        // Two signatures sharing their middle third.
        let sigs = set(&[b"AAAABBBBCCCCSHAREDXXYYZZ", b"DDDDEEEEFFFFSHAREDXXYYZZ"]);
        // k=3 → pieces of 8: [0..8, 8..16, 16..24]. Piece 2 = "EDXXYYZZ"
        // for sig 0 and "EDXXYYZZ" for sig 1 — identical string.
        let plan = SplitPlan::compile(&sigs, &SplitDetectConfig::default()).unwrap();
        assert!(plan.piece_count() < 6, "shared piece must dedup");
        let hit = plan.scan(b"EDXXYYZZ").unwrap();
        assert_eq!(plan.origins(hit).len(), 2, "both signatures claim it");
    }

    #[test]
    fn rejects_inadmissible_config() {
        let sigs = set(&[b"ABCDEFGHIJKLMNOPQRSTUVWX"]);
        let bad = SplitDetectConfig {
            pieces_per_signature: 2,
            small_segment_budget: 0,
            ..Default::default()
        };
        assert!(SplitPlan::compile(&sigs, &bad).is_err());
    }

    #[test]
    fn plan_reports_the_automaton_layout() {
        let sigs = set(&[b"ABCDEFGHIJKLMNOPQRSTUVWX", b"abcdefghijklmnopqrstuvwx"]);
        let plan = SplitPlan::compile_unchecked(&sigs, 3);
        // 6 pieces of 8 distinct bytes + the root.
        assert_eq!(plan.state_count(), 49);
        let tiers = plan.tier_stats();
        assert_eq!(
            tiers.hot_states + tiers.cold_states,
            plan.state_count(),
            "tiers partition the state set"
        );
        assert_eq!(tiers.cold_states, 0, "a demo-scale corpus is all hot");
        assert_eq!(
            tiers.hot_bytes,
            1024 * tiers.hot_states,
            "one 1 KB row a state"
        );
        assert!(tiers.hot_bytes + tiers.cold_bytes <= plan.memory_bytes());
    }

    #[test]
    fn piece_lengths_tracked() {
        let sigs = set(&[&[b'x'; 25][..]]); // 25 / 3 → pieces 9, 8, 8
        let plan = SplitPlan::compile(&sigs, &SplitDetectConfig::default()).unwrap();
        assert_eq!(plan.max_piece_len(), 9);
        assert_eq!(plan.pieces().min_len(), Some(8));
        assert_eq!(plan.pieces_per_signature(), 3);
        assert!(plan.memory_bytes() > 0);
        // The filter follows the shortest piece: 4-byte windows, every
        // fifth position tested.
        let (window, stride, bitmap, _) = plan.filter_shape().expect("8-byte pieces are filtered");
        assert_eq!((window, stride), (4, 5));
        assert!(bitmap > 0 && bitmap < plan.memory_bytes());
    }
}
