//! The piece automaton: two-tier Aho–Corasick with dense byte-classed
//! rows for the hot shallow states and CSR sorted-edge lists for the cold
//! tail.
//!
//! The dense DFA ([`crate::dfa::AcDfa`]) is one lookup per byte but spends
//! 1 KB per state — ruinous at 10k-rule corpora (hundreds of MB). A pure
//! CSR automaton keeps memory `O(pattern bytes)` but pays a binary search
//! plus a failure-chain walk per byte once it leaves the root, ~0.3× dense
//! on benign bytes. Benign traffic, however, spends nearly all its time in
//! the *shallow* states: the root and the first couple of trie levels
//! absorb almost every byte, and the deep tail of the trie exists only to
//! recognize suspicious continuations. That locality is the whole case for
//! a tiered layout:
//!
//! * **hot tier** — the first `H` states in breadth-first (depth) order,
//!   renumbered to ids `0..H`, stored as fully failure-resolved rows
//!   compressed by byte equivalence classes (computed over the hot rows
//!   only, so the build never pays an `O(states × 256)` full-column scan).
//!   Stepping from a hot state is one class load plus one table load.
//! * **cold tier** — every remaining state, renumbered to `H..n`, kept as
//!   sorted edge arrays plus a failure link. Failure links strictly
//!   decrease trie depth, and the hot tier is a depth-ordered prefix
//!   rooted at depth 0, so every failure chain re-enters the hot tier (at
//!   worst at the root) — cold walks terminate without a dense root row of
//!   their own.
//!
//! The scan loop fronts the root row with the SWAR start-state skip
//! ([`crate::prefilter::StartSkip`]): while the automaton would sit in the
//! start state, bytes outside the root's escape set are dismissed eight
//! per step. Skipped bytes provably keep the automaton at start, and start
//! never reports a match, so the match set is exact.
//!
//! Tier membership is a build-time byte-budget heuristic — spend about as
//! many bytes on the hot tier as the whole CSR arena would occupy, so the
//! total stays within ~2× the all-cold representation. The two endpoints
//! are familiar engines: `H = n` (every small rule set) is a byte-classed
//! DFA behind a prefilter, and `H = 1` is a CSR NFA with a dense root row.
//! [`TieredNfa::with_hot_states`] pins the boundary for tests and the
//! threshold-ladder experiment; it is not a user-settable knob.

use std::collections::HashMap;

use crate::aho::AhoCorasick;
use crate::pattern::{Match, PatternId, PatternSet};
use crate::prefilter::StartSkip;

/// The heuristic never shrinks the hot tier below this many states (when
/// the automaton has them): the root plus its first trie level always fit.
pub const MIN_HOT_STATES: usize = 256;

/// Per-edge CSR cost in bytes (1 label + 4 next) used by the hot-budget
/// estimate.
const CSR_EDGE_BYTES: usize = 5;

/// Per-state CSR overhead in bytes (4 offset + 4 fail) used by the
/// hot-budget estimate.
const CSR_STATE_BYTES: usize = 8;

/// Two-tier Aho–Corasick automaton: byte-classed dense rows for states
/// `0..hot_count`, CSR edges + failure links for the tail.
#[derive(Debug, Clone)]
pub struct TieredNfa {
    /// States `0..hot_count` are hot (dense rows); the root is state 0.
    hot_count: u32,
    /// Byte equivalence classes over the hot rows.
    class_count: u32,
    /// Byte → class, for the hot-tier lookup.
    classes: Box<[u8; 256]>,
    /// Hot transition table, `hot_count × class_count`, fully
    /// failure-resolved (targets may be cold states).
    hot: Vec<u32>,
    /// CSR offsets for cold state `s`: edges
    /// `edge_start[s - hot_count] .. edge_start[s - hot_count + 1]`.
    edge_start: Vec<u32>,
    /// Sorted byte labels of cold-state trie edges.
    edge_bytes: Vec<u8>,
    /// Edge targets parallel to `edge_bytes` (renumbered ids).
    edge_next: Vec<u32>,
    /// Failure link per cold state (renumbered; strictly shallower).
    fail: Vec<u32>,
    /// Pattern ids ending at each state (failure-chain outputs merged),
    /// indexed by renumbered id.
    outputs: Vec<Box<[PatternId]>>,
    /// Per-state "any output?" flag, checked before touching `outputs`.
    has_output: Vec<bool>,
    /// SWAR skip over the root row's escape bytes.
    skip: StartSkip,
    set: PatternSet,
}

impl TieredNfa {
    /// The start state.
    pub const START: u32 = 0;

    /// Compile from patterns with the default hot-tier budget.
    pub fn new(set: PatternSet) -> Self {
        Self::from_nfa(&AhoCorasick::new(set), None)
    }

    /// Compile from patterns with an explicit hot-state count (clamped to
    /// `1..=state_count`): the equivalence tests' and the threshold-ladder
    /// experiment's axis.
    pub fn with_hot_states(set: PatternSet, hot_states: usize) -> Self {
        Self::from_nfa(&AhoCorasick::new(set), Some(hot_states))
    }

    /// Compile from an existing NFA. `hot_states` pins the hot-tier size
    /// (clamped to `1..=state_count`); `None` applies the byte-budget
    /// heuristic.
    pub fn from_nfa(nfa: &AhoCorasick, hot_states: Option<usize>) -> Self {
        let n = nfa.state_count();

        // Breadth-first order: depth ascending, trie insertion order
        // within a depth. The hot tier is a prefix of this order, so it
        // is depth-closed up to its boundary level — every failure link
        // from a cold state lands at a strictly shallower state, which is
        // either hot or an earlier cold state, and the chain bottoms out
        // at the (hot) root.
        let mut order: Vec<u32> = Vec::with_capacity(n);
        order.push(0);
        let mut head = 0usize;
        while head < order.len() {
            let s = order[head];
            head += 1;
            for (_, t) in nfa.transitions(s) {
                order.push(t);
            }
        }
        debug_assert_eq!(order.len(), n, "trie BFS visits every state once");
        let mut new_of: Vec<u32> = vec![0; n];
        for (new, &old) in order.iter().enumerate() {
            new_of[old as usize] = new as u32;
        }

        // Hot-tier sizing. An explicit count wins; otherwise spend about
        // as many bytes on dense hot rows as the full CSR arena would
        // occupy, converging on the actual class count (classes are
        // computed over hot rows only, so the count depends on the
        // boundary — one or two refinement passes settle it).
        let edges = n.saturating_sub(1); // a trie over n states has n-1 edges
        let csr_budget = edges * CSR_EDGE_BYTES + n * CSR_STATE_BYTES;
        let clamp_hot = |h: usize| h.clamp(MIN_HOT_STATES.min(n).max(1), n);
        let mut hot_count = match hot_states {
            Some(h) => h.clamp(1, n),
            None => clamp_hot(csr_budget / 1024), // worst case: 256 classes
        };
        let (mut classes, mut class_count, mut hot) =
            build_hot_rows(nfa, &order, &new_of, hot_count);
        if hot_states.is_none() {
            for _ in 0..2 {
                let want = clamp_hot(csr_budget / (4 * class_count.max(1)));
                if want == hot_count {
                    break;
                }
                hot_count = want;
                (classes, class_count, hot) = build_hot_rows(nfa, &order, &new_of, hot_count);
            }
        }

        // Cold tail: raw trie edges + failure links, targets renumbered.
        let mut edge_start = Vec::with_capacity(n - hot_count + 1);
        let mut edge_bytes = Vec::new();
        let mut edge_next = Vec::new();
        let mut fail = Vec::with_capacity(n - hot_count);
        for &old in &order[hot_count..] {
            edge_start.push(edge_bytes.len() as u32);
            for (b, t) in nfa.transitions(old) {
                edge_bytes.push(b);
                edge_next.push(new_of[t as usize]);
            }
            fail.push(new_of[nfa.fail(old) as usize]);
        }
        edge_start.push(edge_bytes.len() as u32);

        let mut outputs = Vec::with_capacity(n);
        let mut has_output = Vec::with_capacity(n);
        for &old in &order {
            let out = nfa.outputs(old).to_vec().into_boxed_slice();
            has_output.push(!out.is_empty());
            outputs.push(out);
        }

        let skip = StartSkip::from_escape_bytes((0u8..=255).filter(|&b| nfa.step(0, b) != 0));

        TieredNfa {
            hot_count: hot_count as u32,
            class_count: class_count as u32,
            classes,
            hot,
            edge_start,
            edge_bytes,
            edge_next,
            fail,
            outputs,
            has_output,
            skip,
            set: nfa.patterns().clone(),
        }
    }

    /// The pattern set this automaton recognizes.
    pub fn patterns(&self) -> &PatternSet {
        &self.set
    }

    /// Number of states (hot + cold; equals the NFA's).
    pub fn state_count(&self) -> usize {
        self.has_output.len()
    }

    /// States laid out as dense hot rows.
    pub fn hot_state_count(&self) -> usize {
        self.hot_count as usize
    }

    /// States kept in the CSR cold tail.
    pub fn cold_state_count(&self) -> usize {
        self.state_count() - self.hot_state_count()
    }

    /// Byte equivalence classes over the hot rows.
    pub fn class_count(&self) -> usize {
        self.class_count as usize
    }

    /// Distinct bytes that leave the start state (the prefilter's escape
    /// set).
    pub fn escape_count(&self) -> usize {
        self.skip.escape_count()
    }

    /// Hot-tier bytes: the class map plus the dense rows.
    pub fn hot_tier_bytes(&self) -> usize {
        256 + self.hot.len() * 4
    }

    /// Cold-tier bytes: the CSR arrays and failure links.
    pub fn cold_tier_bytes(&self) -> usize {
        self.edge_bytes.len()
            + self.edge_next.len() * 4
            + self.edge_start.len() * 4
            + self.fail.len() * 4
    }

    /// One input byte from `state`. Hot states are one class load plus
    /// one table load; cold states binary-search their edges and follow
    /// failure links, which strictly decrease depth and therefore re-enter
    /// the hot tier.
    #[inline]
    pub fn next_state(&self, mut state: u32, byte: u8) -> u32 {
        loop {
            if state < self.hot_count {
                return self.hot[state as usize * self.class_count as usize
                    + self.classes[byte as usize] as usize];
            }
            let c = (state - self.hot_count) as usize;
            let lo = self.edge_start[c] as usize;
            let hi = self.edge_start[c + 1] as usize;
            if let Ok(k) = self.edge_bytes[lo..hi].binary_search(&byte) {
                return self.edge_next[lo + k];
            }
            state = self.fail[c];
        }
    }

    /// True if `state` reports at least one pattern.
    #[inline(always)]
    pub fn is_match_state(&self, state: u32) -> bool {
        self.has_output[state as usize]
    }

    /// Pattern ids ending at `state`.
    #[inline]
    pub fn outputs(&self, state: u32) -> &[PatternId] {
        &self.outputs[state as usize]
    }

    /// Pattern id of the first match, early-exiting — the fast path's
    /// per-packet scan. Skips benign bytes eight per step while the
    /// automaton would sit at start.
    #[inline]
    pub fn find_first_id(&self, hay: &[u8]) -> Option<PatternId> {
        let mut i = 0;
        while let Some(c) = self.skip.find_candidate(hay, i) {
            let mut state = Self::START;
            let mut j = c;
            while j < hay.len() {
                state = self.next_state(state, hay[j]);
                j += 1;
                if self.is_match_state(state) {
                    return Some(self.outputs(state)[0]);
                }
                if state == Self::START {
                    break;
                }
            }
            if j >= hay.len() {
                return None;
            }
            i = j;
        }
        None
    }

    /// Find all matches in `hay` (including overlapping), end offsets
    /// relative to `hay`.
    pub fn find_all(&self, hay: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        let mut i = 0;
        while let Some(c) = self.skip.find_candidate(hay, i) {
            let mut state = Self::START;
            let mut j = c;
            while j < hay.len() {
                state = self.next_state(state, hay[j]);
                j += 1;
                if self.is_match_state(state) {
                    for &p in self.outputs(state) {
                        out.push(Match::new(p, j));
                    }
                }
                if state == Self::START {
                    break;
                }
            }
            if j >= hay.len() {
                break;
            }
            i = j;
        }
        out
    }

    /// True if any pattern occurs in `hay`.
    #[inline]
    pub fn is_match(&self, hay: &[u8]) -> bool {
        self.find_first_id(hay).is_some()
    }

    /// Heap footprint in bytes: both tiers, outputs, the skip bitmap and
    /// the pattern bytes.
    pub fn memory_bytes(&self) -> usize {
        let mut total = self.hot_tier_bytes() + self.cold_tier_bytes();
        total += self.has_output.len();
        for o in &self.outputs {
            total += o.len() * std::mem::size_of::<PatternId>() + std::mem::size_of::<usize>();
        }
        total += self.skip.memory_bytes();
        total += self.set.total_bytes();
        total
    }
}

/// Byte classes and dense rows over the first `hot_count` states of
/// `order`. Classes merge bytes whose *hot* columns agree — `hot_count ×
/// 256` resolved steps, never the full-state-count column scan.
fn build_hot_rows(
    nfa: &AhoCorasick,
    order: &[u32],
    new_of: &[u32],
    hot_count: usize,
) -> (Box<[u8; 256]>, usize, Vec<u32>) {
    let mut columns: Vec<Vec<u32>> = Vec::new();
    let mut class_of: HashMap<Vec<u32>, u8> = HashMap::new();
    let mut classes = Box::new([0u8; 256]);
    for b in 0..=255u8 {
        let col: Vec<u32> = order[..hot_count]
            .iter()
            .map(|&old| new_of[nfa.step(old, b) as usize])
            .collect();
        let next = columns.len() as u8;
        let class = *class_of.entry(col.clone()).or_insert_with(|| {
            columns.push(col);
            next
        });
        classes[b as usize] = class;
    }
    let class_count = columns.len();
    let mut hot = vec![0u32; hot_count * class_count];
    for (c, col) in columns.iter().enumerate() {
        for (s, &target) in col.iter().enumerate() {
            hot[s * class_count + c] = target;
        }
    }
    (classes, class_count, hot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::AcDfa;
    use crate::naive;

    fn check(patterns: &[&[u8]], hay: &[u8]) {
        let set = PatternSet::from_patterns(patterns);
        let dense = AcDfa::new(set.clone());
        for hot in [None, Some(1), Some(2), Some(usize::MAX)] {
            let tiered = TieredNfa::from_nfa(&AhoCorasick::new(set.clone()), hot);
            let mut want = naive::find_all(&set, hay);
            want.sort();
            let mut got = tiered.find_all(hay);
            got.sort();
            assert_eq!(got, want, "tiered(hot={hot:?}) vs naive on {hay:?}");
            assert_eq!(
                tiered.find_first_id(hay),
                dense.find_first_id(hay),
                "hot={hot:?}"
            );
            assert_eq!(tiered.is_match(hay), dense.is_match(hay));
        }
    }

    #[test]
    fn classics_agree_with_dense_and_naive() {
        check(&[b"he", b"she", b"his", b"hers"], b"ushers use hershey");
        check(&[b"aa", b"aaa", b"aaaa"], b"aaaaaa");
        check(
            &[b"GET ", b"POST", b"HEAD"],
            b"GET / HTTP/1.1\r\nHost: POSTofficePOST",
        );
        check(&[b"needle"], b"");
        check(&[b"needle"], b"hay");
        check(&[b"needle"], b"needle");
    }

    #[test]
    fn overlapping_and_shared_prefixes() {
        check(&[b"abcde", b"abcxy", b"bcx"], b"zabcxyabcdez");
        check(&[b"abab", b"baba"], b"ababababab");
        check(&[b"aaaa", b"aaab"], b"aaaaaab");
        check(&[b"she", b"he"], b"..ushers..");
        // Both match; "abcd" ends first.
        check(&[b"bcde", b"abcd"], b"zabcdez");
        check(&[b"ab", b"abcdef"], b"abcdef");
    }

    #[test]
    fn matches_straddling_skip_chunks() {
        // Pattern starts at offset 6 and crosses the first 8-byte chunk.
        check(&[b"needle"], b"......needle...");
        // Payload ends mid-chunk, match in the tail.
        check(&[b"ab"], b"0123456789ab");
        // Candidate in the last lane of a chunk.
        check(&[b"xy"], b"0123456xy");
        // The walk from the first candidate falls back to start, and the
        // real match begins inside the region it already covered.
        check(&[b"abcd", b"cdxy"], b"abcxabcdxy");
    }

    #[test]
    fn all_256_byte_values() {
        let p: Vec<u8> = vec![0, 127, 255, 1];
        let set = PatternSet::from_patterns([p.clone()]);
        let mut hay: Vec<u8> = (0u8..=255).collect();
        hay.extend_from_slice(&p);
        for hot in [None, Some(1), Some(3)] {
            let tiered = TieredNfa::from_nfa(&AhoCorasick::new(set.clone()), hot);
            assert!(tiered.find_all(&hay).iter().any(|m| m.end == hay.len()));
        }
    }

    #[test]
    fn tier_boundary_sweep_stays_exact() {
        // Every possible hot/cold boundary of a small automaton must
        // recognize the identical match set — the fail chains of cold
        // states cross the boundary at every sweep position.
        let set =
            PatternSet::from_patterns([b"EVIL_SI".as_slice(), b"GNATURE", b"S_BYTES", b"EVIL_XY"]);
        let nfa = AhoCorasick::new(set.clone());
        let dense = AcDfa::new(set.clone());
        let payload = b"EVIL_SIGNATURE_BYTES..EVIL_XY";
        for hot in 1..=nfa.state_count() {
            let tiered = TieredNfa::from_nfa(&nfa, Some(hot));
            assert_eq!(tiered.hot_state_count(), hot);
            assert_eq!(tiered.state_count(), dense.state_count());
            for start in 0..payload.len() {
                for end in start..=payload.len() {
                    let hay = &payload[start..end];
                    assert_eq!(
                        tiered.find_first_id(hay),
                        dense.find_first_id(hay),
                        "hot {hot} on {start}..{end}"
                    );
                }
            }
            let mut a = tiered.find_all(payload);
            let mut d = dense.find_all(payload);
            a.sort();
            d.sort();
            assert_eq!(a, d, "hot {hot}");
        }
    }

    #[test]
    fn extreme_tiers_degenerate_sanely() {
        let set = PatternSet::from_patterns([b"abcdef".as_slice(), b"abzzzz", b"qrstuv"]);
        let nfa = AhoCorasick::new(set.clone());
        let n = nfa.state_count();
        // Only the root hot: everything else is CSR.
        let cold_heavy = TieredNfa::from_nfa(&nfa, Some(1));
        assert_eq!(cold_heavy.hot_state_count(), 1);
        assert_eq!(cold_heavy.cold_state_count(), n - 1);
        // Everything hot: the cold arena is empty.
        let hot_heavy = TieredNfa::from_nfa(&nfa, Some(usize::MAX));
        assert_eq!(hot_heavy.hot_state_count(), n);
        assert_eq!(hot_heavy.cold_tier_bytes(), 4, "just the CSR sentinel");
        for hay in [&b"..abcdef.."[..], b"abzzzz", b"xqrstuvx", b"nothing"] {
            assert_eq!(cold_heavy.find_first_id(hay), hot_heavy.find_first_id(hay));
        }
    }

    #[test]
    fn default_budget_keeps_small_sets_fully_hot() {
        // A demo-scale corpus fits entirely in the hot tier: a
        // byte-classed DFA behind the prefilter.
        let set = PatternSet::from_patterns([b"ABCDEFGH".as_slice(), b"IJKLMNOP", b"QRSTUVWX"]);
        let tiered = TieredNfa::new(set);
        assert_eq!(tiered.cold_state_count(), 0);
        assert!(tiered.class_count() <= 25, "24 letters + rest");
        assert_eq!(tiered.escape_count(), 3, "A, I, Q");
    }

    #[test]
    fn large_corpus_splits_tiers_and_stays_small() {
        let pats: Vec<Vec<u8>> = (0..500)
            .map(|i| format!("pattern-{i:04}-with-some-tail").into_bytes())
            .collect();
        let set = PatternSet::from_patterns(&pats);
        let dense = AcDfa::new(set.clone());
        let tiered = TieredNfa::new(set.clone());
        assert_eq!(tiered.state_count(), dense.state_count());
        assert!(tiered.hot_state_count() >= MIN_HOT_STATES);
        assert!(
            tiered.cold_state_count() > 0,
            "tail must exist at 500 rules"
        );
        assert!(
            tiered.memory_bytes() * 5 <= dense.memory_bytes(),
            "tiered {} vs dense {}",
            tiered.memory_bytes(),
            dense.memory_bytes()
        );
        // Cross-check a straddling haystack against dense.
        let mut hay = vec![b'.'; 300];
        hay.extend_from_slice(b"pattern-0371-with-some-tail");
        hay.extend(vec![b'.'; 300]);
        let mut a = tiered.find_all(&hay);
        let mut d = dense.find_all(&hay);
        a.sort();
        d.sort();
        assert_eq!(a, d);
    }

    #[test]
    fn tier_bytes_account_the_layout() {
        let set = PatternSet::from_patterns([b"abcdefgh".as_slice(), b"ijklmnop"]);
        let nfa = AhoCorasick::new(set);
        let tiered = TieredNfa::from_nfa(&nfa, Some(4));
        assert_eq!(tiered.hot_tier_bytes(), 256 + 4 * tiered.class_count() * 4);
        assert!(tiered.cold_tier_bytes() > 0);
        assert!(tiered.memory_bytes() > tiered.hot_tier_bytes() + tiered.cold_tier_bytes());
    }

    #[test]
    fn prefilter_skips_but_never_misses() {
        // A long benign run, then a match that starts mid-chunk.
        let set = PatternSet::from_patterns([b"needle".as_slice()]);
        let tiered = TieredNfa::new(set);
        let mut hay = vec![b'.'; 67];
        hay.extend_from_slice(b"needle");
        hay.extend(vec![b'.'; 5]);
        assert_eq!(tiered.find_first_id(&hay), Some(0));
        assert_eq!(tiered.find_all(&hay)[0].end, 73);
        // 'n' bytes that enter and fall back must not desync the resume.
        let mut hay = vec![b'n'; 50];
        hay.extend_from_slice(b"needle");
        assert!(tiered.is_match(&hay));
    }
}
