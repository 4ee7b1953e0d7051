//! Aho–Corasick automaton: classic goto/failure/output construction, in
//! flat arrays.
//!
//! This is the NFA form: transitions are sparse, and a search may follow a
//! chain of failure links per input byte. It is the builder under both
//! compiled forms: the dense DFA ([`crate::dfa::AcDfa`]), where every byte
//! is exactly one table lookup — the property the paper's 20 Gbps hardware
//! argument rests on — and the tiered automaton
//! ([`crate::tiered::TieredNfa`]) that the fast path runs over pieces and
//! the slow path over whole signatures.
//!
//! States are numbered breadth-first, siblings by byte, so a state's
//! parent and failure state both come before it, and the build is one
//! sweep: with the patterns sorted by their bytes, those below a state are
//! one run of the list and its children the run's sub-runs by next byte.
//! Edges and failure links are flat arrays and the outputs one
//! [`FlatLists`]; no state owns an allocation.

use crate::pattern::{FlatLists, Match, PatternId, PatternSet};

/// An Aho–Corasick automaton over a [`PatternSet`], states numbered
/// breadth-first with siblings in byte order (module docs).
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// Trie edges of state `s`: `edge_start[s]..edge_start[s + 1]` of
    /// `edge_bytes` (ascending) and `edge_next`.
    pub(crate) edge_start: Vec<u32>,
    pub(crate) edge_bytes: Vec<u8>,
    pub(crate) edge_next: Vec<u32>,
    /// Failure link per state (the root fails to itself).
    pub(crate) fail: Vec<u32>,
    /// Patterns ending at each state: its own ids in id order, then its
    /// failure state's list (merged during construction so search never
    /// walks the chain to report outputs).
    pub(crate) outputs: FlatLists<PatternId>,
    set: PatternSet,
}

impl AhoCorasick {
    /// Build the automaton. Takes ownership of the set so matches can be
    /// related back to pattern bytes.
    pub fn new(set: PatternSet) -> Self {
        // Ids sorted by their bytes, equal strings in id order: the
        // patterns through a state at depth `d` are one run sharing its
        // `d`-byte label, and those ending there lead the run.
        let mut sorted: Vec<PatternId> = (0..set.len() as PatternId).collect();
        sorted.sort_by_key(|&id| set.pattern(id));
        let mut ac = AhoCorasick {
            edge_start: Vec::new(),
            edge_bytes: Vec::new(),
            edge_next: Vec::new(),
            fail: vec![0],
            outputs: FlatLists::default(),
            set: PatternSet::new(),
        };
        // The root reports nothing.
        ac.outputs.push(&[]);
        // Per state: the run of `sorted` continuing below it and its depth.
        let mut runs = vec![(0, sorted.len(), 0)];
        let mut s = 0;
        while let Some(&(mut lo, hi, depth)) = runs.get(s) {
            ac.edge_start.push(ac.edge_bytes.len() as u32);
            while lo < hi {
                let byte_at = |id: &PatternId| set.pattern(*id)[depth];
                let b = byte_at(&sorted[lo]);
                let end = lo + sorted[lo..hi].partition_point(|id| byte_at(id) == b);
                let ends_here =
                    sorted[lo..end].partition_point(|&id| set.pattern(id).len() == depth + 1);
                // The deepest proper suffix with a `b` edge: every state it
                // reads is numbered below `s`, so its edges are complete.
                // The root's children fail to the root.
                let fail = if s == 0 { 0 } else { ac.step(ac.fail[s], b) };
                ac.edge_bytes.push(b);
                ac.edge_next.push(runs.len() as u32);
                ac.fail.push(fail);
                ac.outputs
                    .push_joined(&sorted[lo..lo + ends_here], fail as usize);
                runs.push((lo + ends_here, end, depth + 1));
                lo = end;
            }
            s += 1;
        }
        ac.edge_start.push(ac.edge_bytes.len() as u32);
        ac.set = set;
        ac
    }

    /// The pattern set this automaton recognizes.
    pub fn patterns(&self) -> &PatternSet {
        &self.set
    }

    /// Number of states (including the root).
    pub fn state_count(&self) -> usize {
        self.fail.len()
    }

    /// The trie edges out of `state`: labels ascending, and their targets.
    fn edges(&self, state: u32) -> (&[u8], &[u32]) {
        let s = state as usize;
        let range = self.edge_start[s] as usize..self.edge_start[s + 1] as usize;
        (&self.edge_bytes[range.clone()], &self.edge_next[range])
    }

    /// Follow one input byte from `state`, taking failure links as needed.
    pub fn step(&self, mut state: u32, byte: u8) -> u32 {
        loop {
            let (bytes, next) = self.edges(state);
            if let Ok(k) = bytes.binary_search(&byte) {
                return next[k];
            }
            if state == 0 {
                return 0;
            }
            state = self.fail[state as usize];
        }
    }

    /// Patterns ending at `state`.
    pub fn outputs(&self, state: u32) -> &[PatternId] {
        self.outputs.get(state as usize)
    }

    /// The sorted trie (goto) transitions out of `state`, failure links
    /// unresolved — the raw edges the tiered cold tail stores, as opposed to
    /// [`Self::step`] which resolves the failure chain.
    pub fn transitions(&self, state: u32) -> impl Iterator<Item = (u8, u32)> + '_ {
        let (bytes, next) = self.edges(state);
        bytes.iter().copied().zip(next.iter().copied())
    }

    /// Failure link of `state` (the root fails to itself).
    pub fn fail(&self, state: u32) -> u32 {
        self.fail[state as usize]
    }

    /// Find all matches in `hay`, reporting end offsets relative to `hay`.
    pub fn find_all(&self, hay: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        let mut state = 0u32;
        for (i, &b) in hay.iter().enumerate() {
            state = self.step(state, b);
            for &p in self.outputs(state) {
                out.push(Match::new(p, i + 1));
            }
        }
        out
    }

    /// Heap footprint in bytes: the edge and failure-link arrays, the
    /// outputs and the patterns.
    pub fn memory_bytes(&self) -> usize {
        let words = self.edge_start.len() + self.edge_next.len() + self.fail.len();
        words * 4
            + self.edge_bytes.len()
            + self.outputs.memory_bytes()
            + self.set.patterns.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;

    fn check(patterns: &[&str], hay: &[u8]) {
        let set = PatternSet::from_patterns(patterns);
        let ac = AhoCorasick::new(set.clone());
        let mut got = ac.find_all(hay);
        let mut want = naive::find_all(&set, hay);
        got.sort();
        want.sort();
        assert_eq!(got, want, "patterns {patterns:?} hay {hay:?}");
    }

    #[test]
    fn textbook_example() {
        // The classic {he, she, his, hers} example from the AC paper.
        check(&["he", "she", "his", "hers"], b"ushers");
        let set = PatternSet::from_patterns(["he", "she", "his", "hers"]);
        let ac = AhoCorasick::new(set);
        let ms = ac.find_all(b"ushers");
        // "she" ends at 4, "he" ends at 4, "hers" ends at 6.
        let pats: Vec<(u32, usize)> = ms.iter().map(|m| (m.pattern, m.end)).collect();
        assert!(pats.contains(&(1, 4)));
        assert!(pats.contains(&(0, 4)));
        assert!(pats.contains(&(3, 6)));
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn overlapping_and_nested() {
        check(&["aa", "aaa"], b"aaaa");
        check(&["a", "ab", "abc", "abcd"], b"abcdabc");
        check(&["abab"], b"abababab");
    }

    #[test]
    fn no_match() {
        let ac = AhoCorasick::new(PatternSet::from_patterns(["xyz"]));
        assert!(ac.find_all(b"abcabcabc").is_empty());
    }

    #[test]
    fn binary_patterns() {
        let p1: &[u8] = &[0x00, 0xff, 0x00];
        let p2: &[u8] = &[0xff, 0x00];
        let set = PatternSet::from_patterns([p1, p2]);
        let hay = [0x00, 0xff, 0x00, 0xff, 0x00];
        let ac = AhoCorasick::new(set.clone());
        let mut got = ac.find_all(&hay);
        let mut want = naive::find_all(&set, &hay);
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn find_first_is_earliest_end() {
        // `find_all` reports in end order: the first match ends earliest.
        let ac = AhoCorasick::new(PatternSet::from_patterns(["bcd", "ab"]));
        assert_eq!(ac.find_all(b"abcd")[0], Match::new(1, 2));
    }

    #[test]
    fn single_byte_patterns() {
        check(&["a", "b"], b"abba");
    }

    #[test]
    fn shared_prefixes_share_states() {
        let ac = AhoCorasick::new(PatternSet::from_patterns(["abcde", "abcxy"]));
        // root + abc (3) + de (2) + xy (2) = 8 states.
        assert_eq!(ac.state_count(), 8);
    }

    #[test]
    fn pattern_equal_to_haystack() {
        check(&["entire"], b"entire");
    }

    #[test]
    fn memory_reported_nonzero() {
        let ac = AhoCorasick::new(PatternSet::from_patterns(["abc"]));
        assert!(ac.memory_bytes() > 0);
    }
}
