//! Dense DFA compiled from the Aho–Corasick NFA.
//!
//! Every state stores a full 256-entry next-state row, so the inner search
//! loop is exactly one load and one index per input byte — no failure-link
//! chains, no branches that depend on pattern structure. This is the
//! software analogue of the TCAM/SRAM automaton the paper budgets for its
//! 20 Gbps fast path. At 1 KB per state it stops fitting in cache long
//! before a 10k-rule corpus (200 MB over whole signatures), so both the
//! fast and the slow path run [`crate::tiered::TieredNfa`] instead. The
//! dense DFA stays as the per-packet strawman's engine, in the experiments
//! and as the dense reference of the equivalence tests.

use crate::aho::AhoCorasick;
use crate::pattern::{FlatLists, Match, PatternId, PatternSet};

/// A dense Aho–Corasick DFA.
#[derive(Debug, Clone)]
pub struct AcDfa {
    /// `delta[state * 256 + byte]` = next state.
    delta: Vec<u32>,
    /// Pattern ids ending at each state (empty for most states): the
    /// NFA's lists, state numbers being the same.
    outputs: FlatLists<PatternId>,
}

impl AcDfa {
    /// Compile a DFA from patterns (builds the NFA internally).
    pub fn new(set: PatternSet) -> Self {
        Self::from_nfa(&AhoCorasick::new(set))
    }

    /// Compile a DFA from an existing NFA.
    pub fn from_nfa(nfa: &AhoCorasick) -> Self {
        let n = nfa.state_count();
        let mut delta = vec![0u32; n * 256];
        for s in 0..n as u32 {
            for b in 0..=255u8 {
                delta[s as usize * 256 + b as usize] = nfa.step(s, b);
            }
        }
        AcDfa {
            delta,
            outputs: nfa.outputs.clone(),
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.outputs.len()
    }

    /// The start state.
    const START: u32 = 0;

    /// One transition.
    #[inline(always)]
    fn next_state(&self, state: u32, byte: u8) -> u32 {
        self.delta[state as usize * 256 + byte as usize]
    }

    /// True if `state` reports at least one pattern.
    #[inline(always)]
    fn is_match_state(&self, state: u32) -> bool {
        !self.outputs(state).is_empty()
    }

    /// Pattern ids ending at `state`.
    #[inline(always)]
    fn outputs(&self, state: u32) -> &[PatternId] {
        self.outputs.get(state as usize)
    }

    /// Find all matches in `hay` with end offsets relative to `hay`.
    pub fn find_all(&self, hay: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        let mut state = Self::START;
        for (i, &b) in hay.iter().enumerate() {
            state = self.next_state(state, b);
            for &p in self.outputs(state) {
                out.push(Match::new(p, i + 1));
            }
        }
        out
    }

    /// Pattern id of the first match, without materializing a [`Match`].
    #[inline]
    pub fn find_first_id(&self, hay: &[u8]) -> Option<PatternId> {
        let mut state = Self::START;
        for &b in hay {
            state = self.next_state(state, b);
            if self.is_match_state(state) {
                return Some(self.outputs(state)[0]);
            }
        }
        None
    }

    /// Heap footprint in bytes: the transition table dominates
    /// (`states × 256 × 4`).
    pub fn memory_bytes(&self) -> usize {
        self.delta.len() * 4 + self.outputs.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;

    fn check(patterns: &[&[u8]], hay: &[u8]) {
        let set = PatternSet::from_patterns(patterns);
        let dfa = AcDfa::new(set.clone());
        let mut got = dfa.find_all(hay);
        let mut want = naive::find_all(&set, hay);
        got.sort();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(dfa.find_first_id(hay).is_some(), !want.is_empty());
    }

    #[test]
    fn agrees_with_naive_on_classics() {
        check(&[b"he", b"she", b"his", b"hers"], b"ushers use hershey");
        check(&[b"aa", b"aaa", b"aaaa"], b"aaaaaa");
        check(
            &[b"GET", b"POST", b"HEAD"],
            b"GET / HTTP/1.1\r\nHost: POSTofficePOST",
        );
    }

    #[test]
    fn dfa_equals_nfa() {
        let set = PatternSet::from_patterns([b"abab".as_slice(), b"baba", b"ab"]);
        let nfa = AhoCorasick::new(set);
        let dfa = AcDfa::from_nfa(&nfa);
        let hay = b"abababababab";
        let mut a = nfa.find_all(hay);
        let mut d = dfa.find_all(hay);
        a.sort();
        d.sort();
        assert_eq!(a, d);
        assert_eq!(nfa.state_count(), dfa.state_count());
    }

    #[test]
    fn stepwise_api_matches_batch() {
        let dfa = AcDfa::new(PatternSet::from_patterns(["needle"]));
        let hay = b"hay needle hay";
        let mut state = AcDfa::START;
        let mut ends = Vec::new();
        for (i, &b) in hay.iter().enumerate() {
            state = dfa.next_state(state, b);
            if dfa.is_match_state(state) {
                ends.push(i + 1);
            }
        }
        assert_eq!(ends, vec![10]);
        assert_eq!(dfa.find_all(hay), vec![Match::new(0, 10)]);
    }

    #[test]
    fn find_first_early_exit() {
        let dfa = AcDfa::new(PatternSet::from_patterns(["ab", "abcdef"]));
        assert_eq!(dfa.find_first_id(b"abcdef"), Some(0));
        assert_eq!(dfa.find_first_id(b"zzz"), None);
    }

    #[test]
    fn all_256_byte_values() {
        let p: Vec<u8> = vec![0, 127, 255];
        let set = PatternSet::from_patterns([p.clone()]);
        let dfa = AcDfa::new(set);
        let mut hay: Vec<u8> = (0u8..=255).collect();
        hay.extend_from_slice(&p);
        let ms = dfa.find_all(&hay);
        assert!(ms.iter().any(|m| m.end == hay.len()));
    }

    #[test]
    fn memory_scales_with_states() {
        let small = AcDfa::new(PatternSet::from_patterns(["ab"]));
        let large = AcDfa::new(PatternSet::from_patterns([
            "abcdefghij",
            "klmnopqrst",
            "uvwxyz0123",
        ]));
        assert!(large.memory_bytes() > small.memory_bytes());
        // Transition table dominance: at least states*1024 bytes.
        assert!(large.memory_bytes() >= large.state_count() * 1024);
    }
}
