//! Aho–Corasick automaton: classic goto/failure/output construction.
//!
//! This is the NFA form: transitions are sparse, and a search may follow a
//! chain of failure links per input byte. It is the builder under both
//! compiled forms: the dense DFA ([`crate::dfa::AcDfa`]), where every byte
//! is exactly one table lookup — the property the paper's 20 Gbps hardware
//! argument rests on — and the tiered automaton
//! ([`crate::tiered::TieredNfa`]) that the fast path runs over pieces and
//! the slow path over whole signatures.

use crate::pattern::{Match, PatternId, PatternSet};
use std::collections::{BTreeMap, VecDeque};

/// One NFA state.
#[derive(Debug, Clone, Default)]
struct State {
    /// Sparse goto transitions.
    next: BTreeMap<u8, u32>,
    /// Failure link (root fails to itself).
    fail: u32,
    /// Patterns ending at this state, including those inherited along the
    /// failure chain (merged during construction so search never walks the
    /// chain to report outputs).
    out: Vec<PatternId>,
}

/// An Aho–Corasick automaton over a [`PatternSet`].
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    states: Vec<State>,
    set: PatternSet,
}

impl AhoCorasick {
    /// Build the automaton. Takes ownership of the set so matches can be
    /// related back to pattern bytes.
    pub fn new(set: PatternSet) -> Self {
        let mut states = vec![State::default()]; // root = 0

        // Phase 1: trie of all patterns.
        for (id, pat) in set.iter() {
            let mut cur = 0u32;
            for &b in pat {
                cur = match states[cur as usize].next.get(&b) {
                    Some(&s) => s,
                    None => {
                        let s = states.len() as u32;
                        states.push(State::default());
                        states[cur as usize].next.insert(b, s);
                        s
                    }
                };
            }
            states[cur as usize].out.push(id);
        }

        // Phase 2: failure links by BFS; merge outputs.
        let mut queue = VecDeque::new();
        let root_children: Vec<u32> = states[0].next.values().copied().collect();
        for s in root_children {
            states[s as usize].fail = 0;
            queue.push_back(s);
        }
        while let Some(s) = queue.pop_front() {
            let transitions: Vec<(u8, u32)> = states[s as usize]
                .next
                .iter()
                .map(|(&b, &t)| (b, t))
                .collect();
            for (b, t) in transitions {
                // Find the deepest proper suffix state with a b-transition.
                let mut f = states[s as usize].fail;
                let fail_t = loop {
                    if let Some(&n) = states[f as usize].next.get(&b) {
                        break n;
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = states[f as usize].fail;
                };
                states[t as usize].fail = fail_t;
                let inherited = states[fail_t as usize].out.clone();
                states[t as usize].out.extend(inherited);
                queue.push_back(t);
            }
        }

        AhoCorasick { states, set }
    }

    /// The pattern set this automaton recognizes.
    pub fn patterns(&self) -> &PatternSet {
        &self.set
    }

    /// Number of states (including the root).
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Follow one input byte from `state`, taking failure links as needed.
    pub fn step(&self, mut state: u32, byte: u8) -> u32 {
        loop {
            if let Some(&n) = self.states[state as usize].next.get(&byte) {
                return n;
            }
            if state == 0 {
                return 0;
            }
            state = self.states[state as usize].fail;
        }
    }

    /// Patterns ending at `state`.
    pub fn outputs(&self, state: u32) -> &[PatternId] {
        &self.states[state as usize].out
    }

    /// The sorted trie (goto) transitions out of `state`, failure links
    /// unresolved — the raw edges the tiered cold tail stores, as opposed to
    /// [`Self::step`] which resolves the failure chain.
    pub fn transitions(&self, state: u32) -> impl Iterator<Item = (u8, u32)> + '_ {
        self.states[state as usize]
            .next
            .iter()
            .map(|(&b, &t)| (b, t))
    }

    /// Failure link of `state` (the root fails to itself).
    pub fn fail(&self, state: u32) -> u32 {
        self.states[state as usize].fail
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

    /// First match in `hay` (smallest end offset; ties by discovery order).
    pub fn find_first(&self, hay: &[u8]) -> Option<Match> {
        let mut state = 0u32;
        for (i, &b) in hay.iter().enumerate() {
            state = self.step(state, b);
            if let Some(&p) = self.outputs(state).first() {
                return Some(Match::new(p, i + 1));
            }
        }
        None
    }

    /// True if any pattern occurs in `hay`.
    pub fn is_match(&self, hay: &[u8]) -> bool {
        self.find_first(hay).is_some()
    }

    /// Approximate heap footprint in bytes: trie maps, fail links, outputs.
    /// BTreeMap overhead is charged at a flat 24 bytes per entry — the
    /// point of this number is the NFA/DFA comparison, not allocator-exact
    /// accounting.
    pub fn memory_bytes(&self) -> usize {
        let mut total = self.states.len() * std::mem::size_of::<State>();
        for s in &self.states {
            total += s.next.len() * 24;
            total += s.out.len() * std::mem::size_of::<PatternId>();
        }
        total += self.set.total_bytes();
        total
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
        assert!(!ac.is_match(b"abcabcabc"));
        assert!(ac.find_first(b"abc").is_none());
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
        let ac = AhoCorasick::new(PatternSet::from_patterns(["bcd", "ab"]));
        let m = ac.find_first(b"abcd").unwrap();
        assert_eq!(m, Match::new(1, 2));
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
