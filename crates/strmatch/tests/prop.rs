//! Cross-engine property tests: every engine must agree with the naive
//! reference on arbitrary patterns and haystacks.

use proptest::prelude::*;
use sd_match::tiered::MIN_HOT_STATES;
use sd_match::{naive, AcDfa, AhoCorasick, PatternSet, TieredNfa};

/// The piece automaton at every hot-tier size worth distinguishing: the
/// all-cold endpoint (`1`, a CSR NFA under a dense root), a boundary
/// inside the first trie level, the heuristic's floor, the heuristic
/// itself, and the all-hot endpoint (a byte-classed DFA).
fn hot_sweep(set: &PatternSet) -> Vec<TieredNfa> {
    let nfa = AhoCorasick::new(set.clone());
    [
        Some(1),
        Some(2),
        Some(MIN_HOT_STATES),
        None,
        Some(usize::MAX),
    ]
    .into_iter()
    .map(|hot| TieredNfa::from_nfa(&nfa, hot))
    .collect()
}

/// Small alphabet so matches actually happen.
fn small_bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 1..=max_len)
}

fn pattern_set() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(small_bytes(6), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nfa_agrees_with_naive(pats in pattern_set(), hay in proptest::collection::vec(any::<u8>().prop_map(|b| b % 4 + b'a'), 0..200)) {
        let set = PatternSet::from_patterns(&pats);
        let nfa = AhoCorasick::new(set.clone());
        let mut got = nfa.find_all(&hay);
        let mut want = naive::find_all(&set, &hay);
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn dfa_agrees_with_naive(pats in pattern_set(), hay in proptest::collection::vec(any::<u8>().prop_map(|b| b % 4 + b'a'), 0..200)) {
        let set = PatternSet::from_patterns(&pats);
        let dfa = AcDfa::new(set.clone());
        let mut got = dfa.find_all(&hay);
        let mut want = naive::find_all(&set, &hay);
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
        prop_assert_eq!(dfa.is_match(&hay), !dfa.find_all(&hay).is_empty());
    }
}

proptest! {
    /// The piece automaton reports exactly the naive reference's (and the
    /// dense DFA's) matches at every tier boundary — including overlapping
    /// ones found mid-walk — on the full byte alphabet, with haystacks of
    /// every length mod 8 (payloads ending mid-chunk come out of the
    /// random length).
    #[test]
    fn tiered_agrees_with_naive_and_dense_at_every_hot_count(
        patterns in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..6), 1..8),
        hay in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let set = PatternSet::from_patterns(patterns.iter().map(|p| p.as_slice()));
        let dense = AcDfa::new(set.clone());
        let mut want = naive::find_all(&set, &hay);
        want.sort();
        for tiered in hot_sweep(&set) {
            let mut got = tiered.find_all(&hay);
            got.sort();
            prop_assert_eq!(&got, &want, "hot = {}", tiered.hot_state_count());
            prop_assert_eq!(tiered.is_match(&hay), dense.is_match(&hay));
            prop_assert_eq!(tiered.find_first_id(&hay), dense.find_first_id(&hay));
            prop_assert!(tiered.class_count() <= 256);
        }
    }

    /// Planted occurrences at an arbitrary offset of a noisy haystack,
    /// followed by 0–8 zero bytes: the window filter must report the
    /// occurrence's first position whether a full 4-byte load or the tail
    /// gather near the payload's end reaches it, and hand over to the
    /// automaton at exactly that position.
    #[test]
    fn tiered_finds_planted_matches_across_chunk_boundaries(
        pattern in prop::collection::vec(any::<u8>(), 1..12),
        noise in prop::collection::vec(any::<u8>(), 0..40),
        at in 0usize..40,
        tail in 0usize..9,
    ) {
        let mut hay = noise.clone();
        let at = at.min(hay.len());
        hay.splice(at..at, pattern.iter().copied());
        hay.extend(std::iter::repeat_n(0u8, tail)); // end mid-chunk
        let set = PatternSet::from_patterns([pattern.as_slice()]);
        let mut want = AcDfa::new(set.clone()).find_all(&hay);
        want.sort();
        for tiered in hot_sweep(&set) {
            prop_assert!(tiered.is_match(&hay), "planted pattern must be found");
            let mut got = tiered.find_all(&hay);
            got.sort();
            prop_assert_eq!(&got, &want, "hot = {}", tiered.hot_state_count());
        }
    }

    /// The window filter on and resuming constantly: pieces of 2–6 bytes
    /// over a 3-letter alphabet make nearly every position a candidate,
    /// so walks stop at depth ≤ 1 and resume at `j − depth` throughout the
    /// haystack. The sweep's pinned `1` and `2` fall below the root's
    /// fan-out and run the unfiltered walk on the same inputs.
    #[test]
    fn filtered_walk_agrees_with_naive_and_dense(
        patterns in prop::collection::vec(
            prop::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 2..=6),
            1..8,
        ),
        hay in prop::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..200),
    ) {
        let set = PatternSet::from_patterns(&patterns);
        let dense = AcDfa::new(set.clone());
        let mut want = naive::find_all(&set, &hay);
        want.sort();
        for tiered in hot_sweep(&set) {
            let mut got = tiered.find_all(&hay);
            got.sort();
            prop_assert_eq!(&got, &want, "hot = {}", tiered.hot_state_count());
            prop_assert_eq!(tiered.find_first_id(&hay), dense.find_first_id(&hay));
        }
    }

    /// The strided filter: pieces of 5–12 bytes over a 3-letter alphabet
    /// put the shortest piece at 5 bytes or more, so the filter tests one
    /// position in every `s ≥ 2`, walks back `s − 1` bytes from each hit
    /// and resumes constantly. Two pieces are planted so occurrences are
    /// certain, not a matter of luck.
    #[test]
    fn strided_walk_agrees_with_naive_and_dense(
        patterns in prop::collection::vec(
            prop::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 5..=12),
            1..8,
        ),
        noise in prop::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..200),
        at in (0usize..200, 0usize..200),
    ) {
        let mut hay = noise;
        for (k, pos) in [at.0, at.1].into_iter().enumerate() {
            let piece = &patterns[k % patterns.len()];
            let pos = pos.min(hay.len());
            hay.splice(pos..pos, piece.iter().copied());
        }
        let set = PatternSet::from_patterns(&patterns);
        let dense = AcDfa::new(set.clone());
        let mut want = naive::find_all(&set, &hay);
        want.sort();
        for tiered in hot_sweep(&set) {
            if let Some((_, stride, _)) = tiered.filter_shape() {
                prop_assert!(stride >= 2, "shortest piece ≥ 5 bytes");
            }
            let mut got = tiered.find_all(&hay);
            got.sort();
            prop_assert_eq!(&got, &want, "hot = {}", tiered.hot_state_count());
            prop_assert_eq!(tiered.find_first_id(&hay), dense.find_first_id(&hay));
        }
    }
}
