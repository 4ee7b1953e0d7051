//! Cross-engine property tests: every engine must agree with the naive
//! reference on arbitrary patterns and haystacks.

use std::collections::HashMap;

use proptest::prelude::*;
use sd_match::tiered::MIN_HOT_STATES;
use sd_match::{naive, AcDfa, AhoCorasick, PatternSet, TieredNfa};

/// The piece automaton at every hot-tier size worth distinguishing: the
/// all-cold endpoint (`1`, a CSR NFA under a dense root), a boundary
/// inside the first trie level, the heuristic's floor, the heuristic
/// itself, and the all-hot endpoint (the dense DFA).
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
        prop_assert_eq!(dfa.find_first_id(&hay).is_some(), !dfa.find_all(&hay).is_empty());
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
            prop_assert_eq!(tiered.find_first_id(&hay), dense.find_first_id(&hay));
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
            prop_assert!(tiered.find_first_id(&hay).is_some(), "planted pattern must be found");
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

    /// The strided filter: pieces of 5–24 bytes over a 3-letter alphabet
    /// put the shortest piece at 5 bytes or more, so the filter tests one
    /// position in every `s` of 2–21 (the eight-wide loop's shuffle
    /// strides and its per-lane ones), walks back `s − 1` bytes from each
    /// hit and resumes constantly. Two pieces are planted so occurrences
    /// are certain, not a matter of luck.
    #[test]
    fn strided_walk_agrees_with_naive_and_dense(
        patterns in prop::collection::vec(
            prop::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 5..=24),
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
            if let Some((_, stride, _, _)) = tiered.filter_shape() {
                prop_assert!(stride >= 2, "shortest piece ≥ 5 bytes");
            }
            let mut got = tiered.find_all(&hay);
            got.sort();
            prop_assert_eq!(&got, &want, "hot = {}", tiered.hot_state_count());
            prop_assert_eq!(tiered.find_first_id(&hay), dense.find_first_id(&hay));
        }
    }

    /// The window filter's run confirmation under payload built to defeat
    /// it: haystacks concatenate single piece windows (a lone hit, or part
    /// of a run a neighbour completes), piece prefixes (each piece without
    /// its last byte: a run of hits and a deep walk that never matches)
    /// and whole pieces. Pieces of 5–16 bytes put the filter at
    /// strides 2–13. `find_all` must equal the naive reference and
    /// `find_first_id` must name a piece ending first.
    #[test]
    fn run_adversarial_payload_agrees_with_naive(
        patterns in prop::collection::vec(prop::collection::vec(any::<u8>(), 5..=16), 1..6),
        parts in prop::collection::vec((0u8..3, any::<u8>(), any::<u8>()), 0..48),
    ) {
        let mut hay = Vec::new();
        for (kind, which, at) in parts {
            let piece = &patterns[usize::from(which) % patterns.len()];
            match kind {
                0 => {
                    let at = usize::from(at) % (piece.len() - 3);
                    hay.extend_from_slice(&piece[at..at + 4]);
                }
                1 => hay.extend_from_slice(&piece[..piece.len() - 1]),
                _ => hay.extend_from_slice(piece),
            }
        }
        let set = PatternSet::from_patterns(&patterns);
        // In `Match` order: by end, then pattern id.
        let want = naive::find_all(&set, &hay);
        let first_end = want.first().map(|m| m.end);
        for tiered in hot_sweep(&set) {
            if let Some((_, stride, _, _)) = tiered.filter_shape() {
                prop_assert!((2..=13).contains(&stride), "shortest piece 5–16 bytes");
            }
            let mut got = tiered.find_all(&hay);
            got.sort();
            prop_assert_eq!(&got, &want, "hot = {}", tiered.hot_state_count());
            let first = tiered
                .find_first_id(&hay)
                .map(|id| want.iter().any(|m| Some(m.end) == first_end && m.pattern == id));
            prop_assert_eq!(first, first_end.map(|_| true), "hot = {}", tiered.hot_state_count());
        }
    }
}

/// Pattern sets that exercise the trie's construction: two-letter strings
/// (shared prefixes, duplicates, patterns that are suffixes of others),
/// one-byte patterns, and short strings over all 256 byte values.
fn construction_set() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(prop_oneof![Just(b'a'), Just(b'b')], 1..6),
            any::<u8>().prop_map(|b| vec![b]),
            prop::collection::vec(any::<u8>(), 1..4),
        ],
        1..12,
    )
}

/// The deepest state whose label is a suffix of `word` from offset
/// `from` on (the root's label is empty).
fn deepest_suffix(labels: &HashMap<Vec<u8>, u32>, word: &[u8], from: usize) -> u32 {
    (from..=word.len())
        .find_map(|k| labels.get(&word[k..]).copied())
        .expect("the root's empty label is a suffix of every word")
}

proptest! {
    /// The NFA against the definition of Aho–Corasick: states numbered
    /// breadth-first with siblings by byte, so listing every state's trie
    /// edges in state order names states `1, 2, 3, …`; each failure link
    /// is the deepest state that is a proper suffix of the state's label;
    /// each step is the deepest state that is a suffix of the label plus
    /// the byte; and each state reports its own pattern ids in id order,
    /// then its failure state's list.
    #[test]
    fn nfa_construction_matches_its_definition(pats in construction_set()) {
        let set = PatternSet::from_patterns(&pats);
        let nfa = AhoCorasick::new(set.clone());
        let n = nfa.state_count() as u32;
        let mut labels: Vec<Vec<u8>> = vec![Vec::new()];
        for s in 0..n {
            let edges: Vec<(u8, u32)> = nfa.transitions(s).collect();
            prop_assert!(edges.windows(2).all(|e| e[0].0 < e[1].0), "edges of {} by byte", s);
            for (b, t) in edges {
                prop_assert_eq!(t as usize, labels.len(), "breadth-first number");
                let mut label = labels[s as usize].clone();
                label.push(b);
                labels.push(label);
            }
        }
        prop_assert_eq!(labels.len(), n as usize);
        let state_of: HashMap<Vec<u8>, u32> =
            labels.iter().enumerate().map(|(s, l)| (l.clone(), s as u32)).collect();
        for (s, label) in labels.iter().enumerate() {
            let s = s as u32;
            let fail = if s == 0 { 0 } else { deepest_suffix(&state_of, label, 1) };
            prop_assert_eq!(nfa.fail(s), fail, "fail of {:?}", label);
            let mut word = label.clone();
            for b in 0..=255u8 {
                word.push(b);
                prop_assert_eq!(nfa.step(s, b), deepest_suffix(&state_of, &word, 0));
                word.pop();
            }
            let mut outputs: Vec<u32> =
                set.iter().filter(|(_, p)| *p == label.as_slice()).map(|(id, _)| id).collect();
            if s != 0 {
                outputs.extend_from_slice(nfa.outputs(fail));
            }
            prop_assert_eq!(nfa.outputs(s), outputs.as_slice(), "outputs of {:?}", label);
        }
    }
}
