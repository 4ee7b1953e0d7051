//! Pattern sets, match records and [`FlatLists`], the list layout every
//! engine shares. A set keeps its patterns as one `FlatLists` of bytes.

use core::fmt;

/// Identifies a pattern by its insertion order within a [`PatternSet`].
pub type PatternId = u32;

/// A reported occurrence: pattern `pattern` ends at byte offset `end`
/// (exclusive) of the haystack; it starts at `end - len(pattern)`.
///
/// Engines report the *end* because streaming matchers know the end the
/// moment the last byte arrives, while the start may lie in an earlier,
/// already-discarded chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Match {
    /// End offset, one past the last matched byte.
    pub end: usize,
    /// Which pattern matched.
    pub pattern: PatternId,
}

impl Match {
    /// Convenience constructor.
    pub fn new(pattern: PatternId, end: usize) -> Self {
        Match { end, pattern }
    }

    /// Start offset within the same haystack, given the pattern set.
    pub fn start(&self, set: &PatternSet) -> usize {
        self.end - set.pattern(self.pattern).len()
    }
}

/// An ordered collection of non-empty byte patterns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternSet {
    pub(crate) patterns: FlatLists<u8>,
}

impl PatternSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of byte strings. Panics on empty patterns —
    /// an empty signature piece is a configuration error upstream, not a
    /// runtime condition.
    pub fn from_patterns<I, P>(patterns: I) -> Self
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        let mut set = Self::new();
        for p in patterns {
            set.add(p.as_ref());
        }
        set
    }

    /// Append a pattern, returning its id.
    pub fn add(&mut self, pattern: &[u8]) -> PatternId {
        assert!(!pattern.is_empty(), "empty patterns are not allowed");
        self.patterns.push(pattern) as PatternId
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True if the set holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The bytes of pattern `id`.
    pub fn pattern(&self, id: PatternId) -> &[u8] {
        self.patterns.get(id as usize)
    }

    /// Iterate `(id, bytes)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PatternId, &[u8])> {
        (0..).zip(self.patterns.iter())
    }

    /// Total bytes across all patterns.
    pub fn total_bytes(&self) -> usize {
        self.patterns.iter().map(<[u8]>::len).sum()
    }

    /// Length of the shortest pattern (None if empty).
    pub fn min_len(&self) -> Option<usize> {
        self.patterns.iter().map(<[u8]>::len).min()
    }

    /// Length of the longest pattern (None if empty).
    pub fn max_len(&self) -> Option<usize> {
        self.patterns.iter().map(<[u8]>::len).max()
    }
}

/// Variable-length lists in two flat arrays: list `i` is
/// `items[start[i]..start[i + 1]]`, `start[0] == 0`. Every list the
/// compiled rules keep is one: a pattern's bytes, a state's pattern ids, a
/// piece's provenance. `n` lists are two allocations, not `n`, so a clone
/// is two copies and a drop two frees; the heap is `4 (n + 1)` bytes of
/// offsets plus the items. Lists are only ever appended.
#[derive(Clone, PartialEq, Eq)]
pub struct FlatLists<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> FlatLists<T> {
    /// `n` lists from `(list, item)` pairs, each list holding its items in
    /// pair order; every `list` must be below `n`.
    pub fn grouped(n: usize, mut pairs: Vec<(u32, T)>) -> Self {
        let mut start = vec![0u32; n + 1];
        for &(list, _) in &pairs {
            start[list as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        pairs.sort_by_key(|&(list, _)| list); // stable
        let items = pairs.into_iter().map(|(_, item)| item).collect();
        FlatLists { start, items }
    }

    /// Number of lists.
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// True when there is no list.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// List `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &[T] {
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// Every list, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Append `list`, returning its index.
    pub fn push(&mut self, list: &[T]) -> usize {
        self.items.extend_from_slice(list);
        self.close()
    }

    /// Append `head` followed by the items of list `tail`, returning the
    /// new list's index.
    pub fn push_joined(&mut self, head: &[T], tail: usize) -> usize {
        self.items.extend_from_slice(head);
        let tail = self.start[tail] as usize..self.start[tail + 1] as usize;
        self.items.extend_from_within(tail);
        self.close()
    }

    /// End the list being appended at the last item.
    fn close(&mut self) -> usize {
        let end = u32::try_from(self.items.len()).expect("list items fit u32 offsets");
        self.start.push(end);
        self.len() - 1
    }

    /// Heap footprint in bytes: the offsets and the items.
    pub fn memory_bytes(&self) -> usize {
        self.start.len() * 4 + self.items.len() * core::mem::size_of::<T>()
    }
}

/// No lists.
impl<T: Copy> Default for FlatLists<T> {
    fn default() -> Self {
        FlatLists {
            start: vec![0],
            items: Vec::new(),
        }
    }
}

/// The lists, printed as a `Vec<Vec<T>>` of the same content prints.
impl<T: Copy + fmt::Debug> fmt::Debug for FlatLists<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl fmt::Display for PatternSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PatternSet({} patterns, {} bytes)",
            self.len(),
            self.total_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_follow_insertion_order() {
        let mut set = PatternSet::new();
        assert_eq!(set.add(b"abc"), 0);
        assert_eq!(set.add(b"de"), 1);
        assert_eq!(set.pattern(0), b"abc");
        assert_eq!(set.pattern(1), b"de");
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_bytes(), 5);
        assert_eq!(set.min_len(), Some(2));
        assert_eq!(set.max_len(), Some(3));
    }

    #[test]
    #[should_panic(expected = "empty patterns")]
    fn empty_pattern_rejected() {
        PatternSet::new().add(b"");
    }

    #[test]
    fn match_start_derives_from_end() {
        let set = PatternSet::from_patterns(["hello"]);
        let m = Match::new(0, 9);
        assert_eq!(m.start(&set), 4);
    }

    #[test]
    fn duplicates_get_distinct_ids() {
        let set = PatternSet::from_patterns(["xy", "xy"]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.pattern(0), set.pattern(1));
    }

    #[test]
    fn display_summarizes() {
        let set = PatternSet::from_patterns(["abc", "d"]);
        assert_eq!(set.to_string(), "PatternSet(2 patterns, 4 bytes)");
    }

    #[test]
    fn lists_read_back_in_order_and_print_like_nested_vecs() {
        let nested: Vec<Vec<u8>> = vec![vec![1, 2], vec![], vec![3]];
        let mut lists = FlatLists::default();
        for (i, list) in nested.iter().enumerate() {
            assert_eq!(lists.push(list), i);
        }
        assert_eq!(lists.len(), 3);
        assert_eq!(lists.get(0), [1, 2]);
        assert!(lists.get(1).is_empty());
        assert_eq!(lists.iter().collect::<Vec<_>>(), nested);
        assert_eq!(format!("{lists:?}"), format!("{nested:?}"));
        assert_eq!(format!("{lists:#?}"), format!("{nested:#?}"));
        assert_eq!(lists.memory_bytes(), 4 * 4 + 3);
        assert_eq!(format!("{:?}", FlatLists::<u8>::default()), "[]");
    }

    #[test]
    fn joined_list_copies_an_earlier_one() {
        let mut lists = FlatLists::default();
        lists.push(&[7u32, 8]);
        assert_eq!(lists.push_joined(&[1], 0), 1);
        assert_eq!(lists.push_joined(&[], 1), 2);
        assert_eq!(lists.get(1), [1, 7, 8]);
        assert_eq!(lists.get(2), [1, 7, 8]);
    }

    #[test]
    fn grouped_keeps_pair_order_within_each_list() {
        let pairs = vec![(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd')];
        let lists = FlatLists::grouped(4, pairs);
        let got: Vec<&[char]> = lists.iter().collect();
        assert_eq!(got, [&['b', 'd'][..], &[], &['a', 'c'], &[]]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn grouped_rejects_a_list_out_of_range() {
        FlatLists::grouped(1, vec![(1, 0u8)]);
    }
}
