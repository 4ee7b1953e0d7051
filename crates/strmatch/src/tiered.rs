//! The automaton both paths run: two-tier Aho–Corasick with dense
//! byte-classed rows for the hot shallow states and CSR sorted-edge lists
//! for the cold tail, entered only where a piece-window filter says a
//! piece may start. The fast path builds it over signature pieces and the
//! slow path over whole signatures, with the same constructor, hot-tier
//! heuristic and filter; below, "piece" means whichever patterns it holds.
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
//!   stored as fully failure-resolved rows compressed by byte equivalence
//!   classes (computed over the hot rows only, so the build never pays an
//!   `O(states × 256)` full-column scan). Hot states that report nothing
//!   are numbered before hot states that report a match.
//! * **cold tier** — every remaining state, kept as sorted edge arrays
//!   plus a failure link. Failure links strictly decrease trie depth, and
//!   the hot tier is a depth-ordered prefix rooted at depth 0, so every
//!   failure chain re-enters the hot tier (at worst at the root) — cold
//!   walks terminate without a dense root row of their own.
//!
//! **One-compare step.** State ids are stored premultiplied: hot state `t`
//! is `t × class_count` (its row offset) and cold state `t` is `hot_count
//! × class_count + (t − hot_count)`. A step from a hot state that reports
//! nothing is `hot[enc + classes[b]]`, and one `enc >= plain_limit` test
//! catches both a match and a cold state.
//!
//! **Window filter.** Every piece is at least `m` (the shortest piece)
//! bytes long; Split-Detect pieces are near-uniform, so `m` is close to
//! the typical length. With
//! `w = min(4, m)` and stride `s = m − w + 1`, a bitmap holds one bit at a
//! multiplicative hash of each of a piece's `s` windows of `w` bytes
//! (offsets `0..s`), and the scan tests one position in every `s` —
//! `from + s − 1, from + 2s − 1, …` — each a `u32` load, a mask, a
//! multiply, a shift and a bit test, with no dependence between
//! positions. An occurrence starting at `c ≥ from` has its windows at
//! `c ..= c + s − 1`, which holds exactly one tested position, and that
//! position is at most `len − w`. On a hit at `q` the automaton walks
//! from the start state at `c0 = q − (s − 1)`: an occurrence starting in
//! `[from, c0)` would have hit at a tested position before `q`. Once the
//! walk has read at least two bytes and is back at depth ≤ 1 at `j`, the
//! filter resumes at `from = j − depth ≥ c0 + 1`: any occurrence still in
//! progress at `j` starts at or after `j − depth`. It is linear: tested
//! positions strictly increase, so the filter makes at most `n` tests,
//! and each walk ends at most one byte before the next `c0`, so the
//! automaton takes at most `2n` steps. Breadth-first numbering makes
//! "depth ≤ 1" one compare, which needs the root and all its children
//! hot and reporting nothing — hence the hot-tier floor of `1 + fan-out`
//! and `w ≥ 2`. With a one-byte piece, or a hot tier pinned below the
//! root's fan-out, the same walker runs once over the whole payload with
//! no filter.
//!
//! Tier membership is a build-time byte-budget heuristic — spend about as
//! many bytes on the hot tier as the whole CSR arena would occupy, so the
//! total stays within ~2× the all-cold representation. The two endpoints
//! are familiar engines: `H = n` (every small rule set) is a byte-classed
//! DFA behind the filter, and `H = 1` is a CSR NFA with a dense root row.
//! [`TieredNfa::with_hot_states`] pins the boundary for the equivalence
//! tests; it is not a user-settable knob.

use std::collections::HashMap;

use crate::aho::AhoCorasick;
use crate::pattern::{Match, PatternId, PatternSet};

/// The byte-budget heuristic never shrinks the hot tier below this many
/// states (when the automaton has them), nor below the root plus its whole
/// first trie level, which the window filter's resume rule needs hot.
pub const MIN_HOT_STATES: usize = 256;

/// Per-edge CSR cost in bytes (1 label + 4 next) used by the hot-budget
/// estimate.
const CSR_EDGE_BYTES: usize = 5;

/// Per-state CSR overhead in bytes (4 offset + 4 fail) used by the
/// hot-budget estimate.
const CSR_STATE_BYTES: usize = 8;

/// Longest piece prefix the window filter hashes: one `u32` load.
const MAX_WINDOW: usize = 4;

/// Window-filter bitmap bits per inserted window (pieces × stride),
/// keeping the false-hit rate near 1/64 per tested position; the bitmap
/// is 16 KB at 200 rules (600 pieces, stride 2).
const FILTER_BITS_PER_WINDOW: usize = 64;

/// Bitmap size bounds, log2 of the bit count: 512 B to 256 KB.
const FILTER_LOG2_BITS: (u32, u32) = (12, 21);

/// Fibonacci-hashing multiplier, `2^32 / φ`.
const WINDOW_HASH: u32 = 0x9E37_79B1;

/// The strided piece-window filter: one bit at a multiplicative hash of
/// each of a piece's first `stride` windows of `window` bytes. A tested
/// window that misses the bitmap is no such window of any piece; a hit is
/// only a candidate for the automaton to verify.
#[derive(Debug, Clone)]
struct WindowFilter {
    /// Bytes hashed per position, `2..=MAX_WINDOW`.
    window: usize,
    /// Positions per test, `shortest piece − window + 1`; above 1 only
    /// when `window == MAX_WINDOW`.
    stride: usize,
    /// Keeps the low `window` bytes of a little-endian `u32`.
    mask: u32,
    /// `32 − log2(bitmap bits)`: the hash keeps its top bits.
    shift: u32,
    bits: Box<[u64]>,
}

impl WindowFilter {
    /// `None` when a piece is shorter than two bytes: a one-byte window
    /// would be the start-byte set, which rejects almost nothing.
    fn new(set: &PatternSet) -> Option<Self> {
        let shortest = set.min_len()?;
        let window = shortest.min(MAX_WINDOW);
        if window < 2 {
            return None;
        }
        let stride = shortest - window + 1;
        let (lo, hi) = FILTER_LOG2_BITS;
        let log2 = (set.len() * stride * FILTER_BITS_PER_WINDOW)
            .next_power_of_two()
            .trailing_zeros()
            .clamp(lo, hi);
        let mut filter = WindowFilter {
            window,
            stride,
            mask: u32::MAX >> (32 - 8 * window as u32),
            shift: 32 - log2,
            bits: vec![0; 1 << (log2 - 6)].into_boxed_slice(),
        };
        for (_, piece) in set.iter() {
            for at in 0..stride {
                let h = filter.hash(load_window(&piece[at..]));
                filter.bits[h >> 6] |= 1 << (h & 63);
            }
        }
        Some(filter)
    }

    #[inline(always)]
    fn hash(&self, x: u32) -> usize {
        ((x & self.mask).wrapping_mul(WINDOW_HASH) >> self.shift) as usize
    }

    #[inline(always)]
    fn hit(&self, x: u32) -> bool {
        let h = self.hash(x);
        (self.bits[h >> 6] >> (h & 63)) & 1 != 0
    }

    /// Where to walk from: `q − (stride − 1)` for the first tested
    /// position `q` in `from + stride − 1, from + 2·stride − 1, …` whose
    /// window hits the bitmap. The last `window − 1` positions cannot
    /// start a piece and are not tested.
    #[inline]
    fn find(&self, hay: &[u8], from: usize) -> Option<usize> {
        let back = self.stride - 1;
        let mut p = from + back;
        while let Some(w) = hay.get(p..p + 4) {
            if self.hit(u32::from_le_bytes(w.try_into().expect("4-byte window"))) {
                return Some(p - back);
            }
            p += self.stride;
        }
        // Past the `u32` loads only `window < 4`, hence `stride == 1`,
        // leaves positions to test; for `window == 4` the range is empty.
        let last = hay.len().checked_sub(self.window)?;
        (p..=last).find(|&p| self.hit(load_window(&hay[p..])))
    }

    fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// Little-endian value of the first (up to) four bytes, zero-padded.
fn load_window(bytes: &[u8]) -> u32 {
    bytes
        .iter()
        .take(MAX_WINDOW)
        .enumerate()
        .fold(0, |x, (k, &b)| x | u32::from(b) << (8 * k))
}

/// Two-tier Aho–Corasick automaton: byte-classed dense rows for the hot
/// states, CSR edges + failure links for the tail, behind a window filter.
/// State ids inside are encoded as the module docs describe.
#[derive(Debug, Clone)]
pub struct TieredNfa {
    /// States `0..hot_count` are hot (dense rows); the root is state 0.
    hot_count: u32,
    /// Byte equivalence classes over the hot rows.
    class_count: u32,
    /// Byte → class, for the hot-tier lookup.
    classes: Box<[u8; 256]>,
    /// Hot transition table, `hot_count × class_count`, fully
    /// failure-resolved; entries are encoded targets (may be cold).
    hot: Vec<u32>,
    /// Encoded ids below this are hot states that report nothing.
    plain_limit: u32,
    /// First encoded cold id, `hot_count × class_count`.
    cold_base: u32,
    /// Encoded ids below this are the root and its children (depth ≤ 1),
    /// where a filtered walk may stop; 0 when there is no filter.
    shallow_limit: u32,
    /// CSR offsets for cold state `s`: edges
    /// `edge_start[s - hot_count] .. edge_start[s - hot_count + 1]`.
    edge_start: Vec<u32>,
    /// Sorted byte labels of cold-state trie edges.
    edge_bytes: Vec<u8>,
    /// Encoded edge targets parallel to `edge_bytes`.
    edge_next: Vec<u32>,
    /// Encoded failure link per cold state (strictly shallower).
    fail: Vec<u32>,
    /// Pattern ids ending at each state (failure-chain outputs merged),
    /// indexed by state number: hot states, then cold.
    outputs: Vec<Box<[PatternId]>>,
    filter: Option<WindowFilter>,
    set: PatternSet,
}

impl TieredNfa {
    /// The start state, encoded (the root is hot state 0).
    const START: u32 = 0;

    /// Compile from patterns with the default hot-tier budget.
    pub fn new(set: PatternSet) -> Self {
        Self::from_nfa(&AhoCorasick::new(set), None)
    }

    /// Compile from patterns with an explicit hot-state count (clamped to
    /// `1..=state_count`): the equivalence tests' axis.
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
        // at the (hot) root. The root's children are positions
        // `1..=fanout`.
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
        let fanout = nfa.transitions(0).count();

        // Hot-tier sizing. An explicit count wins; otherwise spend about
        // as many bytes on dense hot rows as the full CSR arena would
        // occupy, converging on the actual class count (classes are
        // computed over hot rows only, so the count depends on the
        // boundary — one or two refinement passes settle it).
        let edges = n.saturating_sub(1); // a trie over n states has n-1 edges
        let csr_budget = edges * CSR_EDGE_BYTES + n * CSR_STATE_BYTES;
        let floor = MIN_HOT_STATES.max(1 + fanout).min(n);
        let clamp_hot = |h: usize| h.clamp(floor, n);
        let mut hot_count = match hot_states {
            Some(h) => h.clamp(1, n),
            None => clamp_hot(csr_budget / 1024), // worst case: 256 classes
        };
        let (mut classes, mut columns) = hot_columns(nfa, &order, &new_of, hot_count);
        if hot_states.is_none() {
            for _ in 0..2 {
                let want = clamp_hot(csr_budget / (4 * columns.len().max(1)));
                if want == hot_count {
                    break;
                }
                hot_count = want;
                (classes, columns) = hot_columns(nfa, &order, &new_of, hot_count);
            }
        }
        let class_count = columns.len();

        // Final numbering (breadth-first position → state number): hot
        // states that report nothing, then hot match states, each in
        // breadth-first order; the cold tail keeps its positions. The
        // partition is stable, so when no piece is one byte long the root
        // and its children keep numbers `0..=fanout`.
        let reports = |s: usize| !nfa.outputs(order[s]).is_empty();
        let (plain, matching): (Vec<usize>, Vec<usize>) =
            (0..hot_count).partition(|&s| !reports(s));
        let mut number: Vec<usize> = (0..n).collect();
        for (k, &s) in plain.iter().chain(&matching).enumerate() {
            number[s] = k;
        }
        let cold_base = hot_count * class_count;
        assert!(
            cold_base + (n - hot_count) <= u32::MAX as usize,
            "encoded state ids must fit u32"
        );
        let encode = |s: u32| -> u32 {
            let t = number[s as usize];
            let enc = if t < hot_count {
                t * class_count
            } else {
                cold_base + t - hot_count
            };
            enc as u32
        };

        // The rows already built, permuted into the final numbering and
        // encoded — no second class computation.
        let mut hot = vec![0u32; cold_base];
        for (c, col) in columns.iter().enumerate() {
            for (s, &t) in col.iter().enumerate() {
                hot[number[s] * class_count + c] = encode(t);
            }
        }

        // Cold tail: raw trie edges + failure links, targets encoded.
        let mut edge_start = Vec::with_capacity(n - hot_count + 1);
        let mut edge_bytes = Vec::new();
        let mut edge_next = Vec::new();
        let mut fail = Vec::with_capacity(n - hot_count);
        for &old in &order[hot_count..] {
            edge_start.push(edge_bytes.len() as u32);
            for (b, t) in nfa.transitions(old) {
                edge_bytes.push(b);
                edge_next.push(encode(new_of[t as usize]));
            }
            fail.push(encode(new_of[nfa.fail(old) as usize]));
        }
        edge_start.push(edge_bytes.len() as u32);

        let mut outputs: Vec<Box<[PatternId]>> = vec![Box::default(); n];
        for (s, &old) in order.iter().enumerate() {
            outputs[number[s]] = nfa.outputs(old).into();
        }

        let filter = if hot_count > fanout {
            WindowFilter::new(nfa.patterns())
        } else {
            None
        };
        let shallow_limit = if filter.is_some() {
            debug_assert!((0..=fanout).all(|s| number[s] == s && !reports(s)));
            (1 + fanout) * class_count
        } else {
            0
        };

        TieredNfa {
            hot_count: hot_count as u32,
            class_count: class_count as u32,
            classes,
            hot,
            plain_limit: (plain.len() * class_count) as u32,
            cold_base: cold_base as u32,
            shallow_limit: shallow_limit as u32,
            edge_start,
            edge_bytes,
            edge_next,
            fail,
            outputs,
            filter,
            set: nfa.patterns().clone(),
        }
    }

    /// The pattern set this automaton recognizes.
    pub fn patterns(&self) -> &PatternSet {
        &self.set
    }

    /// Number of states (hot + cold; equals the NFA's).
    pub fn state_count(&self) -> usize {
        self.outputs.len()
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

    /// The window filter's shape — bytes hashed per tested position,
    /// positions per test, bitmap bytes — or `None` when the scan runs
    /// unfiltered. Derived from the pattern set; not a knob.
    pub fn filter_shape(&self) -> Option<(usize, usize, usize)> {
        self.filter
            .as_ref()
            .map(|f| (f.window, f.stride, f.memory_bytes()))
    }

    /// One input byte from encoded state `enc`. Hot states are one class
    /// load plus one table load; cold states binary-search their edges and
    /// follow failure links, which strictly decrease depth and therefore
    /// re-enter the hot tier.
    #[inline]
    fn step(&self, mut enc: u32, byte: u8) -> u32 {
        loop {
            if enc < self.cold_base {
                return self.hot[enc as usize + usize::from(self.classes[usize::from(byte)])];
            }
            let c = (enc - self.cold_base) as usize;
            let lo = self.edge_start[c] as usize;
            let hi = self.edge_start[c + 1] as usize;
            if let Ok(k) = self.edge_bytes[lo..hi].binary_search(&byte) {
                return self.edge_next[lo + k];
            }
            enc = self.fail[c];
        }
    }

    /// Pattern ids ending at encoded state `enc`.
    fn outputs(&self, enc: u32) -> &[PatternId] {
        let state = if enc < self.cold_base {
            enc / self.class_count
        } else {
            self.hot_count + (enc - self.cold_base)
        };
        &self.outputs[state as usize]
    }

    /// The scan both searches share: filter to a candidate, walk the
    /// automaton from the start state, resume the filter at `j − depth`
    /// (module docs). `on_match(ids, end)` sees every non-empty output in
    /// end order and returns `true` to stop.
    #[inline(always)]
    fn walk(&self, hay: &[u8], mut on_match: impl FnMut(&[PatternId], usize) -> bool) {
        let hot = &self.hot[..];
        let classes = &*self.classes;
        let mut from = 0;
        loop {
            let c = match &self.filter {
                Some(filter) => match filter.find(hay, from) {
                    Some(c) => c,
                    None => return,
                },
                None => from,
            };
            let mut enc = Self::START;
            let mut j = c;
            loop {
                let Some(&b) = hay.get(j) else { return };
                j += 1;
                enc = hot[enc as usize + usize::from(classes[usize::from(b)])];
                while enc >= self.plain_limit {
                    let out = self.outputs(enc);
                    if !out.is_empty() && on_match(out, j) {
                        return;
                    }
                    let Some(&b) = hay.get(j) else { return };
                    j += 1;
                    enc = self.step(enc, b);
                }
                if enc < self.shallow_limit && j > c + 1 {
                    break;
                }
            }
            // Depth 0 at the root, 1 anywhere else below `shallow_limit`.
            from = j - usize::from(enc != Self::START);
        }
    }

    /// Pattern id of the first match (smallest end offset), early-exiting
    /// — the fast path's per-packet scan.
    #[inline]
    pub fn find_first_id(&self, hay: &[u8]) -> Option<PatternId> {
        let mut first = None;
        self.walk(hay, |out, _| {
            first = Some(out[0]);
            true
        });
        first
    }

    /// Find all matches in `hay` (including overlapping), end offsets
    /// relative to `hay`.
    pub fn find_all(&self, hay: &[u8]) -> Vec<Match> {
        let mut all = Vec::new();
        self.walk(hay, |out, end| {
            all.extend(out.iter().map(|&p| Match::new(p, end)));
            false
        });
        all
    }

    /// True if any pattern occurs in `hay`.
    #[inline]
    pub fn is_match(&self, hay: &[u8]) -> bool {
        self.find_first_id(hay).is_some()
    }

    /// Heap footprint in bytes: both tiers, outputs, the filter bitmap and
    /// the pattern bytes.
    pub fn memory_bytes(&self) -> usize {
        let mut total = self.hot_tier_bytes() + self.cold_tier_bytes();
        for o in &self.outputs {
            total += o.len() * std::mem::size_of::<PatternId>() + std::mem::size_of::<usize>();
        }
        total += self.filter.as_ref().map_or(0, WindowFilter::memory_bytes);
        total += self.set.total_bytes();
        total
    }
}

/// Byte classes and their columns over the first `hot_count` states of
/// `order`: `columns[class][s]` is the breadth-first position reached from
/// position `s` on any byte of the class. Classes merge bytes whose *hot*
/// columns agree — `hot_count × 256` resolved steps, never the
/// full-state-count column scan.
fn hot_columns(
    nfa: &AhoCorasick,
    order: &[u32],
    new_of: &[u32],
    hot_count: usize,
) -> (Box<[u8; 256]>, Vec<Vec<u32>>) {
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
    (classes, columns)
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

    /// The filter's window and stride for a default-budget build (`None`
    /// = no filter).
    fn shape(patterns: &[&[u8]]) -> Option<(usize, usize)> {
        let tiered = TieredNfa::new(PatternSet::from_patterns(patterns));
        tiered.filter_shape().map(|(w, s, _)| (w, s))
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
    fn matches_after_rejected_windows_and_in_the_tail() {
        // A match after a run of windows the filter rejects.
        check(&[b"needle"], b"......needle...");
        // The match is the payload's last bytes, reached by the tail
        // gather rather than a full 4-byte load.
        check(&[b"ab"], b"0123456789ab");
        check(&[b"xy"], b"0123456xy");
        // The walk from the first candidate falls back to depth ≤ 1, and
        // the real match begins inside the region it already covered: the
        // resume point `j − depth` must re-test it.
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
    fn hot_floor_keeps_every_depth_one_state_hot() {
        // Every byte value starts a piece: the root plus its first level
        // is 257 states, one more than the budget floor.
        let pieces: Vec<Vec<u8>> = (0..=255u8).map(|b| vec![b, b'-', b'!']).collect();
        let set = PatternSet::from_patterns(&pieces);
        let tiered = TieredNfa::new(set.clone());
        assert!(
            tiered.hot_state_count() >= 257,
            "every depth-1 state is hot"
        );
        assert_eq!(tiered.filter.as_ref().map(|f| f.window), Some(3));
        assert_eq!(tiered.shallow_limit as usize, 257 * tiered.class_count());
        let mut hay = b"....".to_vec();
        hay.extend_from_slice(&[255, b'-', 255, b'-', b'!', 0, b'-']);
        let mut want = naive::find_all(&set, &hay);
        want.sort();
        let mut got = tiered.find_all(&hay);
        got.sort();
        assert_eq!(got, want);
        assert_eq!(tiered.find_first_id(&hay), Some(255));
    }

    #[test]
    fn window_is_the_shortest_piece_up_to_four_bytes() {
        assert_eq!(shape(&[b"ab", b"wxyz"]), Some((2, 1)));
        assert_eq!(shape(&[b"abc", b"wxyz"]), Some((3, 1)));
        assert_eq!(shape(&[b"abcdefg", b"wxyz"]), Some((4, 1)));
        // Longer shortest pieces keep the 4-byte window and stride by
        // `m − 3`.
        assert_eq!(shape(&[b"abcde", b"vwxyz0"]), Some((4, 2)));
        assert_eq!(shape(&[b"abcdef", b"vwxyz01"]), Some((4, 3)));
        assert_eq!(shape(&[b"abcdefghi", b"rstuvwxyz0"]), Some((4, 6)));
        // Occurrences ending the payload, starting inside its last four
        // bytes, and payloads shorter than one full load.
        let cases: [(&[&[u8]], &[u8]); 3] = [
            (&[b"ab", b"wxyz"], b"ab"),
            (&[b"abc", b"wxyz"], b"abc"),
            (&[b"abcdefg", b"wxyz"], b"wxyz"),
        ];
        for (pieces, tail) in cases {
            let mut hay = b"0123456789".to_vec();
            hay.extend_from_slice(tail);
            check(pieces, &hay);
            check(pieces, tail);
            check(pieces, &hay[hay.len() - tail.len() - 1..]);
            check(pieces, &hay[..hay.len() - 1]);
        }
    }

    #[test]
    fn strided_filter_finds_every_start_offset() {
        const LETTERS: &[u8] = b"ABCDEFGHIJKL";
        const OTHER: &[u8] = b"MNOPQRSTUVWXYZ";
        for (m, s) in [(5, 2), (6, 3), (9, 6)] {
            let piece = &LETTERS[..m];
            let pieces: [&[u8]; 2] = [piece, &OTHER[..m + 3]];
            assert_eq!(shape(&pieces), Some((4, s)));
            // A near miss (the piece without its last byte) can hand the
            // automaton a walk that falls back to the root, moving `from`
            // off 0 before the planted occurrence; `lead` shifts the
            // tested positions against both.
            for lead in 0..s {
                for decoy in [false, true] {
                    for at in 0..=2 * s {
                        let mut hay = vec![b'.'; lead];
                        if decoy {
                            hay.extend_from_slice(&piece[..m - 1]);
                            hay.push(b'.');
                        }
                        hay.resize(hay.len() + at, b'.');
                        hay.extend_from_slice(piece);
                        // Starting at `len − m`, the last admissible start.
                        check(&pieces, &hay);
                        hay.extend_from_slice(b"..");
                        check(&pieces, &hay);
                    }
                }
            }
            // Payloads of `m ..= m + s` bytes, the occurrence at every
            // start.
            for len in m..=m + s {
                for at in 0..=len - m {
                    let mut hay = vec![b'.'; len];
                    hay[at..at + m].copy_from_slice(piece);
                    check(&pieces, &hay);
                }
            }
        }
    }

    #[test]
    fn one_byte_piece_falls_back_to_the_unfiltered_walk() {
        assert_eq!(shape(&[b"x", b"abcd"]), None);
        check(&[b"x", b"abcd"], b"..abcd..x");
        check(&[b"x", b"abcd"], b"x");
        check(&[b"x", b"xabcd", b"abcd"], b"xxabcdx");
        // A hot tier pinned below the root's fan-out has no filter either.
        let set = PatternSet::from_patterns([b"abcd".as_slice(), b"bcde", b"cdef"]);
        let pinned = TieredNfa::with_hot_states(set, 3);
        assert!(pinned.filter.is_none());
        assert_eq!(pinned.find_first_id(b"..bcdef"), Some(1));
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
        // byte-classed DFA behind the window filter.
        let set = PatternSet::from_patterns([b"ABCDEFGH".as_slice(), b"IJKLMNOP", b"QRSTUVWX"]);
        let tiered = TieredNfa::new(set);
        assert_eq!(tiered.cold_state_count(), 0);
        assert!(tiered.class_count() <= 25, "24 letters + rest");
        // 8-byte pieces: a 4-byte window tested every fifth position.
        assert_eq!(tiered.filter_shape(), Some((4, 5, 512)));
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
    fn filter_rejects_benign_runs_but_never_misses() {
        // A long benign run whose windows the filter rejects, then a match
        // well past the first load.
        let set = PatternSet::from_patterns([b"needle".as_slice()]);
        let tiered = TieredNfa::new(set);
        let mut hay = vec![b'.'; 67];
        hay.extend_from_slice(b"needle");
        hay.extend(vec![b'.'; 5]);
        assert_eq!(tiered.find_first_id(&hay), Some(0));
        assert_eq!(tiered.find_all(&hay)[0].end, 73);
        // 'n' bytes that enter the automaton and fall back to depth 1 must
        // not desync the resume point.
        let mut hay = vec![b'n'; 50];
        hay.extend_from_slice(b"needle");
        assert!(tiered.is_match(&hay));
    }
}
