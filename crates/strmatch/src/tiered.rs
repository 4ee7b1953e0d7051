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
//!   classes computed over the hot rows only. Hot states that report
//!   nothing are numbered before hot states that report a match.
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
//! `w = min(4, m)` and stride `s = m − w + 1`, a bitmap holds two bits of
//! one 32-bit word for each of a piece's `s` windows of `w` bytes
//! (offsets `0..s`), both taken from one multiplicative hash (`Bitmap`),
//! and the scan tests one position in every `s` — `from + s − 1, from +
//! 2s − 1, …` — each a `u32` load, a mask, a multiply, two shifts and a
//! test of both bits in one word, with no dependence between positions.
//! A window hits only when both of its bits are set. A hit counts only
//! inside a run: the filter passes a tested position `q` whose window
//! hits when the hits met walking left from `q − 1` and right from
//! `q + 1`, each side stopping at its first miss, number at least
//! `s − 1` (a position below 0, or a window past the last
//! `u32` load, is a miss; at `s = 1` nothing is checked). With AVX2, the
//! crate's `wide` loop tests eight positions per branch and runs the same
//! confirmation on each hitting lane, lowest first, so it returns the same
//! first candidate; the scalar loop takes the first two, finishes after
//! the last whole block, and is the whole filter elsewhere.
//!
//! *Run lemma.* An occurrence starting at `c ≥ from` has its windows at
//! `c ..= c + s − 1`, each with both bits set and all inside the haystack
//! (`c + s − 1 + 4 = c + m`); that interval holds exactly one tested
//! position `q`, and the `s − 1` others are hits next to it on one side or
//! the other, so `q` passes. A false hit passes only if its neighbours hit
//! as well. *Resume invariant.* On a candidate at `q` the automaton
//! walks from the start state at `c0 = q − (s − 1)`: an occurrence
//! starting in `[from, c0)` would have passed at a tested position before
//! `q`. Once the walk has read at least two bytes and is back at depth
//! ≤ 1 at `j`, the filter resumes at `from = j − depth ≥ c0 + 1`: any
//! occurrence still in progress at `j` starts at or after `j − depth`.
//! *Linear:* tested positions strictly increase, so there are at most `n`,
//! and each costs at most `s + 1` window tests: its own, then `L` hits
//! and at most one miss on the left and at most `s − 1 − L` tests on the
//! right. So the filter makes at most `(s + 1)·n` tests; a miss, which is
//! almost every benign position, costs one. Each walk ends at most
//! one byte before the next `c0`, so the automaton takes at most `2n`
//! steps. Breadth-first numbering makes
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
//! [`TieredNfa::from_nfa`] takes a pinned boundary for the equivalence
//! tests; it is not a user-settable knob.
//!
//! **Build.** The NFA already numbers its states breadth-first, so the
//! hot tier is its first `H` states and the cold tier the rest. A hot
//! state's resolved row is its failure state's row (shallower, so built
//! first) overwritten with its own edges; the rows are built once and
//! shared by the sizing passes. The cold tier is the NFA's own edge
//! arrays from the first cold state on, the outputs the NFA's lists
//! renumbered ([`FlatLists`]). The build is `O(H × 256 + edges)`, with no
//! failure-chain walk per row.

use std::collections::HashMap;

use crate::aho::AhoCorasick;
use crate::pattern::{FlatLists, Match, PatternId, PatternSet};
use crate::wide::Avx2;

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
/// before the size is rounded up to a power of two and clamped: 16 KB at
/// 200 rules (600 pieces, stride 2), where a non-member window hits about
/// 0.14 % of the time, and the 256 KB cap at 10k rules (about 60k
/// windows, 35 bits each), where it hits about 0.6 % (one bit per
/// window would be 0.9 % and 2.8 %).
const FILTER_BITS_PER_WINDOW: usize = 64;

/// Bitmap size bounds, log2 of the bit count: 512 B to 256 KB.
const FILTER_LOG2_BITS: (u32, u32) = (12, 21);

/// Fibonacci-hashing multiplier, `2^32 / φ`.
pub(crate) const WINDOW_HASH: u32 = 0x9E37_79B1;

/// Tested positions the scalar loop takes before the eight-wide one.
const SCALAR_PROBE: usize = 2;

/// The window filter's bitmap and hash, which both loops read. With
/// `prod = (x & mask) × WINDOW_HASH` and `h = prod >> shift`, a window `x`
/// owns two bits of word `h >> 5`: bit `h & 31` and bit `(prod >> (shift −
/// 5)) & 31`, the five product bits just below the word index, so one
/// multiply and one word load place both. It hits when both are set: a
/// window outside the inserted set hits only when its word holds both of
/// its bits.
#[derive(Debug, Clone)]
pub(crate) struct Bitmap {
    /// Keeps the low `window` bytes of a little-endian `u32`.
    pub(crate) mask: u32,
    /// `32 − log2(bitmap bits)`, at least 5: the word index is the
    /// product's top bits and the second bit's index the five below them.
    pub(crate) shift: u32,
    /// Both bits of each inserted window are set.
    pub(crate) bits: Box<[u32]>,
}

impl Bitmap {
    /// The word window `x` hashes to and its two bits in that word (one
    /// bit when the two indices coincide).
    #[inline(always)]
    fn locate(&self, x: u32) -> (usize, u32) {
        let prod = (x & self.mask).wrapping_mul(WINDOW_HASH);
        let h = prod >> self.shift;
        let second = prod >> (self.shift - 5);
        ((h >> 5) as usize, 1 << (h & 31) | 1 << (second & 31))
    }

    fn insert(&mut self, x: u32) {
        let (word, pair) = self.locate(x);
        self.bits[word] |= pair;
    }

    #[inline(always)]
    fn hit(&self, x: u32) -> bool {
        let (word, pair) = self.locate(x);
        self.bits[word] & pair == pair
    }
}

/// The strided piece-window filter: two bits of one bitmap word for each
/// of a piece's first `stride` windows of `window` bytes. A tested window
/// that misses the bitmap is no such window of any piece; a hit is only a
/// candidate for the automaton to verify.
#[derive(Debug, Clone)]
struct WindowFilter {
    /// Bytes hashed per position, `2..=MAX_WINDOW`.
    window: usize,
    /// Positions per test, `shortest piece − window + 1`; above 1 only
    /// when `window == MAX_WINDOW`.
    stride: usize,
    bitmap: Bitmap,
    /// Set when the CPU runs the eight-wide loop.
    wide: Option<Avx2>,
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
        let mut bitmap = Bitmap {
            mask: u32::MAX >> (32 - 8 * window as u32),
            shift: 32 - log2,
            bits: vec![0; 1 << (log2 - 5)].into_boxed_slice(),
        };
        for (_, piece) in set.iter() {
            for at in 0..stride {
                bitmap.insert(load_window(&piece[at..]));
            }
        }
        Some(WindowFilter {
            window,
            stride,
            bitmap,
            wide: Avx2::detect(),
        })
    }

    /// Whether the `u32` window at `p` hits; `None` past the last load.
    #[inline(always)]
    fn test(&self, hay: &[u8], p: usize) -> Option<bool> {
        let w = hay.get(p..p + 4)?;
        let x = u32::from_le_bytes(w.try_into().expect("4-byte window"));
        Some(self.bitmap.hit(x))
    }

    /// Whether the hit at tested position `q` lies in a run of `stride`
    /// consecutive hitting positions: the hits met walking left from
    /// `q − 1` and right from `q + 1`, each side stopping at its first
    /// miss, number at least `stride − 1`. A position below 0 or a window
    /// past the last `u32` load is a miss. An occurrence at `c` hits at
    /// every `c ..= c + stride − 1` (module docs), so its tested position
    /// always passes.
    #[inline(always)]
    fn confirm(&self, hay: &[u8], q: usize) -> bool {
        let need = self.stride - 1;
        let left = (1..=need.min(q))
            .take_while(|&d| self.test(hay, q - d) == Some(true))
            .count();
        (1..=need - left).all(|d| self.test(hay, q + d) == Some(true))
    }

    /// Where to walk from: `q − (stride − 1)` for the first tested
    /// position `q` in `from + stride − 1, from + 2·stride − 1, …` whose
    /// window hits the bitmap inside a run of `stride` hits
    /// ([`Self::confirm`]). The last `window − 1` positions cannot start a
    /// piece and are not tested.
    #[inline]
    fn find(&self, hay: &[u8], from: usize) -> Option<usize> {
        let back = self.stride - 1;
        let mut p = from + back;
        if let Some(wide) = self.wide {
            // Candidates cluster: a walk often ends just short of the next
            // one, which the scalar test then finds in a few cycles, before
            // the vector loop's loads, multiply and bitmap gather would
            // answer. On payload built from piece prefixes every candidate
            // is real, and without the probe the piece scan there is 1.26×
            // slower (E30).
            for _ in 0..SCALAR_PROBE {
                match self.test(hay, p) {
                    Some(true) if self.confirm(hay, p) => return Some(p - back),
                    Some(_) => p += self.stride,
                    None => break,
                }
            }
            let confirm = |q| self.confirm(hay, q);
            match wide.find(hay, p, self.stride, &self.bitmap, confirm) {
                Ok(q) => return Some(q - back),
                Err(next) => p = next,
            }
        }
        while let Some(hit) = self.test(hay, p) {
            if hit && self.confirm(hay, p) {
                return Some(p - back);
            }
            p += self.stride;
        }
        // Past the `u32` loads only `window < 4`, hence `stride == 1`,
        // leaves positions to test; for `window == 4` the range is empty.
        let last = hay.len().checked_sub(self.window)?;
        (p..=last).find(|&p| self.bitmap.hit(load_window(&hay[p..])))
    }

    fn memory_bytes(&self) -> usize {
        self.bitmap.bits.len() * 4
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
    outputs: FlatLists<PatternId>,
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

    /// Compile from an existing NFA. `hot_states` pins the hot-tier size
    /// (clamped to `1..=state_count`), the equivalence tests' axis; `None`
    /// applies the byte-budget heuristic.
    pub fn from_nfa(nfa: &AhoCorasick, hot_states: Option<usize>) -> Self {
        let n = nfa.state_count();

        // The NFA numbers its states breadth-first: the hot tier is a
        // prefix of that order, and the root's children are `1..=fanout`.
        let fanout = nfa.transitions(0).count();

        // Hot-tier sizing. An explicit count wins; otherwise spend about
        // as many bytes on dense hot rows as the full CSR arena would
        // occupy, converging on the actual class count (classes are
        // computed over hot rows only, so the count depends on the
        // boundary — one or two refinement passes settle it). Resolved
        // rows are built once and shared by the passes.
        let edges = n.saturating_sub(1); // a trie over n states has n-1 edges
        let csr_budget = edges * CSR_EDGE_BYTES + n * CSR_STATE_BYTES;
        let floor = MIN_HOT_STATES.max(1 + fanout).min(n);
        let clamp_hot = |h: usize| h.clamp(floor, n);
        let mut hot_count = match hot_states {
            Some(h) => h.clamp(1, n),
            None => clamp_hot(csr_budget / 1024), // worst case: 256 classes
        };
        let mut rows = Vec::new();
        let (mut classes, mut columns) = hot_columns(nfa, &mut rows, hot_count);
        if hot_states.is_none() {
            for _ in 0..2 {
                let want = clamp_hot(csr_budget / (4 * columns.len().max(1)));
                if want == hot_count {
                    break;
                }
                hot_count = want;
                (classes, columns) = hot_columns(nfa, &mut rows, hot_count);
            }
        }
        let class_count = columns.len();

        // Final numbering: hot states that report nothing, then hot match
        // states, each in breadth-first order; the cold tail keeps its
        // numbers. The partition is stable, so when no piece is one byte
        // long the root and its children keep numbers `0..=fanout`.
        let reports = |s: usize| !nfa.outputs(s as u32).is_empty();
        let (plain, matching): (Vec<usize>, Vec<usize>) =
            (0..hot_count).partition(|&s| !reports(s));
        let mut number: Vec<usize> = (0..hot_count).collect();
        for (k, &s) in plain.iter().chain(&matching).enumerate() {
            number[s] = k;
        }
        let cold_base = hot_count * class_count;
        assert!(
            cold_base + (n - hot_count) <= u32::MAX as usize,
            "encoded state ids must fit u32"
        );
        let encode = |s: u32| match number.get(s as usize) {
            Some(&t) => (t * class_count) as u32,
            None => (cold_base - hot_count) as u32 + s,
        };

        // The rows already built, permuted into the final numbering and
        // encoded — no second class computation.
        let mut hot = vec![0u32; cold_base];
        for (c, col) in columns.iter().enumerate() {
            for (s, &t) in col.iter().enumerate() {
                hot[number[s] * class_count + c] = encode(t);
            }
        }

        // Cold tail: the NFA's own edge arrays from the first cold state
        // on, offsets rebased and targets encoded.
        let first = nfa.edge_start[hot_count];
        let edge_start = nfa.edge_start[hot_count..]
            .iter()
            .map(|&e| e - first)
            .collect();
        let edge_bytes = nfa.edge_bytes[first as usize..].to_vec();
        let edge_next = nfa.edge_next[first as usize..]
            .iter()
            .map(|&t| encode(t))
            .collect();
        let fail = nfa.fail[hot_count..].iter().map(|&f| encode(f)).collect();

        let mut outputs = FlatLists::default();
        for s in plain.iter().chain(&matching).copied().chain(hot_count..n) {
            outputs.push(nfa.outputs(s as u32));
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
    /// positions per test, bitmap bytes, and whether the AVX2 loop tests
    /// eight positions per step (else the scalar loop tests one) — or
    /// `None` when the scan runs unfiltered. Derived from the pattern set
    /// and the CPU; not a knob.
    pub fn filter_shape(&self) -> Option<(usize, usize, usize, bool)> {
        self.filter
            .as_ref()
            .map(|f| (f.window, f.stride, f.memory_bytes(), f.wide.is_some()))
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
        self.outputs.get(state as usize)
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

    /// Heap footprint in bytes: both tiers, outputs, the filter bitmap and
    /// the pattern bytes.
    pub fn memory_bytes(&self) -> usize {
        self.hot_tier_bytes()
            + self.cold_tier_bytes()
            + self.outputs.memory_bytes()
            + self.filter.as_ref().map_or(0, WindowFilter::memory_bytes)
            + self.set.patterns.memory_bytes()
    }
}

/// Byte classes and their columns over the first `hot_count` states:
/// `columns.get(class)[s]` is the state reached from state `s` on any
/// byte of the class. Classes merge bytes whose *hot* columns agree,
/// never scanning full-state-count columns. `rows` holds each state's resolved
/// row, extended here to `hot_count`: a state's row is its failure
/// state's (built earlier, being shallower) overwritten with its own
/// edges, and the root's is its edges over zeros.
fn hot_columns(
    nfa: &AhoCorasick,
    rows: &mut Vec<[u32; 256]>,
    hot_count: usize,
) -> (Box<[u8; 256]>, FlatLists<u32>) {
    for s in rows.len() as u32..hot_count as u32 {
        let mut row = if s == 0 {
            [0; 256]
        } else {
            rows[nfa.fail(s) as usize]
        };
        for (b, t) in nfa.transitions(s) {
            row[usize::from(b)] = t;
        }
        rows.push(row);
    }
    let mut columns = FlatLists::default();
    let mut class_of: HashMap<Vec<u32>, u8> = HashMap::new();
    let mut classes = Box::new([0u8; 256]);
    for b in 0..256 {
        let col: Vec<u32> = rows[..hot_count].iter().map(|row| row[b]).collect();
        let class = *class_of
            .entry(col)
            .or_insert_with_key(|col| columns.push(col) as u8);
        classes[b] = class;
    }
    (classes, columns)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use proptest::prelude::*;

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
        }
    }

    /// The filter's window and stride for a default-budget build (`None`
    /// = no filter).
    fn shape(patterns: &[&[u8]]) -> Option<(usize, usize)> {
        let tiered = TieredNfa::new(PatternSet::from_patterns(patterns));
        tiered.filter_shape().map(|(w, s, _, _)| (w, s))
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

    /// What the eight-wide loop must return from `p`, counted out with the
    /// scalar `test`: the first tested position `q` of a whole block
    /// (`q + 7s + 4 ≤ len`) that hits inside a run of `s` hits, each side
    /// of `q` counted out in full, else the first position left untested.
    fn wide_model(filter: &WindowFilter, hay: &[u8], p: usize) -> Result<usize, usize> {
        let s = filter.stride;
        let hits = |p: usize| filter.test(hay, p) == Some(true);
        let in_run = |q: usize| {
            let left = (0..q).rev().take_while(|&p| hits(p)).count();
            let right = (q + 1..).take_while(|&p| hits(p)).count();
            hits(q) && left + right >= s - 1
        };
        let mut q = p;
        while q + 7 * s + 4 <= hay.len() {
            if let Some(t) = (0..8).map(|k| q + k * s).find(|&t| in_run(t)) {
                return Ok(t);
            }
            q += 8 * s;
        }
        Err(q)
    }

    /// The eight-wide loop against a scalar model of the run rule at every
    /// filter shape `(w, s)` (each shuffle stride 1–4, per-lane strides 5,
    /// 6 and 13), every `from` and every haystack length up to four blocks
    /// of the longer span, `7s + 4` or the shuffle's `4s + 16`, so that
    /// each hand-off from the shuffle to the per-lane loads is crossed:
    /// with no hit, with a lone piece window at each tested position
    /// (skipped above stride 1), with a whole piece whose run covers it
    /// at each offset (returned), and over bytes ≥ 0x80. The wide loop
    /// must return the model's first candidate among its whole blocks, or
    /// the same first untested position, and `find` must not change.
    /// Skipped without AVX2.
    #[test]
    fn wide_loop_returns_the_scalar_candidates() {
        let Some(wide) = Avx2::detect() else { return };
        let mut state = 0x2545_F491u32;
        let mut next = move || {
            state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            (state >> 16) as u8
        };
        for (m, shape) in [
            (2, (2, 1)),
            (3, (3, 1)),
            (5, (4, 2)),
            (6, (4, 3)),
            (7, (4, 4)),
            (8, (4, 5)),
            (9, (4, 6)),
            (16, (4, 13)),
        ] {
            for high in [false, true] {
                let mut byte = || {
                    if high {
                        0x80 | next()
                    } else {
                        b'a' + next() % 26
                    }
                };
                let pieces: Vec<Vec<u8>> = (m..m + 3)
                    .map(|len| (0..len).map(|_| byte()).collect())
                    .collect();
                let filter =
                    WindowFilter::new(&PatternSet::from_patterns(&pieces)).expect("filtered");
                let (w, s) = (filter.window, filter.stride);
                assert_eq!((w, s), shape);
                let scalar = WindowFilter {
                    wide: None,
                    ..filter.clone()
                };
                let max_len = 4 * (7 * s + 4).max(4 * s + 16);
                // '.' misses the letter pieces' bitmap everywhere; random
                // high bytes hit it only by collision.
                let filler: Vec<u8> = (0..max_len)
                    .map(|_| if high { byte() } else { b'.' })
                    .collect();
                if !high {
                    assert_eq!(scalar.find(&filler, 0), None, "filler must miss");
                }
                let mut block_end_hits = 0;
                let mut check = |hay: &[u8], from: usize| {
                    let p = from + s - 1;
                    let got = wide.find(hay, p, s, &filter.bitmap, |q| filter.confirm(hay, q));
                    let want = wide_model(&filter, hay, p);
                    assert_eq!(got, want, "w={w} s={s} len={} from={from}", hay.len());
                    let found = filter.find(hay, from);
                    assert_eq!(
                        found,
                        scalar.find(hay, from),
                        "w={w} s={s} len={} from={from}",
                        hay.len()
                    );
                    // Only lane 7 of a block ending at `len` tests `len − 4`.
                    if got.ok().map(|q| q + 4) == Some(hay.len()) {
                        block_end_hits += 1;
                    }
                    found
                };
                for len in 0..=max_len {
                    let mut hay = filler[..len].to_vec();
                    for from in 0..=len {
                        check(&hay, from);
                        for q in (from + s - 1..).step_by(s).take_while(|q| q + w <= len) {
                            let piece = &pieces[q % 3];
                            hay[q..q + w].copy_from_slice(&piece[..w]);
                            let lone = check(&hay, from);
                            hay[q..q + w].copy_from_slice(&filler[q..q + w]);
                            if !high && s > 1 {
                                assert_eq!(lone, None, "s={s} len={len}: lone window at {q}");
                            }
                            // `q` sits `(q / s) mod s` into the piece's run.
                            let c = q - (q / s) % s;
                            if c < from || c + piece.len() > len {
                                continue;
                            }
                            hay[c..c + piece.len()].copy_from_slice(piece);
                            let whole = check(&hay, from);
                            hay[c..c + piece.len()].copy_from_slice(&filler[c..c + piece.len()]);
                            if !high {
                                assert_eq!(whole, Some(q + 1 - s), "s={s} len={len}: piece at {c}");
                            }
                        }
                    }
                }
                assert!(
                    block_end_hits > 0,
                    "w={w} s={s}: no last full block ending at len"
                );
            }
        }
    }

    /// A half hit is a window whose first bitmap bit is set and whose
    /// second is clear, so it is no inserted window. Planted as the last
    /// window of a piece's run (the piece with its last byte changed), it
    /// has the piece's own `s − 1` windows hitting beside it, and only its
    /// second bit stops the run rule from passing it. At the wide test's
    /// shapes, lengths and `from`s, with the half hit at every tested
    /// position, the vector loop must match the scalar model and both
    /// loops must return no candidate. Skipped without AVX2.
    #[test]
    fn wide_loop_skips_half_hits_beside_piece_windows() {
        let Some(wide) = Avx2::detect() else { return };
        let mut state = 0x0BAD_5EEDu32;
        let mut letter = move || {
            state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            b'a' + (state >> 16) as u8 % 26
        };
        for (m, shape) in [
            (2, (2, 1)),
            (3, (3, 1)),
            (5, (4, 2)),
            (6, (4, 3)),
            (7, (4, 4)),
            (8, (4, 5)),
            (9, (4, 6)),
            (16, (4, 13)),
        ] {
            // Enough pieces that some last byte of some piece makes a half
            // hit.
            let pieces: Vec<Vec<u8>> = (0..40)
                .map(|_| (0..m).map(|_| letter()).collect())
                .collect();
            let filter = WindowFilter::new(&PatternSet::from_patterns(&pieces)).expect("filtered");
            let (w, s) = (filter.window, filter.stride);
            assert_eq!((w, s), shape);
            let scalar = WindowFilter {
                wide: None,
                ..filter.clone()
            };
            let bitmap = &filter.bitmap;
            // Window `x`'s bit `(prod >> shift) & 31` of word `h >> 5`,
            // counted from the hash rather than through `Bitmap::hit`.
            let bit = |x: u32, shift: u32| {
                let prod = (x & bitmap.mask).wrapping_mul(WINDOW_HASH);
                bitmap.bits[(prod >> bitmap.shift) as usize >> 5] >> (prod >> shift & 31) & 1 != 0
            };
            let first = |x| bit(x, bitmap.shift);
            // Between '.' fills, the run's windows `0..s − 1` are the only
            // ones whose first bit is set, besides the half hit.
            let pad = 4;
            let run = pieces
                .iter()
                .flat_map(|piece| {
                    (0..=255u8).map(move |b| {
                        let mut run = piece.clone();
                        run[m - 1] = b;
                        run
                    })
                })
                .find(|run| {
                    let x = load_window(&run[s - 1..]);
                    let mut hay = vec![b'.'; pad];
                    hay.extend_from_slice(run);
                    hay.resize(hay.len() + pad, b'.');
                    first(x)
                        && !bit(x, bitmap.shift - 5)
                        && (0..=hay.len() - 4).filter(|&p| p != pad + s - 1).all(|p| {
                            first(load_window(&hay[p..])) == (pad..pad + s - 1).contains(&p)
                        })
                })
                .expect("a half hit at the end of some piece's run");
            let max_len = 4 * (7 * s + 4).max(4 * s + 16);
            let mut hay = vec![b'.'; max_len];
            assert_eq!(scalar.find(&hay, 0), None, "filler must miss");
            for len in m..=max_len {
                for from in 0..=len - m {
                    for q in (from + s - 1..).step_by(s).take_while(|q| q + w <= len) {
                        let c = q + 1 - s;
                        if c + m > len {
                            break;
                        }
                        hay[c..c + m].copy_from_slice(&run);
                        let cut = &hay[..len];
                        let p = from + s - 1;
                        let got = wide.find(cut, p, s, bitmap, |q| filter.confirm(cut, q));
                        let at = format!("w={w} s={s} len={len} from={from} half hit at {q}");
                        assert_eq!(got, wide_model(&filter, cut, p), "{at}");
                        assert_eq!(filter.find(cut, from), None, "{at}");
                        assert_eq!(scalar.find(cut, from), None, "{at}");
                        hay[c..c + m].fill(b'.');
                    }
                }
            }
        }
    }

    /// The raw false-hit rate, counted: 5-byte random pieces (`w = 4`,
    /// `s = 2`) filling the bitmap at the 200-rule size (600 pieces, 2^17
    /// bits) and at the cap (30,000 pieces, about 60k windows in 2^21
    /// bits), probed with a fixed stream of 2^20 random non-member
    /// windows. Every inserted window hits, and a probe hits at under the
    /// bound. The test prints its count next to what the same windows at
    /// one bit each would give.
    #[test]
    fn two_bits_cut_the_false_hit_rate() {
        let mut state = 0x2006_5EEDu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 32) as u32
        };
        for (count, log2, bound) in [(600, 17, 0.002), (30_000, 21, 0.008)] {
            let pieces: Vec<[u8; 5]> = (0..count)
                .map(|_| {
                    let [a, b, c, d] = next().to_le_bytes();
                    [a, b, c, d, next() as u8]
                })
                .collect();
            let filter = WindowFilter::new(&PatternSet::from_patterns(&pieces)).expect("filtered");
            assert_eq!((filter.window, filter.stride), (4, 2));
            assert_eq!(filter.memory_bytes() * 8, 1 << log2);
            let bitmap = &filter.bitmap;
            let members: HashSet<u32> = pieces
                .iter()
                .flat_map(|piece| [load_window(piece), load_window(&piece[1..])])
                .collect();
            assert!(
                members.iter().all(|&x| bitmap.hit(x)),
                "an inserted window missed"
            );
            // The same windows at one bit each, for comparison.
            let hash = |x: u32| (x.wrapping_mul(WINDOW_HASH) >> bitmap.shift) as usize;
            let mut one_bit = vec![0u32; bitmap.bits.len()];
            for &x in &members {
                one_bit[hash(x) >> 5] |= 1 << (hash(x) & 31);
            }
            let (mut probes, mut one, mut two) = (0u32, 0u32, 0u32);
            while probes < 1 << 20 {
                let x = next();
                if members.contains(&x) {
                    continue;
                }
                probes += 1;
                one += one_bit[hash(x) >> 5] >> (hash(x) & 31) & 1;
                two += u32::from(bitmap.hit(x));
            }
            let rate = |n: u32| f64::from(n) / f64::from(probes);
            println!(
                "2^{log2} bits, {} windows, {probes} probes: one bit per window {one} \
                 ({:.2} %), two bits {two} ({:.2} %)",
                members.len(),
                100.0 * rate(one),
                100.0 * rate(two)
            );
            assert!(rate(two) < bound, "2^{log2} bits: {two} of {probes} hit");
        }
    }

    proptest! {
        /// Each hot row, its failure state's row overwritten with its own
        /// edges, resolves every byte to the state the NFA's failure walk
        /// reaches, and each class's column is every hot row's entry for
        /// each byte of the class, with no two columns equal — through a
        /// boundary that grows and then shrinks over the same rows, as the
        /// sizing passes move it.
        #[test]
        fn hot_rows_resolve_like_the_failure_walk(
            pats in prop::collection::vec(
                prop_oneof![
                    prop::collection::vec(prop_oneof![Just(b'a'), Just(b'b')], 1..6),
                    prop::collection::vec(any::<u8>(), 1..4),
                ],
                1..12,
            ),
        ) {
            let nfa = AhoCorasick::new(PatternSet::from_patterns(&pats));
            let n = nfa.state_count();
            let mut rows = Vec::new();
            for hot in [n.div_ceil(2), n, 1] {
                let (classes, columns) = hot_columns(&nfa, &mut rows, hot);
                for s in 0..hot {
                    for b in 0..=255u8 {
                        let col = columns.get(usize::from(classes[usize::from(b)]));
                        prop_assert_eq!(col[s], nfa.step(s as u32, b));
                    }
                }
                let distinct: HashSet<&[u32]> = columns.iter().collect();
                prop_assert_eq!(distinct.len(), columns.len());
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
        let pinned = TieredNfa::from_nfa(&AhoCorasick::new(set), Some(3));
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
        let avx2 = Avx2::detect().is_some();
        assert_eq!(tiered.filter_shape(), Some((4, 5, 512, avx2)));
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
        assert_eq!(tiered.find_first_id(&hay), Some(0));
    }
}
