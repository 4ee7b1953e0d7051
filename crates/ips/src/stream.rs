//! Full-signature matching over a reassembled stream, one slice at a time.
//!
//! The reassembler hands each direction's in-order bytes to the IPS in
//! slices of any size, straight from the packet where it can, and keeps
//! none of them. A signature may straddle slices. [`StreamTail`] is the
//! only stream state the matcher keeps: the last `window = longest
//! signature − 1` bytes of one direction and the absolute offset of the
//! next byte. The scanner itself is immutable, so every engine shares one.
//! [`StreamScanner::feed`] scans a new slice in two parts:
//!
//! * `TieredNfa::find_all` over the slice finds every occurrence that lies
//!   inside it;
//! * a junction scan over `tail ++ the first min(len, window) new bytes`
//!   keeps only the occurrences that start in the tail and end in the new
//!   bytes. An occurrence that starts in the tail ends at most `window`
//!   bytes past it, so the junction never needs more.
//!
//! The two parts are disjoint (one starts before the slice, the other
//! inside it), neither re-reports an occurrence wholly inside the tail,
//! and their merge is in end-offset order. A rule reload swaps the scanner
//! and keeps every tail, trimmed to the new window: the tail is plain
//! bytes, not automaton state, so an occurrence straddling the swap is
//! found under the new rules with nothing replayed.

use sd_match::{Match, PatternId, TieredNfa};

use crate::signature::SignatureSet;

/// One direction's stream state: the last `window` delivered bytes and
/// the absolute offset of the next one.
#[derive(Debug, Clone, Default)]
pub struct StreamTail {
    bytes: Vec<u8>,
    offset: u64,
}

impl StreamTail {
    /// Per-direction state charged on top of the tail bytes: the 8-byte
    /// offset and a 4-byte tail length.
    pub const STATE_BYTES: usize = 12;

    /// Empty tail at stream offset 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absolute offset of the next byte to be fed.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Tail bytes held.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when no byte is held.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Keep only the last `window` bytes.
    pub fn trim(&mut self, window: usize) {
        let excess = self.bytes.len().saturating_sub(window);
        self.bytes.drain(..excess);
    }

    /// Slide `chunk` in, keeping the last `window` bytes.
    fn append(&mut self, chunk: &[u8], window: usize) {
        if chunk.len() >= window {
            self.bytes.clear();
            self.bytes.extend_from_slice(&chunk[chunk.len() - window..]);
        } else {
            self.trim(window - chunk.len());
            self.bytes.extend_from_slice(chunk);
        }
        self.offset += chunk.len() as u64;
    }
}

/// The full-signature automaton and its junction window: read-only once
/// built, and shared by every stream and every engine that runs it.
#[derive(Debug, Clone)]
pub struct StreamScanner {
    nfa: TieredNfa,
    /// `longest signature − 1`.
    window: usize,
}

impl StreamScanner {
    /// Compile the signatures with the piece automaton's constructor: the
    /// same hot-tier heuristic and window filter, over whole signatures.
    pub fn new(sigs: &SignatureSet) -> Self {
        let nfa = TieredNfa::new(sigs.to_patterns());
        let window = nfa.patterns().max_len().unwrap_or(0).saturating_sub(1);
        StreamScanner { nfa, window }
    }

    /// Tail bytes a stream keeps: one short of the longest signature.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Automaton heap footprint in bytes (shared, not per stream).
    pub fn memory_bytes(&self) -> usize {
        self.nfa.memory_bytes()
    }

    /// The compiled automaton, for its tier layout.
    pub fn automaton(&self) -> &TieredNfa {
        &self.nfa
    }

    /// Every match in one self-contained payload, end offsets relative to
    /// it (UDP datagrams).
    pub fn find_all(&self, payload: &[u8]) -> Vec<Match> {
        self.nfa.find_all(payload)
    }

    /// Feed the next in-order slice of the stream `tail` tracks, calling
    /// `on_match(signature, end)` for every occurrence that ends in it,
    /// with absolute end offsets, in end-offset order. `junction` is the
    /// caller's scratch buffer for the junction scan.
    pub fn feed(
        &self,
        tail: &mut StreamTail,
        chunk: &[u8],
        junction: &mut Vec<u8>,
        mut on_match: impl FnMut(PatternId, u64),
    ) {
        let base = tail.offset;
        let mut inside = self.nfa.find_all(chunk).into_iter().peekable();
        if !tail.is_empty() {
            let t = tail.len();
            junction.clear();
            junction.extend_from_slice(&tail.bytes);
            junction.extend_from_slice(&chunk[..chunk.len().min(self.window)]);
            let set = self.nfa.patterns();
            for m in self.nfa.find_all(junction) {
                if m.end <= t || m.start(set) >= t {
                    continue;
                }
                let end = m.end - t;
                // At one end offset the longer, straddling occurrence
                // comes first, as the automaton reports a single scan.
                while let Some(c) = inside.next_if(|c| c.end < end) {
                    on_match(c.pattern, base + c.end as u64);
                }
                on_match(m.pattern, base + end as u64);
            }
        }
        for c in inside {
            on_match(c.pattern, base + c.end as u64);
        }
        tail.append(chunk, self.window);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Signature;

    fn scanner(patterns: &[&str]) -> StreamScanner {
        StreamScanner::new(&SignatureSet::from_signatures(
            patterns
                .iter()
                .map(|p| Signature::new(*p, p.as_bytes().to_vec())),
        ))
    }

    /// Feed `chunks` into a fresh tail; `(signature, end)` in report order.
    fn feed_all(s: &StreamScanner, chunks: &[&[u8]]) -> Vec<(PatternId, u64)> {
        let (mut tail, mut junction) = (StreamTail::new(), Vec::new());
        let mut out = Vec::new();
        for chunk in chunks {
            s.feed(&mut tail, chunk, &mut junction, |p, end| out.push((p, end)));
        }
        assert_eq!(tail.offset(), chunks.iter().map(|c| c.len() as u64).sum());
        assert!(tail.len() <= s.window());
        out
    }

    #[test]
    fn match_across_chunk_boundary() {
        let s = scanner(&["attack"]);
        assert_eq!(s.window(), 5);
        assert_eq!(feed_all(&s, &[b"xxatt", b"ackyy"]), [(0, 8)]);
    }

    #[test]
    fn byte_at_a_time_equals_batch() {
        let s = scanner(&["abab", "ba"]);
        let hay = b"abababab";
        let batch = feed_all(&s, &[hay]);
        let single: Vec<&[u8]> = hay.chunks(1).collect();
        assert_eq!(feed_all(&s, &single), batch);
        let direct: Vec<(PatternId, u64)> = s
            .find_all(hay)
            .into_iter()
            .map(|m| (m.pattern, m.end as u64))
            .collect();
        assert_eq!(batch, direct);
    }

    #[test]
    fn random_chunking_equals_batch() {
        let s = scanner(&["he", "she", "hers", "his"]);
        let hay = b"ushers and his shed with hershey";
        let batch = feed_all(&s, &[hay]);
        for sizes in [
            [1usize, 30, 1].as_slice(),
            &[3, 3, 3, 3, 3, 17],
            &[32],
            &[5, 27],
        ] {
            let mut chunks = Vec::new();
            let mut pos = 0;
            for &n in sizes {
                chunks.push(&hay[pos..pos + n]);
                pos += n;
            }
            assert_eq!(feed_all(&s, &chunks), batch, "chunk sizes {sizes:?}");
        }
    }

    #[test]
    fn junction_reports_nested_signatures_once_in_end_order() {
        // "abcd" contains "bc" and ends with "cd": cut at every point, each
        // occurrence is reported once, straddling or not.
        let s = scanner(&["abcd", "bc", "cd", "d"]);
        let hay = b"xabcdx";
        let batch = feed_all(&s, &[hay]);
        assert_eq!(batch, [(1, 4), (0, 5), (2, 5), (3, 5)]);
        for cut in 0..=hay.len() {
            let (a, b) = hay.split_at(cut);
            assert_eq!(feed_all(&s, &[a, b]), batch, "cut at {cut}");
        }
    }

    #[test]
    fn occurrence_over_slices_shorter_than_the_window() {
        let s = scanner(&["0123456789"]);
        assert_eq!(s.window(), 9);
        let got = feed_all(&s, &[b"..012", b"345", b"6", b"78", b"9.."]);
        assert_eq!(got, [(0, 12)]);
    }

    #[test]
    fn resume_carries_tail_context_without_reporting_it() {
        // A reload swaps the scanner and keeps the tail: a straddling
        // occurrence completes under the new rules at its absolute offset,
        // and one wholly inside the tail is not reported again.
        let old = scanner(&["attack"]);
        let new = scanner(&["attack", "other"]);
        let (mut tail, mut junction) = (StreamTail::new(), Vec::new());
        let mut out = Vec::new();
        old.feed(&mut tail, b"attack..att", &mut junction, |p, end| {
            out.push((p, end))
        });
        assert_eq!(out, [(0, 6)]);
        tail.trim(new.window());
        new.feed(&mut tail, b"ackyy", &mut junction, |p, end| {
            out.push((p, end))
        });
        assert_eq!(out, [(0, 6), (0, 14)]);
    }
}
