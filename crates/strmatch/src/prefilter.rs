//! Start-state skip prefilter.
//!
//! Almost all traffic is benign and a benign payload mostly keeps an
//! Aho–Corasick automaton parked in its start state — yet a plain scan
//! still pays a serial, load-latency-bound table lookup for every byte. The
//! only bytes that matter while parked are the ones with a transition *out*
//! of the start state (the first bytes of pattern prefixes). [`StartSkip`]
//! precomputes that escape set and scans eight bytes per step in safe Rust:
//!
//! * **general path** — one `u64` load per chunk, then a branch-free
//!   256-bit-bitmap membership test per lane, OR-ed into a single per-chunk
//!   branch. The eight tests are independent (full ILP), unlike the
//!   automaton's chain of dependent loads.
//! * **rare path** (≤ 3 escape bytes) — the classic SWAR zero-byte trick
//!   (`memchr` without `memchr`): XOR with a splatted byte value turns
//!   occurrences into zero lanes, and `(x - 0x01…) & !x & 0x80…` flags
//!   them; three ALU ops per value per chunk, no per-lane work at all.
//!
//! [`crate::tiered::TieredNfa`] couples the skipper with its automaton: it
//! skips while the walk would sit in the start state, enters the automaton
//! at the first candidate byte, and drops back to skipping whenever the
//! walk returns to start. Skipped bytes provably keep the automaton at
//! start (that is the definition of the escape set) and the start state
//! never reports a match (empty patterns are rejected at
//! [`crate::pattern::PatternSet`] construction), so the match set is
//! byte-identical to the dense scan on every input — the cross-check
//! property tests in `tests/prop.rs` pin this. Worst-case cost is
//! unchanged: adversarial bytes degrade to the plain per-byte automaton
//! walk plus a bounded prefilter tax.

/// Escape sets at most this large use the splatted-byte SWAR path.
const RARE_MAX: usize = 3;

const SWAR_LO: u64 = 0x0101_0101_0101_0101;
const SWAR_HI: u64 = 0x8080_8080_8080_8080;

/// The set of bytes with a transition out of the DFA start state, with an
/// 8-bytes-per-step candidate search.
#[derive(Debug, Clone)]
pub struct StartSkip {
    /// 256-bit membership bitmap, bit `b` of word `b / 64`.
    bitmap: [u64; 4],
    /// The escape bytes themselves when few enough for the splatted-byte
    /// path; empty means "use the bitmap path".
    rare: Vec<u8>,
    escape_count: usize,
}

impl StartSkip {
    /// Build from an explicit escape-byte set.
    pub fn from_escape_bytes(bytes: impl IntoIterator<Item = u8>) -> Self {
        let mut bitmap = [0u64; 4];
        let mut escapes: Vec<u8> = Vec::new();
        for b in bytes {
            if bitmap[(b >> 6) as usize] & (1 << (b & 63)) == 0 {
                bitmap[(b >> 6) as usize] |= 1 << (b & 63);
                escapes.push(b);
            }
        }
        let escape_count = escapes.len();
        let rare = if escape_count <= RARE_MAX {
            escapes
        } else {
            Vec::new()
        };
        StartSkip {
            bitmap,
            rare,
            escape_count,
        }
    }

    /// Number of distinct escape bytes.
    pub fn escape_count(&self) -> usize {
        self.escape_count
    }

    /// Whether the splatted-byte rare path is active.
    pub fn is_rare(&self) -> bool {
        !self.rare.is_empty() || self.escape_count == 0
    }

    /// Membership test for a single byte.
    #[inline(always)]
    pub fn contains(&self, b: u8) -> bool {
        (self.bitmap[(b >> 6) as usize] >> (b & 63)) & 1 != 0
    }

    /// Index of the first escape byte at or after `from`, scanning eight
    /// bytes per step.
    #[inline]
    pub fn find_candidate(&self, hay: &[u8], from: usize) -> Option<usize> {
        let mut i = from.min(hay.len());
        if self.rare.is_empty() {
            while i + 8 <= hay.len() {
                let w = u64::from_le_bytes(hay[i..i + 8].try_into().expect("8-byte chunk"));
                let mut hits = 0u32;
                for lane in 0..8 {
                    let b = ((w >> (lane * 8)) & 0xff) as usize;
                    let bit = (self.bitmap[b >> 6] >> (b & 63)) & 1;
                    hits |= (bit as u32) << lane;
                }
                if hits != 0 {
                    return Some(i + hits.trailing_zeros() as usize);
                }
                i += 8;
            }
        } else {
            while i + 8 <= hay.len() {
                let w = u64::from_le_bytes(hay[i..i + 8].try_into().expect("8-byte chunk"));
                let mut flagged = 0u64;
                for &v in &self.rare {
                    let x = w ^ (SWAR_LO * u64::from(v));
                    flagged |= x.wrapping_sub(SWAR_LO) & !x & SWAR_HI;
                }
                if flagged != 0 {
                    // The lowest flagged lane is the exact first hit, but a
                    // per-byte confirm keeps correctness independent of the
                    // bit trick: scan the chunk from that lane and fall
                    // through (soundly) if nothing confirms.
                    let lane = (flagged.trailing_zeros() / 8) as usize;
                    for (off, &b) in hay[i + lane..i + 8].iter().enumerate() {
                        if self.contains(b) {
                            return Some(i + lane + off);
                        }
                    }
                }
                i += 8;
            }
        }
        hay[i..]
            .iter()
            .position(|&b| self.contains(b))
            .map(|off| i + off)
    }

    /// Footprint in bytes (the bitmap plus the rare list).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<[u64; 4]>() + self.rare.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_is_exactly_the_escape_bytes() {
        let skip = StartSkip::from_escape_bytes([b'G', b'_', b'G']);
        assert_eq!(skip.escape_count(), 2, "duplicates collapse");
        assert!(skip.contains(b'G'));
        assert!(skip.contains(b'_'));
        assert!(!skip.contains(b'E'));
        assert!(skip.is_rare());
    }

    #[test]
    fn rare_and_general_paths_agree() {
        // 2 escape bytes → rare path; 5 → general path. Same candidates.
        let rare = StartSkip::from_escape_bytes([b'x', b'Q']);
        let general = StartSkip::from_escape_bytes([b'x', b'Q', 1, 2, 3]);
        assert!(rare.is_rare());
        assert!(!general.is_rare());
        let hay: Vec<u8> = (0..100u8)
            .map(|i| if i % 37 == 0 { b'Q' } else { b'.' })
            .collect();
        for from in 0..hay.len() + 2 {
            assert_eq!(
                rare.find_candidate(&hay, from),
                general.find_candidate(&hay, from),
                "from {from}"
            );
        }
    }

    #[test]
    fn candidates_at_every_offset() {
        // Sweep the candidate across all 8 chunk lanes, plus the tail.
        let skip = StartSkip::from_escape_bytes([0xEE]);
        for len in 0..24usize {
            for at in 0..len {
                let mut hay = vec![0x20u8; len];
                hay[at] = 0xEE;
                assert_eq!(skip.find_candidate(&hay, 0), Some(at), "len {len} at {at}");
                assert_eq!(skip.find_candidate(&hay, at + 1), None);
            }
        }
        assert_eq!(skip.find_candidate(&[], 0), None);
        assert_eq!(skip.find_candidate(&[0u8; 9], 99), None);
    }
}
