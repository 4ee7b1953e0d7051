//! Per-direction TCP stream reassembly.
//!
//! This is the expensive machine the paper wants off the fast path: it
//! buffers out-of-order data, resolves overlaps under a configurable
//! [`OverlapPolicy`], and delivers the in-order byte stream a matcher can
//! scan. It doubles as the *victim model* — the evasion generator checks
//! that its transformed packet sequences still deliver the attack payload
//! through this reassembler configured with the victim's policy.
//!
//! ## Delivery
//!
//! [`TcpStreamReassembler::push`] hands every byte that becomes in-order to
//! a caller-supplied sink, in stream order, and keeps nothing once it is
//! delivered. A segment that starts at the live edge while nothing is
//! buffered is the common case, and it goes to the sink straight from the
//! packet: no allocation, no map operation, no copy. Overlap policy never
//! applies to it, because there is nothing to overlap. Urgent bytes
//! discarded from the application stream split the slice around them.
//!
//! ## Representation
//!
//! Buffered data lives in a `BTreeMap` of non-overlapping chunks keyed by
//! stream offset. Each chunk remembers the start offset of the segment that
//! wrote it, which is exactly the information the BSD/Linux overlap flavors
//! condition on. Stream offsets are `u64` (monotonic, unwrapped); incoming
//! 32-bit sequence numbers are unwrapped against the next expected sequence
//! number, so streams longer than 4 GiB and streams straddling the wrap
//! point both work.

use std::collections::BTreeMap;

use sd_packet::SeqNumber;

use crate::policy::OverlapPolicy;

/// Default cap on buffered out-of-order data per direction (bytes). Chosen
/// to match a typical receive window; data beyond it is dropped and counted,
/// never silently accepted — an IPS that buffers unboundedly is a DoS vector.
pub const DEFAULT_BUFFER_LIMIT: usize = 256 * 1024;

/// Fixed per-direction state overhead (offsets, policy, counters) charged by
/// [`TcpStreamReassembler::memory_bytes`] in addition to buffered data.
pub const FIXED_STATE_BYTES: usize = 64;

/// Per-chunk bookkeeping overhead charged per buffered chunk.
pub const CHUNK_OVERHEAD_BYTES: usize = 32;

#[derive(Debug, Clone)]
struct Chunk {
    data: Vec<u8>,
    /// Stream offset at which the segment that wrote this chunk started.
    writer_start: u64,
}

/// What happened to one `push` of segment data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PushSummary {
    /// Bytes accepted into the buffer (after clipping and overlap losses).
    pub accepted: usize,
    /// Bytes that duplicated already-delivered stream positions.
    pub old_bytes: usize,
    /// Bytes discarded because the buffer limit was reached.
    pub window_dropped: usize,
    /// Overlapping bytes that *differed* from the copy already buffered —
    /// the signature of an inconsistent-retransmission evasion.
    pub conflicting: usize,
}

/// Running counters for one direction of a connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Segments pushed.
    pub segments: u64,
    /// Payload bytes pushed (pre-clipping).
    pub bytes: u64,
    /// Bytes delivered in order so far.
    pub delivered: u64,
    /// Bytes dropped at the buffer limit.
    pub window_dropped: u64,
    /// Bytes that retransmitted already-delivered positions.
    pub old_bytes: u64,
    /// Conflicting overlap bytes observed (differing data).
    pub conflicting: u64,
    /// Segments that arrived out of order (created or extended a gap).
    pub out_of_order_segments: u64,
}

/// One direction of a TCP connection, reassembled.
#[derive(Debug, Clone)]
pub struct TcpStreamReassembler {
    policy: OverlapPolicy,
    limit: usize,
    /// Sequence number corresponding to `next_offset` (anchor for
    /// unwrapping 32-bit sequence numbers into 64-bit offsets).
    anchor_seq: Option<SeqNumber>,
    /// Offset of the next byte to deliver.
    next_offset: u64,
    chunks: BTreeMap<u64, Chunk>,
    buffered: usize,
    fin_offset: Option<u64>,
    reset: bool,
    /// Stream offsets excluded from the *application* stream (urgent bytes
    /// under discard semantics). Sorted; consumed as delivery passes them.
    skips: Vec<u64>,
    stats: StreamStats,
}

impl TcpStreamReassembler {
    /// New reassembler with the given overlap policy and default limits.
    pub fn new(policy: OverlapPolicy) -> Self {
        Self::with_limit(policy, DEFAULT_BUFFER_LIMIT)
    }

    /// New reassembler with an explicit out-of-order buffer cap.
    pub fn with_limit(policy: OverlapPolicy, limit: usize) -> Self {
        TcpStreamReassembler {
            policy,
            limit,
            anchor_seq: None,
            next_offset: 0,
            chunks: BTreeMap::new(),
            buffered: 0,
            fin_offset: None,
            reset: false,
            skips: Vec::new(),
            stats: StreamStats::default(),
        }
    }

    /// The overlap policy in force.
    pub fn policy(&self) -> OverlapPolicy {
        self.policy
    }

    /// Record the SYN: data starts at `seq + 1`.
    ///
    /// If data was already accepted (mid-stream pickup) the anchor is kept.
    pub fn on_syn(&mut self, seq: SeqNumber) {
        if self.anchor_seq.is_none() {
            self.anchor_seq = Some(seq + 1u32);
        }
    }

    /// Record a FIN whose sequence number is `seq` (the FIN occupies one
    /// sequence position after any data in its segment).
    pub fn on_fin(&mut self, fin_seq: SeqNumber) {
        if let Some(off) = self.offset_of(fin_seq) {
            let off = off.max(self.next_offset);
            self.fin_offset = Some(self.fin_offset.map_or(off, |o| o.min(off)));
        }
    }

    /// Exclude the byte at sequence number `seq` from the application
    /// stream (urgent-byte discard semantics: the octet occupies sequence
    /// space — later data is not renumbered — but the application never
    /// sees it). No-op for already-delivered offsets.
    pub fn skip_at(&mut self, seq: SeqNumber) {
        if let Some(off) = self.offset_of(seq) {
            if off >= self.next_offset && !self.skips.contains(&off) {
                self.skips.push(off);
                self.skips.sort_unstable();
            }
        }
    }

    /// Record an RST: the stream is dead; buffered data still delivers if
    /// its gap fills.
    pub fn on_rst(&mut self) {
        self.reset = true;
    }

    /// True once an RST has been seen.
    pub fn is_reset(&self) -> bool {
        self.reset
    }

    /// True when a FIN has been seen and every byte before it delivered.
    pub fn is_finished(&self) -> bool {
        self.fin_offset.is_some_and(|f| self.next_offset >= f)
    }

    /// Unwrap a 32-bit sequence number into a 64-bit stream offset.
    ///
    /// Invariant: `anchor_seq` always corresponds to `next_offset` — it is
    /// advanced in lock-step with delivery — so the 2³¹ unwrap window is
    /// centered on the live edge and arbitrarily long streams work.
    fn offset_of(&mut self, seq: SeqNumber) -> Option<u64> {
        let abs = self.signed_offset_of(seq);
        (abs >= 0).then_some(abs as u64)
    }

    /// [`offset_of`](Self::offset_of) without the negative cutoff: the
    /// unwrapped offset as a signed value, negative when `seq` falls before
    /// the stream origin. `push` needs the signed form because a segment
    /// that *starts* before offset 0 (e.g. its first byte sits at the ISN
    /// of a connection whose SYN carried `0xFFFF_FFFF`) can still extend
    /// into live data and must be clipped, not dropped whole.
    fn signed_offset_of(&mut self, seq: SeqNumber) -> i64 {
        // Mid-stream pickup: adopt the first segment's seq as offset 0.
        let anchor = *self.anchor_seq.get_or_insert(seq);
        let rel = seq.distance(anchor) as i64;
        self.next_offset as i64 + rel
    }

    /// Push one segment's payload at sequence number `seq`, handing every
    /// byte that becomes in-order to `sink` (possibly in several slices,
    /// always in stream order).
    pub fn push(
        &mut self,
        seq: SeqNumber,
        data: &[u8],
        mut sink: impl FnMut(&[u8]),
    ) -> PushSummary {
        self.stats.segments += 1;
        self.stats.bytes += data.len() as u64;
        let mut summary = PushSummary::default();
        if data.is_empty() {
            return summary;
        }

        let abs = self.signed_offset_of(seq);
        let (mut start, mut data) = if abs < 0 {
            // Starts before offset 0 (seq at/below the ISN). The head is
            // old by definition, but the tail may straddle the stream
            // origin — clip instead of discarding the whole segment.
            let behind = abs.unsigned_abs();
            if behind >= data.len() as u64 {
                summary.old_bytes = data.len();
                self.stats.old_bytes += data.len() as u64;
                return summary;
            }
            summary.old_bytes = behind as usize;
            self.stats.old_bytes += behind;
            (0u64, &data[behind as usize..])
        } else {
            (abs as u64, data)
        };

        // Clip the part that retransmits delivered bytes.
        if start < self.next_offset {
            let skip = (self.next_offset - start).min(data.len() as u64) as usize;
            summary.old_bytes += skip;
            self.stats.old_bytes += skip as u64;
            data = &data[skip..];
            start = self.next_offset;
            if data.is_empty() {
                return summary;
            }
        }

        if start == self.next_offset && self.chunks.is_empty() && data.len() <= self.limit {
            // The live edge with nothing buffered: straight to the sink.
            summary.accepted = data.len();
            self.deliver(data, &mut sink);
            return summary;
        }
        self.stats.out_of_order_segments += u64::from(start > self.next_offset);

        let (accepted, conflicting) = self.insert(start, data, &mut summary);
        summary.accepted = accepted;
        summary.conflicting = conflicting;
        self.stats.conflicting += conflicting as u64;

        self.deliver_ready(&mut sink);
        summary
    }

    /// Insert `[start, start+data.len())` resolving overlaps by policy.
    /// Returns (bytes newly stored, conflicting bytes observed).
    fn insert(&mut self, start: u64, data: &[u8], summary: &mut PushSummary) -> (usize, usize) {
        let end = start + data.len() as u64;
        let writer_start = start;
        let mut conflicting = 0usize;

        // Collect keys of chunks overlapping [start, end).
        let overlapping: Vec<u64> = self
            .chunks
            .range(..end)
            .filter(|(k, c)| **k + c.data.len() as u64 > start)
            .map(|(k, _)| *k)
            .collect();

        // Regions of the new segment that survive (win or uncontested).
        // Start with the whole interval and carve out lost regions.
        let mut survive: Vec<(u64, u64)> = vec![(start, end)];

        for key in overlapping {
            let old = self.chunks.remove(&key).expect("key just enumerated");
            let old_start = key;
            let old_end = old_start + old.data.len() as u64;
            let ov_s = start.max(old_start);
            let ov_e = end.min(old_end);

            // Count conflicting bytes (data differs in the overlap).
            let new_slice = &data[(ov_s - start) as usize..(ov_e - start) as usize];
            let old_slice = &old.data[(ov_s - old_start) as usize..(ov_e - old_start) as usize];
            conflicting += new_slice
                .iter()
                .zip(old_slice)
                .filter(|(a, b)| a != b)
                .count();

            let new_wins = self.policy.new_wins(old.writer_start, writer_start);
            if new_wins {
                // Old chunk keeps only its non-overlapped remnants.
                self.buffered -= old.data.len();
                if old_start < ov_s {
                    let head = old.data[..(ov_s - old_start) as usize].to_vec();
                    self.buffered += head.len();
                    self.chunks.insert(
                        old_start,
                        Chunk {
                            data: head,
                            writer_start: old.writer_start,
                        },
                    );
                }
                if ov_e < old_end {
                    let tail = old.data[(ov_e - old_start) as usize..].to_vec();
                    self.buffered += tail.len();
                    self.chunks.insert(
                        ov_e,
                        Chunk {
                            data: tail,
                            writer_start: old.writer_start,
                        },
                    );
                }
            } else {
                // New segment loses [ov_s, ov_e): carve it from `survive`;
                // the old chunk goes back untouched.
                self.chunks.insert(key, old);
                let mut next = Vec::with_capacity(survive.len() + 1);
                for (s, e) in survive {
                    if e <= ov_s || s >= ov_e {
                        next.push((s, e));
                    } else {
                        if s < ov_s {
                            next.push((s, ov_s));
                        }
                        if ov_e < e {
                            next.push((ov_e, e));
                        }
                    }
                }
                survive = next;
            }
        }

        // Store surviving new regions, respecting the buffer limit.
        let mut accepted = 0usize;
        for (s, e) in survive {
            let len = (e - s) as usize;
            if len == 0 {
                continue;
            }
            let room = self.limit.saturating_sub(self.buffered);
            let take = len.min(room);
            let dropped = len - take;
            if dropped > 0 {
                summary.window_dropped += dropped;
                self.stats.window_dropped += dropped as u64;
            }
            if take == 0 {
                continue;
            }
            let slice = &data[(s - start) as usize..(s - start) as usize + take];
            self.chunks.insert(
                s,
                Chunk {
                    data: slice.to_vec(),
                    writer_start,
                },
            );
            self.buffered += take;
            accepted += take;
        }
        (accepted, conflicting)
    }

    /// Hand buffered chunks that have become contiguous with the live edge
    /// to `sink`.
    fn deliver_ready(&mut self, sink: &mut impl FnMut(&[u8])) {
        while let Some(entry) = self.chunks.first_entry() {
            if *entry.key() != self.next_offset {
                debug_assert!(
                    *entry.key() > self.next_offset,
                    "chunk behind the live edge"
                );
                break;
            }
            let chunk = entry.remove();
            self.buffered -= chunk.data.len();
            self.deliver(&chunk.data, sink);
        }
    }

    /// Deliver `data`, which starts at the live edge: every byte goes to
    /// `sink` except skipped (urgent-discarded) offsets, which split the
    /// slice around them; sequence accounting counts them all.
    fn deliver(&mut self, data: &[u8], sink: &mut impl FnMut(&[u8])) {
        let off = self.next_offset;
        let end = off + data.len() as u64;
        // `skip_at` admits only offsets at or past the live edge, and
        // delivery consumes every skip it passes.
        let passed = self.skips.partition_point(|&s| s < end);
        let mut from = 0;
        for &s in &self.skips[..passed] {
            let at = (s - off) as usize;
            if at > from {
                sink(&data[from..at]);
            }
            from = at + 1;
        }
        if from < data.len() {
            sink(&data[from..]);
        }
        self.skips.drain(..passed);
        self.next_offset = end;
        self.stats.delivered += data.len() as u64;
        // Re-anchor so sequence unwrapping stays near the live edge.
        if let Some(a) = self.anchor_seq {
            self.anchor_seq = Some(a + data.len());
        }
    }

    /// Stream offset of the next byte to deliver.
    pub fn next_offset(&self) -> u64 {
        self.next_offset
    }

    /// Bytes currently buffered out of order.
    pub fn buffered_bytes(&self) -> usize {
        self.buffered
    }

    /// Number of discontiguous buffered chunks (gaps + 1, roughly).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Byte-accurate state footprint: fixed header, per-chunk overhead and
    /// buffered data (delivered bytes are the sink's).
    pub fn memory_bytes(&self) -> usize {
        FIXED_STATE_BYTES + self.chunks.len() * CHUNK_OVERHEAD_BYTES + self.buffered
    }

    /// Running counters.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reassembler whose sink collects the delivered stream.
    struct Rx {
        r: TcpStreamReassembler,
        delivered: Vec<u8>,
    }

    impl Rx {
        fn new(r: TcpStreamReassembler) -> Self {
            Rx {
                r,
                delivered: Vec::new(),
            }
        }

        /// Bytes delivered since the last call.
        fn take(&mut self) -> Vec<u8> {
            std::mem::take(&mut self.delivered)
        }
    }

    impl std::ops::Deref for Rx {
        type Target = TcpStreamReassembler;
        fn deref(&self) -> &TcpStreamReassembler {
            &self.r
        }
    }

    impl std::ops::DerefMut for Rx {
        fn deref_mut(&mut self) -> &mut TcpStreamReassembler {
            &mut self.r
        }
    }

    fn rx(policy: OverlapPolicy) -> Rx {
        Rx::new(TcpStreamReassembler::new(policy))
    }

    fn push_str(r: &mut Rx, seq: u32, s: &[u8]) -> PushSummary {
        let out = &mut r.delivered;
        r.r.push(SeqNumber(seq), s, |b| out.extend_from_slice(b))
    }

    fn mk() -> Rx {
        let mut r = rx(OverlapPolicy::First);
        r.on_syn(SeqNumber(999)); // data starts at 1000
        r
    }

    #[test]
    fn in_order_delivery() {
        let mut r = mk();
        push_str(&mut r, 1000, b"hello ");
        push_str(&mut r, 1006, b"world");
        assert_eq!(r.take(), b"hello world");
        assert_eq!(r.next_offset(), 11);
        assert_eq!(r.buffered_bytes(), 0);
    }

    #[test]
    fn live_edge_segment_reaches_the_sink_straight_from_the_packet() {
        let mut r = TcpStreamReassembler::new(OverlapPolicy::First);
        r.on_syn(SeqNumber(999));
        let data = b"hello world".to_vec();
        let mut seen = Vec::new();
        r.push(SeqNumber(1000), &data, |b| seen.push((b.as_ptr(), b.len())));
        assert_eq!(seen, [(data.as_ptr(), 11)], "the packet's own bytes, once");
        assert_eq!(r.memory_bytes(), FIXED_STATE_BYTES, "nothing kept");
        // An urgent skip splits the slice around the discarded byte.
        r.skip_at(SeqNumber(1013));
        let data = b"abcde".to_vec();
        seen.clear();
        r.push(SeqNumber(1011), &data, |b| seen.push((b.as_ptr(), b.len())));
        assert_eq!(seen, [(data.as_ptr(), 2), (data[3..].as_ptr(), 2)]);
        assert_eq!(r.next_offset(), 16);
        assert_eq!(r.stats().out_of_order_segments, 0);
    }

    #[test]
    fn out_of_order_buffers_then_delivers() {
        let mut r = mk();
        push_str(&mut r, 1006, b"world");
        assert_eq!(r.take(), b"");
        assert_eq!(r.buffered_bytes(), 5);
        push_str(&mut r, 1000, b"hello ");
        assert_eq!(r.take(), b"hello world");
        assert_eq!(r.stats().out_of_order_segments, 1);
    }

    #[test]
    fn retransmission_of_delivered_data_is_old() {
        let mut r = mk();
        push_str(&mut r, 1000, b"abcdef");
        r.take();
        let s = push_str(&mut r, 1000, b"abcdef");
        assert_eq!(s.old_bytes, 6);
        assert_eq!(s.accepted, 0);
        assert_eq!(r.take(), b"");
    }

    #[test]
    fn partial_retransmission_clips() {
        let mut r = mk();
        push_str(&mut r, 1000, b"abcd");
        let s = push_str(&mut r, 1002, b"cdEF");
        assert_eq!(s.old_bytes, 2);
        assert_eq!(s.accepted, 2);
        assert_eq!(r.take(), b"abcdEF");
    }

    #[test]
    fn overlap_first_policy_keeps_original() {
        let mut r = mk();
        push_str(&mut r, 1004, b"XXXX"); // offsets 4..8, buffered
        let s = push_str(&mut r, 1000, b"aaaaYYYY"); // claims 0..8
        assert_eq!(s.conflicting, 4, "XXXX vs YYYY differ");
        assert_eq!(r.take(), b"aaaaXXXX", "First keeps the earlier copy");
    }

    #[test]
    fn overlap_last_policy_takes_new() {
        let mut r = rx(OverlapPolicy::Last);
        r.on_syn(SeqNumber(999));
        push_str(&mut r, 1004, b"XXXX");
        push_str(&mut r, 1000, b"aaaaYYYY");
        assert_eq!(r.take(), b"aaaaYYYY");
    }

    #[test]
    fn overlap_bsd_leading_edge_wins() {
        // BSD: new data wins only where the new segment starts earlier.
        let mut r = rx(OverlapPolicy::Bsd);
        r.on_syn(SeqNumber(999));
        push_str(&mut r, 1004, b"XXXX"); // writer_start 4
        push_str(&mut r, 1000, b"aaaaYYYY"); // writer_start 0 < 4 → wins
        assert_eq!(r.take(), b"aaaaYYYY");

        let mut r = rx(OverlapPolicy::Bsd);
        r.on_syn(SeqNumber(999));
        push_str(&mut r, 1002, b"XXXX"); // offsets 2..6, writer_start 2
        push_str(&mut r, 1002, b"YYYY"); // same start → old wins under BSD
        push_str(&mut r, 1000, b"ab");
        assert_eq!(r.take(), b"abXXXX");
    }

    #[test]
    fn overlap_linux_ties_go_to_new() {
        let mut r = rx(OverlapPolicy::Linux);
        r.on_syn(SeqNumber(999));
        push_str(&mut r, 1002, b"XXXX");
        push_str(&mut r, 1002, b"YYYY"); // same start → new wins under Linux
        push_str(&mut r, 1000, b"ab");
        assert_eq!(r.take(), b"abYYYY");
    }

    #[test]
    fn buffer_limit_drops_and_counts() {
        let mut r = Rx::new(TcpStreamReassembler::with_limit(OverlapPolicy::First, 8));
        r.on_syn(SeqNumber(999));
        let s = push_str(&mut r, 1010, b"0123456789abcdef"); // 16 OoO bytes, limit 8
        assert_eq!(s.window_dropped, 8);
        assert_eq!(r.buffered_bytes(), 8);
        assert_eq!(r.stats().window_dropped, 8);
    }

    #[test]
    fn fin_closes_after_delivery() {
        let mut r = mk();
        push_str(&mut r, 1000, b"bye");
        r.on_fin(SeqNumber(1003));
        assert!(r.is_finished());
        assert!(!r.is_reset());
    }

    #[test]
    fn fin_with_gap_not_finished() {
        let mut r = mk();
        push_str(&mut r, 1004, b"later");
        r.on_fin(SeqNumber(1009));
        assert!(!r.is_finished(), "gap at 0..4 outstanding");
    }

    #[test]
    fn rst_flags_stream() {
        let mut r = mk();
        r.on_rst();
        assert!(r.is_reset());
    }

    #[test]
    fn sequence_wraparound() {
        let mut r = rx(OverlapPolicy::First);
        r.on_syn(SeqNumber(u32::MAX - 2)); // data starts at MAX-1
        push_str(&mut r, u32::MAX - 1, b"ab"); // bytes at seqs MAX-1, MAX
        push_str(&mut r, 0, b"cd"); // continues across the wrap
        assert_eq!(r.take(), b"abcd");
        assert_eq!(r.next_offset(), 4);
        // Out-of-order across the wrap too.
        let mut r = rx(OverlapPolicy::First);
        r.on_syn(SeqNumber(u32::MAX - 2));
        push_str(&mut r, 0, b"cd");
        assert_eq!(r.take(), b"");
        push_str(&mut r, u32::MAX - 1, b"ab");
        assert_eq!(r.take(), b"abcd");
    }

    #[test]
    fn syn_at_seq_max_starts_data_at_zero() {
        // The hardest ISN: SYN consumes 0xFFFF_FFFF, so the first data
        // byte sits at wrapped seq 0.
        let mut r = rx(OverlapPolicy::First);
        r.on_syn(SeqNumber(u32::MAX));
        push_str(&mut r, 0, b"hello");
        assert_eq!(r.take(), b"hello");
        assert_eq!(r.next_offset(), 5);
    }

    #[test]
    fn segment_straddling_stream_origin_is_clipped_not_dropped() {
        // Regression: a segment whose start unwraps *before* offset 0 but
        // whose tail carries live bytes was discarded whole — with an ISN
        // at the 2^32 boundary, a retransmit that includes the SYN
        // position lost real data.
        let mut r = rx(OverlapPolicy::First);
        r.on_syn(SeqNumber(u32::MAX)); // data origin at wrapped seq 0
        let s = push_str(&mut r, u32::MAX - 1, b"..abcd"); // starts 2 before origin
        assert_eq!(s.old_bytes, 2, "pre-origin head is old");
        assert_eq!(s.accepted, 4, "live tail must survive");
        assert_eq!(r.take(), b"abcd");
        assert_eq!(r.stats().old_bytes, 2);
    }

    #[test]
    fn segment_entirely_before_origin_is_all_old() {
        let mut r = rx(OverlapPolicy::First);
        r.on_syn(SeqNumber(u32::MAX));
        let s = push_str(&mut r, u32::MAX - 9, b"old"); // ends before seq 0
        assert_eq!(s.old_bytes, 3);
        assert_eq!(s.accepted, 0);
        assert_eq!(r.take(), b"");
    }

    #[test]
    fn straddling_retransmit_after_delivery_accounts_both_clips() {
        // Head before the origin AND a delivered span: both clip, and the
        // old-byte accounting must sum them rather than overwrite.
        let mut r = rx(OverlapPolicy::First);
        r.on_syn(SeqNumber(u32::MAX));
        push_str(&mut r, 0, b"ab");
        r.take();
        // Starts 1 before the origin, re-covers delivered "ab", adds "cd".
        let s = push_str(&mut r, u32::MAX, b".abcd");
        assert_eq!(s.old_bytes, 3, "1 pre-origin + 2 delivered");
        assert_eq!(s.accepted, 2);
        assert_eq!(r.take(), b"cd");
    }

    #[test]
    fn fin_straddling_the_wrap_finishes() {
        // Data occupies seqs MAX-1, MAX, 0, 1; the FIN position wraps to 2.
        let mut r = rx(OverlapPolicy::First);
        r.on_syn(SeqNumber(u32::MAX - 2));
        push_str(&mut r, u32::MAX - 1, b"abcd");
        r.on_fin(SeqNumber(2));
        assert!(r.is_finished());
        assert_eq!(r.take(), b"abcd");
    }

    #[test]
    fn urgent_skip_across_the_wrap() {
        // Skip the byte at wrapped seq 0 (stream offset 2) before it
        // arrives; delivery must omit exactly that byte.
        let mut r = rx(OverlapPolicy::First);
        r.on_syn(SeqNumber(u32::MAX - 2)); // data origin at MAX-1
        r.skip_at(SeqNumber(0));
        push_str(&mut r, u32::MAX - 1, b"abcd");
        assert_eq!(r.take(), b"abd");
        assert_eq!(r.next_offset(), 4, "skipped byte still consumes seq space");
    }

    #[test]
    fn long_stream_offsets_are_64_bit() {
        let mut r = mk();
        let chunk = vec![0x61u8; 1460];
        let mut seq = 1000u32;
        // Push enough to exceed one 32-bit wrap's worth of offset math being
        // exercised incrementally (scaled down for test time: 10 MB).
        for _ in 0..7000 {
            push_str(&mut r, seq, &chunk);
            seq = seq.wrapping_add(1460);
            r.take();
        }
        assert_eq!(r.next_offset(), 7000 * 1460);
    }

    #[test]
    fn memory_accounting_tracks_buffered() {
        let mut r = mk();
        assert_eq!(r.memory_bytes(), FIXED_STATE_BYTES);
        push_str(&mut r, 1010, b"0123456789"); // one OoO chunk
        assert_eq!(
            r.memory_bytes(),
            FIXED_STATE_BYTES + CHUNK_OVERHEAD_BYTES + 10
        );
        push_str(&mut r, 1000, b"0123456789");
        r.take();
        assert_eq!(r.memory_bytes(), FIXED_STATE_BYTES);
    }

    #[test]
    fn mid_stream_pickup_adopts_first_seq() {
        let mut r = rx(OverlapPolicy::First);
        // No SYN ever seen.
        push_str(&mut r, 5_000_000, b"mid");
        assert_eq!(r.take(), b"mid");
    }

    #[test]
    fn interleaved_chunks_with_multiple_gaps() {
        let mut r = mk();
        push_str(&mut r, 1008, b"33");
        push_str(&mut r, 1004, b"22");
        push_str(&mut r, 1000, b"00");
        assert_eq!(r.chunk_count(), 2);
        assert_eq!(r.take(), b"00");
        push_str(&mut r, 1002, b"11");
        assert_eq!(r.take(), b"1122");
        push_str(&mut r, 1006, b"XX");
        assert_eq!(r.take(), b"XX33");
        assert_eq!(r.buffered_bytes(), 0);
    }
}
