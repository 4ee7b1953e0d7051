//! IPv4 fragment reassembly.
//!
//! Fragments are keyed by (src, dst, protocol, ident) per RFC 791. The
//! defragmenter collects fragments until the hole list is empty, then paints
//! the datagram in arrival order under an [`OverlapPolicy`] — fragment
//! overlaps are just as policy-dependent as TCP overlaps (the teardrop /
//! overlapping-fragment family of evasions), so the slow path and the victim
//! model both need the knob.
//!
//! Resource discipline: contexts are bounded in number and in bytes; stale
//! contexts expire after [`Defragmenter::timeout`] logical ticks (the caller
//! supplies a tick, usually the packet index — a line-rate box cannot afford
//! wall-clock syscalls per packet). Every limit hit is counted, never silent.
//! The per-packet cost does not grow with the number of live contexts: the
//! byte total is kept as contexts change, and the timeout sweep runs only
//! when the oldest context can have timed out.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::Ipv4Addr;

use sd_packet::ipv4::{Ipv4Packet, Protocol};
use sd_packet::{Error, Result};

use crate::policy::OverlapPolicy;

/// Default maximum concurrent reassembly contexts.
pub const DEFAULT_MAX_CONTEXTS: usize = 1024;
/// Default timeout in ticks after which an incomplete context is dropped.
pub const DEFAULT_TIMEOUT: u64 = 10_000;
/// Per-context fixed overhead charged by memory accounting.
pub const CONTEXT_OVERHEAD_BYTES: usize = 48;

/// Reassembly context key per RFC 791.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FragKey {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Protocol number.
    pub proto: u8,
    /// IP identification field.
    pub ident: u16,
}

#[derive(Debug, Clone)]
struct Piece {
    offset: usize,
    data: Vec<u8>,
}

#[derive(Debug, Clone)]
struct Context {
    pieces: Vec<Piece>,
    /// Total payload length, known once the MF=0 fragment arrives.
    total_len: Option<usize>,
    /// Header bytes of the offset-0 fragment (template for the reassembled
    /// datagram).
    first_header: Option<Vec<u8>>,
    bytes: usize,
    last_tick: u64,
}

impl Context {
    fn new(tick: u64) -> Self {
        Context {
            pieces: Vec::new(),
            total_len: None,
            first_header: None,
            bytes: 0,
            last_tick: tick,
        }
    }

    fn memory_bytes(&self) -> usize {
        CONTEXT_OVERHEAD_BYTES
            + self.bytes
            + self.first_header.as_ref().map_or(0, |h| h.len())
            + self.pieces.len() * 16
    }

    fn is_complete(&self) -> bool {
        let Some(total) = self.total_len else {
            return false;
        };
        // Hole check: sort piece intervals and walk.
        let mut intervals: Vec<(usize, usize)> = self
            .pieces
            .iter()
            .map(|p| (p.offset, p.offset + p.data.len()))
            .collect();
        intervals.sort_unstable();
        let mut covered = 0usize;
        for (s, e) in intervals {
            if s > covered {
                return false;
            }
            covered = covered.max(e);
        }
        covered >= total
    }

    /// Paint the payload in arrival order under `policy`.
    fn assemble(&self, policy: OverlapPolicy) -> Vec<u8> {
        let total = self.total_len.expect("assemble requires known length");
        let mut out = vec![0u8; total];
        // writer[i] = offset of the fragment that wrote byte i, or MAX if
        // unwritten.
        let mut writer = vec![usize::MAX; total];
        for p in &self.pieces {
            for (i, &b) in p.data.iter().enumerate() {
                let pos = p.offset + i;
                if pos >= total {
                    break;
                }
                if writer[pos] == usize::MAX || policy.new_wins(writer[pos] as u64, p.offset as u64)
                {
                    out[pos] = b;
                    writer[pos] = p.offset;
                }
            }
        }
        out
    }
}

/// Counters for the defragmenter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefragStats {
    /// Fragments accepted.
    pub fragments: u64,
    /// Datagrams completed.
    pub completed: u64,
    /// Contexts dropped on timeout.
    pub timeouts: u64,
    /// Contexts evicted at the context limit.
    pub evicted: u64,
    /// Fragments rejected (malformed / oversized / inconsistent length).
    pub rejected: u64,
}

/// Outcome of offering one packet to the defragmenter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DefragResult {
    /// Not a fragment: process the caller's original buffer (no copy).
    PassThrough,
    /// A fragment was absorbed; the datagram is still incomplete.
    Absorbed,
    /// The final fragment arrived: the reassembled datagram.
    Complete(Vec<u8>),
}

/// IPv4 defragmenter with bounded state.
#[derive(Debug, Clone)]
pub struct Defragmenter {
    policy: OverlapPolicy,
    contexts: HashMap<FragKey, Context>,
    max_contexts: usize,
    timeout: u64,
    /// Running sum of the contexts' `memory_bytes`.
    bytes: usize,
    /// No context's `last_tick` is below this (`u64::MAX` when there are
    /// none), so no context has timed out while `tick − oldest ≤ timeout`.
    oldest: u64,
    stats: DefragStats,
}

impl Defragmenter {
    /// New defragmenter with the given overlap policy and default limits.
    pub fn new(policy: OverlapPolicy) -> Self {
        Self::with_limits(policy, DEFAULT_MAX_CONTEXTS, DEFAULT_TIMEOUT)
    }

    /// New defragmenter with explicit context-count and timeout limits.
    pub fn with_limits(policy: OverlapPolicy, max_contexts: usize, timeout: u64) -> Self {
        Defragmenter {
            policy,
            contexts: HashMap::new(),
            max_contexts: max_contexts.max(1),
            timeout,
            bytes: 0,
            oldest: u64::MAX,
            stats: DefragStats::default(),
        }
    }

    /// The timeout in ticks.
    pub fn timeout(&self) -> u64 {
        self.timeout
    }

    /// Live reassembly contexts.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// Running counters.
    pub fn stats(&self) -> DefragStats {
        self.stats
    }

    /// Total state footprint across all contexts.
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// Drop the context under `key`, if any, from the map and the total.
    fn remove(&mut self, key: &FragKey) -> Option<Context> {
        let ctx = self.contexts.remove(key)?;
        self.bytes -= ctx.memory_bytes();
        Some(ctx)
    }

    /// Offer one IPv4 packet. Non-fragments pass through without copying;
    /// fragments are absorbed and, when a datagram completes, the
    /// reassembled packet is returned.
    ///
    /// `tick` is a monotonic logical clock (packet index works) used for
    /// timeouts.
    pub fn push(&mut self, packet: &[u8], tick: u64) -> Result<DefragResult> {
        self.expire(tick);

        let ip = Ipv4Packet::new_checked(packet)?;
        if !ip.is_fragment() {
            return Ok(DefragResult::PassThrough);
        }

        let key = FragKey {
            src: ip.src_addr(),
            dst: ip.dst_addr(),
            proto: match ip.protocol() {
                Protocol::Tcp => 6,
                Protocol::Udp => 17,
                Protocol::Icmp => 1,
                Protocol::Other(p) => p,
            },
            ident: ip.ident(),
        };

        let offset = ip.frag_offset() as usize;
        let payload = ip.payload();
        let end = offset + payload.len();
        if end > 65_535 {
            self.stats.rejected += 1;
            return Err(Error::Malformed);
        }

        if !self.contexts.contains_key(&key) && self.contexts.len() >= self.max_contexts {
            // Evict the stalest context to stay within bounds.
            if let Some(stale) = self
                .contexts
                .iter()
                .min_by_key(|(_, c)| c.last_tick)
                .map(|(k, _)| *k)
            {
                self.remove(&stale);
                self.stats.evicted += 1;
            }
        }

        let ctx = match self.contexts.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let ctx = e.insert(Context::new(tick));
                self.bytes += ctx.memory_bytes();
                ctx
            }
        };
        let before = ctx.memory_bytes();
        ctx.last_tick = tick;
        self.oldest = self.oldest.min(tick);

        if !ip.more_frags() {
            // Last fragment pins the total length; inconsistent repeats are
            // rejected (a classic confusion attack).
            match ctx.total_len {
                Some(t) if t != end => {
                    self.stats.rejected += 1;
                    self.remove(&key);
                    return Err(Error::Malformed);
                }
                _ => ctx.total_len = Some(end),
            }
        }
        if offset == 0 {
            let header = &packet[..ip.header_len()];
            ctx.first_header = Some(header.to_vec());
        }

        ctx.pieces.push(Piece {
            offset,
            data: payload.to_vec(),
        });
        ctx.bytes += payload.len();
        self.bytes = self.bytes + ctx.memory_bytes() - before;
        self.stats.fragments += 1;

        if ctx.is_complete() && ctx.first_header.is_some() {
            let ctx = self.remove(&key).expect("context present");
            self.stats.completed += 1;
            let payload = ctx.assemble(self.policy);
            let header = ctx.first_header.expect("checked above");
            let mut out = Vec::with_capacity(header.len() + payload.len());
            out.extend_from_slice(&header);
            out.extend_from_slice(&payload);
            let total = out.len() as u16;
            let mut view = Ipv4Packet::new_unchecked(&mut out[..]);
            view.set_total_len(total);
            view.set_frag_fields(false, false, 0);
            view.fill_checksum();
            return Ok(DefragResult::Complete(out));
        }
        Ok(DefragResult::Absorbed)
    }

    /// [`push`](Self::push) with owned output: `PassThrough` copies the
    /// input. Convenient where the extra copy does not matter (tests,
    /// offline tools); hot paths should match on [`DefragResult`].
    pub fn push_owned(&mut self, packet: &[u8], tick: u64) -> Result<Option<Vec<u8>>> {
        Ok(match self.push(packet, tick)? {
            DefragResult::PassThrough => Some(packet.to_vec()),
            DefragResult::Absorbed => None,
            DefragResult::Complete(v) => Some(v),
        })
    }

    /// Drop every context idle for more than `timeout` ticks. The sweep
    /// runs only when the oldest context can have timed out.
    fn expire(&mut self, tick: u64) {
        let timeout = self.timeout;
        if tick.saturating_sub(self.oldest) <= timeout {
            return;
        }
        let (before, mut freed) = (self.contexts.len(), 0);
        self.contexts.retain(|_, c| {
            let keep = tick.saturating_sub(c.last_tick) <= timeout;
            if !keep {
                freed += c.memory_bytes();
            }
            keep
        });
        self.bytes -= freed;
        self.stats.timeouts += (before - self.contexts.len()) as u64;
        self.oldest = self
            .contexts
            .values()
            .map(|c| c.last_tick)
            .min()
            .unwrap_or(u64::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_packet::builder::TcpPacketSpec;
    use sd_packet::frag::fragment_ipv4;
    use sd_packet::parse::parse_ipv4;

    fn attack_packet(payload: &[u8]) -> Vec<u8> {
        TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
            .seq(1)
            .payload(payload)
            .dont_frag(false)
            .ident(42)
            .build()
    }

    #[test]
    fn non_fragment_passes_through() {
        let mut d = Defragmenter::new(OverlapPolicy::First);
        let pkt = attack_packet(b"hello");
        let out = d.push_owned(&pkt, 0).unwrap().unwrap();
        assert_eq!(out, pkt);
        assert_eq!(d.context_count(), 0);
    }

    #[test]
    fn fragments_reassemble_in_order() {
        let mut d = Defragmenter::new(OverlapPolicy::First);
        let pkt = attack_packet(&[0xabu8; 100]);
        let frags = fragment_ipv4(&pkt, 40).unwrap();
        assert!(frags.len() > 1);
        let mut done = None;
        for (i, f) in frags.iter().enumerate() {
            done = d.push_owned(f, i as u64).unwrap();
            if i + 1 < frags.len() {
                assert!(done.is_none());
            }
        }
        let out = done.expect("reassembled");
        let p = parse_ipv4(&out).unwrap();
        assert!(!p.is_fragment());
        let tcp = p.tcp().unwrap();
        assert_eq!(tcp.payload, &[0xabu8; 100][..]);
        assert_eq!(d.context_count(), 0);
        assert_eq!(d.stats().completed, 1);
    }

    #[test]
    fn fragments_reassemble_out_of_order() {
        let mut d = Defragmenter::new(OverlapPolicy::First);
        let pkt = attack_packet(b"the quick brown fox jumps over the lazy dog!");
        let mut frags = fragment_ipv4(&pkt, 16).unwrap();
        frags.reverse();
        let mut done = None;
        for (i, f) in frags.iter().enumerate() {
            done = d.push_owned(f, i as u64).unwrap();
        }
        let out = done.expect("reassembled");
        let p = parse_ipv4(&out).unwrap();
        assert_eq!(
            p.tcp().unwrap().payload,
            b"the quick brown fox jumps over the lazy dog!"
        );
    }

    #[test]
    fn reassembled_packet_has_valid_checksum() {
        let mut d = Defragmenter::new(OverlapPolicy::First);
        let pkt = attack_packet(&[7u8; 64]);
        let frags = fragment_ipv4(&pkt, 24).unwrap();
        let mut done = None;
        for (i, f) in frags.iter().enumerate() {
            done = d.push_owned(f, i as u64).unwrap();
        }
        let out = done.unwrap();
        let ip = Ipv4Packet::new_checked(&out[..]).unwrap();
        assert!(ip.verify_checksum());
        assert!(!ip.more_frags());
        assert_eq!(ip.frag_offset(), 0);
    }

    #[test]
    fn timeout_reclaims_state() {
        let mut d = Defragmenter::with_limits(OverlapPolicy::First, 16, 100);
        let pkt = attack_packet(&[1u8; 64]);
        let frags = fragment_ipv4(&pkt, 24).unwrap();
        d.push_owned(&frags[0], 0).unwrap();
        assert_eq!(d.context_count(), 1);
        assert!(d.memory_bytes() > 0);
        // Push an unrelated packet far in the future.
        let other = attack_packet(b"x");
        d.push_owned(&other, 1000).unwrap();
        assert_eq!(d.context_count(), 0);
        assert_eq!(d.stats().timeouts, 1);
    }

    #[test]
    fn context_limit_evicts_stalest() {
        let mut d = Defragmenter::with_limits(OverlapPolicy::First, 2, u64::MAX);
        for n in 0..3u16 {
            let frame = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
                .payload(&[0u8; 64])
                .dont_frag(false)
                .ident(n)
                .build();
            let frags = fragment_ipv4(&frame, 24).unwrap();
            d.push_owned(&frags[0], n as u64).unwrap();
        }
        assert_eq!(d.context_count(), 2);
        assert_eq!(d.stats().evicted, 1);
    }

    #[test]
    fn inconsistent_last_fragment_rejected() {
        let mut d = Defragmenter::new(OverlapPolicy::First);
        let pkt = attack_packet(&[9u8; 120]);
        let frags = fragment_ipv4(&pkt, 48).unwrap();
        let last = frags.last().unwrap().clone();
        d.push_owned(&last, 0).unwrap();
        // Craft a second "last" fragment with a different end.
        let mut fake = last.clone();
        {
            let mut v = Ipv4Packet::new_unchecked(&mut fake[..]);
            let off = v.frag_offset();
            v.set_frag_fields(false, false, off + 8);
            v.fill_checksum();
        }
        assert!(d.push_owned(&fake, 1).is_err());
        assert_eq!(d.stats().rejected, 1);
    }

    #[test]
    fn overlap_policy_decides_conflicting_fragments() {
        // Two overlapping fragments with different content for bytes 8..16.
        // Arrival order: honest first, attacker overlap second.
        let pkt = attack_packet(&[0x41u8; 24]); // payload 'A' x24 after TCP hdr
        let frags = fragment_ipv4(&pkt, 8).unwrap();
        // frags cover the 20-byte TCP header + 24 payload in 8-byte steps.
        // Forge an overlap of frags[1] (offsets 8..16) with different bytes.
        let mut forged = frags[1].clone();
        {
            let mut v = Ipv4Packet::new_unchecked(&mut forged[..]);
            v.payload_mut().fill(0x42);
            v.fill_checksum();
        }
        // The overlapped region 8..16 of the IP payload lies inside the TCP
        // header, so the honest copy is those header bytes, not 0x41.
        let honest_region: Vec<u8> = {
            let ip = Ipv4Packet::new_checked(&pkt[..]).unwrap();
            ip.payload()[8..16].to_vec()
        };
        for (policy, expect) in [
            (OverlapPolicy::First, honest_region.clone()), // original kept
            (OverlapPolicy::Last, vec![0x42u8; 8]),        // forged wins
        ] {
            // Inject the forged overlap before the final honest fragment so
            // completion happens after both copies are buffered.
            let mut d = Defragmenter::new(policy);
            for (i, f) in frags.iter().enumerate().take(frags.len() - 1) {
                assert!(d.push_owned(f, i as u64).unwrap().is_none());
            }
            let mut done = d.push_owned(&forged, 50).unwrap();
            assert!(done.is_none());
            done = d.push_owned(frags.last().unwrap(), 51).unwrap();
            let out = done.expect("complete");
            // Fragment 1 covers IP-payload bytes 8..16, which lies inside
            // the TCP header region; inspect the raw reassembled payload.
            let ip = Ipv4Packet::new_checked(&out[..]).unwrap();
            let region = &ip.payload()[8..16];
            assert_eq!(region, &expect[..], "policy {policy}");
        }
    }

    mod accounting {
        use super::*;
        use proptest::prelude::*;

        /// Fragments of datagram `n` (ident `n`), 8 payload bytes each.
        fn fragments(n: u16) -> Vec<Vec<u8>> {
            let frame = TcpPacketSpec::new("10.0.0.1:4000", "10.0.0.2:80")
                .payload(&[n as u8; 40])
                .dont_frag(false)
                .ident(n)
                .build();
            fragment_ipv4(&frame, 16).unwrap()
        }

        proptest! {
            /// After any push/complete/evict/reject/expire sequence the
            /// running byte total equals a recount of the live contexts,
            /// and the lazy sweep drops exactly the contexts a sweep on
            /// every push would have: none is left past its timeout, and
            /// `timeouts` counts every one.
            #[test]
            fn running_total_and_timeouts_match_a_full_recount(
                ops in prop::collection::vec((0u8..10, 0u16..4, 0usize..8, 0u64..6), 1..200),
            ) {
                const TIMEOUT: u64 = 12;
                let mut d = Defragmenter::with_limits(OverlapPolicy::First, 3, TIMEOUT);
                let datagrams: Vec<Vec<Vec<u8>>> = (0..4).map(fragments).collect();
                let (mut tick, mut timeouts) = (0u64, 0u64);
                for (op, n, j, step) in ops {
                    tick += step;
                    timeouts += d
                        .contexts
                        .values()
                        .filter(|c| tick - c.last_tick > TIMEOUT)
                        .count() as u64;
                    let frags = &datagrams[n as usize];
                    let packet = match op {
                        // A last fragment that moves the datagram's end.
                        0 => {
                            let mut fake = frags.last().unwrap().clone();
                            let mut v = Ipv4Packet::new_unchecked(&mut fake[..]);
                            let off = v.frag_offset();
                            v.set_frag_fields(false, false, off + 8);
                            v.fill_checksum();
                            fake
                        }
                        1 => attack_packet(b"not a fragment"),
                        _ => frags[j % frags.len()].clone(),
                    };
                    let _ = d.push(&packet, tick);
                    let recount: usize = d.contexts.values().map(Context::memory_bytes).sum();
                    prop_assert_eq!(d.memory_bytes(), recount);
                    prop_assert_eq!(d.stats().timeouts, timeouts);
                    prop_assert!(d.contexts.values().all(|c| tick - c.last_tick <= TIMEOUT));
                    prop_assert!(d.contexts.values().all(|c| c.last_tick >= d.oldest));
                }
            }
        }
    }
}
