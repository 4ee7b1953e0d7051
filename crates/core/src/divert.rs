//! Sticky diversion and the delay line.
//!
//! Two concerns live here, both load-bearing for soundness:
//!
//! 1. **Stickiness.** Once a flow is diverted it must *stay* diverted — the
//!    fast-path flow table uses CLOCK eviction and may forget a flow's
//!    counters, which is harmless for benign flows but would un-divert an
//!    attacker. So the diverted set is owned here, bounded separately, and
//!    consulted before any fast-path rule runs.
//!
//! 2. **History.** Diversion fires on the packet that *completes* the
//!    evidence (the piece hit, the T+1-th small segment), but the signature
//!    may have started in earlier packets the slow path never saw. A
//!    line-rate implementation solves this with a delay line: packets are
//!    forwarded only after a short bounded queue, so when a flow diverts,
//!    its recent packets are still on hand to replay. We model exactly
//!    that: a bounded FIFO over all fast-path traffic, searched (rarely) on
//!    diversion. Setting its length to 0 gives the divert-from-now
//!    ablation, which E10 shows breaks detection for split signatures.
//!
//! ## The delay line
//!
//! The FIFO is the forwarding buffer hardware already has: one byte ring
//! of `delay_line_packets ×` [`SLOT_BYTES`], allocated once, plus a fixed
//! index of `(key, offset, len, replayed)` entries, one per buffered
//! packet, oldest first. A 1500-byte slot is one Ethernet-MTU datagram, so
//! any `delay_line_packets` packets of at most 1500 B fit at once; larger
//! packets take more of the ring and the oldest entries are overwritten
//! when either the packet bound or the byte bound is hit. A packet may
//! straddle the ring's end (two copies in, two out); one longer than the
//! whole ring is not buffered. Recording is one copy and one index push,
//! and nothing on that path allocates. Diverting copies the flow's
//! unreplayed packets out and marks them replayed in place; they keep
//! their slots until overwritten, so nothing is replayed twice. The
//! footprint is constant: the ring, plus the index at its wire size.
//!
//! ## The diverted-set bound
//!
//! The sticky set is bounded; what happens *at* the bound is a policy
//! choice with soundness consequences, so it is explicit
//! ([`EvictionPolicy`]) and loud ([`DivertStats::set_evictions`] /
//! [`DivertStats::set_refused`]). An earlier revision discarded an
//! *arbitrary* `HashSet` element at the bound, which could silently
//! un-divert an **active** attacker mid-signature — the slow path then
//! never saw the rest of the stream and the split signature was missed.
//! Both supported policies are deterministic: FIFO eviction sheds the
//! *oldest* diversion (most likely long-idle), and refuse-new keeps every
//! established diversion at the cost of not admitting new ones.

use std::collections::{HashSet, VecDeque};
use std::ops::Range;

use sd_flow::{FlowKey, SeededState};

/// Default bound on remembered diverted flows.
pub const DEFAULT_MAX_DIVERTED: usize = 1 << 20;

/// Ring bytes per delay-line packet: one Ethernet-MTU datagram.
pub const SLOT_BYTES: usize = 1500;

/// Bytes an index entry is accounted at: the key's wire size, a 4-byte
/// ring offset and a 2-byte length.
const INDEX_ENTRY_BYTES: usize = FlowKey::WIRE_BYTES + 4 + 2;

/// What the diversion manager does when a new flow must divert but the
/// sticky set is at its bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EvictionPolicy {
    /// Evict the *oldest* diversion (FIFO) to admit the new one. Sheds the
    /// entry most likely to be long-idle, but can un-divert a still-active
    /// flow; every eviction increments [`DivertStats::set_evictions`].
    #[default]
    EvictOldest,
    /// Keep every established diversion and refuse the new one. The
    /// refused flow stays on the fast path (its triggering packets still
    /// reach the slow path one-shot); every refusal increments
    /// [`DivertStats::set_refused`].
    RefuseNew,
}

/// Counters for the diversion layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DivertStats {
    /// Flows ever diverted.
    pub flows_diverted: u64,
    /// Diverted-set entries discarded at the bound (soundness erosion —
    /// must be zero in a correctly provisioned deployment).
    pub set_evictions: u64,
    /// New diversions refused at the bound under
    /// [`EvictionPolicy::RefuseNew`] (also soundness erosion: the refused
    /// flow's history is never replayed).
    pub set_refused: u64,
    /// Flows in the diverted set at snapshot time (a gauge, not a
    /// running count).
    pub set_size: u64,
    /// Benign packets handed to the delay line.
    pub recorded_packets: u64,
    /// Packets replayed from the delay line on diversion.
    pub replayed_packets: u64,
    /// Diverted packets shed at a full slow-path worker lane (asynchronous
    /// pool mode only — inline dispatch never sheds). Like `set_evictions`,
    /// nonzero means detection coverage degraded and the report WARNs.
    pub shed_packets: u64,
    /// Payload bytes of the shed packets.
    pub shed_bytes: u64,
}

/// The ranges of a `ring_len`-byte ring that `len` bytes from `offset`
/// occupy: up to the ring's end, then on from its start.
fn spans(ring_len: usize, offset: usize, len: usize) -> (Range<usize>, Range<usize>) {
    let first = len.min(ring_len - offset);
    (offset..offset + first, 0..len - first)
}

/// One buffered packet: where its bytes sit in the ring.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: FlowKey,
    /// Already handed to the slow path; kept until overwritten.
    replayed: bool,
    offset: usize,
    len: usize,
}

/// The diversion manager.
#[derive(Debug)]
pub struct DiversionManager {
    diverted: HashSet<FlowKey, SeededState>,
    /// Insertion order of `diverted`, for deterministic FIFO eviction.
    /// Entries leave the set only through this queue, so the two stay in
    /// lockstep.
    order: VecDeque<FlowKey>,
    max_diverted: usize,
    policy: EvictionPolicy,
    /// The delay line's bytes, `delay_cap ×` [`SLOT_BYTES`].
    ring: Box<[u8]>,
    /// The buffered packets, oldest first. At most `delay_cap` entries, so
    /// it never grows past its first allocation.
    index: VecDeque<Entry>,
    delay_cap: usize,
    /// Ring offset the next packet is written at.
    head: usize,
    /// Ring bytes the index's entries occupy: they run contiguously from
    /// `head − used` (mod the ring) up to `head`.
    used: usize,
    stats: DivertStats,
}

impl DiversionManager {
    /// Build with a delay line of `delay_cap` packets, a diverted set of
    /// at most `max_diverted` flows and its bound policy.
    ///
    /// # Panics
    /// Panics if `delay_cap ×` [`SLOT_BYTES`] overflows `usize`.
    pub fn with_policy(delay_cap: usize, max_diverted: usize, policy: EvictionPolicy) -> Self {
        let ring_len = delay_cap
            .checked_mul(SLOT_BYTES)
            .expect("delay line of delay_cap × SLOT_BYTES overflows usize");
        DiversionManager {
            diverted: HashSet::with_hasher(SeededState::new()),
            order: VecDeque::new(),
            max_diverted: max_diverted.max(1),
            policy,
            ring: vec![0; ring_len].into_boxed_slice(),
            index: VecDeque::with_capacity(delay_cap),
            delay_cap,
            head: 0,
            used: 0,
            stats: DivertStats::default(),
        }
    }

    /// Is this flow diverted?
    pub fn is_diverted(&self, key: &FlowKey) -> bool {
        self.diverted.contains(key)
    }

    /// Number of currently diverted flows.
    pub fn diverted_count(&self) -> usize {
        self.diverted.len()
    }

    /// The bound policy in force.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Counters, with the diverted set's current size.
    pub fn stats(&self) -> DivertStats {
        DivertStats {
            set_size: self.diverted.len() as u64,
            ..self.stats
        }
    }

    /// Record a benign-so-far packet into the delay line, overwriting the
    /// oldest packets as the packet or byte bound requires.
    pub fn record(&mut self, key: FlowKey, packet: &[u8]) {
        self.stats.recorded_packets += 1;
        let len = packet.len();
        if self.delay_cap == 0 || len > self.ring.len() {
            return;
        }
        while self.index.len() == self.delay_cap || self.used + len > self.ring.len() {
            // A dropped packet whose flow later diverts never reaches the
            // slow path, and that erosion is not counted.
            let oldest = self.index.pop_front().expect("a full line has entries");
            self.used -= oldest.len;
        }
        let offset = self.head;
        let (tail, wrapped) = spans(self.ring.len(), offset, len);
        let split = tail.len();
        self.ring[tail].copy_from_slice(&packet[..split]);
        self.ring[wrapped].copy_from_slice(&packet[split..]);
        self.head = offset + len;
        if self.head >= self.ring.len() {
            self.head -= self.ring.len();
        }
        self.used += len;
        self.index.push_back(Entry {
            key,
            replayed: false,
            offset,
            len,
        });
    }

    /// Mark a flow diverted and return its delay-line history, oldest
    /// first. The history is marked replayed (those packets now belong to
    /// the slow path) and is never returned again.
    ///
    /// At the diverted-set bound the configured [`EvictionPolicy`]
    /// applies: `EvictOldest` sheds the oldest diversion to admit this
    /// one; `RefuseNew` leaves the set untouched and returns an empty
    /// history (the flow is *not* diverted). Both outcomes are counted.
    pub fn divert(&mut self, key: FlowKey) -> Vec<Vec<u8>> {
        if self.diverted.contains(&key) {
            return Vec::new();
        }
        if self.diverted.len() >= self.max_diverted {
            match self.policy {
                EvictionPolicy::EvictOldest => {
                    if let Some(victim) = self.order.pop_front() {
                        self.diverted.remove(&victim);
                        self.stats.set_evictions += 1;
                    }
                }
                EvictionPolicy::RefuseNew => {
                    self.stats.set_refused += 1;
                    return Vec::new();
                }
            }
        }
        self.diverted.insert(key);
        self.order.push_back(key);
        self.stats.flows_diverted += 1;

        let ring = &self.ring;
        let mut history = Vec::new();
        let unreplayed = self
            .index
            .iter_mut()
            .filter(|e| e.key == key && !e.replayed);
        for e in unreplayed {
            e.replayed = true;
            let (tail, wrapped) = spans(ring.len(), e.offset, e.len);
            history.push([&ring[tail], &ring[wrapped]].concat());
        }
        self.stats.replayed_packets += history.len() as u64;
        history
    }

    /// Memory footprint: the ring and the index at its wire size (both
    /// constant, provisioned up front), and the diverted set with its FIFO
    /// order queue.
    pub fn memory_bytes(&self) -> usize {
        self.ring.len()
            + self.delay_cap * INDEX_ENTRY_BYTES
            + self.diverted.len() * (FlowKey::WIRE_BYTES + 8)
            + self.order.len() * FlowKey::WIRE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(n: u32) -> FlowKey {
        FlowKey::from_endpoints(
            6,
            (Ipv4Addr::from(n), 1000),
            (Ipv4Addr::from(0x0a00_0001u32), 80),
        )
        .0
    }

    /// A manager under the default (FIFO) bound policy.
    fn manager(delay_cap: usize, max_diverted: usize) -> DiversionManager {
        DiversionManager::with_policy(delay_cap, max_diverted, EvictionPolicy::default())
    }

    #[test]
    fn divert_is_sticky() {
        let mut d = manager(16, DEFAULT_MAX_DIVERTED);
        assert!(!d.is_diverted(&key(1)));
        d.divert(key(1));
        assert!(d.is_diverted(&key(1)));
        assert_eq!(d.diverted_count(), 1);
        // Re-diverting is a no-op.
        let again = d.divert(key(1));
        assert!(again.is_empty());
        assert_eq!(d.stats().flows_diverted, 1);
    }

    #[test]
    fn history_replays_in_order_for_the_right_flow() {
        let mut d = manager(16, DEFAULT_MAX_DIVERTED);
        d.record(key(1), b"one-a");
        d.record(key(2), b"two-a");
        d.record(key(1), b"one-b");
        let h = d.divert(key(1));
        assert_eq!(h, vec![b"one-a".to_vec(), b"one-b".to_vec()]);
        // The other flow's packet is still queued.
        let h2 = d.divert(key(2));
        assert_eq!(h2, vec![b"two-a".to_vec()]);
        assert_eq!(d.stats().replayed_packets, 3);
    }

    /// The constant footprint of a `delay_cap`-packet line.
    fn line_bytes(delay_cap: usize) -> usize {
        delay_cap * (SLOT_BYTES + INDEX_ENTRY_BYTES)
    }

    /// The diverted set's cost per flow: set entry plus order-queue entry.
    const DIVERTED_BYTES: usize = FlowKey::WIRE_BYTES + 8 + FlowKey::WIRE_BYTES;

    /// A packet whose bytes say which packet it is.
    fn packet(n: u32, len: usize) -> Vec<u8> {
        (0..len).map(|i| (n as usize * 31 + i) as u8).collect()
    }

    #[test]
    fn divert_lifts_one_flow_and_keeps_the_rest_in_order() {
        let mut d = manager(64, DEFAULT_MAX_DIVERTED);
        let mut line = Vec::new();
        for i in 0..40u32 {
            let (k, pkt) = (key(i % 3), vec![i as u8; 1 + (i as usize * 7) % 50]);
            d.record(k, &pkt);
            line.push((k, pkt));
        }
        for flow in [1, 0, 2] {
            let h = d.divert(key(flow));
            let expect: Vec<Vec<u8>> = line
                .iter()
                .filter(|(k, _)| *k == key(flow))
                .map(|(_, p)| p.clone())
                .collect();
            assert_eq!(h, expect, "flow {flow} replays its packets in order");
        }
        assert_eq!(d.stats().replayed_packets, 40);
        assert!(d.index.iter().all(|e| e.replayed));
    }

    #[test]
    fn delay_line_is_bounded() {
        let mut d = manager(4, DEFAULT_MAX_DIVERTED);
        for i in 0..10u32 {
            d.record(key(1), format!("p{i}").as_bytes());
        }
        let h = d.divert(key(1));
        assert_eq!(h.len(), 4, "only the last 4 packets retained");
        assert_eq!(h[0], b"p6");
    }

    #[test]
    fn zero_delay_is_divert_from_now() {
        let mut d = manager(0, DEFAULT_MAX_DIVERTED);
        assert_eq!(d.memory_bytes(), 0, "no ring, no index");
        d.record(key(1), b"lost");
        d.record(key(1), b"");
        assert_eq!(d.memory_bytes(), 0);
        let h = d.divert(key(1));
        assert!(h.is_empty());
        assert_eq!(d.stats().recorded_packets, 2);
        assert_eq!(d.memory_bytes(), DIVERTED_BYTES);
    }

    #[test]
    fn packet_straddling_the_ring_end_replays_whole() {
        // A 3000-byte ring: the third packet starts at 2000 and wraps.
        let mut d = manager(2, DEFAULT_MAX_DIVERTED);
        d.record(key(1), &packet(1, 1000));
        d.record(key(2), &packet(2, 1000));
        d.record(key(3), &packet(3, 1400));
        let last = *d.index.back().unwrap();
        assert_eq!((last.offset, last.len), (2000, 1400));
        assert!(last.offset + last.len > d.ring.len(), "the packet wraps");
        assert!(
            d.divert(key(1)).is_empty(),
            "packet bound overwrote the oldest"
        );
        assert_eq!(d.divert(key(3)), vec![packet(3, 1400)]);
        assert_eq!(d.divert(key(2)), vec![packet(2, 1000)]);
    }

    #[test]
    fn jumbo_packets_evict_by_bytes() {
        // Four slots, 6000 bytes: three 2000-byte packets fill the bytes
        // before the packet bound, so a fourth overwrites the oldest.
        let mut d = manager(4, DEFAULT_MAX_DIVERTED);
        for n in 1..=3 {
            d.record(key(n), &packet(n, 2000));
        }
        assert_eq!((d.index.len(), d.used), (3, 6000));
        d.record(key(4), &packet(4, 100));
        assert!(d.divert(key(1)).is_empty());
        for n in 2..=4 {
            assert_eq!(d.divert(key(n)).len(), 1, "flow {n} kept");
        }
        assert_eq!(d.memory_bytes(), line_bytes(4) + 4 * DIVERTED_BYTES);
    }

    #[test]
    fn packet_longer_than_the_ring_is_not_recorded() {
        let mut d = manager(2, DEFAULT_MAX_DIVERTED);
        d.record(key(1), b"small");
        d.record(key(1), &packet(9, 2 * SLOT_BYTES + 1));
        assert_eq!(d.stats().recorded_packets, 2, "still counted as handed in");
        assert_eq!(d.index.len(), 1, "nothing overwritten for it");
        assert_eq!(d.divert(key(1)), vec![b"small".to_vec()]);
        // A packet exactly the ring's size fits.
        d.record(key(2), &packet(2, 2 * SLOT_BYTES));
        assert_eq!(d.divert(key(2)), vec![packet(2, 2 * SLOT_BYTES)]);
    }

    #[test]
    fn rediversion_after_set_eviction_replays_nothing_twice() {
        let mut d = manager(16, 1);
        d.record(key(1), b"before");
        assert_eq!(d.divert(key(1)), vec![b"before".to_vec()]);
        d.divert(key(2)); // bound of one: key(1) leaves the set
        assert!(!d.is_diverted(&key(1)));
        d.record(key(1), b"after");
        assert_eq!(
            d.divert(key(1)),
            vec![b"after".to_vec()],
            "the replayed packet is still in the ring but not replayed again"
        );
        assert_eq!(d.stats().replayed_packets, 2);
    }

    #[test]
    fn fifo_policy_evicts_the_oldest_diversion() {
        // Pins the bugfix: eviction at the bound is deterministic FIFO,
        // not an arbitrary HashSet element.
        let mut d = manager(4, 2);
        assert_eq!(d.policy(), EvictionPolicy::EvictOldest);
        d.divert(key(1));
        d.divert(key(2));
        d.divert(key(3)); // bound hit: key(1) is the oldest
        assert_eq!(d.diverted_count(), 2);
        assert!(!d.is_diverted(&key(1)), "oldest evicted first");
        assert!(d.is_diverted(&key(2)));
        assert!(d.is_diverted(&key(3)));
        assert_eq!(d.stats().set_evictions, 1);
        assert_eq!(d.stats().set_refused, 0);
        d.divert(key(4)); // next oldest is key(2)
        assert!(!d.is_diverted(&key(2)));
        assert!(d.is_diverted(&key(3)));
        assert_eq!(d.stats().set_evictions, 2);
    }

    #[test]
    fn refuse_new_policy_keeps_established_diversions() {
        let mut d = DiversionManager::with_policy(4, 2, EvictionPolicy::RefuseNew);
        d.record(key(3), b"evidence");
        d.divert(key(1));
        d.divert(key(2));
        let h = d.divert(key(3)); // bound hit: refused
        assert!(h.is_empty(), "refused diversions replay nothing");
        assert!(!d.is_diverted(&key(3)));
        assert!(d.is_diverted(&key(1)) && d.is_diverted(&key(2)));
        assert_eq!(d.stats().flows_diverted, 2, "refusal is not a diversion");
        assert_eq!(d.stats().set_refused, 1);
        assert_eq!(d.stats().set_evictions, 0);
        // The refused flow's history stays queued: if capacity frees up
        // conceptually (it never does here — diversions are permanent),
        // the evidence has not been destroyed.
        assert!(d.memory_bytes() > 0);
    }

    #[test]
    fn diverted_set_bound_is_loud() {
        let mut d = manager(4, 2);
        d.divert(key(1));
        d.divert(key(2));
        d.divert(key(3));
        assert_eq!(d.diverted_count(), 2);
        assert_eq!(d.stats().set_evictions, 1);
    }

    #[test]
    fn memory_tracks_buffered_bytes() {
        // The line is provisioned up front: recording does not move the
        // footprint, only a diversion adds its set entry.
        let mut d = manager(16, DEFAULT_MAX_DIVERTED);
        assert_eq!(d.memory_bytes(), line_bytes(16));
        assert_eq!(line_bytes(16), 16 * 1519);
        d.record(key(1), &[0u8; 100]);
        assert_eq!(d.memory_bytes(), line_bytes(16));
        assert_eq!(d.divert(key(1)).len(), 1, "history handed off");
        assert_eq!(d.memory_bytes(), line_bytes(16) + DIVERTED_BYTES);
    }

    #[test]
    fn ring_memory_is_constant_under_jumbo_tiny_alternation() {
        // The old pooled line let a jumbo burst ratchet its buffers'
        // capacity; the ring cannot hold more than it was built with.
        const CAP: usize = 64;
        let mut d = manager(CAP, DEFAULT_MAX_DIVERTED);
        let jumbo = vec![0u8; 9000];
        let tiny = [0u8; 16];
        for _ in 0..4 {
            for _ in 0..CAP {
                d.record(key(1), &jumbo);
            }
            assert_eq!(d.index.len(), CAP * SLOT_BYTES / 9000, "bytes bound jumbos");
            assert_eq!(d.memory_bytes(), line_bytes(CAP));
            for _ in 0..CAP {
                d.record(key(2), &tiny);
            }
            assert_eq!(d.index.len(), CAP, "the packet bound holds tinies");
            assert_eq!(d.memory_bytes(), line_bytes(CAP));
        }
        assert!(d.divert(key(1)).is_empty(), "every jumbo overwritten");
        assert_eq!(d.divert(key(2)).len(), CAP);
    }

    #[test]
    fn index_entry_count_is_bounded() {
        let mut d = manager(8, DEFAULT_MAX_DIVERTED);
        let capacity = d.index.capacity();
        // Heavy churn: many records and diversions that replay the line.
        for i in 0..100u32 {
            d.record(key(i % 3), &[0u8; 64]);
        }
        d.divert(key(0));
        d.divert(key(1));
        d.divert(key(2));
        for i in 0..100u32 {
            d.record(key(10 + i % 3), &vec![0u8; 1 + i as usize * 37]);
            assert!(
                d.index.len() <= 8,
                "index holds {} > delay_cap",
                d.index.len()
            );
            let used: usize = d.index.iter().map(|e| e.len).sum();
            assert_eq!(d.used, used, "tracked bytes match the index");
        }
        assert_eq!(d.index.capacity(), capacity, "the index never grew");
        assert_eq!(d.memory_bytes(), line_bytes(8) + 3 * DIVERTED_BYTES);
    }
}
