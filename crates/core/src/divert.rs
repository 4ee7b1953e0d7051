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
use std::fmt;

use sd_flow::FlowKey;

/// Default bound on remembered diverted flows.
pub const DEFAULT_MAX_DIVERTED: usize = 1 << 20;

/// Ceiling on a pooled delay-line buffer's retained capacity. Buffers are
/// reused across packets and `Vec` never shrinks on `clear()`, so one
/// jumbo burst would otherwise ratchet every recycled buffer to jumbo
/// capacity forever; recycling clamps them back to one jumbo frame.
pub const POOL_BUFFER_CAP_BYTES: usize = 9216;

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

impl EvictionPolicy {
    /// Stable label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            EvictionPolicy::EvictOldest => "evict-oldest",
            EvictionPolicy::RefuseNew => "refuse-new",
        }
    }
}

impl fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
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
    /// The bound policy in force (uniform across shards).
    pub policy: EvictionPolicy,
}

/// The diversion manager.
#[derive(Debug)]
pub struct DiversionManager {
    diverted: HashSet<FlowKey>,
    /// Insertion order of `diverted`, for deterministic FIFO eviction.
    /// Entries leave the set only through this queue, so the two stay in
    /// lockstep.
    order: VecDeque<FlowKey>,
    max_diverted: usize,
    policy: EvictionPolicy,
    delay: VecDeque<(FlowKey, Vec<u8>)>,
    delay_cap: usize,
    /// Sum of *capacities* (not lengths) of the delay line's buffers —
    /// reused buffers retain capacity across packets, so capacity is what
    /// the allocator actually holds.
    delay_buf_bytes: usize,
    /// Retired buffers reused by `record` — the delay line is the hottest
    /// allocation site on the fast path (one buffer per packet), so at
    /// steady state it must not touch the allocator, mirroring the fixed
    /// FIFO a hardware delay line is. Bounded at `delay_cap` entries, each
    /// clamped to [`POOL_BUFFER_CAP_BYTES`].
    pool: Vec<Vec<u8>>,
    /// Sum of capacities of pooled buffers.
    pool_buf_bytes: usize,
    stats: DivertStats,
}

impl DiversionManager {
    /// Build with a delay line of `delay_cap` packets, a diverted set of
    /// at most `max_diverted` flows and its bound policy.
    pub fn with_policy(delay_cap: usize, max_diverted: usize, policy: EvictionPolicy) -> Self {
        DiversionManager {
            diverted: HashSet::new(),
            order: VecDeque::new(),
            max_diverted: max_diverted.max(1),
            policy,
            delay: VecDeque::new(),
            delay_cap,
            delay_buf_bytes: 0,
            pool: Vec::new(),
            pool_buf_bytes: 0,
            stats: DivertStats {
                policy,
                ..DivertStats::default()
            },
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

    /// Retire a buffer into the pool: bounded entry count, clamped
    /// capacity. A buffer that does not fit is simply dropped — the
    /// allocator reclaims it and steady-state memory stays bounded.
    fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.pool.len() >= self.delay_cap {
            return;
        }
        buf.clear();
        if buf.capacity() > POOL_BUFFER_CAP_BYTES {
            buf.shrink_to(POOL_BUFFER_CAP_BYTES);
        }
        self.pool_buf_bytes += buf.capacity();
        self.pool.push(buf);
    }

    /// Record a benign-so-far packet into the delay line.
    pub fn record(&mut self, key: FlowKey, packet: &[u8]) {
        self.stats.recorded_packets += 1;
        if self.delay_cap == 0 {
            return;
        }
        let mut buf = match self.pool.pop() {
            Some(b) => {
                self.pool_buf_bytes -= b.capacity();
                b
            }
            None => Vec::new(),
        };
        buf.clear();
        buf.extend_from_slice(packet);
        self.delay_buf_bytes += buf.capacity();
        self.delay.push_back((key, buf));
        while self.delay.len() > self.delay_cap {
            if let Some((_, dropped)) = self.delay.pop_front() {
                self.delay_buf_bytes -= dropped.capacity();
                // A dropped packet whose flow later diverts never reaches
                // the slow path, and that erosion is not counted. The
                // buffer itself goes back to the pool.
                self.recycle(dropped);
            }
        }
    }

    /// Mark a flow diverted and return its delay-line history, oldest
    /// first. The history is removed from the line (those packets now
    /// belong to the slow path).
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

        // Lift the flow's packets out in place; the rest keep their order.
        let mut history = Vec::new();
        let mut lifted = 0;
        self.delay.retain_mut(|(k, pkt)| {
            if *k != key {
                return true;
            }
            lifted += pkt.capacity();
            history.push(std::mem::take(pkt));
            false
        });
        self.delay_buf_bytes -= lifted;
        self.stats.replayed_packets += history.len() as u64;
        history
    }

    /// Memory footprint: buffer capacities actually held (delay line plus
    /// recycle pool — capacity, not content, is what the allocator keeps),
    /// per-entry overhead, and the diverted set with its FIFO order queue.
    pub fn memory_bytes(&self) -> usize {
        self.delay_buf_bytes
            + self.pool_buf_bytes
            + (self.delay.len() + self.pool.len()) * 24
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

    #[test]
    fn divert_lifts_one_flow_and_keeps_the_rest_in_order() {
        let mut d = manager(64, DEFAULT_MAX_DIVERTED);
        let mut line = Vec::new();
        for i in 0..40u32 {
            let (k, pkt) = (key(i % 3), vec![i as u8; 1 + (i as usize * 7) % 50]);
            d.record(k, &pkt);
            line.push((k, pkt));
        }
        let h = d.divert(key(1));
        let (lifted, kept): (Vec<_>, Vec<_>) = line.into_iter().partition(|(k, _)| *k == key(1));
        assert_eq!(h, lifted.into_iter().map(|(_, p)| p).collect::<Vec<_>>());
        let remaining: Vec<(FlowKey, Vec<u8>)> = d.delay.iter().cloned().collect();
        assert_eq!(remaining, kept, "the other flows keep their order");
        let delay: usize = d.delay.iter().map(|(_, b)| b.capacity()).sum();
        assert_eq!(d.delay_buf_bytes, delay);
        let pool: usize = d.pool.iter().map(Vec::capacity).sum();
        assert_eq!(d.pool_buf_bytes, pool);
        assert_eq!(d.stats().replayed_packets, 13);
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
        d.record(key(1), b"lost");
        let h = d.divert(key(1));
        assert!(h.is_empty());
        let key_bytes = key(1).to_bytes().len();
        assert_eq!(d.memory_bytes(), (key_bytes + 8) + key_bytes);
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
        let mut d = manager(16, DEFAULT_MAX_DIVERTED);
        assert_eq!(d.memory_bytes(), 0);
        d.record(key(1), &[0u8; 100]);
        assert!(d.memory_bytes() >= 100);
        d.divert(key(1));
        assert!(d.memory_bytes() < 100, "history handed off");
    }

    #[test]
    fn pool_memory_is_bounded_under_jumbo_tiny_alternation() {
        // Pins the bugfix: recycled buffers retain their *capacity*, so a
        // jumbo burst used to ratchet every delay-line buffer to jumbo
        // capacity forever even when the line holds only tiny packets.
        // The pool now clamps recycled buffers to POOL_BUFFER_CAP_BYTES
        // and bounds its entry count at delay_cap.
        const CAP: usize = 64;
        let mut d = manager(CAP, DEFAULT_MAX_DIVERTED);
        // Phase 1: jumbo packets ratchet buffer capacities up.
        let jumbo = vec![0u8; 60_000];
        for _ in 0..(CAP * 4) {
            d.record(key(1), &jumbo);
        }
        // Phase 2: tiny packets cycle every buffer through the pool.
        let tiny = [0u8; 16];
        for _ in 0..(CAP * 4) {
            d.record(key(2), &tiny);
        }
        // Steady state: the line holds CAP tiny packets in buffers whose
        // capacity has been clamped by pool recycling, plus a bounded
        // pool. Without the clamp this would report (and hold) tens of
        // megabytes of dead jumbo capacity.
        let bound = 2 * CAP * (POOL_BUFFER_CAP_BYTES + 24) + 4096;
        assert!(
            d.memory_bytes() < bound,
            "steady-state memory {} exceeds bound {bound}",
            d.memory_bytes()
        );
    }

    #[test]
    fn pool_entry_count_is_bounded() {
        let mut d = manager(8, DEFAULT_MAX_DIVERTED);
        // Heavy churn: many records and a divert that empties the line.
        for i in 0..100u32 {
            d.record(key(i % 3), &[0u8; 64]);
        }
        d.divert(key(0));
        d.divert(key(1));
        d.divert(key(2));
        for i in 0..100u32 {
            d.record(key(10 + i % 3), &[0u8; 64]);
        }
        assert!(
            d.pool.len() <= 8,
            "pool holds {} > delay_cap entries",
            d.pool.len()
        );
        // Accounting invariant: tracked pool bytes match reality.
        let actual: usize = d.pool.iter().map(Vec::capacity).sum();
        assert_eq!(d.pool_buf_bytes, actual);
        let actual_delay: usize = d.delay.iter().map(|(_, b)| b.capacity()).sum();
        assert_eq!(d.delay_buf_bytes, actual_delay);
    }

    #[test]
    fn eviction_policy_names_roundtrip() {
        for p in [EvictionPolicy::EvictOldest, EvictionPolicy::RefuseNew] {
            assert_eq!(p.to_string(), p.name());
        }
        assert_ne!(
            EvictionPolicy::EvictOldest.name(),
            EvictionPolicy::RefuseNew.name()
        );
    }
}
