//! Property tests: the flow table against a reference map and against a
//! linear-scan CLOCK model, the Bloom filter against its one-sided error
//! guarantee, and key canonicalization.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use sd_flow::hash::hash_key_seeded;
use sd_flow::key::{Direction, FlowKey};
use sd_flow::table::{FlowTable, InsertOutcome, TableStats, PROBE_WINDOW};
use sd_flow::CountingBloom;

fn arb_endpoint() -> impl Strategy<Value = (Ipv4Addr, u16)> {
    (any::<u32>(), any::<u16>()).prop_map(|(a, p)| (Ipv4Addr::from(a), p))
}

fn arb_key() -> impl Strategy<Value = FlowKey> {
    (arb_endpoint(), arb_endpoint(), 0u8..=255)
        .prop_map(|(src, dst, proto)| FlowKey::from_endpoints(proto, src, dst).0)
}

/// The flow table without control bytes: `Option` slots with a reference
/// bit each, every lookup a linear scan of the window, and the CLOCK sweep
/// one slot at a time from a hand shared by all windows. The control-byte
/// table must make exactly its decisions.
struct LinearClock {
    slots: Vec<Option<(FlowKey, u64, bool)>>,
    seed: u64,
    hand: usize,
    stats: TableStats,
}

impl LinearClock {
    fn new(capacity: usize, seed: u64) -> Self {
        LinearClock {
            slots: vec![None; capacity],
            seed,
            hand: 0,
            stats: TableStats::default(),
        }
    }

    fn window(&self, key: &FlowKey) -> Vec<usize> {
        let mask = self.slots.len() - 1;
        let start = hash_key_seeded(self.seed, key) as usize & mask;
        (0..PROBE_WINDOW).map(|i| (start + i) & mask).collect()
    }

    fn find(&self, key: &FlowKey) -> Option<usize> {
        self.window(key)
            .into_iter()
            .find(|&i| matches!(self.slots[i], Some((k, ..)) if k == *key))
    }

    fn get_mut(&mut self, key: &FlowKey) -> Option<&mut u64> {
        self.stats.lookups += 1;
        let i = self.find(key)?;
        self.stats.hits += 1;
        let (_, value, referenced) = self.slots[i].as_mut().expect("found");
        *referenced = true;
        Some(value)
    }

    fn peek(&self, key: &FlowKey) -> Option<&u64> {
        self.find(key)
            .map(|i| &self.slots[i].as_ref().expect("found").1)
    }

    fn remove(&mut self, key: &FlowKey) -> Option<u64> {
        let i = self.find(key)?;
        self.slots[i].take().map(|(_, value, _)| value)
    }

    /// The value now stored for `key`, the outcome, and the evicted key.
    fn get_or_insert(
        &mut self,
        key: &FlowKey,
        value: u64,
    ) -> (u64, InsertOutcome, Option<FlowKey>) {
        if let Some(v) = self.get_mut(key) {
            return (*v, InsertOutcome::Found, None);
        }
        let window = self.window(key);
        let (i, outcome, victim) = match window.iter().find(|&&i| self.slots[i].is_none()) {
            Some(&i) => (i, InsertOutcome::Inserted, None),
            None => {
                let mut victim = self.hand;
                for j in 0..PROBE_WINDOW {
                    let pos = (self.hand + j) % PROBE_WINDOW;
                    let (_, _, referenced) = self.slots[window[pos]].as_mut().expect("full");
                    if !*referenced {
                        victim = pos;
                        break;
                    }
                    *referenced = false;
                }
                self.hand = (victim + 1) % PROBE_WINDOW;
                self.stats.evictions += 1;
                let evicted = self.slots[window[victim]].map(|(k, ..)| k);
                (window[victim], InsertOutcome::InsertedWithEviction, evicted)
            }
        };
        self.stats.insertions += 1;
        self.slots[i] = Some((*key, value, true));
        (value, outcome, victim)
    }

    /// Live entries in slot order.
    fn live(&self) -> Vec<(FlowKey, u64)> {
        self.slots
            .iter()
            .flatten()
            .map(|&(k, v, _)| (k, v))
            .collect()
    }
}

proptest! {
    /// Under eviction pressure (three keys per slot) on tables small enough
    /// that windows wrap across the mirrored control bytes, the table makes
    /// the linear-scan model's decisions: equal outcomes and values, equal
    /// stats, the same victim at every eviction, and every entry in the
    /// same slot.
    #[test]
    fn table_matches_linear_clock_model(
        capacity in prop::sample::select(vec![16usize, 32, 64]),
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..6, 0u32..192), 1..400),
    ) {
        let mut table: FlowTable<u64> = FlowTable::with_seed(capacity, seed);
        let mut model = LinearClock::new(capacity, seed);
        for (n, (op, kn)) in ops.into_iter().enumerate() {
            let k = FlowKey::from_endpoints(
                6,
                (Ipv4Addr::from(0x0a00_0000 + kn % (3 * capacity as u32)), 1000),
                (Ipv4Addr::from(0x0a01_0001u32), 80),
            )
            .0;
            match op {
                0..=2 => {
                    let (v, outcome) = table.get_or_insert_with(&k, || n as u64);
                    let (mv, moutcome, victim) = model.get_or_insert(&k, n as u64);
                    prop_assert_eq!((*v, outcome), (mv, moutcome));
                    if let Some(victim) = victim {
                        prop_assert!(table.peek(&victim).is_none(), "a different victim");
                    }
                }
                3 => {
                    let got = table.get_mut(&k).map(|v| {
                        *v += 1;
                        *v
                    });
                    let want = model.get_mut(&k).map(|v| {
                        *v += 1;
                        *v
                    });
                    prop_assert_eq!(got, want);
                }
                4 => prop_assert_eq!(table.remove(&k), model.remove(&k)),
                _ => prop_assert_eq!(table.peek(&k), model.peek(&k)),
            }
            prop_assert_eq!(table.stats(), model.stats);
            let live: Vec<(FlowKey, u64)> = table.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(table.len(), live.len());
            prop_assert_eq!(live, model.live());
        }
    }

    /// Canonicalization: swapping src and dst never changes the key, and
    /// `oriented` inverts it.
    #[test]
    fn key_canonical_and_invertible(src in arb_endpoint(), dst in arb_endpoint(), proto in 0u8..=255) {
        let (k1, d1) = FlowKey::from_endpoints(proto, src, dst);
        let (k2, d2) = FlowKey::from_endpoints(proto, dst, src);
        prop_assert_eq!(k1, k2);
        prop_assert_eq!(k1.to_bytes(), k2.to_bytes());
        if src != dst {
            prop_assert_eq!(d1.flip(), d2);
        }
        prop_assert_eq!(k1.oriented(d1), (src, dst));
        prop_assert_eq!(k2.oriented(d2), (dst, src));
        // Forward means the canonical first endpoint sent the packet.
        if d1 == Direction::Forward {
            prop_assert_eq!((k1.addr_a, k1.port_a), src);
        }
    }

    /// With ample capacity (no evictions possible), the table behaves
    /// exactly like a HashMap under an arbitrary op sequence.
    #[test]
    fn table_matches_reference_map(ops in prop::collection::vec((0u8..3, 0u32..24), 1..300)) {
        let mut table: FlowTable<u64> = FlowTable::with_capacity(4096);
        let mut model: HashMap<FlowKey, u64> = HashMap::new();
        let keys: Vec<FlowKey> = (0..24)
            .map(|n| {
                FlowKey::from_endpoints(
                    6,
                    (Ipv4Addr::from(0x0a00_0000 + n), 1000 + n as u16),
                    (Ipv4Addr::from(0x0a01_0001u32), 80),
                )
                .0
            })
            .collect();

        for (op, kn) in ops {
            let k = keys[kn as usize % keys.len()];
            match op {
                0 => {
                    let (v, _) = table.get_or_insert_with(&k, || 0);
                    *v += 1;
                    *model.entry(k).or_insert(0) += 1;
                }
                1 => {
                    prop_assert_eq!(table.remove(&k), model.remove(&k));
                }
                _ => {
                    prop_assert_eq!(table.peek(&k), model.get(&k));
                }
            }
            prop_assert_eq!(table.len(), model.len());
        }
        if !model.is_empty() {
            prop_assert_eq!(table.stats().evictions, 0, "capacity 4096 must not evict 24 keys");
        }
        for (k, v) in &model {
            prop_assert_eq!(table.peek(k), Some(v));
        }
    }

    /// Bloom estimates never fall below the true count while all cells stay
    /// below saturation.
    #[test]
    fn bloom_one_sided_error(keys in prop::collection::vec(arb_key(), 1..60),
                             counts in prop::collection::vec(1u8..8, 1..60)) {
        let mut bloom = CountingBloom::new(2048, 4);
        let pairs: Vec<(FlowKey, u8)> = keys.into_iter().zip(counts).collect();
        // Deduplicate: identical keys add up, so track true totals.
        let mut truth: HashMap<FlowKey, u32> = HashMap::new();
        for (k, c) in &pairs {
            for _ in 0..*c {
                bloom.increment(k);
            }
            *truth.entry(*k).or_insert(0) += *c as u32;
        }
        for (k, t) in &truth {
            prop_assert!(
                (bloom.estimate(k) as u32) >= (*t).min(255),
                "estimate below true count"
            );
        }
    }

    /// The incremental nonzero-cell counter behind `fill_ratio` agrees
    /// with a full cell scan under arbitrary increment/decrement/decay
    /// sequences (the satellite fix for the O(cells) "cheap load signal").
    #[test]
    fn bloom_fill_ratio_matches_scan(ops in prop::collection::vec((0u8..4, arb_key()), 1..400),
                                     seed in any::<u64>()) {
        let mut bloom = CountingBloom::with_seed(512, 3, seed);
        for (op, k) in ops {
            match op {
                0 | 1 => { bloom.increment(&k); }
                2 => bloom.decrement(&k),
                _ => bloom.decay(),
            }
            prop_assert_eq!(bloom.fill_ratio(), bloom.scan_fill_ratio());
        }
        bloom.clear();
        prop_assert_eq!(bloom.fill_ratio(), 0.0);
    }

    /// Pinned-seed tables are bit-reproducible: identical op sequences on
    /// identical seeds give identical stats and contents.
    #[test]
    fn seeded_table_is_reproducible(ops in prop::collection::vec(any::<u32>(), 1..200),
                                    seed in any::<u64>()) {
        let run = |mut t: FlowTable<u32>| {
            for &s in &ops {
                let k = FlowKey::from_endpoints(
                    6,
                    (Ipv4Addr::from(s), (s % 50000) as u16),
                    (Ipv4Addr::from(0x0a00_0001u32), 80),
                ).0;
                t.get_or_insert_with(&k, || s);
            }
            (t.stats(), t.len())
        };
        let a = run(FlowTable::with_seed(64, seed));
        let b = run(FlowTable::with_seed(64, seed));
        prop_assert_eq!(a, b);
    }

    /// Even under heavy eviction pressure, a table never loses the entry it
    /// just inserted (the insert-then-read guarantee diversion relies on).
    #[test]
    fn table_insert_is_immediately_readable(seeds in prop::collection::vec(any::<u32>(), 1..200)) {
        let mut table: FlowTable<u32> = FlowTable::with_capacity(16);
        for s in seeds {
            let k = FlowKey::from_endpoints(
                6,
                (Ipv4Addr::from(s), (s % 50000) as u16),
                (Ipv4Addr::from(0x0a00_0001u32), 80),
            ).0;
            let (v, _) = table.get_or_insert_with(&k, || s);
            prop_assert_eq!(*v, s);
            prop_assert_eq!(table.peek(&k), Some(&s));
        }
    }
}
