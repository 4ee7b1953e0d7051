//! A fixed-capacity open-addressing flow table with CLOCK eviction.
//!
//! This is the fast path's only per-flow store, so it is built the way a
//! line-rate implementation would be:
//!
//! * **fixed capacity** — memory is provisioned once (the paper sizes for
//!   ~1 M connections); no rehashing, no allocation per packet — lookups,
//!   inserts and removes work on the probe window in place and never touch
//!   the heap;
//! * **bounded probing** — linear probing limited to a window of
//!   [`PROBE_WINDOW`] slots, so the worst-case per-packet work is constant;
//! * **one control group per window** — each slot has a control byte: 0
//!   when empty, otherwise `0x80 | CLOCK bit 0x40 | 6-bit fingerprint`
//!   taken from the top of the key's hash. The first `PROBE_WINDOW − 1`
//!   control bytes are mirrored after the last, so every window's bytes
//!   are one contiguous 16-byte group read as one `u128`. Finding the key,
//!   the first free slot and the CLOCK victim are word operations on that
//!   group (SWAR), and a key is compared only where its fingerprint
//!   matches, so a lookup reads one control line and, on a hit, usually
//!   one slot;
//! * **fetch ahead** — [`FlowTable::probe`] hashes the key and prefetches
//!   its control group and slot lines; [`FlowTable::get_or_insert_at`]
//!   finishes the lookup later, so a caller with other work to do first
//!   (the fast path's piece scan) hides the memory latency behind it;
//! * **seeded hashing** — slot indices come from a per-instance
//!   random-keyed hash ([`crate::hash::random_seed`] by default,
//!   [`FlowTable::with_seed`] to pin one), so an adversary cannot
//!   precompute flow keys that pile into one probe window and evict
//!   tracked flows;
//! * **CLOCK (second-chance) eviction** — when a window is full, the sweep
//!   starts at a hand shared by all windows (not the window head), clears
//!   reference bits until an unreferenced entry is found, and evicts it;
//!   reference bits are set on every hit. Evicting a live benign flow is
//!   harmless for correctness (its counters restart at zero); the
//!   false-negative risk this creates for *diverted* flows is handled a
//!   layer up, which is why diversion is sticky in `splitdetect`;
//! * **byte-accurate accounting** — [`FlowTable::memory_bytes`] reports the
//!   provisioned footprint the way the paper's state comparison counts it.

use std::mem;
use std::net::Ipv4Addr;

use crate::hash::{hash_key_seeded, random_seed};
use crate::key::FlowKey;
use crate::prefetch;

/// Probe window: how many consecutive slots a key may occupy. Bounds the
/// per-packet worst case; 16 keeps the false-eviction rate negligible below
/// 90 % occupancy, and its 16 control bytes are one `u128` group (the slots
/// behind it span 7–8 cache lines, which a hit rarely needs more than one
/// of).
pub const PROBE_WINDOW: usize = 16;

/// Control byte of an empty slot.
const EMPTY: u8 = 0;
/// Control bit every occupied slot has.
const OCCUPIED: u8 = 0x80;
/// Control bit: the CLOCK reference bit.
const REFERENCED: u8 = 0x40;
/// `0x01` in every byte of a group.
const BYTES: u128 = u128::MAX / 0xFF;

/// `BYTES * b`: the byte `b` in every lane of a group.
const fn splat(b: u8) -> u128 {
    BYTES * b as u128
}

/// Lanes of `group` equal to zero, as each lane's top bit. Exact: no carry
/// crosses a lane, so no nonzero lane is reported.
fn zero_lanes(group: u128) -> u128 {
    let low7 = splat(0x7F);
    !(((group & low7) + low7) | group) & splat(0x80)
}

/// Window positions of the lane bits in `lanes`, lowest first.
fn positions(mut lanes: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (lanes != 0).then(|| {
            let pos = lanes.trailing_zeros() as usize / 8;
            lanes &= lanes - 1;
            pos
        })
    })
}

/// The key every empty slot holds; only the control byte says a slot is
/// empty, so the value never matters.
const VACANT: FlowKey = FlowKey {
    addr_a: Ipv4Addr::UNSPECIFIED,
    addr_b: Ipv4Addr::UNSPECIFIED,
    port_a: 0,
    port_b: 0,
    proto: 0,
};

/// Occupancy lives in the control byte alone, so a slot carries no tag:
/// 28 B for the fast path's 12-byte `FlowState`.
#[derive(Debug, Clone)]
struct Slot<V> {
    key: FlowKey,
    value: V,
}

/// Outcome of [`FlowTable::get_or_insert_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The key was already present.
    Found,
    /// The key was inserted into an empty slot.
    Inserted,
    /// The key was inserted by evicting another flow's entry.
    InsertedWithEviction,
}

/// Running counters kept by the table. All monotonic; read for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups performed (get or get_or_insert).
    pub lookups: u64,
    /// Lookups that found the key.
    pub hits: u64,
    /// New entries created.
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

/// A key hashed against one table: where its probe window starts and the
/// control byte it carries when resident. [`FlowTable::probe`] makes it
/// (and starts fetching the window); [`FlowTable::get_or_insert_at`] and
/// [`FlowTable::remove_at`] on the same table spend it without hashing
/// again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    key: FlowKey,
    start: usize,
    tag: u8,
}

/// Fixed-capacity open-addressing hash table keyed by [`FlowKey`].
///
/// ```
/// use sd_flow::{FlowKey, FlowTable};
/// let mut table: FlowTable<u32> = FlowTable::with_capacity(1024);
/// let (key, _) = FlowKey::from_endpoints(
///     6,
///     ("10.0.0.1".parse().unwrap(), 4000),
///     ("10.0.0.2".parse().unwrap(), 80),
/// );
/// let (count, _) = table.get_or_insert_with(&key, || 0u32);
/// *count += 1;
/// assert_eq!(table.peek(&key), Some(&1));
/// assert_eq!(table.memory_bytes(), 1024 * FlowTable::<u32>::slot_bytes());
/// ```
#[derive(Debug, Clone)]
pub struct FlowTable<V> {
    /// One control byte per slot, then the first `PROBE_WINDOW − 1` again
    /// so no window's group wraps.
    ctrl: Vec<u8>,
    slots: Vec<Slot<V>>,
    mask: usize,
    len: usize,
    seed: u64,
    /// CLOCK hand: the in-window position (`0..PROBE_WINDOW`) where the
    /// next eviction sweep starts. Shared across windows so sustained
    /// pressure on one window rotates its victims instead of hammering the
    /// earliest unreferenced slot.
    hand: usize,
    stats: TableStats,
}

impl<V: Default> FlowTable<V> {
    /// Create a table with at least `capacity` slots (rounded up to a power
    /// of two, minimum [`PROBE_WINDOW`]) and a process-random hash seed —
    /// the production default, which keeps precomputed collision floods
    /// from targeting the table.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_seed(capacity, random_seed())
    }

    /// [`with_capacity`](Self::with_capacity) with a pinned hash seed, for
    /// bit-reproducible runs (experiments, the differential-fuzz oracle).
    pub fn with_seed(capacity: usize, seed: u64) -> Self {
        let cap = capacity.max(PROBE_WINDOW).next_power_of_two();
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, || Slot {
            key: VACANT,
            value: V::default(),
        });
        FlowTable {
            ctrl: vec![EMPTY; cap + PROBE_WINDOW - 1],
            slots,
            mask: cap - 1,
            len: 0,
            seed,
            hand: 0,
            stats: TableStats::default(),
        }
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &FlowKey) -> Option<V> {
        let probe = self.locate(key);
        self.remove_at(&probe)
    }

    /// [`remove`](Self::remove) through a probe this table made, without
    /// hashing the key again.
    pub fn remove_at(&mut self, probe: &Probe) -> Option<V> {
        let idx = self.find_at(probe)?;
        self.set_ctrl(idx, EMPTY);
        self.len -= 1;
        Some(mem::take(&mut self.slots[idx].value))
    }

    /// Drop all entries, keeping the provisioned capacity and stats.
    pub fn clear(&mut self) {
        for (ctrl, slot) in self.ctrl.iter().zip(&mut self.slots) {
            if *ctrl != EMPTY {
                slot.value = V::default();
            }
        }
        self.ctrl.fill(EMPTY);
        self.len = 0;
    }
}

impl<V> FlowTable<V> {
    /// The hash seed slot indices derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Provisioned slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Monotonic counters.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Provisioned memory footprint in bytes: every slot costs one key, one
    /// value, and one control byte (occupancy, CLOCK bit, fingerprint),
    /// whether occupied or not — a fixed-size hardware table is paid for up
    /// front, which is how the paper's state comparison counts it.
    pub fn memory_bytes(&self) -> usize {
        self.capacity() * Self::slot_bytes()
    }

    /// Bytes per slot used by [`memory_bytes`](Self::memory_bytes).
    pub fn slot_bytes() -> usize {
        FlowKey::WIRE_BYTES + mem::size_of::<V>() + 1
    }

    /// Hash `key` once: its window start from the low bits, its
    /// fingerprint from the top six.
    fn locate(&self, key: &FlowKey) -> Probe {
        let hash = hash_key_seeded(self.seed, key);
        Probe {
            key: *key,
            start: hash as usize & self.mask,
            tag: OCCUPIED | (hash >> 58) as u8,
        }
    }

    /// Hash `key` and start fetching its probe window — the control group
    /// and the slots behind it — so that a later
    /// [`get_or_insert_at`](Self::get_or_insert_at) finds them in cache.
    /// Even with no work in between, the slot lines then load alongside
    /// the control line rather than after it.
    pub fn probe(&self, key: &FlowKey) -> Probe {
        let probe = self.locate(key);
        let end = probe.start + PROBE_WINDOW;
        prefetch::lines(&self.ctrl[probe.start..end]);
        prefetch::lines(&self.slots[probe.start..end.min(self.capacity())]);
        if let Some(wrapped) = end.checked_sub(self.capacity()) {
            prefetch::lines(&self.slots[..wrapped]);
        }
        probe
    }

    /// The 16 control bytes of the window starting at `start`; byte `i`
    /// (lane `i`) is slot `(start + i) & mask`.
    fn group(&self, start: usize) -> u128 {
        let bytes = &self.ctrl[start..start + PROBE_WINDOW];
        u128::from_le_bytes(bytes.try_into().expect("a group is 16 bytes"))
    }

    /// Set slot `idx`'s control byte and its mirror.
    fn set_ctrl(&mut self, idx: usize, ctrl: u8) {
        self.ctrl[idx] = ctrl;
        if idx < PROBE_WINDOW - 1 {
            self.ctrl[self.slots.len() + idx] = ctrl;
        }
    }

    /// Write back the window group starting at `start`, mirrors included.
    fn store_group(&mut self, start: usize, group: u128) {
        let cap = self.slots.len();
        let end = start + PROBE_WINDOW;
        self.ctrl[start..end].copy_from_slice(&group.to_le_bytes());
        // Primaries written (slots below `PROBE_WINDOW − 1`) refresh their
        // mirrors; mirrors written (a group that wraps) refresh their
        // primaries. Only a 16-slot table needs both.
        let primaries = start..end.min(PROBE_WINDOW - 1);
        if !primaries.is_empty() {
            self.ctrl
                .copy_within(primaries.clone(), cap + primaries.start);
        }
        if end > cap {
            let mirrors = start.max(cap)..end;
            self.ctrl.copy_within(mirrors.clone(), mirrors.start - cap);
        }
    }

    /// Slot index of the probe's key in `group`, comparing keys only where
    /// the fingerprint matches.
    fn find_in(&self, group: u128, probe: &Probe) -> Option<usize> {
        debug_assert_eq!(*probe, self.locate(&probe.key), "a probe of this table");
        let candidates = zero_lanes((group & !splat(REFERENCED)) ^ splat(probe.tag));
        positions(candidates)
            .map(|pos| (probe.start + pos) & self.mask)
            .find(|&idx| self.slots[idx].key == probe.key)
    }

    fn find_at(&self, probe: &Probe) -> Option<usize> {
        self.find_in(self.group(probe.start), probe)
    }

    /// Look up `key`, setting its reference bit on a hit.
    pub fn get_mut(&mut self, key: &FlowKey) -> Option<&mut V> {
        self.stats.lookups += 1;
        let probe = self.locate(key);
        let idx = self.find_at(&probe)?;
        self.stats.hits += 1;
        self.set_ctrl(idx, probe.tag | REFERENCED);
        Some(&mut self.slots[idx].value)
    }

    /// Look up `key` without touching reference bits or stats (read-only
    /// inspection for tests and reporting).
    pub fn peek(&self, key: &FlowKey) -> Option<&V> {
        self.find_at(&self.locate(key))
            .map(|idx| &self.slots[idx].value)
    }

    /// Look up `key`, inserting `make()` if absent. Runs CLOCK eviction
    /// within the probe window when no slot is free.
    pub fn get_or_insert_with(
        &mut self,
        key: &FlowKey,
        make: impl FnOnce() -> V,
    ) -> (&mut V, InsertOutcome) {
        self.get_or_insert_at(&self.probe(key), make)
    }

    /// [`get_or_insert_with`](Self::get_or_insert_with) through a probe
    /// this table made: the key is not hashed again, and the window is
    /// already in flight if the caller did other work since
    /// [`probe`](Self::probe).
    pub fn get_or_insert_at(
        &mut self,
        probe: &Probe,
        make: impl FnOnce() -> V,
    ) -> (&mut V, InsertOutcome) {
        self.stats.lookups += 1;
        let group = self.group(probe.start);
        if let Some(idx) = self.find_in(group, probe) {
            self.stats.hits += 1;
            self.set_ctrl(idx, probe.tag | REFERENCED);
            return (&mut self.slots[idx].value, InsertOutcome::Found);
        }
        let (pos, outcome) = match positions(!group & splat(OCCUPIED)).next() {
            Some(pos) => {
                self.len += 1;
                (pos, InsertOutcome::Inserted)
            }
            None => (
                self.evict(probe.start, group),
                InsertOutcome::InsertedWithEviction,
            ),
        };
        let idx = (probe.start + pos) & self.mask;
        self.stats.insertions += 1;
        self.set_ctrl(idx, probe.tag | REFERENCED);
        self.slots[idx] = Slot {
            key: probe.key,
            value: make(),
        };
        (&mut self.slots[idx].value, outcome)
    }

    /// CLOCK sweep over a full window, starting at the shared hand rather
    /// than the window head (a head-anchored sweep hammers the earliest
    /// unreferenced slot under sustained pressure): clear reference bits
    /// until an unreferenced victim is found; if every entry was
    /// referenced, the first (now-cleared) slot swept is the victim. The
    /// hand advances past the victim either way. Returns the victim's
    /// window position.
    fn evict(&mut self, start: usize, group: u128) -> usize {
        let hand = self.hand;
        let turn = 8 * hand as u32;
        // Lane `j` of the rotated group is window position `(hand + j) % 16`.
        let rotated = group.rotate_right(turn);
        let (victim, swept) = match positions(!rotated & splat(REFERENCED)).next() {
            Some(j) => (j, (1u128 << (8 * j)) - 1),
            None => (0, u128::MAX),
        };
        if swept != 0 {
            let cleared = rotated & !(swept & splat(REFERENCED));
            self.store_group(start, cleared.rotate_left(turn));
        }
        let pos = (hand + victim) % PROBE_WINDOW;
        self.hand = (pos + 1) % PROBE_WINDOW;
        self.stats.evictions += 1;
        pos
    }

    /// Iterate over live `(key, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&FlowKey, &V)> {
        self.ctrl
            .iter()
            .zip(&self.slots)
            .filter(|(ctrl, _)| **ctrl != EMPTY)
            .map(|(_, slot)| (&slot.key, &slot.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(n: u32) -> FlowKey {
        let (k, _) = FlowKey::from_endpoints(
            6,
            (Ipv4Addr::from(0x0a00_0000 | n), 10_000),
            (Ipv4Addr::from(0x0a01_0000u32), 80),
        );
        k
    }

    #[test]
    fn insert_then_get() {
        let mut t: FlowTable<u32> = FlowTable::with_capacity(64);
        let k = key(1);
        let (v, outcome) = t.get_or_insert_with(&k, || 7);
        assert_eq!((*v, outcome), (7, InsertOutcome::Inserted));
        *v += 1;
        assert_eq!(t.get_mut(&k), Some(&mut 8));
        assert_eq!(t.peek(&k), Some(&8));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn second_lookup_is_found() {
        let mut t: FlowTable<u32> = FlowTable::with_capacity(64);
        let k = key(2);
        t.get_or_insert_with(&k, || 0);
        let (_, outcome) = t.get_or_insert_with(&k, || 99);
        assert_eq!(outcome, InsertOutcome::Found);
        assert_eq!(t.peek(&k), Some(&0), "make() must not run on a hit");
    }

    #[test]
    fn remove_frees_slot() {
        let mut t: FlowTable<u32> = FlowTable::with_capacity(64);
        let k = key(3);
        t.get_or_insert_with(&k, || 5);
        assert_eq!(t.remove(&k), Some(5));
        assert_eq!(t.len(), 0);
        assert!(t.peek(&k).is_none());
        assert_eq!(t.remove(&k), None);
    }

    #[test]
    fn capacity_is_power_of_two_and_bounded_memory() {
        let t: FlowTable<u64> = FlowTable::with_capacity(1000);
        assert_eq!(t.capacity(), 1024);
        assert_eq!(
            t.memory_bytes(),
            1024 * (FlowKey::WIRE_BYTES + std::mem::size_of::<u64>() + 1)
        );
    }

    #[test]
    fn eviction_when_window_overflows() {
        // A tiny table forces all keys into overlapping windows.
        let mut t: FlowTable<u32> = FlowTable::with_capacity(PROBE_WINDOW);
        assert_eq!(t.capacity(), PROBE_WINDOW);
        let mut evicted = 0;
        for n in 0..3 * PROBE_WINDOW as u32 {
            let (_, outcome) = t.get_or_insert_with(&key(n), || n);
            if outcome == InsertOutcome::InsertedWithEviction {
                evicted += 1;
            }
        }
        assert!(evicted > 0, "overflow must evict");
        assert_eq!(t.stats().evictions, evicted);
        assert!(t.len() <= PROBE_WINDOW);
    }

    #[test]
    fn clock_prefers_unreferenced_victims() {
        let mut t: FlowTable<u32> = FlowTable::with_capacity(PROBE_WINDOW);
        // Fill the table.
        for n in 0..PROBE_WINDOW as u32 {
            t.get_or_insert_with(&key(n), || n);
        }
        // Everything has referenced=true from insertion; one overflow insert
        // sweeps bits clear and evicts something.
        t.get_or_insert_with(&key(1000), || 0);
        // Touch one survivor so its bit is set again.
        let survivor = (0..PROBE_WINDOW as u32)
            .map(key)
            .find(|k| t.peek(k).is_some())
            .unwrap();
        t.get_mut(&survivor);
        // The next eviction must not pick the freshly-referenced survivor
        // while unreferenced candidates exist in its window.
        t.get_or_insert_with(&key(2000), || 0);
        assert!(
            t.peek(&survivor).is_some(),
            "CLOCK evicted a just-referenced entry while cold entries existed"
        );
    }

    /// Brute-force `n` distinct keys whose seed-`seed` hash passes `pick`.
    fn keys_where(seed: u64, n: usize, pick: impl Fn(u64) -> bool) -> Vec<FlowKey> {
        (0..)
            .map(key)
            .filter(|k| pick(crate::hash::hash_key_seeded(seed, k)))
            .take(n)
            .collect()
    }

    /// Brute-force `n` distinct keys whose probe windows all start at slot
    /// `target` of a `cap`-slot table hashed with `seed` — the collision
    /// flood an adversary could precompute against a *fixed* public hash.
    fn colliding_keys(seed: u64, cap: usize, target: usize, n: usize) -> Vec<FlowKey> {
        keys_where(seed, n, |h| h as usize & (cap - 1) == target)
    }

    #[test]
    fn fingerprint_collisions_compare_keys() {
        // A full window of keys with one start and one fingerprint: every
        // control byte matches every probe, so only the key compare tells
        // them apart.
        let (seed, cap) = (5u64, 256usize);
        let keys = keys_where(seed, PROBE_WINDOW, |h| {
            h as usize & (cap - 1) == 17 && h >> 58 == 0x2A
        });
        let mut t: FlowTable<usize> = FlowTable::with_seed(cap, seed);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get_or_insert_with(k, || i).1, InsertOutcome::Inserted);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.peek(k), Some(&i));
            *t.get_mut(k).unwrap() += 100;
        }
        assert_eq!(t.remove(&keys[3]), Some(103));
        for (i, k) in keys.iter().enumerate().filter(|&(i, _)| i != 3) {
            let (v, outcome) = t.get_or_insert_with(k, || 0);
            assert_eq!((*v, outcome), (i + 100, InsertOutcome::Found));
        }
        assert_eq!(t.peek(&keys[3]), None);
        assert_eq!(t.stats().evictions, 0);
    }

    #[test]
    fn flow_state_slot_is_28_bytes() {
        // The fast path's `FlowState` layout: 12 bytes at alignment 4. With
        // occupancy in the control byte its slot is key + value padded to
        // 28 B, not the 32 B a tagged `Option<(key, value)>` takes.
        struct FlowStateLayout {
            _next_seq: [u32; 2],
            _small_count: [u8; 2],
            _flags: u8,
        }
        assert_eq!(mem::size_of::<FlowStateLayout>(), 12);
        assert_eq!(mem::size_of::<Slot<FlowStateLayout>>(), 28);
        assert_eq!(
            FlowTable::<FlowStateLayout>::slot_bytes(),
            FlowKey::WIRE_BYTES + 12 + 1
        );
    }

    #[test]
    fn clock_hand_rotates_across_evictions() {
        // 16 cold keys fill one probe window; 16 fresh same-window keys
        // then arrive. With a rotating hand every cold entry is evicted
        // exactly once; a head-anchored sweep would ping-pong on the first
        // couple of positions and leave most cold entries untouched.
        let seed = 42u64;
        let keys = colliding_keys(seed, PROBE_WINDOW, 0, 2 * PROBE_WINDOW);
        let (cold, fresh) = keys.split_at(PROBE_WINDOW);
        let mut t: FlowTable<u32> = FlowTable::with_seed(PROBE_WINDOW, seed);
        for k in cold {
            t.get_or_insert_with(k, || 0);
        }
        for k in fresh {
            let (_, outcome) = t.get_or_insert_with(k, || 1);
            assert_eq!(outcome, InsertOutcome::InsertedWithEviction);
        }
        let survivors = cold.iter().filter(|k| t.peek(k).is_some()).count();
        assert_eq!(
            survivors, 0,
            "rotating CLOCK hand must cycle through every cold entry"
        );
        for k in fresh {
            assert!(t.peek(k).is_some(), "every fresh key must be resident");
        }
    }

    #[test]
    fn pinned_seed_is_reproducible_and_default_is_random() {
        let run = |mut t: FlowTable<u32>| {
            for n in 0..200 {
                t.get_or_insert_with(&key(n), || n);
            }
            t.stats()
        };
        let a = run(FlowTable::with_seed(32, 7));
        let b = run(FlowTable::with_seed(32, 7));
        assert_eq!(a, b, "same seed, same ops, same outcome");
        let t1: FlowTable<u32> = FlowTable::with_capacity(32);
        let t2: FlowTable<u32> = FlowTable::with_capacity(32);
        assert_ne!(t1.seed(), t2.seed(), "default seeds are per-instance");
    }

    #[test]
    fn collision_flood_is_confined_to_its_window() {
        // A flood aimed at one window (under a known seed) must not evict
        // flows resident in other windows: probing is window-bounded.
        let seed = 9u64;
        let cap = 1024usize;
        let mut t: FlowTable<u32> = FlowTable::with_seed(cap, seed);
        // A victim flow far from the flood's window.
        let victim = colliding_keys(seed, cap, 500, 1)[0];
        t.get_or_insert_with(&victim, || 7);
        for k in colliding_keys(seed, cap, 0, 3 * PROBE_WINDOW) {
            t.get_or_insert_with(&k, || 0);
        }
        assert!(t.stats().evictions > 0, "the flooded window must overflow");
        assert_eq!(t.peek(&victim), Some(&7), "other windows are untouched");
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut t: FlowTable<u32> = FlowTable::with_capacity(64);
        let k = key(9);
        assert!(t.get_mut(&k).is_none());
        t.get_or_insert_with(&k, || 0);
        t.get_mut(&k);
        let s = t.stats();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.insertions, 1);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut t: FlowTable<u32> = FlowTable::with_capacity(64);
        for n in 0..10 {
            t.get_or_insert_with(&key(n), || n);
        }
        t.clear();
        assert_eq!(t.len(), 0);
        assert_eq!(t.capacity(), 64);
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn iter_yields_all_live_entries() {
        let mut t: FlowTable<u32> = FlowTable::with_capacity(256);
        for n in 0..50 {
            t.get_or_insert_with(&key(n), || n);
        }
        let mut got: Vec<u32> = t.iter().map(|(_, v)| *v).collect();
        got.sort_unstable();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    /// 50 flows of one client /26 fit a 256-slot table under every seed:
    /// keys that differ only in the low bits of one field (either address,
    /// either port) must spread over enough windows that none overflows.
    /// A hash whose index is linear in one field collapses them into a few
    /// windows for a seed that zeroes the multiplier's bits under it.
    #[test]
    fn no_seed_piles_one_field_family_into_a_window() {
        let endpoints = |client: u32, client_port, server: u32, server_port| {
            let client = (Ipv4Addr::from(0x0a00_0000 | client), client_port);
            FlowKey::from_endpoints(
                6,
                client,
                (Ipv4Addr::from(0x0a01_0000 | server), server_port),
            )
            .0
        };
        let families: [&dyn Fn(u16) -> FlowKey; 4] = [
            &|n| endpoints(u32::from(n), 10_000, 0, 80),
            &|n| endpoints(0, 10_000, u32::from(n), 80),
            &|n| endpoints(0, 10_000 + n, 0, 80),
            &|n| endpoints(0, 10_000, 0, 8_000 + n),
        ];
        // SplitMix64 over a counter: 10,000 well-spread seeds.
        let mut state = 0u64;
        for _ in 0..10_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut seed = state;
            seed = (seed ^ seed >> 30).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            seed = (seed ^ seed >> 27).wrapping_mul(0x94d0_49bb_1331_11eb);
            seed ^= seed >> 31;
            for (family, key) in families.iter().enumerate() {
                let mut t: FlowTable<u16> = FlowTable::with_seed(256, seed);
                for n in 0..50 {
                    t.get_or_insert_with(&key(n), || n);
                }
                assert_eq!(
                    t.stats().evictions,
                    0,
                    "seed {seed:#x}, family {family}: a live flow was evicted"
                );
            }
        }
    }
}
