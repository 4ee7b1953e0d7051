//! Zero-allocation regression guard for the flow-state hot paths.
//!
//! `FlowTable::{get_mut, get_or_insert_with, remove}` used to collect the
//! probe window into a `Vec<usize>` on every call — a heap allocation per
//! packet on the fast path. This test wraps the global allocator in a
//! counter and pins that the lookup/insert/evict/remove paths (the
//! `probe` → `get_or_insert_at` → `remove_at` split included, and the
//! counting-Bloom operations) perform **zero** heap allocations once the
//! structures are built.
//!
//! The counter is **per-thread**: libtest runs the test body on a worker
//! thread while its harness thread stays live (and may allocate for
//! progress/timing bookkeeping at any moment), so a process-global count
//! is flaky by construction. Only allocations made by the measuring
//! thread itself can be the hot path's fault, and only those count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use sd_flow::table::{FlowTable, PROBE_WINDOW};
use sd_flow::{CountingBloom, FlowKey};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// `try_with`: the TLS slot may already be torn down when thread-exit
// destructors allocate; those allocations are outside any measured window.
fn count_one() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

fn key(n: u32) -> FlowKey {
    FlowKey::from_endpoints(
        6,
        (Ipv4Addr::from(0x0a00_0000 | n), 10_000 + (n % 1000) as u16),
        (Ipv4Addr::from(0x0a01_0001u32), 80),
    )
    .0
}

#[test]
fn hot_paths_do_not_allocate() {
    // Build everything (and the key set) before the measured window.
    let mut table: FlowTable<u32> = FlowTable::with_seed(256, 7);
    let mut bloom = CountingBloom::with_seed(1024, 4, 7);
    let keys: Vec<FlowKey> = (0..4096).map(key).collect();
    for k in &keys[..128] {
        table.get_or_insert_with(k, || 1);
    }

    let before = allocations();

    // Hits, misses, overflow inserts (CLOCK eviction), removes, peeks.
    for k in &keys {
        table.get_or_insert_with(k, || 2);
    }
    for k in &keys {
        if let Some(v) = table.get_mut(k) {
            *v = v.wrapping_add(1);
        }
        let _ = table.peek(k);
    }
    for k in &keys[..512] {
        table.remove(k);
    }
    // The fetch-ahead split: probe, then insert or find, then remove.
    for k in &keys[..1024] {
        let probe = table.probe(k);
        table.get_or_insert_at(&probe, || 3);
        if k.port_a % 2 == 0 {
            table.remove_at(&probe);
        }
    }
    for k in &keys {
        bloom.increment(k);
        let _ = bloom.estimate(k);
        let _ = bloom.fill_ratio();
    }
    for k in &keys[..512] {
        bloom.decrement(k);
    }
    bloom.decay();

    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "flow-state hot paths allocated {delta} time(s); \
         lookups/inserts/evictions/removes must be allocation-free"
    );
    // The structures still work after the measured window.
    assert!(table.stats().evictions > 0, "the sweep exercised eviction");
    assert!(table.len() <= table.capacity());
    const _: () = assert!(PROBE_WINDOW >= 2);
}
