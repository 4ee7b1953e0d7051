//! Zero-allocation guard for the fast path's per-packet bookkeeping.
//!
//! The delay line is a byte ring and an index provisioned when the
//! `DiversionManager` is built, so recording a packet, probing the
//! diverted set and hashing a flow key must never touch the heap, from
//! the very first packet on. A counting global allocator pins that.
//!
//! The counter is **per-thread**: libtest's harness thread may allocate
//! at any moment, and only the measuring thread's allocations can be the
//! hot path's fault.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::net::Ipv4Addr;

use sd_flow::hash::hash_key_seeded;
use sd_flow::FlowKey;
use splitdetect::divert::{DiversionManager, EvictionPolicy, DEFAULT_MAX_DIVERTED};

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
fn record_probe_and_hash_do_not_allocate() {
    let mut line =
        DiversionManager::with_policy(1024, DEFAULT_MAX_DIVERTED, EvictionPolicy::default());
    let keys: Vec<FlowKey> = (0..512).map(key).collect();
    // Sizes from empty to jumbo: byte-bound overwrites, ring wraps and
    // packet-bound overwrites all happen inside the window.
    let packets: Vec<Vec<u8>> = [0, 40, 576, 1460, 1514, 9000]
        .iter()
        .map(|&n| vec![0x5a; n])
        .collect();
    // Diversions put entries in the set (the probe hits and misses); no
    // packet has been recorded before the window opens.
    for k in &keys[..8] {
        line.divert(*k);
    }

    let before = allocations();
    for i in 0..8192 {
        let k = &keys[i % keys.len()];
        black_box(hash_key_seeded(7, k));
        if !line.is_diverted(k) {
            line.record(*k, &packets[i % packets.len()]);
        }
    }
    let delta = allocations() - before;

    assert_eq!(
        delta, 0,
        "delay-line bookkeeping allocated {delta} time(s); record, is_diverted \
         and hash_key_seeded must be allocation-free"
    );
    let stats = line.stats();
    assert_eq!(stats.recorded_packets, 8192 - 8192 / 64);
    assert!(!line.divert(keys[100]).is_empty(), "the line still replays");
}
