//! Cache-line prefetch, the crate's only `unsafe`.
//!
//! [`FlowTable::probe`](crate::FlowTable::probe) uses it to start loading
//! a key's probe window before the caller needs it. A prefetch is a hint:
//! it reads nothing into the program, changes no state the program can
//! observe, and never faults, whatever the address. `_mm_prefetch` is an
//! SSE instruction and SSE is part of the x86-64 baseline, yet the
//! intrinsic is still an `unsafe fn` because it takes a raw pointer. Off
//! x86-64 every call here does nothing.

use std::mem;

/// Cache-line size the prefetch loop steps by.
const LINE: usize = 64;

/// Start loading every cache line that `items` overlaps into all cache
/// levels.
#[inline]
pub(crate) fn lines<T>(items: &[T]) {
    let len = mem::size_of_val(items);
    if len == 0 {
        return;
    }
    let first = items.as_ptr().cast::<u8>();
    let skew = first as usize % LINE;
    let base = first.wrapping_sub(skew);
    for i in 0..(skew + len).div_ceil(LINE) {
        line(base.wrapping_add(i * LINE));
    }
}

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn line(p: *const u8) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: SSE is part of the x86-64 baseline, so every CPU this
    // compiles for has the instruction. A prefetch never dereferences `p`
    // in the program's sense and never faults, even for an address outside
    // any allocation, so no value of `p` is unsound.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast()) }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn line(_: *const u8) {}
