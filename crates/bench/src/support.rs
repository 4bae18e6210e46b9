//! Helpers shared by the bench targets and the allocation-sensitive
//! integration tests (not part of the documented API).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// System allocator wrapper with two process-wide counters: cumulative
/// bytes allocated (what a code path costs) and net live bytes,
/// allocations minus frees (what stays resident). Install it with
/// `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`.
pub struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static NET_LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call is forwarded to `System` with its arguments
// unchanged; the counters only observe sizes and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
            NET_LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        NET_LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
            NET_LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        new_ptr
    }
}

/// Bytes allocated so far, frees not subtracted.
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Bytes currently live: allocations minus frees.
pub fn net_live_bytes() -> i64 {
    NET_LIVE.load(Ordering::Relaxed)
}

/// A positive `usize` from the environment variable `name`, or `default`
/// when it is unset, unparsable or zero.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}
