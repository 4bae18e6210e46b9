//! The workspace's one counting allocator, dev-only support pulled in with
//! `#[path = ".../tests/support/counting_alloc.rs"] mod counting_alloc;`.
//! Including the module installs it as the test binary's global allocator.
//! It is the oracle the memory ledger's gates (`tests/*_footprint.rs`, on
//! the fixture `tests/support/ledger.rs`) check the system's own account of
//! its heap against.
//!
//! Two accounts are kept:
//!
//! * **This thread's** live blocks, net live bytes and allocator calls,
//!   counted only for the length of a closure, [`measured`]. The test
//!   harness's main thread allocates (bookkeeping for the running test)
//!   while a test runs, and pools allocate scratch; an exact block count
//!   that included them was wrong in 1 run of 6.
//! * **The whole process's** net live bytes ([`process_live_bytes`]), for
//!   state pool workers build off the counted thread (the ledger's stream
//!   state) and memory handed between writer and readers (the soak's).
//!
//! Both accounts are process-global: a test that asserts on them must not
//! share its process with another test that allocates meanwhile.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

struct CountingAlloc;

static PROCESS_LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static LIVE_BLOCKS: AtomicI64 = AtomicI64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocator traffic enters the thread account.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// `blocks`/`bytes`: the change in what is live; `calls`: 1 for a call
/// that obtained memory (alloc, realloc), 0 for a free.
fn record(blocks: i64, bytes: i64, calls: u64) {
    PROCESS_LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed);
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        LIVE_BLOCKS.fetch_add(blocks, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed);
        CALLS.fetch_add(calls, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` with its arguments
// unchanged; the counters only observe sizes and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            record(1, layout.size() as i64, 1);
        }
        ptr
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            record(1, layout.size() as i64, 1);
        }
        ptr
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-1, -(layout.size() as i64), 0);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            record(0, new_size as i64 - layout.size() as i64, 1);
        }
        new_ptr
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A reading of the thread account, or the difference of two: heap blocks
/// and bytes as a cost (what something holds live) or a saving (what a
/// drop freed), and the allocator calls that obtained memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Heap {
    pub blocks: i64,
    pub bytes: i64,
    pub calls: u64,
}

impl std::ops::Sub for Heap {
    type Output = Heap;
    fn sub(self, earlier: Heap) -> Heap {
        Heap {
            blocks: self.blocks - earlier.blocks,
            bytes: self.bytes - earlier.bytes,
            calls: self.calls - earlier.calls,
        }
    }
}

impl std::ops::AddAssign for Heap {
    fn add_assign(&mut self, other: Heap) {
        self.blocks += other.blocks;
        self.bytes += other.bytes;
        self.calls += other.calls;
    }
}

/// The thread account so far.
fn heap() -> Heap {
    Heap {
        blocks: LIVE_BLOCKS.load(Ordering::Relaxed),
        bytes: LIVE_BYTES.load(Ordering::Relaxed),
        calls: CALLS.load(Ordering::Relaxed),
    }
}

/// Run `f` on this thread, counted, and return what it left live on the
/// heap (negative for a drop) and how often it called the allocator,
/// beside its result.
pub fn measured<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    let before = heap();
    COUNTED.with(|counted| counted.set(true));
    let out = f();
    COUNTED.with(|counted| counted.set(false));
    (out, heap() - before)
}

/// Bytes live in the whole process: allocations minus frees, any thread.
pub fn process_live_bytes() -> i64 {
    PROCESS_LIVE_BYTES.load(Ordering::Relaxed)
}
