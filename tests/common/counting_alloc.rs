//! The counting global allocator of the allocation-discipline tests. A
//! test binary installs it with `#[global_allocator]` (which is why each
//! of them is a binary of its own); the counts are per thread, so the
//! tests of one binary do not see each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note(calls: u64, bytes: i64) {
    ALLOCS.with(|c| c.set(c.get() + calls));
    LIVE_BYTES.with(|c| c.set(c.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a bump of two const-initialised, destructor-free thread-local
// counters, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

/// Heap allocations (`alloc` and `realloc` calls) this thread makes while
/// running `f`.
#[allow(dead_code)]
pub fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Heap bytes this thread still holds of what it allocated while running
/// `f`: requested sizes, allocated minus freed.
#[allow(dead_code)]
pub fn bytes_kept_by(f: impl FnOnce()) -> i64 {
    let before = LIVE_BYTES.with(Cell::get);
    f();
    LIVE_BYTES.with(Cell::get) - before
}
