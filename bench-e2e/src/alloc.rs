//! Counting global allocator: every heap allocation of the process bumps
//! one relaxed counter on its way to the system allocator. The counter is
//! a statistic only (it publishes no other data), hence `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// `System` plus an allocation counter.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is the one the caller already upholds; the only
// addition is a relaxed counter bump that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout, forwarded (see the impl-level comment).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap allocations (including reallocations) made by this process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_nothing_else() {
        // Other test threads allocate concurrently, so only lower bounds
        // and "no change without allocation" on this thread's own work can
        // be pinned exactly — the latter by taking the minimum over tries.
        let a = allocs();
        let v: Vec<u64> = Vec::with_capacity(32);
        let b = allocs();
        assert!(b > a, "with_capacity must count");
        drop(v);
        let quiet = (0..64)
            .map(|_| {
                let x = allocs();
                let s = std::hint::black_box(3u64) + 4;
                std::hint::black_box(s);
                allocs() - x
            })
            .min()
            .unwrap();
        assert_eq!(quiet, 0, "arithmetic allocates nothing");
    }

    #[test]
    fn realloc_counts_once() {
        let mut v: Vec<u8> = Vec::with_capacity(8);
        let a = allocs();
        v.reserve_exact(4096);
        assert!(allocs() > a);
    }
}
