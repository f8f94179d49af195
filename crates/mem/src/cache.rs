//! Per-CPU free-page caches: the allocator fast path of the sharded
//! kernel.
//!
//! A [`PageCache`] holds 4 KiB pages *together with their linear
//! [`PagePermission`]s*, exactly as [`PageAllocator::alloc_page_4k`]
//! handed them out: globally the cached frames stay in the `Allocated`
//! state, so nothing about the allocator's own invariant changes. The
//! cache is private to one CPU; its `pop`/`push` fast paths touch no
//! shared state, and only batch [`refill_from`](PageCache::refill_from)
//! / [`drain_excess_to`](PageCache::drain_excess_to) operations take
//! the shared allocator (under the kernel's mem-domain lock).
//!
//! Cached pages belong to *no* container closure, which would break the
//! kernel's closure-partition equation ("pm closure ∪ vm closure =
//! allocated pages"). The stop-the-world `total_wf` audit therefore
//! [`drain_all_to`](PageCache::drain_all_to)s every cache first,
//! restoring the pristine big-lock state the flat invariants were
//! stated over — that is the whole trick that lets per-CPU caching
//! coexist with the paper's quantifier-free leak-freedom story.

use atmo_trace::{AuditDelta, TraceHandle, TraceShare};

use crate::alloc::{AllocError, PageAllocator};
use crate::meta::PagePtr;
use crate::perm::PagePermission;
use crate::source::PageSource;

/// Default number of pages a cache may hold before draining.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;
/// Default pages moved per refill / per excess drain.
pub const DEFAULT_REFILL_BATCH: usize = 16;

/// Monotone statistics for one CPU's cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Allocations served without touching the shared allocator.
    pub fast_allocs: u64,
    /// Frees absorbed without touching the shared allocator.
    pub fast_frees: u64,
    /// Batch refills from the shared allocator.
    pub refills: u64,
    /// Batch drains back to the shared allocator.
    pub drains: u64,
}

/// One CPU's private stock of `Allocated` 4 KiB pages.
#[derive(Debug)]
pub struct PageCache {
    cpu: usize,
    pages: Vec<(PagePtr, PagePermission)>,
    capacity: usize,
    refill_batch: usize,
    stats: CacheStats,
    /// Audit-ledger sink (always-equal share: tracing does not change
    /// cache state).
    trace: TraceShare,
}

impl PageCache {
    /// An empty cache for `cpu` with the default sizing.
    pub fn new(cpu: usize) -> Self {
        Self::with_sizing(cpu, DEFAULT_CACHE_CAPACITY, DEFAULT_REFILL_BATCH)
    }

    /// An empty cache with explicit capacity and refill batch.
    ///
    /// # Panics
    ///
    /// Panics when `refill_batch` is zero or exceeds `capacity`.
    pub fn with_sizing(cpu: usize, capacity: usize, refill_batch: usize) -> Self {
        assert!(refill_batch >= 1 && refill_batch <= capacity);
        PageCache {
            cpu,
            pages: Vec::with_capacity(capacity),
            capacity,
            refill_batch,
            stats: CacheStats::default(),
            trace: TraceShare::detached(),
        }
    }

    /// Routes cache fill/drain audit deltas into `sink`.
    pub fn attach_trace(&mut self, sink: TraceHandle) {
        self.trace.attach(sink);
    }

    /// The CPU this cache belongs to.
    pub fn cpu(&self) -> usize {
        self.cpu
    }

    /// Pages currently cached.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// `true` when no pages are cached.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Cumulative fast-path / batch statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Fast-path allocation: pops a cached page, or `None` when a refill
    /// is needed.
    pub fn pop(&mut self) -> Option<(PagePtr, PagePermission)> {
        let got = self.pages.pop();
        if let Some((p, _)) = &got {
            self.stats.fast_allocs += 1;
            self.trace.audit(AuditDelta::CacheDrain(*p));
        }
        got
    }

    /// Fast-path free: absorbs the page into the cache. The caller must
    /// check [`needs_drain`](Self::needs_drain) afterwards and drain
    /// under the mem lock when full.
    pub fn push(&mut self, page: PagePtr, perm: PagePermission) {
        debug_assert_eq!(perm.addr(), page);
        self.pages.push((page, perm));
        self.stats.fast_frees += 1;
        self.trace.audit(AuditDelta::CacheFill(page));
    }

    /// `true` when the cache has reached capacity and excess pages
    /// should be returned to the shared allocator.
    pub fn needs_drain(&self) -> bool {
        self.pages.len() >= self.capacity
    }

    /// Pulls up to one refill batch from the shared allocator. Errors
    /// only when not even one page could be obtained.
    pub fn refill_from(&mut self, alloc: &mut PageAllocator) -> Result<(), AllocError> {
        let mut got = 0;
        while got < self.refill_batch {
            match alloc.alloc_page_4k() {
                Ok((p, perm)) => {
                    self.trace.audit(AuditDelta::CacheFill(p));
                    self.pages.push((p, perm));
                    got += 1;
                }
                Err(e) if got == 0 => return Err(e),
                Err(_) => break,
            }
        }
        self.stats.refills += 1;
        Ok(())
    }

    /// Returns one refill batch of pages to the shared allocator,
    /// keeping the rest cached.
    pub fn drain_excess_to(&mut self, alloc: &mut PageAllocator) {
        for _ in 0..self.refill_batch {
            match self.pages.pop() {
                Some((p, perm)) => {
                    self.trace.audit(AuditDelta::CacheDrain(p));
                    alloc.free_page_4k(perm);
                }
                None => break,
            }
        }
        self.stats.drains += 1;
    }

    /// Returns *every* cached page to the shared allocator (stop-the-
    /// world audits, teardown). Afterwards the allocator's free/closure
    /// accounting is exactly what a big-lock kernel would show.
    pub fn drain_all_to(&mut self, alloc: &mut PageAllocator) {
        if self.pages.is_empty() {
            return;
        }
        while let Some((p, perm)) = self.pages.pop() {
            self.trace.audit(AuditDelta::CacheDrain(p));
            alloc.free_page_4k(perm);
        }
        self.stats.drains += 1;
    }
}

/// A cache chained onto the shared allocator: serves the fast path from
/// the cache and falls back to batched refills. Useful for single-
/// threaded callers; the sharded kernel implements the same routing
/// with its own locking.
pub struct CachedSource<'a> {
    /// This CPU's cache.
    pub cache: &'a mut PageCache,
    /// The shared allocator (already locked by the caller).
    pub alloc: &'a mut PageAllocator,
}

impl PageSource for CachedSource<'_> {
    fn alloc_page_4k(&mut self) -> Result<(PagePtr, PagePermission), AllocError> {
        if let Some(got) = self.cache.pop() {
            return Ok(got);
        }
        self.cache.refill_from(self.alloc)?;
        self.cache.pop().ok_or(AllocError::OutOfMemory)
    }

    fn free_page_4k(&mut self, perm: PagePermission) {
        let page = perm.addr();
        self.cache.push(page, perm);
        if self.cache.needs_drain() {
            self.cache.drain_excess_to(self.alloc);
        }
    }

    fn dec_map_ref(&mut self, p: PagePtr) -> bool {
        self.alloc.dec_map_ref(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_hw::boot::BootInfo;

    fn small_alloc() -> PageAllocator {
        PageAllocator::new(&BootInfo::simulated(8, 1, ""))
    }

    #[test]
    fn refill_pop_drain_roundtrip_preserves_free_set() {
        let mut alloc = small_alloc();
        let free_before = alloc.free_pages_4k();
        let mut cache = PageCache::with_sizing(0, 8, 4);
        cache.refill_from(&mut alloc).unwrap();
        assert_eq!(cache.len(), 4);
        assert_eq!(
            alloc.allocated_pages().len(),
            4,
            "cached pages stay Allocated"
        );
        let (p, perm) = cache.pop().unwrap();
        cache.push(p, perm);
        cache.drain_all_to(&mut alloc);
        assert!(cache.is_empty());
        assert_eq!(alloc.free_pages_4k(), free_before, "no page leaked");
        assert_eq!(cache.stats().fast_allocs, 1);
        assert_eq!(cache.stats().fast_frees, 1);
    }

    #[test]
    fn cached_source_routes_fast_and_slow_paths() {
        let mut alloc = small_alloc();
        let free_before = alloc.free_pages_4k();
        let mut cache = PageCache::with_sizing(0, 8, 4);
        let mut perms = Vec::new();
        {
            let mut src = CachedSource {
                cache: &mut cache,
                alloc: &mut alloc,
            };
            for _ in 0..10 {
                perms.push(src.alloc_page_4k().unwrap());
            }
            for (_, perm) in perms.drain(..) {
                src.free_page_4k(perm);
            }
        }
        // 10 allocs over a batch of 4 → 3 refills; frees filled the cache
        // to its capacity of 8 and drained once.
        assert_eq!(cache.stats().refills, 3);
        assert!(cache.stats().drains >= 1);
        cache.drain_all_to(&mut alloc);
        assert_eq!(alloc.free_pages_4k(), free_before);
    }

    #[test]
    fn refill_reports_oom_only_when_empty_handed() {
        let mut alloc = PageAllocator::new(&BootInfo::simulated(1, 1, ""));
        let mut hoard = Vec::new();
        while let Ok(got) = PageSource::alloc_page_4k(&mut alloc) {
            hoard.push(got);
        }
        let mut cache = PageCache::with_sizing(0, 8, 4);
        assert_eq!(
            cache.refill_from(&mut alloc).unwrap_err(),
            AllocError::OutOfMemory
        );
        // With two pages back, a partial refill succeeds.
        let (_, perm) = hoard.pop().unwrap();
        alloc.free_page_4k(perm);
        let (_, perm) = hoard.pop().unwrap();
        alloc.free_page_4k(perm);
        cache.refill_from(&mut alloc).unwrap();
        assert_eq!(cache.len(), 2, "partial batch is fine");
    }
}
