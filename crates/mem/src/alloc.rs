//! The page allocator: explicit, specification-visible memory management.
//!
//! "Establishing leak freedom and cross-cutting properties of the memory
//! subsystem requires visibility of the state of the memory allocator. ...
//! We expose the internal state of the allocator as sets of free,
//! allocated, merged, and mapped pages" (§4.2). This module implements the
//! allocator and those abstract views.
//!
//! * Kernel objects allocate 4 KiB pages ([`PageAllocator::alloc_page_4k`],
//!   page → `Allocated`); the caller receives the page and its linear
//!   [`PagePermission`] exactly as in Listing 4.
//! * User mappings allocate `Mapped` frames with a reference count
//!   ([`PageAllocator::alloc_mapped`]), shared-memory grants increment it,
//!   unmapping decrements it and frees at zero.
//! * Superpages are formed by scanning the page array for an aligned run
//!   of free blocks and unlinking each constituent in constant time
//!   ([`PageAllocator::merge_2m`], [`PageAllocator::merge_1g`]), and split
//!   back on demand.

use atmo_spec::harness::{check, check_all, Invariant, VerifResult};
use atmo_spec::Set;
use atmo_trace::{AuditDelta, KernelEvent, TraceHandle, TraceShare};

use atmo_hw::addr::PAGE_SIZE_4K;
use atmo_hw::boot::BootInfo;

use crate::freelist::{FreeList, NodeStore};
use crate::meta::{ListNode, PageMeta, PagePtr, PageSize, PageState};
use crate::perm::PagePermission;

/// Allocation failures visible to callers (and to system-call return
/// values: a container that exhausts its quota sees these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// No free block of the requested size and none could be assembled.
    OutOfMemory,
}

/// The page metadata array (Linux-style `struct page` array).
#[derive(Debug)]
pub struct PageArray {
    base: PagePtr,
    pages: Vec<PageMeta>,
}

impl PageArray {
    fn index(&self, p: PagePtr) -> usize {
        assert!(
            p.is_multiple_of(PAGE_SIZE_4K),
            "unaligned page pointer {p:#x}"
        );
        assert!(p >= self.base, "page pointer {p:#x} below array base");
        let i = (p - self.base) / PAGE_SIZE_4K;
        assert!(i < self.pages.len(), "page pointer {p:#x} beyond array end");
        i
    }

    /// State of frame `p`.
    pub fn state(&self, p: PagePtr) -> PageState {
        self.pages[self.index(p)].state
    }

    fn set_state(&mut self, p: PagePtr, s: PageState) {
        let i = self.index(p);
        self.pages[i].state = s;
    }

    /// Frame address of array slot `i`.
    fn frame_at(&self, i: usize) -> PagePtr {
        self.base + i * PAGE_SIZE_4K
    }
}

impl NodeStore for PageArray {
    fn node(&self, p: PagePtr) -> &ListNode {
        let i = self.index(p);
        &self.pages[i].node
    }
    fn node_mut(&mut self, p: PagePtr) -> &mut ListNode {
        let i = self.index(p);
        &mut self.pages[i].node
    }
}

/// The page allocator.
#[derive(Debug)]
pub struct PageAllocator {
    array: PageArray,
    free_4k: FreeList,
    free_2m: FreeList,
    free_1g: FreeList,
    /// Allocation-event sink (always-equal share: tracing does not change
    /// allocator state).
    trace: TraceShare,
}

impl PageAllocator {
    /// Initializes the allocator from the boot memory map: every usable
    /// frame starts `Free(4K)` on the 4 KiB free list (lowest address at
    /// the head).
    pub fn new(boot: &BootInfo) -> Self {
        let base = boot.first_usable_frame().as_usize();
        let nframes = boot.usable_frames();
        let mut array = PageArray {
            base,
            pages: vec![
                PageMeta {
                    state: PageState::Free(PageSize::Size4K),
                    node: ListNode::default(),
                };
                nframes
            ],
        };
        let mut free_4k = FreeList::new();
        for i in (0..nframes).rev() {
            let p = array.frame_at(i);
            free_4k.push_front(&mut array, p);
        }
        PageAllocator {
            array,
            free_4k,
            free_2m: FreeList::new(),
            free_1g: FreeList::new(),
            trace: TraceShare::detached(),
        }
    }

    /// Routes page alloc/free events into `sink`.
    pub fn attach_trace(&mut self, sink: TraceHandle) {
        self.trace.attach(sink);
    }

    /// Base address of the managed region.
    pub fn base(&self) -> PagePtr {
        self.array.base
    }

    /// Number of managed 4 KiB frames.
    pub fn nframes(&self) -> usize {
        self.array.pages.len()
    }

    /// State of frame `p` (abstract-spec accessor).
    pub fn page_state(&self, p: PagePtr) -> PageState {
        self.array.state(p)
    }

    /// `true` when `p` heads a free block of any size (the
    /// `page_is_free()` predicate of Listing 1).
    pub fn page_is_free(&self, p: PagePtr) -> bool {
        matches!(self.array.state(p), PageState::Free(_))
    }

    // ----- allocation of kernel-object pages ---------------------------

    /// Allocates a 4 KiB page for a kernel object (Listing 4's
    /// `alloc_page_4k()`): pops the free list, transitions the frame to
    /// `Allocated`, and returns the linear permission.
    ///
    /// Splits a 2 MiB (and transitively a 1 GiB) block when the 4 KiB list
    /// is empty.
    pub fn alloc_page_4k(&mut self) -> Result<(PagePtr, PagePermission), AllocError> {
        if self.free_4k.is_empty() {
            self.replenish_4k()?;
        }
        let p = self
            .free_4k
            .pop_front(&mut self.array)
            .ok_or(AllocError::OutOfMemory)?;
        debug_assert_eq!(self.array.state(p), PageState::Free(PageSize::Size4K));
        self.array.set_state(p, PageState::Allocated);
        self.trace.emit(KernelEvent::PageAlloc {
            frames: 1,
            closure_delta: 1,
        });
        self.trace.audit(AuditDelta::Allocated(p));
        Ok((p, PagePermission::new(p, PageSize::Size4K)))
    }

    /// Frees a kernel-object page, consuming its permission.
    ///
    /// # Panics
    ///
    /// Panics (verification failure) when the permission is not a 4 KiB
    /// `Allocated` page of this allocator.
    pub fn free_page_4k(&mut self, perm: PagePermission) {
        assert_eq!(perm.size(), PageSize::Size4K);
        let p = perm.addr();
        assert_eq!(
            self.array.state(p),
            PageState::Allocated,
            "free of a page that is not allocated"
        );
        self.array.set_state(p, PageState::Free(PageSize::Size4K));
        self.free_4k.push_front(&mut self.array, p);
        self.trace.emit(KernelEvent::PageFree {
            frames: 1,
            closure_delta: -1,
        });
        self.trace.audit(AuditDelta::Freed(p));
    }

    // ----- allocation of user-mapped frames -----------------------------

    /// Allocates a block for a user mapping: the head frame transitions to
    /// `Mapped { refcnt: 1 }`. 2 MiB / 1 GiB requests assemble superpages
    /// on demand.
    pub fn alloc_mapped(&mut self, size: PageSize) -> Result<PagePtr, AllocError> {
        let p = match size {
            PageSize::Size4K => {
                if self.free_4k.is_empty() {
                    self.replenish_4k()?;
                }
                self.free_4k
                    .pop_front(&mut self.array)
                    .ok_or(AllocError::OutOfMemory)?
            }
            PageSize::Size2M => {
                if self.free_2m.is_empty() && !self.merge_2m() {
                    return Err(AllocError::OutOfMemory);
                }
                self.free_2m
                    .pop_front(&mut self.array)
                    .ok_or(AllocError::OutOfMemory)?
            }
            PageSize::Size1G => {
                if self.free_1g.is_empty() && !self.merge_1g() {
                    return Err(AllocError::OutOfMemory);
                }
                self.free_1g
                    .pop_front(&mut self.array)
                    .ok_or(AllocError::OutOfMemory)?
            }
        };
        debug_assert_eq!(self.array.state(p), PageState::Free(size));
        self.array
            .set_state(p, PageState::Mapped { size, refcnt: 1 });
        self.trace.emit(KernelEvent::PageAlloc {
            frames: size.frames() as u64,
            closure_delta: 1,
        });
        self.trace.audit(AuditDelta::MapInsert(p));
        Ok(p)
    }

    /// Allocates `n` individually mapped 4 KiB frames in one call (the
    /// packet-buffer pool's backing store). All-or-nothing: on
    /// exhaustion every frame allocated so far is returned and the whole
    /// call fails, so a partially built pool never leaks.
    pub fn alloc_mapped_batch(&mut self, n: usize) -> Result<Vec<PagePtr>, AllocError> {
        let mut frames = Vec::with_capacity(n);
        for _ in 0..n {
            match self.alloc_mapped(PageSize::Size4K) {
                Ok(p) => frames.push(p),
                Err(e) => {
                    for p in frames {
                        self.dec_map_ref(p);
                    }
                    return Err(e);
                }
            }
        }
        Ok(frames)
    }

    /// Adds one mapping reference to block `p` (shared memory established
    /// through an endpoint grant).
    ///
    /// # Panics
    ///
    /// Panics when `p` is not a mapped block head.
    pub fn inc_map_ref(&mut self, p: PagePtr) {
        match self.array.state(p) {
            PageState::Mapped { size, refcnt } => {
                self.array.set_state(
                    p,
                    PageState::Mapped {
                        size,
                        refcnt: refcnt + 1,
                    },
                );
            }
            s => panic!("inc_map_ref on non-mapped page {p:#x} ({s:?})"),
        }
    }

    /// Drops one mapping reference; frees the block at zero. Returns
    /// `true` when the block became free.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not a mapped block head.
    pub fn dec_map_ref(&mut self, p: PagePtr) -> bool {
        match self.array.state(p) {
            PageState::Mapped { size, refcnt } => {
                if refcnt > 1 {
                    self.array.set_state(
                        p,
                        PageState::Mapped {
                            size,
                            refcnt: refcnt - 1,
                        },
                    );
                    false
                } else {
                    self.array.set_state(p, PageState::Free(size));
                    match size {
                        PageSize::Size4K => self.free_4k.push_front(&mut self.array, p),
                        PageSize::Size2M => self.free_2m.push_front(&mut self.array, p),
                        PageSize::Size1G => self.free_1g.push_front(&mut self.array, p),
                    }
                    self.trace.emit(KernelEvent::PageFree {
                        frames: size.frames() as u64,
                        closure_delta: -1,
                    });
                    self.trace.audit(AuditDelta::MapRemove(p));
                    true
                }
            }
            s => panic!("dec_map_ref on non-mapped page {p:#x} ({s:?})"),
        }
    }

    /// Current mapping reference count of block head `p` (0 if not mapped).
    pub fn map_refcnt(&self, p: PagePtr) -> usize {
        match self.array.state(p) {
            PageState::Mapped { refcnt, .. } => refcnt,
            _ => 0,
        }
    }

    // ----- superpage merge / split ---------------------------------------

    /// Ensures the 4 KiB list is non-empty by splitting a 2 MiB block
    /// (assembling one from a 1 GiB block if necessary).
    fn replenish_4k(&mut self) -> Result<(), AllocError> {
        if self.free_2m.is_empty() {
            if let Some(head) = self.free_1g.head() {
                self.split_1g(head);
            }
        }
        match self.free_2m.head() {
            Some(head) => {
                self.split_2m(head);
                Ok(())
            }
            None => Err(AllocError::OutOfMemory),
        }
    }

    /// Scans the page array for a 2 MiB-aligned run of 512 free 4 KiB
    /// frames, unlinks each from the 4 KiB list in O(1), and forms a free
    /// 2 MiB superpage. Returns `true` on success (§4.2).
    pub fn merge_2m(&mut self) -> bool {
        let per = PageSize::Size2M.frames();
        let mut i = 0;
        // Start at the first 2 MiB-aligned frame.
        while !self
            .array
            .frame_at(i)
            .is_multiple_of(PageSize::Size2M.bytes())
        {
            i += 1;
            if i >= self.array.pages.len() {
                return false;
            }
        }
        while i + per <= self.array.pages.len() {
            let run_ok = (i..i + per)
                .all(|j| self.array.pages[j].state == PageState::Free(PageSize::Size4K));
            if run_ok {
                let head = self.array.frame_at(i);
                for j in i..i + per {
                    let p = self.array.frame_at(j);
                    self.free_4k.unlink(&mut self.array, p);
                    self.array.set_state(
                        p,
                        if j == i {
                            PageState::Free(PageSize::Size2M)
                        } else {
                            PageState::Merged { head }
                        },
                    );
                }
                self.free_2m.push_front(&mut self.array, head);
                return true;
            }
            i += per;
        }
        false
    }

    /// Splits the free 2 MiB block at `head` back into 512 free 4 KiB
    /// frames.
    ///
    /// # Panics
    ///
    /// Panics when `head` is not a free 2 MiB block.
    pub fn split_2m(&mut self, head: PagePtr) {
        assert_eq!(
            self.array.state(head),
            PageState::Free(PageSize::Size2M),
            "split_2m of non-free-2M block"
        );
        self.free_2m.unlink(&mut self.array, head);
        for k in 0..PageSize::Size2M.frames() {
            let p = head + k * PAGE_SIZE_4K;
            self.array.set_state(p, PageState::Free(PageSize::Size4K));
            self.free_4k.push_front(&mut self.array, p);
        }
    }

    /// Hands out a contiguous 2 MiB run assembled *from the 4 KiB
    /// freelist* for superpage promotion, transitioning the head straight
    /// to `Mapped { refcnt: 1 }`. Returns `None` without disturbing the
    /// free lists when memory is too fragmented for an aligned run — the
    /// caller falls back to batched 4 KiB fills.
    ///
    /// Unlike [`PageAllocator::alloc_mapped`]`(Size2M)` this never takes a
    /// ready-made free 2 MiB block: every constituent frame comes out of
    /// the 4 KiB freelist, so the abstract pre-state sees each of the 512
    /// frames as a free 4 KiB page (the `page_is_free` clause of the
    /// batched `Mmap` spec), and a rollback (`dec_map_ref` + `split_2m`)
    /// restores the exact pre-state free set.
    pub fn try_alloc_contiguous_2m(&mut self) -> Option<PagePtr> {
        if !self.merge_2m() {
            return None;
        }
        // `merge_2m` pushed the newly assembled block at the list head.
        let p = self.free_2m.pop_front(&mut self.array)?;
        debug_assert_eq!(self.array.state(p), PageState::Free(PageSize::Size2M));
        self.array.set_state(
            p,
            PageState::Mapped {
                size: PageSize::Size2M,
                refcnt: 1,
            },
        );
        self.trace.emit(KernelEvent::PageAlloc {
            frames: PageSize::Size2M.frames() as u64,
            closure_delta: 1,
        });
        self.trace.audit(AuditDelta::MapInsert(p));
        Some(p)
    }

    /// Splits the *mapped* 2 MiB block at `head` into 512 individually
    /// mapped 4 KiB pages (superpage demotion). Requires a reference count
    /// of 1: page grants are 4 KiB-only, so a promoted superpage is never
    /// shared. No frames change hands and no alloc/free events are
    /// emitted — this is a pure representation change, audited by `wf`.
    ///
    /// # Panics
    ///
    /// Panics when `head` is not a mapped 2 MiB block with `refcnt == 1`.
    pub fn split_mapped_2m(&mut self, head: PagePtr) {
        match self.array.state(head) {
            PageState::Mapped {
                size: PageSize::Size2M,
                refcnt: 1,
            } => {}
            s => panic!("split_mapped_2m on {head:#x} ({s:?})"),
        }
        for k in 0..PageSize::Size2M.frames() {
            let p = head + k * PAGE_SIZE_4K;
            if k > 0 {
                debug_assert_eq!(self.array.state(p), PageState::Merged { head });
            }
            self.array.set_state(
                p,
                PageState::Mapped {
                    size: PageSize::Size4K,
                    refcnt: 1,
                },
            );
            if k > 0 {
                // The head stays a mapped head; every former constituent
                // becomes a new mapped head in its own right.
                self.trace.audit(AuditDelta::MapInsert(p));
            }
        }
    }

    /// Forms a free 1 GiB superpage from a 1 GiB-aligned run of 512 free
    /// 2 MiB blocks, merging 2 MiB blocks first if needed. Returns `true`
    /// on success.
    pub fn merge_1g(&mut self) -> bool {
        // Greedily merge as many 2 MiB blocks as possible first.
        while self.merge_2m() {}
        let per_2m = PageSize::Size2M.frames();
        let blocks = PageSize::Size1G.bytes() / PageSize::Size2M.bytes();
        let mut i = 0;
        while !self
            .array
            .frame_at(i)
            .is_multiple_of(PageSize::Size1G.bytes())
        {
            i += 1;
            if i >= self.array.pages.len() {
                return false;
            }
        }
        while i + blocks * per_2m <= self.array.pages.len() {
            let head = self.array.frame_at(i);
            let run_ok = (0..blocks).all(|b| {
                self.array.state(head + b * PageSize::Size2M.bytes())
                    == PageState::Free(PageSize::Size2M)
            });
            if run_ok {
                for b in 0..blocks {
                    let p2m = head + b * PageSize::Size2M.bytes();
                    self.free_2m.unlink(&mut self.array, p2m);
                    // Head of the 1 GiB block keeps a single Free state;
                    // every other frame (including former 2 MiB heads)
                    // becomes a constituent.
                    for k in 0..per_2m {
                        let p = p2m + k * PAGE_SIZE_4K;
                        self.array.set_state(
                            p,
                            if p == head {
                                PageState::Free(PageSize::Size1G)
                            } else {
                                PageState::Merged { head }
                            },
                        );
                    }
                }
                self.free_1g.push_front(&mut self.array, head);
                return true;
            }
            i += blocks * per_2m;
        }
        false
    }

    /// Splits the free 1 GiB block at `head` into 512 free 2 MiB blocks.
    ///
    /// # Panics
    ///
    /// Panics when `head` is not a free 1 GiB block.
    pub fn split_1g(&mut self, head: PagePtr) {
        assert_eq!(
            self.array.state(head),
            PageState::Free(PageSize::Size1G),
            "split_1g of non-free-1G block"
        );
        self.free_1g.unlink(&mut self.array, head);
        let per_2m = PageSize::Size2M.frames();
        for b in 0..(PageSize::Size1G.bytes() / PageSize::Size2M.bytes()) {
            let p2m = head + b * PageSize::Size2M.bytes();
            for k in 0..per_2m {
                let p = p2m + k * PAGE_SIZE_4K;
                self.array.set_state(
                    p,
                    if k == 0 {
                        PageState::Free(PageSize::Size2M)
                    } else {
                        PageState::Merged { head: p2m }
                    },
                );
            }
            self.free_2m.push_front(&mut self.array, p2m);
        }
    }

    // ----- abstract views (the specification-visible allocator state) ----

    /// The set of free 4 KiB pages (`alloc.free_pages_4k()` in Listing 4).
    pub fn free_pages_4k(&self) -> Set<PagePtr> {
        self.free_4k.iter(&self.array).collect()
    }

    /// The set of free 2 MiB block heads.
    pub fn free_pages_2m(&self) -> Set<PagePtr> {
        self.free_2m.iter(&self.array).collect()
    }

    /// The set of free 1 GiB block heads.
    pub fn free_pages_1g(&self) -> Set<PagePtr> {
        self.free_1g.iter(&self.array).collect()
    }

    /// The set of pages allocated to kernel objects.
    pub fn allocated_pages(&self) -> Set<PagePtr> {
        self.scan(|s| matches!(s, PageState::Allocated))
    }

    /// The set of mapped block heads.
    pub fn mapped_pages(&self) -> Set<PagePtr> {
        self.scan(|s| matches!(s, PageState::Mapped { .. }))
    }

    /// The set of merged (constituent) frames.
    pub fn merged_pages(&self) -> Set<PagePtr> {
        self.scan(|s| matches!(s, PageState::Merged { .. }))
    }

    fn scan(&self, pred: impl Fn(PageState) -> bool) -> Set<PagePtr> {
        (0..self.array.pages.len())
            .filter(|&i| pred(self.array.pages[i].state))
            .map(|i| self.array.frame_at(i))
            .collect()
    }
}

impl Invariant for PageAllocator {
    /// The allocator's well-formedness invariant:
    ///
    /// 1. each free list is a coherent doubly-linked list;
    /// 2. list membership agrees exactly with `Free(size)` states;
    /// 3. every merged frame names a superpage head of the right state,
    ///    alignment and extent;
    /// 4. every superpage head's constituents are merged to it;
    /// 5. mapped blocks have `refcnt ≥ 1`;
    /// 6. the four states partition the managed frames (leak freedom at
    ///    the allocator level).
    fn wf(&self) -> VerifResult {
        check(
            self.free_4k.wf(&self.array),
            "page_alloc",
            "free_4k list corrupt",
        )?;
        check(
            self.free_2m.wf(&self.array),
            "page_alloc",
            "free_2m list corrupt",
        )?;
        check(
            self.free_1g.wf(&self.array),
            "page_alloc",
            "free_1g list corrupt",
        )?;

        let on_4k = self.free_pages_4k();
        let on_2m = self.free_pages_2m();
        let on_1g = self.free_pages_1g();

        let mut counts = [0usize; 5]; // free, merged, mapped, allocated, unavailable
        for i in 0..self.array.pages.len() {
            let p = self.array.frame_at(i);
            match self.array.pages[i].state {
                PageState::Free(size) => {
                    counts[0] += 1;
                    let (list, name) = match size {
                        PageSize::Size4K => (&on_4k, "4k"),
                        PageSize::Size2M => (&on_2m, "2m"),
                        PageSize::Size1G => (&on_1g, "1g"),
                    };
                    check(
                        list.contains(&p),
                        "page_alloc",
                        format_args!("free {name} page {p:#x} missing from its list"),
                    )?;
                    check(
                        p.is_multiple_of(size.bytes()),
                        "page_alloc",
                        format_args!("free block head {p:#x} misaligned for {size:?}"),
                    )?;
                    self.check_constituents(p, size)?;
                }
                PageState::Merged { head } => {
                    counts[1] += 1;
                    let head_state = self.array.state(head);
                    let ok = match head_state {
                        PageState::Free(s) | PageState::Mapped { size: s, .. } => {
                            s != PageSize::Size4K && head <= p && p < head + s.bytes()
                        }
                        _ => false,
                    };
                    check(
                        ok,
                        "page_alloc",
                        format_args!(
                            "merged frame {p:#x} has invalid head {head:#x} ({head_state:?})"
                        ),
                    )?;
                }
                PageState::Mapped { size, refcnt } => {
                    counts[2] += 1;
                    check(
                        refcnt >= 1,
                        "page_alloc",
                        format_args!("mapped block {p:#x} with zero refcnt"),
                    )?;
                    check(
                        p.is_multiple_of(size.bytes()),
                        "page_alloc",
                        format_args!("mapped block head {p:#x} misaligned for {size:?}"),
                    )?;
                    self.check_constituents(p, size)?;
                }
                PageState::Allocated => counts[3] += 1,
                PageState::Unavailable => counts[4] += 1,
            }
        }

        // List membership is exact: no stale entries.
        check_all([
            check(
                on_4k.len() + on_2m.len() + on_1g.len()
                    == self.scan(|s| matches!(s, PageState::Free(_))).len(),
                "page_alloc",
                "free lists contain non-free pages",
            ),
            check(
                counts.iter().sum::<usize>() == self.array.pages.len(),
                "page_alloc",
                "page states do not partition the frame array",
            ),
        ])
    }
}

impl PageAllocator {
    /// Checks that all non-head frames of the block at `head` are merged
    /// to it.
    fn check_constituents(&self, head: PagePtr, size: PageSize) -> VerifResult {
        if size == PageSize::Size4K {
            return Ok(());
        }
        for k in 1..size.frames() {
            let p = head + k * PAGE_SIZE_4K;
            check(
                self.array.state(p) == PageState::Merged { head },
                "page_alloc",
                format_args!("constituent {p:#x} of block {head:#x} not merged to it"),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 8 MiB of usable RAM: enough for two 2 MiB merges plus slack.
    fn small_alloc() -> PageAllocator {
        PageAllocator::new(&BootInfo::simulated(8, 1, ""))
    }

    #[test]
    fn fresh_allocator_is_wf_and_all_free() {
        let a = small_alloc();
        assert!(a.is_wf());
        assert_eq!(a.free_pages_4k().len(), 8 * 256);
        assert!(a.allocated_pages().is_empty());
        assert!(a.mapped_pages().is_empty());
        assert!(a.merged_pages().is_empty());
    }

    #[test]
    fn alloc_page_4k_postconditions() {
        // The Listing 4 contract: the page leaves the free set, enters the
        // allocated set, and was free before.
        let mut a = small_alloc();
        let free_before = a.free_pages_4k();
        let alloc_before = a.allocated_pages();
        let (p, perm) = a.alloc_page_4k().unwrap();
        assert!(free_before.contains(&p), "page was free before");
        assert_eq!(a.free_pages_4k(), free_before.remove(&p));
        assert_eq!(a.allocated_pages(), alloc_before.insert(p));
        assert_eq!(perm.addr(), p);
        assert!(a.is_wf());
    }

    #[test]
    fn free_restores_page() {
        let mut a = small_alloc();
        let free_before = a.free_pages_4k();
        let (p, perm) = a.alloc_page_4k().unwrap();
        a.free_page_4k(perm);
        assert_eq!(a.free_pages_4k(), free_before);
        assert!(a.page_is_free(p));
        assert!(a.is_wf());
    }

    #[test]
    fn exhaustion_returns_oom() {
        let mut a = PageAllocator::new(&BootInfo::simulated(1, 1, ""));
        let mut perms = Vec::new();
        for _ in 0..256 {
            perms.push(a.alloc_page_4k().unwrap());
        }
        assert_eq!(a.alloc_page_4k().unwrap_err(), AllocError::OutOfMemory);
        // Free one page; allocation succeeds again.
        let (_, perm) = perms.pop().unwrap();
        a.free_page_4k(perm);
        assert!(a.alloc_page_4k().is_ok());
    }

    #[test]
    fn merge_2m_forms_superpage() {
        let mut a = small_alloc();
        assert!(a.merge_2m());
        assert!(a.is_wf());
        assert_eq!(a.free_pages_2m().len(), 1);
        assert_eq!(a.merged_pages().len(), 511);
        let head = *a.free_pages_2m().choose().unwrap();
        assert_eq!(head % PageSize::Size2M.bytes(), 0);
        assert_eq!(a.page_state(head), PageState::Free(PageSize::Size2M));
    }

    #[test]
    fn merge_skips_runs_with_allocated_pages() {
        // 4 MiB = two 2 MiB-aligned runs. Allocate one page in each run;
        // no intact run remains, so merging must fail.
        let mut a = PageAllocator::new(&BootInfo::simulated(4, 1, ""));
        let base = a.base();
        let second_run = base + PageSize::Size2M.bytes();
        let mut hit_second = false;
        let mut perms = Vec::new();
        for _ in 0..513 {
            let (p, perm) = a.alloc_page_4k().unwrap();
            perms.push(perm);
            if p >= second_run {
                hit_second = true;
                break;
            }
        }
        assert!(hit_second, "allocation reached the second run");
        assert!(!a.merge_2m(), "no intact run remains");
        assert!(a.is_wf());
    }

    #[test]
    fn split_2m_restores_4k_pages() {
        let mut a = small_alloc();
        let total = a.free_pages_4k().len();
        assert!(a.merge_2m());
        let head = *a.free_pages_2m().choose().unwrap();
        a.split_2m(head);
        assert_eq!(a.free_pages_4k().len(), total);
        assert!(a.merged_pages().is_empty());
        assert!(a.is_wf());
    }

    #[test]
    fn alloc_mapped_2m_assembles_on_demand() {
        let mut a = small_alloc();
        let p = a.alloc_mapped(PageSize::Size2M).unwrap();
        assert_eq!(
            a.page_state(p),
            PageState::Mapped {
                size: PageSize::Size2M,
                refcnt: 1
            }
        );
        assert!(a.is_wf());
    }

    #[test]
    fn mapped_refcounting_frees_at_zero() {
        let mut a = small_alloc();
        let p = a.alloc_mapped(PageSize::Size4K).unwrap();
        a.inc_map_ref(p);
        assert_eq!(a.map_refcnt(p), 2);
        assert!(!a.dec_map_ref(p));
        assert!(a.dec_map_ref(p), "block frees when last reference drops");
        assert!(a.page_is_free(p));
        assert!(a.is_wf());
    }

    #[test]
    fn alloc_mapped_batch_is_all_or_nothing() {
        // 1 MiB = 256 frames. A 200-frame batch fits; the next 100-frame
        // batch must fail and roll back completely.
        let mut a = PageAllocator::new(&BootInfo::simulated(1, 1, ""));
        let frames = a.alloc_mapped_batch(200).unwrap();
        assert_eq!(frames.len(), 200);
        assert!(frames.iter().all(|&p| a.map_refcnt(p) == 1));
        assert!(a.is_wf());
        let free_before = a.free_pages_4k();
        assert_eq!(
            a.alloc_mapped_batch(100).unwrap_err(),
            AllocError::OutOfMemory
        );
        assert_eq!(
            a.free_pages_4k(),
            free_before,
            "failed batch must release its partial allocation"
        );
        assert!(a.is_wf());
        for p in frames {
            assert!(a.dec_map_ref(p));
        }
        assert!(a.is_wf());
    }

    #[test]
    fn merge_1g_requires_enough_memory() {
        // 8 MiB cannot form a 1 GiB block.
        let mut a = small_alloc();
        assert!(!a.merge_1g());
        assert!(a.is_wf());
    }

    #[test]
    fn alloc_4k_splits_superpage_when_needed() {
        let mut a = small_alloc();
        // Merge everything into 2 MiB blocks (8 MiB → 3 blocks + remainder
        // of the misaligned first MiBs; base is 2 MiB so runs are aligned).
        while a.merge_2m() {}
        if a.free_pages_4k().is_empty() {
            // All 4 KiB pages merged; next 4 KiB allocation must split.
            let (p, _perm) = a.alloc_page_4k().unwrap();
            assert_eq!(a.page_state(p), PageState::Allocated);
        }
        assert!(a.is_wf());
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn double_free_is_a_verification_failure() {
        let mut a = small_alloc();
        let (p, perm) = a.alloc_page_4k().unwrap();
        a.free_page_4k(perm);
        // Forge a second permission — the only way to even attempt a
        // double free, since the real permission was consumed.
        let forged = PagePermission::new(p, PageSize::Size4K);
        a.free_page_4k(forged);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_page_pointer_rejected() {
        let a = small_alloc();
        let _ = a.page_state(a.base() + 1);
    }
}

// `PagePermission::new` is `pub(crate)`; tests above may forge permissions
// deliberately to exercise verification failures.
