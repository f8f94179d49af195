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
//! * Superpages are formed by finding an aligned run of free blocks (a
//!   2 MiB run in the free 4 KiB bitmap, a 1 GiB run in the page array)
//!   and unlinking each constituent in constant time
//!   ([`PageAllocator::merge_2m`], [`PageAllocator::merge_1g`]), and split
//!   back on demand.
//! * The free 4 KiB, allocated and mapped sets are ghost state kept
//!   beside the page array and updated by the one writer of a frame's
//!   state; `wf` checks them against the array in the same pass that
//!   checks the array itself.

use std::fmt;

use atmo_spec::harness::{check_eqn, Invariant, Obligations, VerifResult};
use atmo_trace::{AuditDelta, KernelEvent, TraceHandle, TraceShare};

use atmo_hw::addr::PAGE_SIZE_4K;
use atmo_hw::boot::BootInfo;

use crate::freelist::{FreeList, ListFault, NodeStore};
use crate::meta::{ListNode, PagePtr, PageSize, PageState};
use crate::pageset::{PageSet, WORD_BITS};
use crate::perm::PagePermission;

/// Allocation failures visible to callers (and to system-call return
/// values: a container that exhausts its quota sees these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// No free block of the requested size and none could be assembled.
    OutOfMemory,
}

/// No frame: the link of a list end.
const NO_LINK: u32 = u32::MAX;

/// The maintained views, indices into [`PageArray::views`].
const FREE_4K: usize = 0;
const ALLOCATED: usize = 1;
const MAPPED: usize = 2;
/// The maintained views' names, in `views-exact` diagnostics.
const VIEW_NAMES: [&str; 3] = ["free 4K", "allocated", "mapped"];

/// The maintained view a frame in state `s` belongs to, if any.
fn view_of(s: PageState) -> Option<usize> {
    match s {
        PageState::Free(PageSize::Size4K) => Some(FREE_4K),
        PageState::Allocated => Some(ALLOCATED),
        PageState::Mapped { .. } => Some(MAPPED),
        _ => None,
    }
}

/// The page metadata array (Linux-style `struct page` array), held as two
/// dense arrays, states and free-list links, beside the three page sets
/// the abstract kernel state carries.
///
/// `set_state` is the only writer of a frame's state, and it moves the
/// frame between the maintained views as it writes, the way a Verus
/// transition updates its ghost state in place. Equation `views-exact` of
/// [`PageAllocator`]'s invariant ties the views back to the states.
#[derive(Debug)]
pub struct PageArray {
    base: PagePtr,
    /// Each frame's state.
    states: Vec<PageState>,
    /// Each frame's free-list node as `[prev, next]` frame indices,
    /// [`NO_LINK`] for none; meaningful only while the frame is `Free(_)`.
    links: Vec<[u32; 2]>,
    /// The frames in `Free(Size4K)`, `Allocated` and `Mapped { .. }`,
    /// indexed by [`FREE_4K`], [`ALLOCATED`] and [`MAPPED`].
    views: [PageSet; 3],
}

/// One bitmap word of the page array, classified.
struct WordScan {
    /// The word each maintained view should hold.
    views: [u64; 3],
    /// Frames whose state has per-frame obligations that can fail:
    /// superpage heads and constituents, and mapped frames with
    /// `refcnt == 0`.
    odd: u64,
    /// Mapped 4 KiB frames with `refcnt ≥ 1`, each discharging one
    /// `mapped-refcount` obligation.
    mapped_4k: u64,
}

impl PageArray {
    /// `nframes` free 4 KiB frames from `base`, linked to no list.
    fn new(base: PagePtr, nframes: usize) -> Self {
        assert!(
            nframes < NO_LINK as usize,
            "page array too large for its links"
        );
        let mut free = PageSet::over(base, nframes);
        for i in 0..nframes {
            free.insert_index(i);
        }
        PageArray {
            base,
            states: vec![PageState::Free(PageSize::Size4K); nframes],
            links: vec![[NO_LINK; 2]; nframes],
            views: [
                free,
                PageSet::over(base, nframes),
                PageSet::over(base, nframes),
            ],
        }
    }

    /// Array slot of frame `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not a managed frame.
    #[inline]
    fn index(&self, p: PagePtr) -> usize {
        let off = p.wrapping_sub(self.base);
        let i = off / PAGE_SIZE_4K;
        if !off.is_multiple_of(PAGE_SIZE_4K) || i >= self.states.len() {
            self.bad_pointer(p);
        }
        i
    }

    /// The panic of [`index`](Self::index), out of its line.
    #[cold]
    #[inline(never)]
    fn bad_pointer(&self, p: PagePtr) -> ! {
        assert!(
            p.is_multiple_of(PAGE_SIZE_4K),
            "unaligned page pointer {p:#x}"
        );
        assert!(p >= self.base, "page pointer {p:#x} below array base");
        panic!("page pointer {p:#x} beyond array end")
    }

    /// State of frame `p`.
    pub fn state(&self, p: PagePtr) -> PageState {
        self.states[self.index(p)]
    }

    /// State of frame `p`, or `None` when `p` is not a managed frame: the
    /// lookup `wf` uses, so a corrupt pointer is a verdict, not a panic.
    fn get(&self, p: PagePtr) -> Option<PageState> {
        let off = p.checked_sub(self.base)?;
        if !off.is_multiple_of(PAGE_SIZE_4K) {
            return None;
        }
        self.states.get(off / PAGE_SIZE_4K).copied()
    }

    /// Writes frame `p`'s state and moves the frame between the
    /// maintained views to match. Always inlined, so the view of a call
    /// site's constant new state folds away.
    #[inline(always)]
    fn set_state(&mut self, p: PagePtr, s: PageState) {
        let i = self.index(p);
        let (was, now) = (view_of(self.states[i]), view_of(s));
        self.states[i] = s;
        if was != now {
            if let Some(v) = was {
                self.views[v].remove_index(i);
            }
            if let Some(v) = now {
                self.views[v].insert_index(i);
            }
        }
    }

    /// Frame address of array slot `i`.
    fn frame_at(&self, i: usize) -> PagePtr {
        self.base + i * PAGE_SIZE_4K
    }

    /// The frame a stored link names.
    fn link_target(&self, link: u32) -> Option<PagePtr> {
        (link != NO_LINK).then(|| self.frame_at(link as usize))
    }

    /// Bitmap words per view.
    fn words(&self) -> usize {
        self.states.len().div_ceil(WORD_BITS)
    }

    /// Classifies the frames of bitmap word `w`.
    fn scan_word(&self, w: usize) -> WordScan {
        let lo = w * WORD_BITS;
        let hi = (lo + WORD_BITS).min(self.states.len());
        let mut scan = WordScan {
            views: [0; 3],
            odd: 0,
            mapped_4k: 0,
        };
        for (b, s) in self.states[lo..hi].iter().enumerate() {
            let bit = 1u64 << b;
            match *s {
                PageState::Free(PageSize::Size4K) => scan.views[FREE_4K] |= bit,
                PageState::Allocated => scan.views[ALLOCATED] |= bit,
                PageState::Mapped { size, refcnt } => {
                    scan.views[MAPPED] |= bit;
                    if size == PageSize::Size4K && refcnt >= 1 {
                        scan.mapped_4k += 1;
                    } else {
                        scan.odd |= bit;
                    }
                }
                PageState::Unavailable => {}
                PageState::Free(_) | PageState::Merged { .. } => scan.odd |= bit,
            }
        }
        scan
    }

    /// `true` when each maintained view's word `w` is its entry of `want`.
    fn views_hold(&self, w: usize, want: &[u64; 3]) -> bool {
        (0..3).all(|v| self.views[v].word(w) == want[v])
    }

    /// Refutes `views-exact` at the first frame of word `w` that some
    /// maintained view disagrees on.
    fn views_fault(&self, w: usize) -> VerifResult {
        let lo = w * WORD_BITS;
        let hi = (lo + WORD_BITS).min(self.states.len());
        for i in lo..hi {
            let (p, s) = (self.frame_at(i), self.states[i]);
            for (v, name) in VIEW_NAMES.iter().enumerate() {
                let member = self.views[v].contains(&p);
                if member != (view_of(s) == Some(v)) {
                    let verdict = if member { "is in" } else { "is missing from" };
                    return check_eqn(
                        false,
                        SUBSYSTEM,
                        DOMAIN,
                        "views-exact",
                        format_args!("frame {p:#x} ({s:?}) {verdict} the maintained {name} view"),
                    );
                }
            }
        }
        unreachable!("word {w} of the views disagrees with no frame")
    }
}

impl NodeStore for PageArray {
    /// Reads the slot without `PageArray::index`'s checks: every caller
    /// passes a frame that a link, a list head or its own check resolved.
    #[inline]
    fn node(&self, p: PagePtr) -> ListNode {
        debug_assert!(p.is_multiple_of(PAGE_SIZE_4K) && p >= self.base);
        let [prev, next] = self.links[(p - self.base) / PAGE_SIZE_4K];
        ListNode {
            prev: self.link_target(prev),
            next: self.link_target(next),
        }
    }

    #[inline]
    fn set_node(&mut self, p: PagePtr, node: ListNode) {
        // The neighbours are list members, each checked by `index` when it
        // was linked; only `p` is checked here.
        let base = self.base;
        let link = |q: Option<PagePtr>| {
            q.map_or(NO_LINK, |q| {
                debug_assert!(q.is_multiple_of(PAGE_SIZE_4K) && q >= base);
                ((q - base) / PAGE_SIZE_4K) as u32
            })
        };
        let i = self.index(p);
        self.links[i] = [link(node.prev), link(node.next)];
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
        let nframes = boot.usable_frames();
        let mut array = PageArray::new(boot.first_usable_frame().as_usize(), nframes);
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
        self.array.states.len()
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

    /// Finds the first 2 MiB-aligned run of 512 free 4 KiB frames, eight
    /// words of the maintained free 4 KiB view per candidate, unlinks each
    /// frame from the 4 KiB list in O(1), and forms a free 2 MiB
    /// superpage. Returns `true` on success (§4.2).
    pub fn merge_2m(&mut self) -> bool {
        let per = PageSize::Size2M.frames();
        let base = self.array.base;
        // The first 2 MiB-aligned frame; a managed range need not start on
        // one, so a run may straddle bitmap words.
        let first = (base.next_multiple_of(PageSize::Size2M.bytes()) - base) / PAGE_SIZE_4K;
        let free = &self.array.views[FREE_4K];
        let Some(i) = (first..)
            .step_by(per)
            .take_while(|i| i + per <= self.nframes())
            .find(|&i| free.contains_run(i, per))
        else {
            return false;
        };
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
        true
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
            if i >= self.nframes() {
                return false;
            }
        }
        while i + blocks * per_2m <= self.nframes() {
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
    //
    // The three views the abstract kernel state carries are maintained by
    // `PageArray::set_state` and cloned here; the others are one pass over
    // the page states into a frame bitmap. The free views read states, not
    // lists: whenever `wf` holds, a free list's members are exactly the
    // `Free(size)` frames of its size (equations `free-list-member` and
    // `free-list-exact`), and each maintained view is exactly its states'
    // frames (equation `views-exact`).

    /// The set of free 4 KiB pages (`alloc.free_pages_4k()` in Listing 4).
    pub fn free_pages_4k(&self) -> PageSet {
        self.array.views[FREE_4K].clone()
    }

    /// The set of free 2 MiB block heads.
    pub fn free_pages_2m(&self) -> PageSet {
        self.scan(|s| s == PageState::Free(PageSize::Size2M))
    }

    /// The set of free 1 GiB block heads.
    pub fn free_pages_1g(&self) -> PageSet {
        self.scan(|s| s == PageState::Free(PageSize::Size1G))
    }

    /// The set of pages allocated to kernel objects.
    pub fn allocated_pages(&self) -> PageSet {
        self.array.views[ALLOCATED].clone()
    }

    /// The set of mapped block heads.
    pub fn mapped_pages(&self) -> PageSet {
        self.array.views[MAPPED].clone()
    }

    /// The set of merged (constituent) frames.
    pub fn merged_pages(&self) -> PageSet {
        self.scan(|s| matches!(s, PageState::Merged { .. }))
    }

    /// The three sets the abstract kernel state carries — free 4 KiB
    /// pages, allocated pages, mapped block heads — as maintained, without
    /// reading the page array.
    pub fn free_allocated_mapped(&self) -> (PageSet, PageSet, PageSet) {
        let [free_4k, allocated, mapped] = self.array.views.clone();
        (free_4k, allocated, mapped)
    }

    /// The pages on the free list of `size`, head first: the order in
    /// which allocation pops them.
    pub fn free_list(&self, size: PageSize) -> impl Iterator<Item = PagePtr> + '_ {
        self.list(size).iter(&self.array)
    }

    fn list(&self, size: PageSize) -> &FreeList {
        match size {
            PageSize::Size4K => &self.free_4k,
            PageSize::Size2M => &self.free_2m,
            PageSize::Size1G => &self.free_1g,
        }
    }

    /// The frames whose state satisfies `pred`, in one pass.
    fn scan(&self, pred: impl Fn(PageState) -> bool) -> PageSet {
        let mut set = PageSet::over(self.array.base, self.nframes());
        for (i, &s) in self.array.states.iter().enumerate() {
            if pred(s) {
                set.insert_index(i);
            }
        }
        set
    }

    /// Checks equation `views-exact` alone: one pass over the page states,
    /// no list walk. A caller that reads the views of a state `wf` has not
    /// checked (the pre-state of an audited system call) checks this
    /// first.
    pub fn views_exact(&self) -> VerifResult {
        for w in 0..self.array.words() {
            if !self.array.views_hold(w, &self.array.scan_word(w).views) {
                return self.array.views_fault(w);
            }
        }
        Obligations::record_n(VIEW_NAMES.len() as u64);
        Ok(())
    }
}

/// The named equations of the allocator's [`Invariant::wf`]; the unit test
/// `every_allocator_equation_is_refuted_by_its_mutant` keeps one seeded
/// mutant for each.
///
/// There is no partition equation: a frame has exactly one [`PageState`],
/// so the states partition the frame array by construction of the enum,
/// and the free, merged, mapped and allocated views are disjoint.
pub const PAGE_ALLOC_EQUATIONS: [&str; 8] = [
    "free-list-coherent",
    "free-list-member",
    "free-list-exact",
    "block-head-aligned",
    "block-constituents",
    "merged-head",
    "mapped-refcount",
    "views-exact",
];

const SUBSYSTEM: &str = "page_alloc";
const DOMAIN: &str = "mem";

/// Discharges one obligation of `equation` into the tally `n`. Only a
/// failing one reaches [`check_eqn`], so a passing check neither formats
/// `detail` nor touches the global ledger; the caller records the tally
/// with [`Obligations::record_n`].
fn eqn(n: &mut u64, cond: bool, equation: &'static str, detail: impl fmt::Display) -> VerifResult {
    if cond {
        *n += 1;
        Ok(())
    } else {
        check_eqn(false, SUBSYSTEM, DOMAIN, equation, detail)
    }
}

impl Invariant for PageAllocator {
    /// The allocator's well-formedness invariant, one walk per free list
    /// plus one fused pass over the page array, allocating nothing:
    ///
    /// 1. `free-list-coherent`: each free list is a coherent
    ///    doubly-linked list of `len` pages;
    /// 2. `free-list-member`: every member heads a `Free` block of its
    ///    list's size;
    /// 3. `free-list-exact`: per size, the `Free(size)` frames number
    ///    exactly the list's `len`. With 1 and 2 (a coherent list repeats
    ///    no page) list membership agrees exactly with `Free(size)`;
    /// 4. `block-head-aligned`: free and mapped block heads are aligned
    ///    to their size;
    /// 5. `block-constituents`: every non-head frame of a block is merged
    ///    to its head;
    /// 6. `merged-head`: every merged frame names a superpage head whose
    ///    extent covers it;
    /// 7. `mapped-refcount`: mapped blocks have `refcnt ≥ 1`;
    /// 8. `views-exact`: each maintained view (free 4 KiB, allocated,
    ///    mapped) is exactly the frames of its states.
    ///
    /// The pass takes the page array 64 frames at a time, one bitmap word.
    /// Free 4 KiB, allocated, mapped 4 KiB (`refcnt ≥ 1`) and unavailable
    /// frames owe nothing that can fail but their view bits: they build
    /// the word's three view masks, which are compared with the views
    /// word by word. Only the other frames of a word — superpage heads,
    /// merged frames, `refcnt == 0` — run their per-frame checks. Frames
    /// are visited in ascending order and each frame's checks in the
    /// order above, so the first violation reported is the one a
    /// frame-by-frame loop meets first; `views-exact` is reported only
    /// when equations 1–7 hold. Passing obligations are tallied and
    /// recorded at once, the same count the frame-by-frame loop records
    /// one at a time, plus one per maintained view.
    fn wf(&self) -> VerifResult {
        let mut n = 0;
        let verdict = self.wf_tallied(&mut n);
        Obligations::record_n(n);
        verdict
    }
}

impl PageAllocator {
    /// [`Invariant::wf`], tallying its passing obligations into `n`.
    fn wf_tallied(&self, n: &mut u64) -> VerifResult {
        for size in PageSize::ALL {
            let fault = self
                .list(size)
                .wf(&self.array, |p| {
                    self.array.get(p) == Some(PageState::Free(size))
                })
                .err();
            eqn(
                n,
                fault != Some(ListFault::Incoherent),
                "free-list-coherent",
                format_args!("free {size:?} list corrupt"),
            )?;
            let stray = match fault {
                Some(ListFault::NotMember(p)) => Some(p),
                _ => None,
            };
            eqn(
                n,
                stray.is_none(),
                "free-list-member",
                format_args!(
                    "page {:#x} on the free {size:?} list heads no free {size:?} block",
                    stray.unwrap_or(0)
                ),
            )?;
        }

        let mut free = [0usize; PageSize::ALL.len()]; // Free(size) frames, by size
        let mut views_fault = None; // the first word a view disagrees on
        for w in 0..self.array.words() {
            let scan = self.array.scan_word(w);
            free[PageSize::Size4K as usize] += scan.views[FREE_4K].count_ones() as usize;
            *n += scan.mapped_4k;
            let mut odd = scan.odd;
            while odd != 0 {
                self.check_frame(w * WORD_BITS + odd.trailing_zeros() as usize, &mut free, n)?;
                odd &= odd - 1;
            }
            if views_fault.is_none() && !self.array.views_hold(w, &scan.views) {
                views_fault = Some(w);
            }
        }

        for (size, count) in PageSize::ALL.into_iter().zip(free) {
            let len = self.list(size).len();
            eqn(
                n,
                count == len,
                "free-list-exact",
                format_args!("{count} free {size:?} blocks but {len} on their list"),
            )?;
        }
        match views_fault {
            Some(w) => self.array.views_fault(w),
            None => {
                *n += VIEW_NAMES.len() as u64;
                Ok(())
            }
        }
    }

    /// The per-frame checks of array slot `i`, whose state is not one of
    /// the states the fused pass settles by mask; counts a free block
    /// head into `free`.
    fn check_frame(&self, i: usize, free: &mut [usize; 3], n: &mut u64) -> VerifResult {
        let p = self.array.frame_at(i);
        match self.array.states[i] {
            PageState::Free(size) => {
                free[size as usize] += 1;
                self.check_block(i, size, n)
            }
            PageState::Mapped { size, refcnt } => {
                eqn(
                    n,
                    refcnt >= 1,
                    "mapped-refcount",
                    format_args!("mapped block {p:#x} with zero refcnt"),
                )?;
                self.check_block(i, size, n)
            }
            PageState::Merged { head } => {
                let head_state = self.array.get(head);
                let covers = match head_state {
                    Some(PageState::Free(s) | PageState::Mapped { size: s, .. }) => {
                        s != PageSize::Size4K && head <= p && p < head + s.bytes()
                    }
                    _ => false,
                };
                eqn(
                    n,
                    covers,
                    "merged-head",
                    format_args!("merged frame {p:#x} has invalid head {head:#x} ({head_state:?})"),
                )
            }
            PageState::Allocated | PageState::Unavailable => Ok(()),
        }
    }

    /// Checks the free or mapped block whose head is array slot `i`: the
    /// head is aligned to `size`, and every other frame of its extent is
    /// merged to it. A 4 KiB block is one frame, so both hold by
    /// construction and nothing is checked.
    fn check_block(&self, i: usize, size: PageSize, n: &mut u64) -> VerifResult {
        if size == PageSize::Size4K {
            return Ok(());
        }
        let head = self.array.frame_at(i);
        eqn(
            n,
            head.is_multiple_of(size.bytes()),
            "block-head-aligned",
            format_args!("block head {head:#x} misaligned for {size:?}"),
        )?;
        let merged = PageState::Merged { head };
        let stray =
            (1..size.frames()).find(|k| self.array.states.get(i + k).is_none_or(|s| *s != merged));
        eqn(
            n,
            stray.is_none(),
            "block-constituents",
            format_args!(
                "constituent {:#x} of {size:?} block {head:#x} not merged to it",
                head + stray.unwrap_or(0) * PAGE_SIZE_4K
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_spec::{Set, XorShift64Star};

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
        assert_eq!(a.free_pages_4k(), free_before.to_set().remove(&p));
        assert_eq!(a.allocated_pages(), alloc_before.to_set().insert(p));
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
        let head = a.free_pages_2m().choose().unwrap();
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

    /// The first 2 MiB-aligned run of 512 free 4 KiB frames, found by
    /// comparing page states frame by frame from the bottom of the range.
    fn first_free_run_by_states(a: &PageAllocator) -> Option<PagePtr> {
        let per = PageSize::Size2M.frames();
        (0..a.nframes())
            .filter(|&i| a.array.frame_at(i).is_multiple_of(PageSize::Size2M.bytes()))
            .take_while(|&i| i + per <= a.nframes())
            .find(|&i| {
                a.array.states[i..i + per]
                    .iter()
                    .all(|&s| s == PageState::Free(PageSize::Size4K))
            })
            .map(|i| a.array.frame_at(i))
    }

    #[test]
    fn merge_2m_picks_the_first_free_run_whatever_the_base() {
        use atmo_hw::{MemoryRegion, MemoryRegionKind, PAddr};
        // Offsets of the managed range from a 2 MiB boundary, in frames:
        // aligned, inside the first bitmap word, on a word boundary, past
        // one, and one frame short of the next boundary.
        for (seed, offset) in [0, 5, 64, 100, 511].into_iter().enumerate() {
            let boot = BootInfo {
                regions: vec![MemoryRegion {
                    start: PAddr::new(4 * PageSize::Size2M.bytes() + offset * PAGE_SIZE_4K),
                    len: 24 << 20,
                    kind: MemoryRegionKind::Usable,
                }],
                cpu_count: 1,
                cmdline: String::new(),
            };
            let mut a = PageAllocator::new(&boot);
            let mut rng = XorShift64Star::new(seed as u64 + 1);
            // Holes: a random subset of the first pages handed out stays
            // allocated.
            let mut perms = Vec::new();
            for _ in 0..rng.range(600, 2400) {
                perms.push(a.alloc_page_4k().unwrap().1);
            }
            for perm in perms {
                if rng.chance(15, 16) {
                    a.free_page_4k(perm);
                }
            }
            loop {
                let want = first_free_run_by_states(&a);
                assert_eq!(a.merge_2m(), want.is_some(), "offset {offset}");
                let Some(head) = want else { break };
                assert_eq!(a.free_list(PageSize::Size2M).next(), Some(head));
                assert!(a.is_wf(), "offset {offset}: {:?}", a.wf());
            }
            assert!(
                a.free_pages_2m().len() >= 2,
                "offset {offset}: some runs merged"
            );
        }
    }

    #[test]
    fn split_2m_restores_4k_pages() {
        let mut a = small_alloc();
        let total = a.free_pages_4k().len();
        assert!(a.merge_2m());
        let head = a.free_pages_2m().choose().unwrap();
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

    /// A healthy allocator with frames in every state: allocated pages, a
    /// free 4 KiB list with holes punched into it, shared and unshared
    /// mapped 4 KiB pages, a mapped and a free 2 MiB block.
    fn allocator_with_every_state() -> PageAllocator {
        let mut a = small_alloc();
        for i in 0..48 {
            let (_, perm) = a.alloc_page_4k().unwrap();
            if i % 3 == 0 {
                a.free_page_4k(perm);
            }
        }
        for i in 0..24 {
            let p = a.alloc_mapped(PageSize::Size4K).unwrap();
            if i % 4 == 0 {
                a.inc_map_ref(p);
            }
        }
        a.alloc_mapped(PageSize::Size2M).unwrap();
        assert!(a.merge_2m());
        assert!(a.is_wf(), "{:?}", a.wf());
        a
    }

    /// Frames whose state satisfies `which`.
    fn frames_where(a: &PageAllocator, which: impl Fn(PageState) -> bool) -> Vec<PagePtr> {
        (0..a.nframes())
            .map(|i| a.array.frame_at(i))
            .filter(|&p| which(a.array.state(p)))
            .collect()
    }

    /// A seeded corruption of the allocator's page array or free lists.
    type AllocMutant = fn(&mut PageAllocator, &mut XorShift64Star);

    /// The mutant registry: one corruption per named allocator equation,
    /// each of which must make exactly that equation fire. An equation in
    /// `PAGE_ALLOC_EQUATIONS` with no entry here fails the test below.
    const ALLOC_MUTANTS: [(&str, AllocMutant); 8] = [
        // A `prev` cycle: a member's `next` leads back to itself or to an
        // earlier member.
        ("free-list-coherent", |a, rng| {
            let list: Vec<PagePtr> = a.free_list(PageSize::Size4K).collect();
            let j = rng.range(1, list.len());
            let node = a.array.node(list[j]);
            let next = Some(list[rng.below(j + 1)]);
            a.array.set_node(list[j], ListNode { next, ..node });
        }),
        // A page on the 4 KiB list leaves the free state without leaving
        // the list.
        ("free-list-member", |a, rng| {
            let list: Vec<PagePtr> = a.free_list(PageSize::Size4K).collect();
            let state = match rng.below(2) {
                0 => PageState::Allocated,
                _ => PageState::Mapped {
                    size: PageSize::Size4K,
                    refcnt: 1,
                },
            };
            a.array.set_state(*rng.choose(&list), state);
        }),
        // A free block is unlinked from its list but stays free.
        ("free-list-exact", |a, rng| {
            let size = *rng.choose(&[PageSize::Size4K, PageSize::Size2M]);
            let list: Vec<PagePtr> = a.free_list(size).collect();
            let p = *rng.choose(&list);
            match size {
                PageSize::Size4K => a.free_4k.unlink(&mut a.array, p),
                _ => a.free_2m.unlink(&mut a.array, p),
            }
        }),
        // A mapped 4 KiB page off a superpage boundary claims to be a
        // superpage.
        ("block-head-aligned", |a, rng| {
            let heads = frames_where(a, |s| {
                matches!(
                    s,
                    PageState::Mapped {
                        size: PageSize::Size4K,
                        ..
                    }
                )
            });
            let p = *rng.choose(&heads);
            let size = *rng.choose(&[PageSize::Size2M, PageSize::Size1G]);
            assert!(!p.is_multiple_of(size.bytes()));
            a.array.set_state(p, PageState::Mapped { size, refcnt: 1 });
        }),
        // A frame strays from the superpage it was merged into.
        ("block-constituents", |a, rng| {
            let heads = frames_where(a, |s| {
                matches!(
                    s,
                    PageState::Free(PageSize::Size2M)
                        | PageState::Mapped {
                            size: PageSize::Size2M,
                            ..
                        }
                )
            });
            let head = *rng.choose(&heads);
            let k = rng.range(1, PageSize::Size2M.frames());
            a.array
                .set_state(head + k * PAGE_SIZE_4K, PageState::Allocated);
        }),
        // An allocated page claims to be merged into a block that does not
        // cover it, or into no managed frame at all.
        ("merged-head", |a, rng| {
            let p = *rng.choose(&frames_where(a, |s| s == PageState::Allocated));
            let head = match rng.below(3) {
                0 => a.array.frame_at(rng.below(a.nframes())),
                1 => *rng.choose(&frames_where(a, |s| s == PageState::Free(PageSize::Size2M))),
                _ => 0xdead_b000,
            };
            a.array.set_state(p, PageState::Merged { head });
        }),
        // A mapped block loses its last reference without being freed.
        ("mapped-refcount", |a, rng| {
            let heads = frames_where(a, |s| matches!(s, PageState::Mapped { .. }));
            let p = *rng.choose(&heads);
            let PageState::Mapped { size, .. } = a.array.state(p) else {
                unreachable!("picked a mapped head");
            };
            a.array.set_state(p, PageState::Mapped { size, refcnt: 0 });
        }),
        // A maintained view gains or loses a frame behind the back of
        // `set_state`, the views' only writer.
        ("views-exact", |a, rng| {
            let i = rng.below(a.nframes());
            let p = a.array.frame_at(i);
            let view = &mut a.array.views[rng.below(VIEW_NAMES.len())];
            if view.contains(&p) {
                view.remove_index(i);
            } else {
                view.insert_index(i);
            }
        }),
    ];

    #[test]
    fn every_allocator_equation_is_refuted_by_its_mutant() {
        for equation in PAGE_ALLOC_EQUATIONS {
            let mutants = ALLOC_MUTANTS.iter().filter(|(name, _)| *name == equation);
            assert_eq!(mutants.count(), 1, "mutants of the allocator's {equation}");
        }
        for seed in 1..=16 {
            for (equation, corrupt) in ALLOC_MUTANTS {
                let mut a = allocator_with_every_state();
                corrupt(&mut a, &mut XorShift64Star::new(seed));
                let e = a.wf().unwrap_err();
                assert_eq!(
                    (e.subsystem, e.domain, e.equation),
                    ("page_alloc", Some("mem"), Some(equation)),
                    "seed {seed}: {e}"
                );
                // No other equation fires: a views-exact mutant leaves
                // equations 1-7 holding, every other mutant writes through
                // `set_state` and leaves the views exact.
                let others = if equation == "views-exact" {
                    wf_frame_by_frame(&a)
                } else {
                    a.views_exact()
                };
                assert_eq!(others, Ok(()), "seed {seed}, {equation} mutant");
            }
        }
    }

    /// The `wf` frame pass this allocator had before it was fused: one
    /// `check_eqn` per obligation, every frame in turn, equations 1-7.
    fn wf_frame_by_frame(a: &PageAllocator) -> VerifResult {
        for size in PageSize::ALL {
            let fault = a
                .list(size)
                .wf(&a.array, |p| a.array.get(p) == Some(PageState::Free(size)))
                .err();
            check_eqn(
                fault != Some(ListFault::Incoherent),
                SUBSYSTEM,
                DOMAIN,
                "free-list-coherent",
                format_args!("free {size:?} list corrupt"),
            )?;
            let stray = match fault {
                Some(ListFault::NotMember(p)) => Some(p),
                _ => None,
            };
            check_eqn(
                stray.is_none(),
                SUBSYSTEM,
                DOMAIN,
                "free-list-member",
                format_args!(
                    "page {:#x} on the free {size:?} list heads no free {size:?} block",
                    stray.unwrap_or(0)
                ),
            )?;
        }
        let check_block = |i: usize, size: PageSize| -> VerifResult {
            if size == PageSize::Size4K {
                return Ok(());
            }
            let head = a.array.frame_at(i);
            check_eqn(
                head.is_multiple_of(size.bytes()),
                SUBSYSTEM,
                DOMAIN,
                "block-head-aligned",
                format_args!("block head {head:#x} misaligned for {size:?}"),
            )?;
            let merged = PageState::Merged { head };
            let stray =
                (1..size.frames()).find(|k| a.array.states.get(i + k).is_none_or(|s| *s != merged));
            check_eqn(
                stray.is_none(),
                SUBSYSTEM,
                DOMAIN,
                "block-constituents",
                format_args!(
                    "constituent {:#x} of {size:?} block {head:#x} not merged to it",
                    head + stray.unwrap_or(0) * PAGE_SIZE_4K
                ),
            )
        };
        let mut free = [0usize; PageSize::ALL.len()];
        for (i, &state) in a.array.states.iter().enumerate() {
            let p = a.array.frame_at(i);
            match state {
                PageState::Free(size) => {
                    free[size as usize] += 1;
                    check_block(i, size)?;
                }
                PageState::Mapped { size, refcnt } => {
                    check_eqn(
                        refcnt >= 1,
                        SUBSYSTEM,
                        DOMAIN,
                        "mapped-refcount",
                        format_args!("mapped block {p:#x} with zero refcnt"),
                    )?;
                    check_block(i, size)?;
                }
                PageState::Merged { head } => {
                    let head_state = a.array.get(head);
                    let covers = match head_state {
                        Some(PageState::Free(s) | PageState::Mapped { size: s, .. }) => {
                            s != PageSize::Size4K && head <= p && p < head + s.bytes()
                        }
                        _ => false,
                    };
                    check_eqn(
                        covers,
                        SUBSYSTEM,
                        DOMAIN,
                        "merged-head",
                        format_args!(
                            "merged frame {p:#x} has invalid head {head:#x} ({head_state:?})"
                        ),
                    )?;
                }
                PageState::Allocated | PageState::Unavailable => {}
            }
        }
        for (size, n) in PageSize::ALL.into_iter().zip(free) {
            let len = a.list(size).len();
            check_eqn(
                n == len,
                SUBSYSTEM,
                DOMAIN,
                "free-list-exact",
                format_args!("{n} free {size:?} blocks but {len} on their list"),
            )?;
        }
        Ok(())
    }

    /// The reference verdict on all eight equations: the frame-by-frame
    /// pass, then each view's membership of each frame against the
    /// frame's state, frame by frame.
    fn reference_wf(a: &PageAllocator) -> VerifResult {
        wf_frame_by_frame(a)?;
        for (i, &s) in a.array.states.iter().enumerate() {
            let p = a.array.frame_at(i);
            let belongs = [
                s == PageState::Free(PageSize::Size4K),
                s == PageState::Allocated,
                matches!(s, PageState::Mapped { .. }),
            ];
            for (v, name) in VIEW_NAMES.iter().enumerate() {
                let member = a.array.views[v].contains(&p);
                if member != belongs[v] {
                    let verdict = if member { "is in" } else { "is missing from" };
                    return check_eqn(
                        false,
                        SUBSYSTEM,
                        DOMAIN,
                        "views-exact",
                        format!("frame {p:#x} ({s:?}) {verdict} the maintained {name} view"),
                    );
                }
            }
        }
        Ok(())
    }

    /// What a violation names: subsystem, domain, equation and detail.
    type Named = (
        &'static str,
        Option<&'static str>,
        Option<&'static str>,
        String,
    );

    /// The fields of a verdict that name what failed and where.
    fn named(r: VerifResult) -> Option<Named> {
        r.err()
            .map(|e| (e.subsystem, e.domain, e.equation, e.detail))
    }

    #[test]
    fn the_fused_pass_reports_what_the_reference_reports() {
        for seed in 1..=16 {
            for (equation, corrupt) in ALLOC_MUTANTS {
                let mut a = allocator_with_every_state();
                corrupt(&mut a, &mut XorShift64Star::new(seed));
                assert_eq!(
                    named(a.wf()),
                    named(reference_wf(&a)),
                    "seed {seed}, {equation} mutant"
                );
            }
        }
        // Random state and link corruption plus a stray view bit: the
        // view fault is named only where no other equation fails first.
        let mut views_named = 0;
        for seed in 1..=128 {
            let mut rng = XorShift64Star::new(seed);
            let mut a = allocator_with_every_state();
            for _ in 0..rng.below(3) {
                havoc(&mut a, &mut rng);
            }
            ALLOC_MUTANTS[7].1(&mut a, &mut rng);
            let verdict = named(a.wf());
            assert_eq!(verdict, named(reference_wf(&a)), "seed {seed}");
            views_named += usize::from(verdict.is_some_and(|v| v.2 == Some("views-exact")));
        }
        assert!(
            (16..128).contains(&views_named),
            "{views_named} named views-exact"
        );
    }

    /// The set-building `wf` this allocator had before it became one walk
    /// per list plus one scan: the three free lists collected into sets,
    /// one lookup per free frame, a total count against the lists.
    fn wf_by_sets(a: &PageAllocator) -> bool {
        let lists = [&a.free_4k, &a.free_2m, &a.free_1g];
        if lists.iter().any(|l| l.wf(&a.array, |_| true).is_err()) {
            return false;
        }
        let on: Vec<Set<PagePtr>> = lists.iter().map(|l| l.iter(&a.array).collect()).collect();
        let merged_to = |head: PagePtr, size: PageSize| {
            (1..size.frames())
                .all(|k| a.array.state(head + k * PAGE_SIZE_4K) == PageState::Merged { head })
        };
        let mut free = 0;
        for i in 0..a.nframes() {
            let p = a.array.frame_at(i);
            let ok = match a.array.states[i] {
                PageState::Free(size) => {
                    free += 1;
                    on[size as usize].contains(&p)
                        && p.is_multiple_of(size.bytes())
                        && merged_to(p, size)
                }
                PageState::Merged { head } => match a.array.state(head) {
                    PageState::Free(s) | PageState::Mapped { size: s, .. } => {
                        s != PageSize::Size4K && head <= p && p < head + s.bytes()
                    }
                    _ => false,
                },
                PageState::Mapped { size, refcnt } => {
                    refcnt >= 1 && p.is_multiple_of(size.bytes()) && merged_to(p, size)
                }
                PageState::Allocated | PageState::Unavailable => true,
            };
            if !ok {
                return false;
            }
        }
        on.iter().map(Set::len).sum::<usize>() == free
    }

    /// One random corruption of a frame's state or list links, every
    /// pointer it writes inside the managed range (the set-building check
    /// panics on any other).
    fn havoc(a: &mut PageAllocator, rng: &mut XorShift64Star) {
        let n = a.nframes();
        let p = a.array.frame_at(rng.below(n));
        let other = a.array.frame_at(rng.below(n));
        let size = *rng.choose(&PageSize::ALL);
        let link = rng.chance(3, 4).then_some(other);
        match rng.below(8) {
            0 => a.array.set_state(p, PageState::Free(size)),
            1 => a.array.set_state(p, PageState::Allocated),
            2 => a.array.set_state(p, PageState::Unavailable),
            3 => a.array.set_state(p, PageState::Merged { head: other }),
            4 => {
                let refcnt = rng.below(3);
                a.array.set_state(p, PageState::Mapped { size, refcnt });
            }
            5 => {
                let node = a.array.node(p);
                a.array.set_node(p, ListNode { next: link, ..node });
            }
            6 => {
                let node = a.array.node(p);
                a.array.set_node(p, ListNode { prev: link, ..node });
            }
            _ => {
                // Swap two frames' states: counts stay, positions move.
                let s = a.array.state(p);
                a.array.set_state(p, a.array.state(other));
                a.array.set_state(other, s);
            }
        }
    }

    #[test]
    fn the_walk_and_scan_verdict_is_the_set_building_verdict() {
        let (mut healthy, mut broken) = (0, 0);
        for seed in 1..=512 {
            let mut rng = XorShift64Star::new(seed);
            let mut a = allocator_with_every_state();
            for _ in 0..rng.below(4) {
                havoc(&mut a, &mut rng);
            }
            let verdict = a.wf();
            assert_eq!(verdict.is_ok(), wf_by_sets(&a), "seed {seed}: {verdict:?}");
            assert_eq!(
                named(verdict.clone()),
                named(reference_wf(&a)),
                "seed {seed}"
            );
            if verdict.is_ok() {
                healthy += 1;
            } else {
                broken += 1;
            }
        }
        assert!(
            healthy > 32 && broken > 256,
            "{healthy} healthy, {broken} broken"
        );
    }
}

// `PagePermission::new` is `pub(crate)`; tests above may forge permissions
// deliberately to exercise verification failures.
