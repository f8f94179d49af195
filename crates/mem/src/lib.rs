//! Manual memory management for the Atmosphere reproduction (§4.2).
//!
//! Atmosphere abandons Rust's automatic memory management: every kernel
//! object (container, process, thread, endpoint, page-table level) is
//! explicitly allocated from — and explicitly returned to — a page
//! allocator that works at 4 KiB / 2 MiB / 1 GiB granularity. Safety and
//! leak freedom are then *proved* rather than delegated to the borrow
//! checker:
//!
//! * every physical page is in exactly one of four states — **free**,
//!   **mapped**, **merged** (into a superpage) or **allocated** (backing a
//!   kernel object);
//! * the allocator keeps free pages of each size on a doubly-linked free
//!   list with constant-time unlink (each page's metadata stores its list
//!   node — the Linux-style page array);
//! * 2 MiB / 1 GiB superpages are formed by finding an aligned free run
//!   (in the free 4 KiB bitmap, or the page array) and unlinking 512
//!   merged constituents in constant time each;
//! * the free 4 KiB, allocated and mapped sets are maintained bitmaps,
//!   updated with each frame's state and checked against the page array
//!   by the allocator's invariant;
//! * every subsystem reports the set of pages it owns via
//!   [`PageClosure::page_closure`]; pairwise disjointness plus
//!   "union of closures = allocated ∪ mapped ∪ merged" gives type/spatial/
//!   temporal safety and leak freedom (the paper's bottom-up recursive
//!   memory reasoning).
//!
//! Module map: [`meta`] page states and the page array, [`freelist`] the
//! intrusive lists, [`alloc`] the allocator and its abstract views,
//! [`pageset`] the frame bitmaps those views are returned as,
//! [`perm`] linear page-ownership tokens and page→object conversion,
//! [`closure`] the `page_closure()` machinery, [`source`] the page-
//! supplier abstraction and [`cache`] the per-CPU free-page caches
//! backing the sharded kernel's allocator fast path.

pub mod alloc;
pub mod cache;
pub mod closure;
pub mod dma;
pub mod freelist;
pub mod meta;
pub mod pageset;
pub mod perm;
pub mod source;

pub use alloc::{AllocError, PageAllocator, PAGE_ALLOC_EQUATIONS};
pub use cache::{
    CacheStats, CachedSource, PageCache, DEFAULT_CACHE_CAPACITY, DEFAULT_REFILL_BATCH,
};
pub use closure::{closure_partition_wf, PageClosure};
pub use dma::{DmaWindow, DMA_FRAME_BYTES};
pub use meta::{PagePtr, PageSize, PageState};
pub use pageset::PageSet;
pub use perm::PagePermission;
pub use source::PageSource;
