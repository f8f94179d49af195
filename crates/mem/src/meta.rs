//! Page states and the page metadata array.
//!
//! "The page allocator uses a page array (similar to the page array in
//! Linux) to maintain the metadata for each physical page in the system"
//! (§4.2). Each 4 KiB frame has a [`PageState`] and, when free, an
//! embedded doubly-linked list node ([`ListNode`]) so the allocator can
//! unlink it in constant time when it is merged into a superpage. The
//! allocator stores the two side by side, one dense array each, so a
//! pass over the states reads no links.

use atmo_hw::addr::{PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K};

/// A physical page pointer: the frame's physical address.
///
/// The paper keys every allocator set (`free`, `allocated`, `mapped`,
/// `merged`) and every `page_closure()` by these.
pub type PagePtr = usize;

/// Page sizes supported by the allocator and the page table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PageSize {
    /// 4 KiB base page.
    Size4K,
    /// 2 MiB superpage (512 base pages).
    Size2M,
    /// 1 GiB superpage (512 × 512 base pages).
    Size1G,
}

impl PageSize {
    /// Every size, smallest first (the order of the discriminants).
    pub const ALL: [PageSize; 3] = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];

    /// Size in bytes.
    pub const fn bytes(self) -> usize {
        match self {
            PageSize::Size4K => PAGE_SIZE_4K,
            PageSize::Size2M => PAGE_SIZE_2M,
            PageSize::Size1G => PAGE_SIZE_1G,
        }
    }

    /// Number of 4 KiB frames covered.
    pub const fn frames(self) -> usize {
        self.bytes() / PAGE_SIZE_4K
    }
}

/// The state of one 4 KiB frame (§4.2: free / mapped / merged / allocated).
///
/// Superpages are represented by their *head* frame: a free or mapped 2 MiB
/// block has its head in `Free(Size2M)` / `Mapped { size: Size2M, .. }` and
/// its 511 other frames in `Merged { head }`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageState {
    /// Not usable RAM (reserved/MMIO/kernel image); never allocatable.
    Unavailable,
    /// Head of a free block of the given size, on that size's free list.
    Free(PageSize),
    /// Constituent (non-head) frame of a superpage.
    Merged {
        /// The head frame of the superpage this frame belongs to.
        head: PagePtr,
    },
    /// Head of a block mapped into `refcnt` ≥ 1 address spaces.
    Mapped {
        /// Size of the mapped block.
        size: PageSize,
        /// Number of address spaces that map this block (shared memory
        /// established via endpoints can make this > 1).
        refcnt: usize,
    },
    /// 4 KiB frame backing a kernel object or a page-table level.
    Allocated,
}

/// Intrusive doubly-linked list node embedded in free pages' metadata.
///
/// "Each page metadata in the array maintains a pointer to the node of the
/// linked list holding the page, which allows us to perform constant-time
/// removal when the page is merged" (§4.2). Storing the node *in* the page
/// array is the paper's internal-storage optimization; `prev` is the
/// reverse pointer enabling O(1) unlink. The allocator's page array keeps
/// each node as two `u32` frame indices and hands it out by value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ListNode {
    /// Previous free page of the same size class, if any.
    pub prev: Option<PagePtr>,
    /// Next free page of the same size class, if any.
    pub next: Option<PagePtr>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_arithmetic() {
        assert_eq!(PageSize::Size4K.bytes(), 4096);
        assert_eq!(PageSize::Size2M.frames(), 512);
        assert_eq!(PageSize::Size1G.frames(), 512 * 512);
    }

    #[test]
    fn states_are_distinguishable() {
        assert_ne!(
            PageState::Free(PageSize::Size4K),
            PageState::Free(PageSize::Size2M)
        );
        assert_ne!(PageState::Allocated, PageState::Unavailable);
        let m = PageState::Mapped {
            size: PageSize::Size4K,
            refcnt: 1,
        };
        if let PageState::Mapped { refcnt, .. } = m {
            assert_eq!(refcnt, 1);
        } else {
            unreachable!();
        }
    }
}
