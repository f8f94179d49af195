//! Virtual and physical addresses, page sizes and index arithmetic.
//!
//! Atmosphere manages memory at page granularity — 4 KiB base pages plus
//! 2 MiB and 1 GiB superpages (§4.2). Virtual addresses follow the x86-64
//! 4-level scheme: bits 47..39 index PML4, 38..30 the PDPT, 29..21 the PD,
//! and 20..12 the PT; bit 47 is sign-extended (canonical form).

use std::fmt;

/// Size of a base page: 4 KiB.
pub const PAGE_SIZE_4K: usize = 4096;
/// Size of a 2 MiB superpage.
pub const PAGE_SIZE_2M: usize = 512 * PAGE_SIZE_4K;
/// Size of a 1 GiB superpage.
pub const PAGE_SIZE_1G: usize = 512 * PAGE_SIZE_2M;

/// Entries per page-table level.
pub const ENTRIES_PER_TABLE: usize = 512;

/// A virtual address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(pub usize);

/// A physical address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PAddr(pub usize);

impl VAddr {
    /// Creates a virtual address.
    pub const fn new(addr: usize) -> Self {
        VAddr(addr)
    }

    /// Raw value.
    pub const fn as_usize(self) -> usize {
        self.0
    }

    /// `true` when the address is in x86-64 canonical form (bits 63..48
    /// replicate bit 47).
    const fn is_canonical(self) -> bool {
        let upper = self.0 >> 47;
        upper == 0 || upper == (1 << 17) - 1
    }

    /// `true` when aligned to `align` (a power of two).
    const fn is_aligned(self, align: usize) -> bool {
        debug_assert!(align.is_power_of_two());
        self.0 & (align - 1) == 0
    }

    /// Rounds down to the nearest `align` boundary.
    pub fn align_down(self, align: usize) -> VAddr {
        debug_assert!(align.is_power_of_two());
        VAddr(self.0 & !(align - 1))
    }

    /// PML4 index (bits 47..39).
    pub fn l4_index(self) -> usize {
        (self.0 >> 39) & 0x1ff
    }

    /// PDPT index (bits 38..30).
    pub fn l3_index(self) -> usize {
        (self.0 >> 30) & 0x1ff
    }

    /// PD index (bits 29..21).
    pub fn l2_index(self) -> usize {
        (self.0 >> 21) & 0x1ff
    }

    /// PT index (bits 20..12).
    pub fn l1_index(self) -> usize {
        (self.0 >> 12) & 0x1ff
    }

    /// Offset within a 4 KiB page.
    pub fn page_offset_4k(self) -> usize {
        self.0 & (PAGE_SIZE_4K - 1)
    }
}

impl PAddr {
    /// Creates a physical address.
    pub const fn new(addr: usize) -> Self {
        PAddr(addr)
    }

    /// Raw value.
    pub const fn as_usize(self) -> usize {
        self.0
    }
}

/// Rebuilds a canonical virtual address from the four table indices
/// (the paper's `index2va((l4i, l3i, l2i, l1i))`).
///
/// # Panics
///
/// Panics when any index is ≥ 512.
pub fn index2va(l4i: usize, l3i: usize, l2i: usize, l1i: usize) -> VAddr {
    assert!(l4i < 512 && l3i < 512 && l2i < 512 && l1i < 512);
    let raw = (l4i << 39) | (l3i << 30) | (l2i << 21) | (l1i << 12);
    // Sign-extend bit 47 to produce a canonical address.
    if l4i >= 256 {
        VAddr(raw | !0usize << 48)
    } else {
        VAddr(raw)
    }
}

/// A virtual address that names a page of `SIZE` bytes: aligned to
/// `SIZE` and canonical. [`PageVa::new`] is the only constructor, so the
/// page-table and IOMMU leaf operations that take one check neither.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageVa<const SIZE: usize>(VAddr);

/// A 4 KiB page address (also an IOVA: the IOMMU's rule is the same).
pub type PageVa4K = PageVa<PAGE_SIZE_4K>;
/// A 2 MiB superpage address.
pub type PageVa2M = PageVa<PAGE_SIZE_2M>;
/// A 1 GiB superpage address.
pub type PageVa1G = PageVa<PAGE_SIZE_1G>;

impl<const SIZE: usize> PageVa<SIZE> {
    /// `va` as a page address; `None` when it is not aligned to `SIZE`
    /// or not canonical.
    pub const fn new(va: usize) -> Option<Self> {
        match VAddr(va) {
            va if va.is_aligned(SIZE) && va.is_canonical() => Some(PageVa(va)),
            _ => None,
        }
    }

    /// The address.
    pub const fn va(self) -> VAddr {
        self.0
    }

    /// Raw value.
    pub const fn as_usize(self) -> usize {
        self.0 .0
    }
}

/// A contiguous range of 4 KiB virtual pages (the `va_range` argument of
/// `mmap`, Listing 1 of the paper). Every page of it is a [`PageVa4K`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VaRange4K {
    base: PageVa4K,
    len: usize,
}

impl VaRange4K {
    /// Creates a range; the base must be a 4 KiB page address, the last
    /// page canonical and in the same half of the address space as the
    /// base (so the range never runs through the non-canonical hole), and
    /// the exclusive end representable (the range must not wrap).
    pub fn new(base: VAddr, len: usize) -> Option<Self> {
        let base = PageVa4K::new(base.0)?;
        let bytes = len.checked_mul(PAGE_SIZE_4K)?;
        let end = base.as_usize().checked_add(bytes)?;
        if len > 0 {
            let last = PageVa4K::new(end - PAGE_SIZE_4K)?;
            if last.as_usize() >> 63 != base.as_usize() >> 63 {
                return None;
            }
        }
        Some(VaRange4K { base, len })
    }

    /// The first page.
    pub fn base(&self) -> PageVa4K {
        self.base
    }

    /// Number of 4 KiB pages.
    pub fn page_count(&self) -> usize {
        self.len
    }

    /// Page `i` of the range.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len`.
    pub fn page(&self, i: usize) -> PageVa4K {
        assert!(i < self.len, "page index out of range");
        PageVa(VAddr(self.base.as_usize() + i * PAGE_SIZE_4K))
    }

    /// `true` when `va` is one of the page addresses in the range.
    pub fn contains(&self, va: VAddr) -> bool {
        if va.0 < self.base.as_usize() || !va.is_aligned(PAGE_SIZE_4K) {
            return false;
        }
        let delta = (va.0 - self.base.as_usize()) / PAGE_SIZE_4K;
        delta < self.len
    }

    /// Iterator over the page addresses.
    pub fn iter(&self) -> impl Iterator<Item = PageVa4K> + '_ {
        (0..self.len).map(move |i| self.page(i))
    }
}

impl fmt::Debug for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VAddr({:#x})", self.0)
    }
}

impl fmt::Debug for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PAddr({:#x})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_sizes_nest() {
        assert_eq!(PAGE_SIZE_2M, 2 * 1024 * 1024);
        assert_eq!(PAGE_SIZE_1G, 1024 * 1024 * 1024);
        assert_eq!(PAGE_SIZE_2M / PAGE_SIZE_4K, 512);
        assert_eq!(PAGE_SIZE_1G / PAGE_SIZE_2M, 512);
    }

    #[test]
    fn index_extraction_round_trips() {
        for &(l4, l3, l2, l1) in &[
            (0, 0, 0, 0),
            (1, 2, 3, 4),
            (255, 511, 511, 511),
            (256, 0, 0, 1),
        ] {
            let va = index2va(l4, l3, l2, l1);
            assert!(va.is_canonical(), "{va:?} not canonical");
            assert_eq!(va.l4_index(), l4);
            assert_eq!(va.l3_index(), l3);
            assert_eq!(va.l2_index(), l2);
            assert_eq!(va.l1_index(), l1);
        }
    }

    #[test]
    fn canonical_form_checks() {
        assert!(VAddr(0x0000_7fff_ffff_f000).is_canonical());
        assert!(VAddr(0xffff_8000_0000_0000).is_canonical());
        assert!(!VAddr(0x0000_8000_0000_0000).is_canonical());
        assert!(!VAddr(0x1234_0000_0000_0000).is_canonical());
        assert!(PageVa4K::new(0x0000_8000_0000_0000).is_none());
    }

    #[test]
    fn alignment_helpers() {
        let va = VAddr(0x1234);
        assert!(!va.is_aligned(PAGE_SIZE_4K));
        assert_eq!(va.align_down(PAGE_SIZE_4K), VAddr(0x1000));
        assert!(VAddr(0x20_0000).is_aligned(PAGE_SIZE_2M));
        assert_eq!(PageVa4K::new(0x40_0000).unwrap().va(), VAddr(0x40_0000));
        assert!(PageVa4K::new(0x123).is_none());
        assert!(PageVa2M::new(0x1000).is_none(), "4 KiB-aligned, not 2 MiB");
    }

    #[test]
    fn va_range_pages_and_contains() {
        let r = VaRange4K::new(VAddr(0x40_0000), 3).unwrap();
        assert_eq!(r.page(0), r.base());
        assert_eq!(r.page(2).va(), VAddr(0x40_2000));
        assert!(r.contains(VAddr(0x40_1000)));
        assert!(!r.contains(VAddr(0x40_3000)));
        assert!(
            !r.contains(VAddr(0x40_0800)),
            "unaligned addresses are not pages"
        );
        assert!(!r.contains(VAddr(0x3f_f000)));
    }

    #[test]
    fn va_range_rejects_bad_bases() {
        assert!(VaRange4K::new(VAddr(0x123), 1).is_none(), "unaligned");
        assert!(
            VaRange4K::new(VAddr(0x0000_8000_0000_0000), 1).is_none(),
            "non-canonical"
        );
        for base in [0x1000, 0x7fff_ffff_f000, 0xffff_8000_0000_0000] {
            assert!(
                VaRange4K::new(VAddr(base), usize::MAX).is_none(),
                "overflow"
            );
        }
    }

    #[test]
    fn va_range_rejects_a_run_through_the_canonical_hole() {
        // The exclusive end lands in the upper half, but the pages in
        // between are non-canonical.
        assert!(VaRange4K::new(VAddr(0x1000), 0xf_fff7_ffff_ffff).is_none());
        // One page past the lower half.
        assert!(VaRange4K::new(VAddr(0x7fff_ffff_f000), 2).is_none());
    }

    #[test]
    fn va_range_accepts_the_last_page_of_the_lower_half() {
        let r = VaRange4K::new(VAddr(0x7fff_ffff_f000), 1).unwrap();
        assert_eq!(r.page(0).as_usize(), 0x7fff_ffff_f000);
        let whole = VaRange4K::new(VAddr(0x1000), (1 << 35) - 1).unwrap();
        assert_eq!(
            whole.page(whole.page_count() - 1).as_usize(),
            0x7fff_ffff_f000
        );
    }

    #[test]
    fn va_range_in_the_upper_half() {
        let base = VAddr(0xffff_8000_0000_0000);
        let r = VaRange4K::new(base, 2).unwrap();
        assert_eq!(r.page(1).as_usize(), 0xffff_8000_0000_1000);
        assert!(
            VaRange4K::new(VAddr(0xffff_ffff_ffff_e000), 1).is_some(),
            "the last page whose exclusive end is representable"
        );
        assert!(
            VaRange4K::new(VAddr(0xffff_ffff_ffff_f000), 1).is_none(),
            "the exclusive end wraps"
        );
    }

    #[test]
    fn va_range_iterates_in_order() {
        let r = VaRange4K::new(VAddr(0x1000), 2).unwrap();
        let pages: Vec<_> = r.iter().map(PageVa::as_usize).collect();
        assert_eq!(pages, vec![0x1000, 0x2000]);
    }

    #[test]
    fn page_offset() {
        assert_eq!(VAddr(0x1234).page_offset_4k(), 0x234);
    }
}
