//! The page-table refinement theorem, executable.
//!
//! §6.2 of the paper: "in mappings of 4KiB pages, we use four-level spec
//! functions to simulate the address resolution of the MMU and prove that
//! the `mapping_4k()` matches what the MMU will theoretically see". The
//! two `forall` statements of the paper become [`refinement_wf`]:
//!
//! 1. **domain equality** — a virtual address is in the abstract mapping
//!    iff the MMU walk resolves it (per page size);
//! 2. **value equality** — for every mapped address, the resolved frame
//!    and permissions equal the abstract entry.
//!
//! The combined `address_space()` view is built from the three maps, so
//! these clauses are the whole relation.
//!
//! Instead of quantifying over all 512⁴ index tuples, the executable check
//! enumerates the concrete tables (`enumerate_mappings`, the exhaustive
//! MMU view) and compares both directions — equivalent, and exact.
//!
//! [`step_preserves_other_mappings`] is the "most complicated part of the
//! proof" (§6.2): after any update step, the resolution of every *other*
//! virtual address is unchanged. With flat per-level permissions this is a
//! direct set comparison (the paper needs ~30 lines of proof; NrOS' nested
//! design needed ~200 of manual unrolling).

use atmo_hw::addr::{PAddr, VAddr, PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K};
use atmo_hw::paging::{enumerate_mappings, walk_4level};
use atmo_spec::harness::{check, VerifResult};
use atmo_spec::Map;

use crate::table::{MapEntry, PageTable};

/// Checks the full refinement relation between `pt`'s ghost maps and the
/// hardware MMU view of its concrete tables.
pub fn refinement_wf(pt: &PageTable) -> VerifResult {
    let hw = enumerate_mappings(pt, PAddr::new(pt.cr3));

    let mut hw_4k: Map<usize, MapEntry> = Map::empty();
    let mut hw_2m: Map<usize, MapEntry> = Map::empty();
    let mut hw_1g: Map<usize, MapEntry> = Map::empty();
    for (va, r) in &hw {
        let entry = MapEntry {
            frame: r.frame.as_usize(),
            flags: r.flags,
        };
        match r.size {
            PAGE_SIZE_4K => hw_4k.insert_mut(va.as_usize(), entry),
            PAGE_SIZE_2M => hw_2m.insert_mut(va.as_usize(), entry),
            PAGE_SIZE_1G => hw_1g.insert_mut(va.as_usize(), entry),
            _ => unreachable!("MMU resolves only the three architectural sizes"),
        }
    }

    // Direction 1 (paper's first forall): domains agree.
    check(
        pt.map_4k.dom() == hw_4k.dom(),
        "pt_refinement",
        "abstract 4K domain differs from MMU view",
    )?;
    check(
        pt.map_2m.dom() == hw_2m.dom(),
        "pt_refinement",
        "abstract 2M domain differs from MMU view",
    )?;
    check(
        pt.map_1g.dom() == hw_1g.dom(),
        "pt_refinement",
        "abstract 1G domain differs from MMU view",
    )?;

    // Direction 2 (paper's second forall): values agree.
    check(
        *pt.map_4k.view() == hw_4k,
        "pt_refinement",
        "abstract 4K entries differ from MMU resolution",
    )?;
    check(
        *pt.map_2m.view() == hw_2m,
        "pt_refinement",
        "abstract 2M entries differ from MMU resolution",
    )?;
    check(
        *pt.map_1g.view() == hw_1g,
        "pt_refinement",
        "abstract 1G entries differ from MMU resolution",
    )
}

/// Checks step consistency (§4.2): between `before` (the MMU view captured
/// before an update step) and the current state of `pt`, the resolution of
/// every virtual address other than `touched` is unchanged, and at most
/// `touched` changed. For non-leaf steps pass `touched = None`: the views
/// must be identical.
pub fn step_preserves_other_mappings(
    before: &[(VAddr, atmo_hw::paging::ResolvedMapping)],
    pt: &PageTable,
    touched: Option<VAddr>,
) -> VerifResult {
    let after = enumerate_mappings(pt, PAddr::new(pt.cr3));

    // Every pre-existing mapping other than `touched` is still resolved
    // identically.
    for (va, r) in before {
        if Some(*va) == touched {
            continue;
        }
        check(
            walk_4level(pt, PAddr::new(pt.cr3), *va) == Some(*r),
            "pt_step",
            format_args!("mapping at {va:?} changed by an unrelated step"),
        )?;
    }
    // No new mapping other than `touched` appeared.
    for (va, _) in &after {
        if Some(*va) == touched {
            continue;
        }
        check(
            before.iter().any(|(b, _)| b == va),
            "pt_step",
            format_args!("unexpected new mapping at {va:?}"),
        )?;
    }
    // The step changed at most one entry overall.
    let delta = after.len().abs_diff(before.len());
    check(
        delta <= 1,
        "pt_step",
        format_args!("step changed {delta} leaf mappings"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_hw::boot::BootInfo;
    use atmo_hw::paging::EntryFlags;
    use atmo_hw::PageVa;
    use atmo_mem::{PageAllocator, PageSize};

    fn setup() -> (PageAllocator, PageTable) {
        let mut alloc = PageAllocator::new(&BootInfo::simulated(16, 1, ""));
        let pt = PageTable::new(&mut alloc).unwrap();
        (alloc, pt)
    }

    fn page<const SIZE: usize>(va: usize) -> PageVa<SIZE> {
        PageVa::new(va).unwrap()
    }

    #[test]
    fn refinement_holds_through_map_unmap_sequence() {
        let (mut a, mut pt) = setup();
        assert!(refinement_wf(&pt).is_ok());
        let mut mapped = Vec::new();
        for i in 0..24usize {
            let f = a.alloc_mapped(PageSize::Size4K).unwrap();
            let va = page(0x40_0000 + i * 0x1000 * 7); // scatter across L1 slots
            pt.map_4k_page(&mut a, va, f, EntryFlags::user_rw())
                .unwrap();
            mapped.push((va, f));
            assert!(refinement_wf(&pt).is_ok(), "after map {i}");
        }
        for (va, _f) in mapped.iter().take(12) {
            pt.unmap_4k_page(*va).unwrap();
            assert!(refinement_wf(&pt).is_ok());
        }
    }

    #[test]
    fn refinement_holds_with_mixed_sizes() {
        let (mut a, mut pt) = setup();
        let f4 = a.alloc_mapped(PageSize::Size4K).unwrap();
        let f2m = a.alloc_mapped(PageSize::Size2M).unwrap();
        pt.map_4k_page(&mut a, page(0x40_0000), f4, EntryFlags::user_rw())
            .unwrap();
        pt.map_2m_page(&mut a, page(0x4000_0000), f2m, EntryFlags::user_ro())
            .unwrap();
        pt.map_1g_page(
            &mut a,
            page(0x80_0000_0000),
            0x4000_0000,
            EntryFlags::user_rw(),
        )
        .unwrap();
        assert!(refinement_wf(&pt).is_ok());
    }

    #[test]
    fn stepwise_map_audits_each_hardware_step() {
        // §4.2: non-leaf steps leave the address space unchanged; the leaf
        // step changes exactly one entry. Drive the steps individually.
        let (mut a, mut pt) = setup();
        let f_pre = a.alloc_mapped(PageSize::Size4K).unwrap();
        pt.map_4k_page(&mut a, page(0x13_0000_0000), f_pre, EntryFlags::user_rw())
            .unwrap();

        let va = page(0x40_0000);
        let frame = a.alloc_mapped(PageSize::Size4K).unwrap();

        let snap0 = enumerate_mappings(&pt, PAddr::new(pt.cr3));
        let l3 = pt.ensure_l3(&mut a, va.va()).unwrap();
        assert!(step_preserves_other_mappings(&snap0, &pt, None).is_ok());

        let snap1 = enumerate_mappings(&pt, PAddr::new(pt.cr3));
        let l2 = pt.ensure_l2(&mut a, l3, va.va()).unwrap();
        assert!(step_preserves_other_mappings(&snap1, &pt, None).is_ok());

        let snap2 = enumerate_mappings(&pt, PAddr::new(pt.cr3));
        let l1 = pt.ensure_l1(&mut a, l2, va.va()).unwrap();
        assert!(step_preserves_other_mappings(&snap2, &pt, None).is_ok());

        let snap3 = enumerate_mappings(&pt, PAddr::new(pt.cr3));
        pt.write_leaf_4k(l1, va, frame, EntryFlags::user_rw())
            .unwrap();
        assert!(step_preserves_other_mappings(&snap3, &pt, Some(va.va())).is_ok());
        assert_eq!(
            enumerate_mappings(&pt, PAddr::new(pt.cr3)).len(),
            snap3.len() + 1
        );
        assert!(refinement_wf(&pt).is_ok());
    }

    #[test]
    fn superpage_map_is_a_single_leaf_step() {
        // §4.2 step consistency also covers superpage leaves: the 2 MiB
        // map changes exactly one entry; the unmap removes exactly it.
        let (mut a, mut pt) = setup();
        let f4 = a.alloc_mapped(PageSize::Size4K).unwrap();
        pt.map_4k_page(&mut a, page(0x40_0000), f4, EntryFlags::user_rw())
            .unwrap();

        let f2m = a.alloc_mapped(PageSize::Size2M).unwrap();
        let va = page(0x4000_0000);
        let snap = enumerate_mappings(&pt, PAddr::new(pt.cr3));
        pt.map_2m_page(&mut a, va, f2m, EntryFlags::user_rw())
            .unwrap();
        assert!(step_preserves_other_mappings(&snap, &pt, Some(va.va())).is_ok());
        assert!(refinement_wf(&pt).is_ok());

        let snap = enumerate_mappings(&pt, PAddr::new(pt.cr3));
        pt.unmap_2m_page(va).unwrap();
        assert!(step_preserves_other_mappings(&snap, &pt, Some(va.va())).is_ok());
        assert!(refinement_wf(&pt).is_ok());
        a.dec_map_ref(f2m);
        a.dec_map_ref(f4);
    }

    #[test]
    fn step_checker_catches_collateral_damage() {
        // Sanity-check the checker itself: unmapping a *different* address
        // is collateral damage a single-step audit must reject.
        let (mut a, mut pt) = setup();
        let f1 = a.alloc_mapped(PageSize::Size4K).unwrap();
        let f2 = a.alloc_mapped(PageSize::Size4K).unwrap();
        let va1 = page(0x40_0000);
        let va2 = page(0x50_0000);
        pt.map_4k_page(&mut a, va1, f1, EntryFlags::user_rw())
            .unwrap();
        pt.map_4k_page(&mut a, va2, f2, EntryFlags::user_rw())
            .unwrap();

        let snap = enumerate_mappings(&pt, PAddr::new(pt.cr3));
        pt.unmap_4k_page(va2).unwrap();
        // Claiming the step touched va1 must fail: va2 changed.
        assert!(step_preserves_other_mappings(&snap, &pt, Some(va1.va())).is_err());
        // Correctly attributing the step to va2 passes.
        assert!(step_preserves_other_mappings(&snap, &pt, Some(va2.va())).is_ok());
    }
}
