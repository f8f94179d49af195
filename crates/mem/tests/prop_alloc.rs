//! Randomized exploration of the page allocator.
//!
//! Drives random sequences of allocator operations and checks after every
//! step that the well-formedness invariant (`PageAllocator::wf`) holds and
//! that no frame is ever lost or duplicated — the dynamic counterpart of
//! the paper's allocator-level safety and leak-freedom proofs (§4.2).
//! Randomness comes from the deterministic in-repo [`XorShift64Star`]
//! generator.
//!
//! The second test pins the allocator's views to references kept here: a
//! free view is its free list walked into a [`Set`], the other views are
//! state scans into a `Set`. Its steps reach every writer of a frame's
//! state, so every update of the three maintained views is compared with
//! a scan; the third test does the same for the 1 GiB split. The verdict
//! of the fused `wf` on corrupted allocators is compared with reference
//! checks in the allocator's own unit tests, which can reach its private
//! state.

use std::collections::BTreeMap;

use atmo_hw::boot::BootInfo;
use atmo_mem::{PageAllocator, PagePermission, PagePtr, PageSet, PageSize, PageState};
use atmo_spec::harness::Invariant;
use atmo_spec::{Set, XorShift64Star};

#[derive(Clone, Copy, Debug)]
enum Op {
    Alloc4K,
    FreeOldest,
    MapBlock(PageSize),
    UnmapOldest,
    ShareOldest,
    Merge2M,
    Merge1G,
}

/// Weighted operation mix: allocation-heavy with occasional merges.
fn random_op(rng: &mut XorShift64Star) -> Op {
    match rng.below(14) {
        0..=3 => Op::Alloc4K,
        4..=6 => Op::FreeOldest,
        7..=8 => Op::MapBlock(match rng.below(3) {
            0 => PageSize::Size4K,
            1 => PageSize::Size2M,
            _ => PageSize::Size1G,
        }),
        9..=10 => Op::UnmapOldest,
        11 => Op::ShareOldest,
        12 => Op::Merge2M,
        _ => Op::Merge1G,
    }
}

/// Every frame of the managed region is accounted for exactly once across
/// the allocator's abstract views (allocator-level leak freedom).
fn frames_partitioned(a: &PageAllocator) -> bool {
    let free_4k = a.free_pages_4k().len();
    // Free superpage heads count 1 in free view + constituents in merged.
    let free_2m = a.free_pages_2m().len();
    let free_1g = a.free_pages_1g().len();
    let allocated = a.allocated_pages().len();
    let mapped_heads = a.mapped_pages().len();
    let merged = a.merged_pages().len();
    free_4k + free_2m + free_1g + allocated + mapped_heads + merged == a.nframes()
}

#[test]
fn allocator_invariants_hold_under_random_ops() {
    for case in 0..24u64 {
        let mut rng = XorShift64Star::new(0x5eed_4001 + case);
        let mut a = PageAllocator::new(&BootInfo::simulated(8, 1, ""));
        let mut held: Vec<PagePermission> = Vec::new();
        let mut mapped: Vec<usize> = Vec::new();

        let nops = rng.range(1, 60);
        for step in 0..nops {
            let op = random_op(&mut rng);
            match op {
                Op::Alloc4K => {
                    if let Ok((_p, perm)) = a.alloc_page_4k() {
                        held.push(perm);
                    }
                }
                Op::FreeOldest => {
                    if !held.is_empty() {
                        let perm = held.remove(0);
                        a.free_page_4k(perm);
                    }
                }
                Op::MapBlock(size) => {
                    if let Ok(p) = a.alloc_mapped(size) {
                        mapped.push(p);
                    }
                }
                Op::UnmapOldest => {
                    if !mapped.is_empty() {
                        let p = mapped.remove(0);
                        // `true` means the block is free again; otherwise a
                        // sharing entry still references it.
                        let _ = a.dec_map_ref(p);
                    }
                }
                Op::ShareOldest => {
                    if let Some(&p) = mapped.first() {
                        a.inc_map_ref(p);
                        mapped.push(p); // a second unmap will drop it
                    }
                }
                Op::Merge2M => {
                    let _ = a.merge_2m();
                }
                Op::Merge1G => {
                    let _ = a.merge_1g();
                }
            }
            // Full wf is O(frames); check it on a sampled cadence and
            // always at the end.
            if step % 7 == 0 {
                assert!(
                    a.wf().is_ok(),
                    "seed {case}: invariant violated after {op:?}: {:?}",
                    a.wf()
                );
                assert!(
                    frames_partitioned(&a),
                    "seed {case}: frames lost or duplicated after {op:?}"
                );
            }
        }

        // Drain everything; the allocator must return to a fully free state.
        for perm in held.drain(..) {
            a.free_page_4k(perm);
        }
        for p in mapped.drain(..) {
            let _ = a.dec_map_ref(p);
        }
        assert!(a.wf().is_ok());
        assert!(a.allocated_pages().is_empty());
        assert!(a.mapped_pages().is_empty());
        assert!(frames_partitioned(&a), "final leak-freedom check");
    }
}

/// The frames whose state satisfies `which`, scanned into a `Set`.
fn scan(a: &PageAllocator, which: impl Fn(PageState) -> bool) -> Set<PagePtr> {
    (0..a.nframes())
        .map(|i| a.base() + i * PageSize::Size4K.bytes())
        .filter(|&p| which(a.page_state(p)))
        .collect()
}

/// The free list of `size` walked into a `Set`; `None` when the walk
/// repeats a page.
fn walk(a: &PageAllocator, size: PageSize) -> Option<Set<PagePtr>> {
    let set: Set<PagePtr> = a.free_list(size).collect();
    (set.len() == a.free_list(size).count()).then_some(set)
}

/// Every view against its reference, and the allocator's set-level
/// membership equation (each free list holds exactly the `Free` frames of
/// its size) checked on the references.
fn assert_views_match(a: &PageAllocator, context: &dyn Fn() -> String) {
    let views = [a.free_pages_4k(), a.free_pages_2m(), a.free_pages_1g()];
    for (size, view) in PageSize::ALL.into_iter().zip(views) {
        let listed =
            walk(a, size).unwrap_or_else(|| panic!("{size:?} list repeats: {}", context()));
        assert_eq!(view, listed, "free {size:?} view vs list: {}", context());
        assert_eq!(
            listed,
            scan(a, |s| s == PageState::Free(size)),
            "free {size:?} list vs states: {}",
            context()
        );
    }
    let allocated = scan(a, |s| s == PageState::Allocated);
    let mapped = scan(a, |s| matches!(s, PageState::Mapped { .. }));
    assert_eq!(a.allocated_pages(), allocated, "{}", context());
    assert_eq!(a.mapped_pages(), mapped, "{}", context());
    assert_eq!(
        a.merged_pages(),
        scan(a, |s| matches!(s, PageState::Merged { .. })),
        "{}",
        context()
    );
    let (free_4k, allocated_view, mapped_view): (PageSet, PageSet, PageSet) =
        a.free_allocated_mapped();
    assert_eq!(free_4k, a.free_pages_4k(), "{}", context());
    assert_eq!(allocated_view, allocated, "{}", context());
    assert_eq!(mapped_view, mapped, "{}", context());
    assert!(a.wf().is_ok(), "{}: {:?}", context(), a.wf());
}

/// The three views the allocator maintains against state scans, without
/// building sets: for a range too large to collect into a `Set` per step.
fn assert_maintained_views_match(a: &PageAllocator, context: &str) {
    let (free_4k, allocated, mapped) = a.free_allocated_mapped();
    type Member = fn(PageState) -> bool;
    let views: [(&str, PageSet, Member); 3] = [
        ("free 4K", free_4k, |s| {
            s == PageState::Free(PageSize::Size4K)
        }),
        ("allocated", allocated, |s| s == PageState::Allocated),
        ("mapped", mapped, |s| matches!(s, PageState::Mapped { .. })),
    ];
    for (name, view, which) in views {
        let scanned = (0..a.nframes())
            .map(|i| a.base() + i * PageSize::Size4K.bytes())
            .filter(|&p| which(a.page_state(p)));
        assert!(view.iter().eq(scanned), "{name} view after {context}");
        assert_eq!(
            view.len(),
            view.iter().count(),
            "{name} view's len after {context}"
        );
    }
}

#[derive(Clone, Copy, Debug)]
enum Step {
    Alloc4K,
    Free4K,
    AllocMapped(PageSize),
    DecMapRef,
    IncMapRef,
    Merge2M,
    Split2M,
    Contiguous2M,
    SplitMapped2M,
    /// `alloc_mapped_batch`; `overflow` asks for one frame more than is
    /// free, so the batch rolls back.
    Batch {
        overflow: bool,
    },
    /// Empties the 4 KiB list, so one more 4 KiB allocation makes
    /// `replenish_4k` split a free 2 MiB block.
    Replenish,
}

fn random_step(rng: &mut XorShift64Star) -> Step {
    match rng.below(20) {
        0..=3 => Step::Alloc4K,
        4..=5 => Step::Free4K,
        6..=7 => Step::AllocMapped(PageSize::Size4K),
        8 => Step::AllocMapped(PageSize::Size2M),
        9..=10 => Step::DecMapRef,
        11 => Step::IncMapRef,
        12 => Step::Merge2M,
        13 => Step::Split2M,
        14 => Step::Contiguous2M,
        15 => Step::SplitMapped2M,
        16 => Step::Batch { overflow: false },
        17 => Step::Batch { overflow: true },
        _ => Step::Replenish,
    }
}

#[test]
fn every_view_equals_its_reference_after_every_step() {
    // How often each step took effect, over all cases.
    let mut took: BTreeMap<String, usize> = BTreeMap::new();
    for case in 0..12u64 {
        let mut rng = XorShift64Star::new(0x5e75_0000 + case);
        let mut a = PageAllocator::new(&BootInfo::simulated(8, 1, ""));
        let mut held: Vec<PagePermission> = Vec::new();
        // Mapped block heads and their size.
        let mut mapped: BTreeMap<PagePtr, PageSize> = BTreeMap::new();
        for i in 0..100 {
            let step = random_step(&mut rng);
            let effective = match step {
                Step::Alloc4K => a.alloc_page_4k().map(|(_, perm)| held.push(perm)).is_ok(),
                Step::Free4K => {
                    let some = !held.is_empty();
                    if some {
                        a.free_page_4k(held.swap_remove(rng.below(held.len())));
                    }
                    some
                }
                Step::AllocMapped(size) => {
                    a.alloc_mapped(size).map(|p| mapped.insert(p, size)).is_ok()
                }
                Step::DecMapRef => {
                    let heads: Vec<PagePtr> = mapped.keys().copied().collect();
                    let some = !heads.is_empty();
                    if some {
                        let p = *rng.choose(&heads);
                        if a.dec_map_ref(p) {
                            mapped.remove(&p);
                        }
                    }
                    some
                }
                Step::IncMapRef => {
                    // Grants share 4 KiB pages only, so a promoted 2 MiB
                    // block stays unshared and `split_mapped_2m` applies.
                    let heads: Vec<PagePtr> = mapped
                        .iter()
                        .filter(|&(_, &size)| size == PageSize::Size4K)
                        .map(|(&p, _)| p)
                        .collect();
                    let some = !heads.is_empty();
                    if some {
                        a.inc_map_ref(*rng.choose(&heads));
                    }
                    some
                }
                Step::Batch { overflow } => {
                    let free = a.free_pages_4k().len()
                        + a.free_pages_2m().len() * PageSize::Size2M.frames();
                    let n = if overflow { free + 1 } else { rng.range(1, 32) };
                    let before = (a.allocated_pages(), a.mapped_pages());
                    match a.alloc_mapped_batch(n) {
                        Ok(frames) => {
                            mapped.extend(frames.into_iter().map(|p| (p, PageSize::Size4K)));
                            !overflow
                        }
                        Err(_) => {
                            // The rollback frees every frame the batch took,
                            // but not the 2 MiB blocks it split on the way.
                            assert_eq!((a.allocated_pages(), a.mapped_pages()), before);
                            assert_eq!(a.free_pages_4k().len(), free);
                            overflow
                        }
                    }
                }
                Step::Replenish => {
                    while a.merge_2m() {}
                    let mut drained = Vec::new();
                    while !a.free_pages_4k().is_empty() {
                        drained.push(a.alloc_page_4k().expect("the list is not empty").1);
                    }
                    let blocks = a.free_pages_2m().len();
                    let split = match a.alloc_page_4k() {
                        Ok((_, perm)) => {
                            held.push(perm);
                            assert_eq!(a.free_pages_2m().len(), blocks - 1);
                            assert_views_match(&a, &|| format!("seed {case}, step {i}, split"));
                            true
                        }
                        Err(_) => false,
                    };
                    for perm in drained {
                        a.free_page_4k(perm);
                    }
                    split
                }
                Step::Merge2M => a.merge_2m(),
                Step::Split2M => a
                    .free_pages_2m()
                    .choose()
                    .map(|head| a.split_2m(head))
                    .is_some(),
                Step::Contiguous2M => a
                    .try_alloc_contiguous_2m()
                    .map(|p| mapped.insert(p, PageSize::Size2M))
                    .is_some(),
                Step::SplitMapped2M => {
                    let head = mapped
                        .iter()
                        .find(|&(_, &size)| size == PageSize::Size2M)
                        .map(|(&p, _)| p);
                    if let Some(head) = head {
                        a.split_mapped_2m(head);
                        for k in 0..PageSize::Size2M.frames() {
                            mapped.insert(head + k * PageSize::Size4K.bytes(), PageSize::Size4K);
                        }
                    }
                    head.is_some()
                }
            };
            *took.entry(format!("{step:?}")).or_default() += usize::from(effective);
            assert_views_match(&a, &|| format!("seed {case}, step {i} ({step:?})"));
        }
    }
    assert_eq!(took.len(), 13, "every step was drawn: {took:?}");
    assert!(
        took.values().all(|&n| n > 0),
        "every step took effect: {took:?}"
    );
}

/// `replenish_4k`'s whole path, on a range that holds a 1 GiB block: with
/// the 4 KiB list and every free 2 MiB block used up, one 4 KiB
/// allocation splits the 1 GiB block (`split_1g`) and then one of its
/// 2 MiB blocks (`split_2m`).
#[test]
fn a_4k_allocation_splits_1g_then_2m_and_the_views_follow() {
    // Frames [2 MiB, 2 GiB): the gigabyte from 1 GiB up is aligned.
    let mut a = PageAllocator::new(&BootInfo::simulated(2046, 1, ""));
    assert!(a.merge_1g());
    assert_maintained_views_match(&a, "merge_1g");
    assert_eq!(a.free_pages_1g().len(), 1);
    let blocks = a.free_pages_2m().len();
    assert_eq!(blocks, 511);
    let mut mapped = Vec::new();
    for _ in 0..blocks {
        mapped.push(
            a.alloc_mapped(PageSize::Size2M)
                .expect("a free 2 MiB block"),
        );
    }
    assert_maintained_views_match(&a, "mapping every free 2 MiB block");
    assert!(a.free_pages_4k().is_empty() && a.free_pages_2m().is_empty());

    let (p, perm) = a.alloc_page_4k().expect("the 1 GiB block splits");
    assert_maintained_views_match(&a, "the splitting allocation");
    assert!(a.free_pages_1g().is_empty());
    assert_eq!(a.free_pages_2m().len(), 511);
    assert_eq!(a.free_pages_4k().len(), 511);
    assert_eq!(a.allocated_pages().iter().collect::<Vec<_>>(), vec![p]);
    assert!(a.wf().is_ok(), "{:?}", a.wf());

    a.free_page_4k(perm);
    for head in mapped {
        assert!(a.dec_map_ref(head));
    }
    assert_maintained_views_match(&a, "freeing everything");
    assert!(a.allocated_pages().is_empty() && a.mapped_pages().is_empty());
    assert!(a.wf().is_ok(), "{:?}", a.wf());
}
