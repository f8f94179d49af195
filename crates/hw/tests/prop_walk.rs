//! Randomized check of the trusted MMU specification: for randomly
//! generated table hierarchies, the exhaustive enumeration and the
//! pointwise 4-level walk agree exactly — `enumerate_mappings` finds all
//! and only the addresses `walk_4level` resolves — and the walk-cached
//! range query `first_mapped` finds the first page the pointwise walk
//! resolves. Randomness comes from the deterministic in-repo
//! [`XorShift64Star`] generator.

use atmo_hw::addr::{index2va, PAddr, PageVa, VAddr, VaRange4K, ENTRIES_PER_TABLE, PAGE_SIZE_4K};
use atmo_hw::paging::{
    enumerate_mappings, first_mapped, walk_4level, EntryFlags, PageEntry, PhysFrameSource,
};
use atmo_spec::XorShift64Star;
use std::cell::Cell;
use std::collections::BTreeMap;

#[derive(Default)]
struct ToyMem {
    tables: BTreeMap<usize, [u64; ENTRIES_PER_TABLE]>,
}

impl PhysFrameSource for ToyMem {
    fn read_table(&self, frame: PAddr) -> Option<&[u64; ENTRIES_PER_TABLE]> {
        self.tables.get(&frame.as_usize())
    }
}

/// A mapping request: indices at each level plus the kind of leaf.
#[derive(Clone, Debug)]
struct Entry {
    l4: usize,
    l3: usize,
    l2: usize,
    l1: usize,
    size: u8, // 0 = 4K, 1 = 2M, 2 = 1G
    writable: bool,
}

fn random_entry(rng: &mut XorShift64Star) -> Entry {
    Entry {
        l4: rng.below(8),
        l3: rng.below(8),
        l2: rng.below(8),
        l1: rng.below(8),
        size: rng.below(3) as u8,
        writable: rng.chance(1, 2),
    }
}

/// Builds a table hierarchy from the requests (first-writer-wins per
/// slot), returning the root.
fn build(mem: &mut ToyMem, entries: &[Entry]) -> PAddr {
    let root = 0x1000usize;
    let mut next_frame = 0x2000usize;
    mem.tables.entry(root).or_insert([0; ENTRIES_PER_TABLE]);

    for e in entries {
        let flags = EntryFlags {
            present: true,
            writable: e.writable,
            user: true,
            huge: false,
            no_execute: false,
        };
        let huge = EntryFlags {
            huge: true,
            ..flags
        };
        let leaf_frame = |f: usize, align: usize| f & !(align - 1);

        // L4 slot.
        let l4e = PageEntry(mem.tables[&root][e.l4]);
        let l3_frame = if l4e.is_present() {
            l4e.frame().as_usize()
        } else {
            let f = next_frame;
            next_frame += 0x1000;
            mem.tables.insert(f, [0; ENTRIES_PER_TABLE]);
            mem.tables.get_mut(&root).unwrap()[e.l4] = PageEntry::encode(PAddr::new(f), flags).0;
            f
        };
        // 1 GiB leaf at L3.
        if e.size == 2 {
            let slot = &mut mem.tables.get_mut(&l3_frame).unwrap()[e.l3];
            if *slot == 0 {
                *slot = PageEntry::encode(
                    PAddr::new(leaf_frame(0x40_0000_0000 + e.l3 * (1 << 30), 1 << 30)),
                    huge,
                )
                .0;
            }
            continue;
        }
        let l3e = PageEntry(mem.tables[&l3_frame][e.l3]);
        if l3e.is_present() && l3e.is_huge() {
            continue; // occupied by a superpage
        }
        let l2_frame = if l3e.is_present() {
            l3e.frame().as_usize()
        } else {
            let f = next_frame;
            next_frame += 0x1000;
            mem.tables.insert(f, [0; ENTRIES_PER_TABLE]);
            mem.tables.get_mut(&l3_frame).unwrap()[e.l3] =
                PageEntry::encode(PAddr::new(f), flags).0;
            f
        };
        // 2 MiB leaf at L2.
        if e.size == 1 {
            let slot = &mut mem.tables.get_mut(&l2_frame).unwrap()[e.l2];
            if *slot == 0 {
                *slot = PageEntry::encode(
                    PAddr::new(leaf_frame(0x8000_0000 + e.l2 * (2 << 20), 2 << 20)),
                    huge,
                )
                .0;
            }
            continue;
        }
        let l2e = PageEntry(mem.tables[&l2_frame][e.l2]);
        if l2e.is_present() && l2e.is_huge() {
            continue;
        }
        let l1_frame = if l2e.is_present() {
            l2e.frame().as_usize()
        } else {
            let f = next_frame;
            next_frame += 0x1000;
            mem.tables.insert(f, [0; ENTRIES_PER_TABLE]);
            mem.tables.get_mut(&l2_frame).unwrap()[e.l2] =
                PageEntry::encode(PAddr::new(f), flags).0;
            f
        };
        let slot = &mut mem.tables.get_mut(&l1_frame).unwrap()[e.l1];
        if *slot == 0 {
            *slot = PageEntry::encode(PAddr::new(0x10_0000 + next_frame), flags).0;
            next_frame += 0x1000;
        }
    }
    PAddr::new(root)
}

/// The `case`-th seeded hierarchy: its generator (positioned after the
/// requests), the requests, the memory and the root.
fn hierarchy(case: u64) -> (XorShift64Star, Vec<Entry>, ToyMem, PAddr) {
    let mut rng = XorShift64Star::new(0x5eed_6001 + case);
    let n = rng.range(1, 24);
    let entries: Vec<Entry> = (0..n).map(|_| random_entry(&mut rng)).collect();
    let mut mem = ToyMem::default();
    let root = build(&mut mem, &entries);
    (rng, entries, mem, root)
}

#[test]
fn enumeration_agrees_with_pointwise_walks() {
    for case in 0..48u64 {
        let (_, entries, mem, root) = hierarchy(case);
        let all = enumerate_mappings(&mem, root);

        // Direction 1: every enumerated mapping resolves identically.
        for (va, resolved) in &all {
            assert_eq!(walk_4level(&mem, root, *va), Some(*resolved), "seed {case}");
        }
        // Direction 2: every requested slot that resolves is enumerated.
        for e in &entries {
            let va = index2va(e.l4, e.l3, e.l2, e.l1);
            if let Some(r) = walk_4level(&mem, root, va) {
                // The enumeration reports the mapping at its leaf-aligned
                // base address.
                let base = VAddr(va.as_usize() & !(r.size - 1));
                assert!(
                    all.iter().any(|(v, m)| *v == base && *m == r),
                    "seed {case}: missing {va:?} (base {base:?})"
                );
            }
        }
        // No duplicates in the enumeration.
        let mut seen = std::collections::BTreeSet::new();
        for (va, _) in &all {
            assert!(seen.insert(va.as_usize()), "seed {case}: duplicate {va:?}");
        }
    }
}

/// Counts the tables the walk reads.
struct Counting<'a> {
    mem: &'a ToyMem,
    reads: Cell<usize>,
}

impl PhysFrameSource for Counting<'_> {
    fn read_table(&self, frame: PAddr) -> Option<&[u64; ENTRIES_PER_TABLE]> {
        self.reads.set(self.reads.get() + 1);
        self.mem.read_table(frame)
    }
}

/// A frame no table lives at.
const UNREADABLE: usize = 0xdead_d000;

/// Points the first absent slot among indices `0..8` of some table at
/// `level` (0 = root, 1 = an L3 table, 2 = an L2 table) at a frame
/// `read_table` cannot read.
fn plant_unreadable(mem: &mut ToyMem, root: PAddr, level: u64) {
    let flags = EntryFlags::user_rw();
    let mut table = root.as_usize();
    for _ in 0..level {
        let next = mem.tables[&table][..8]
            .iter()
            .map(|e| PageEntry(*e))
            .find(|e| e.is_present() && !e.is_huge())
            .map(|e| e.frame().as_usize());
        match next {
            Some(f) => table = f,
            None => break,
        }
    }
    if let Some(slot) = mem.tables.get_mut(&table).unwrap()[..8]
        .iter_mut()
        .find(|e| **e == 0)
    {
        *slot = PageEntry::encode(PAddr::new(UNREADABLE), flags).0;
    }
}

/// Windows over the hierarchy: starting inside each leaf, ending inside
/// each leaf, straddling L1-, L2- and L3-table boundaries, and sweeping
/// whole L2 tables of the populated region.
fn windows(rng: &mut XorShift64Star, leaves: &[(VAddr, usize)]) -> Vec<VaRange4K> {
    let mut out = Vec::new();
    let mut push = |base: usize, len: usize| out.extend(VaRange4K::new(VAddr(base), len));
    for &(va, size) in leaves {
        let base = va.as_usize();
        let pages = size / PAGE_SIZE_4K;
        push(base + rng.below(pages) * PAGE_SIZE_4K, rng.range(1, 64));
        let before = rng.range(1, 64);
        if let Some(start) = base.checked_sub(before * PAGE_SIZE_4K) {
            push(start, before + rng.range(1, 4));
        }
    }
    for _ in 0..8 {
        let (l4, l3, l2) = (rng.below(9), rng.below(9), rng.below(9));
        let k = rng.range(1, 4);
        for start in [
            index2va(l4, l3, l2, 512 - k),
            index2va(l4, l3, 511, 512 - k),
            index2va(l4, 511, 511, 512 - k),
        ] {
            push(start.as_usize(), 2 * k);
        }
    }
    for _ in 0..3 {
        let (l4, l3) = (rng.below(9), rng.below(9));
        push(index2va(l4, l3, 0, 0).as_usize(), 9 * ENTRIES_PER_TABLE);
    }
    out
}

#[test]
fn first_mapped_agrees_with_pointwise_walks() {
    for case in 0..48u64 {
        let (mut rng, _, mut mem, root) = hierarchy(case);
        plant_unreadable(&mut mem, root, case % 3);
        let leaves: Vec<(VAddr, usize)> = enumerate_mappings(&mem, root)
            .into_iter()
            .map(|(va, r)| (va, r.size))
            .collect();
        for w in windows(&mut rng, &leaves) {
            let expected = w.iter().find(|v| walk_4level(&mem, root, v.va()).is_some());
            let counting = Counting {
                mem: &mem,
                reads: Cell::new(0),
            };
            assert_eq!(
                first_mapped(&counting, root, w),
                expected.map(PageVa::va),
                "seed {case}, window {w:?}"
            );
            // One L1-table run per 2 MiB region the window meets.
            let last = w.page(w.page_count() - 1);
            let runs = ((last.as_usize() >> 21) - (w.base().as_usize() >> 21)) + 1;
            assert!(
                counting.reads.get() <= 4 * runs,
                "seed {case}, window {w:?}: {} reads for {runs} runs",
                counting.reads.get()
            );
        }
    }
}
