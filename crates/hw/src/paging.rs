//! Hardware page-table entry format and MMU walk semantics.
//!
//! This module is the *trusted hardware specification*: the page-table
//! refinement theorem (§4.2, §6.2 of the paper) states that for every entry
//! in the abstract mapping, "if the MMU does a page table walk, the
//! resolved physical address and access permission are equal to the value
//! in the map". [`walk_4level`] is that MMU, implemented bit-exactly over
//! 512-entry tables of 64-bit entries in simulated physical memory.
//!
//! The entry format follows x86-64: bit 0 present, bit 1 writable, bit 2
//! user-accessible, bit 7 huge page (PS, at L3/L2), bit 63 execute-disable,
//! bits 51..12 the physical frame address.

use crate::addr::{
    index2va, PAddr, VAddr, VaRange4K, ENTRIES_PER_TABLE, PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K,
};

/// Access-permission bits of a page-table entry (the paper's
/// `MapEntryPerm`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntryFlags {
    /// Entry translates (bit 0).
    pub present: bool,
    /// Writes permitted (bit 1).
    pub writable: bool,
    /// User-mode access permitted (bit 2).
    pub user: bool,
    /// Maps a superpage at this level (bit 7; meaningful at L3/L2).
    pub huge: bool,
    /// Instruction fetch forbidden (bit 63).
    pub no_execute: bool,
}

impl EntryFlags {
    /// Flags for an absent entry.
    pub const fn absent() -> Self {
        EntryFlags {
            present: false,
            writable: false,
            user: false,
            huge: false,
            no_execute: false,
        }
    }

    /// Present, user-accessible, writable, executable leaf flags — the
    /// default for `mmap`ed pages.
    pub const fn user_rw() -> Self {
        EntryFlags {
            present: true,
            writable: true,
            user: true,
            huge: false,
            no_execute: false,
        }
    }

    /// Present, user-accessible, read-only flags.
    pub const fn user_ro() -> Self {
        EntryFlags {
            present: true,
            writable: false,
            user: true,
            huge: false,
            no_execute: false,
        }
    }
}

/// A raw 64-bit page-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PageEntry(pub u64);

const BIT_PRESENT: u64 = 1 << 0;
const BIT_WRITABLE: u64 = 1 << 1;
const BIT_USER: u64 = 1 << 2;
const BIT_HUGE: u64 = 1 << 7;
const BIT_NX: u64 = 1 << 63;
const ADDR_MASK: u64 = 0x000f_ffff_ffff_f000;

impl PageEntry {
    /// The zero (absent) entry.
    pub const fn zero() -> Self {
        PageEntry(0)
    }

    /// Encodes an entry from a frame address and flags.
    ///
    /// # Panics
    ///
    /// Panics when `frame` has bits outside the addressable mask (it must
    /// be 4 KiB aligned and below 2^52).
    pub fn encode(frame: PAddr, flags: EntryFlags) -> Self {
        let addr = frame.as_usize() as u64;
        assert_eq!(
            addr & !ADDR_MASK,
            0,
            "frame address not encodable: {addr:#x}"
        );
        let mut bits = addr;
        if flags.present {
            bits |= BIT_PRESENT;
        }
        if flags.writable {
            bits |= BIT_WRITABLE;
        }
        if flags.user {
            bits |= BIT_USER;
        }
        if flags.huge {
            bits |= BIT_HUGE;
        }
        if flags.no_execute {
            bits |= BIT_NX;
        }
        PageEntry(bits)
    }

    /// `true` when the present bit is set.
    pub fn is_present(self) -> bool {
        self.0 & BIT_PRESENT != 0
    }

    /// `true` when the huge (PS) bit is set.
    pub fn is_huge(self) -> bool {
        self.0 & BIT_HUGE != 0
    }

    /// Decodes the frame address.
    pub fn frame(self) -> PAddr {
        PAddr::new((self.0 & ADDR_MASK) as usize)
    }

    /// Decodes the permission flags.
    pub fn flags(self) -> EntryFlags {
        EntryFlags {
            present: self.0 & BIT_PRESENT != 0,
            writable: self.0 & BIT_WRITABLE != 0,
            user: self.0 & BIT_USER != 0,
            huge: self.0 & BIT_HUGE != 0,
            no_execute: self.0 & BIT_NX != 0,
        }
    }
}

/// Source of physical page-table frames for the MMU walk.
///
/// The MMU reads physical memory; the page-table implementation provides
/// this view of its frames. Returning `None` for a frame the walk touches
/// models a machine check (the refinement harness treats it as a failure).
///
/// The walk *borrows* each table, as Verus code reads through a
/// `PointsTo` (`PPtr::borrow` yields `&T`): entries are read in place and
/// no frame is ever copied.
pub trait PhysFrameSource {
    /// Borrows the 512-entry table stored at physical address `frame`.
    fn read_table(&self, frame: PAddr) -> Option<&[u64; ENTRIES_PER_TABLE]>;
}

/// The result of a successful MMU translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolvedMapping {
    /// Physical address of the mapped frame (page-size aligned).
    pub frame: PAddr,
    /// Size of the mapping in bytes (4 KiB, 2 MiB or 1 GiB).
    pub size: usize,
    /// Effective leaf permissions.
    pub flags: EntryFlags,
}

/// Performs the hardware 4-level page walk for `va` starting at the root
/// table (CR3) `root`.
///
/// Returns `None` when the translation faults (absent entry at any level or
/// unreadable frame). Superpages terminate the walk at L3 (1 GiB) or L2
/// (2 MiB) exactly as the silicon does. Each level's table is borrowed
/// from `mem` and read in place.
pub fn walk_4level(mem: &impl PhysFrameSource, root: PAddr, va: VAddr) -> Option<ResolvedMapping> {
    let l4 = mem.read_table(root)?;
    let l4e = PageEntry(l4[va.l4_index()]);
    if !l4e.is_present() {
        return None;
    }

    let l3 = mem.read_table(l4e.frame())?;
    let l3e = PageEntry(l3[va.l3_index()]);
    if !l3e.is_present() {
        return None;
    }
    if l3e.is_huge() {
        return Some(ResolvedMapping {
            frame: l3e.frame(),
            size: PAGE_SIZE_1G,
            flags: l3e.flags(),
        });
    }

    let l2 = mem.read_table(l3e.frame())?;
    let l2e = PageEntry(l2[va.l2_index()]);
    if !l2e.is_present() {
        return None;
    }
    if l2e.is_huge() {
        return Some(ResolvedMapping {
            frame: l2e.frame(),
            size: PAGE_SIZE_2M,
            flags: l2e.flags(),
        });
    }

    let l1 = mem.read_table(l2e.frame())?;
    let l1e = PageEntry(l1[va.l1_index()]);
    if !l1e.is_present() {
        return None;
    }
    Some(ResolvedMapping {
        frame: l1e.frame(),
        size: PAGE_SIZE_4K,
        flags: l1e.flags(),
    })
}

/// One 512-entry table as the walk borrows it.
type Table = [u64; ENTRIES_PER_TABLE];

/// Where [`first_mapped`]'s descent for one page ended.
enum Descent<'a> {
    /// A present L3 or L2 superpage leaf covers the page.
    Leaf,
    /// The page's L1 table.
    L1(&'a Table),
    /// Absent entry or unreadable table: every page of the enclosing
    /// region of this many bytes faults.
    Hole(usize),
}

/// The table a present non-leaf entry points at; `None` when the entry
/// is absent or its frame unreadable.
fn next_table(mem: &impl PhysFrameSource, e: PageEntry) -> Option<&Table> {
    if e.is_present() {
        mem.read_table(e.frame())
    } else {
        None
    }
}

/// Walks `va` from the root table `l4` down to its L1 table, stopping
/// early at a superpage leaf or a hole.
fn descend<'a>(mem: &'a impl PhysFrameSource, l4: &Table, va: VAddr) -> Descent<'a> {
    let l4e = PageEntry(l4[va.l4_index()]);
    let Some(l3) = next_table(mem, l4e) else {
        return Descent::Hole(ENTRIES_PER_TABLE * PAGE_SIZE_1G);
    };
    let l3e = PageEntry(l3[va.l3_index()]);
    if l3e.is_present() && l3e.is_huge() {
        return Descent::Leaf;
    }
    let Some(l2) = next_table(mem, l3e) else {
        return Descent::Hole(PAGE_SIZE_1G);
    };
    let l2e = PageEntry(l2[va.l2_index()]);
    if l2e.is_present() && l2e.is_huge() {
        return Descent::Leaf;
    }
    match next_table(mem, l2e) {
        Some(l1) => Descent::L1(l1),
        None => Descent::Hole(PAGE_SIZE_2M),
    }
}

/// The first page of `range` that [`walk_4level`] resolves, at any page
/// size; `None` when every page faults.
///
/// Equal to trying `walk_4level` on each page in order, but the L4→L1
/// chain is walked once per L1-table run (the walk cache the batched map
/// path uses): the root is read once, each run costs at most three more
/// table reads however long it is, and an absent or unreadable entry
/// skips the whole region it covers.
pub fn first_mapped(mem: &impl PhysFrameSource, root: PAddr, range: VaRange4K) -> Option<VAddr> {
    let l4 = mem.read_table(root)?;
    // (l4, l3, l2 index triple) → the L1 table of the current run.
    let mut cache: Option<((usize, usize, usize), &Table)> = None;
    let mut i = 0;
    while i < range.page_count() {
        let va = range.page(i).va();
        let key = (va.l4_index(), va.l3_index(), va.l2_index());
        let l1 = match cache {
            Some((k, l1)) if k == key => l1,
            _ => match descend(mem, l4, va) {
                Descent::Leaf => return Some(va),
                Descent::L1(l1) => l1,
                Descent::Hole(bytes) => {
                    let rest = bytes - (va.as_usize() & (bytes - 1));
                    i = i.saturating_add(rest / PAGE_SIZE_4K);
                    continue;
                }
            },
        };
        if PageEntry(l1[va.l1_index()]).is_present() {
            return Some(va);
        }
        cache = Some((key, l1));
        i += 1;
    }
    None
}

/// Enumerates every 4 KiB-mapped virtual page reachable from `root`,
/// exactly as exhaustive MMU walks would see them.
///
/// Used by the refinement harness to compare the hardware view against the
/// abstract mapping over the *whole* domain, not just sampled addresses.
/// Superpage leaves are reported once with their size.
// Index variables deliberately mirror the architecture's PML level names
// (l4i..l1i), as in the paper's listings; iterator rewrites would obscure
// the hardware correspondence.
#[allow(clippy::needless_range_loop)]
pub fn enumerate_mappings(
    mem: &impl PhysFrameSource,
    root: PAddr,
) -> Vec<(VAddr, ResolvedMapping)> {
    let mut out = Vec::new();
    let Some(l4) = mem.read_table(root) else {
        return out;
    };
    for l4i in 0..ENTRIES_PER_TABLE {
        let l4e = PageEntry(l4[l4i]);
        if !l4e.is_present() {
            continue;
        }
        let Some(l3) = mem.read_table(l4e.frame()) else {
            continue;
        };
        for l3i in 0..ENTRIES_PER_TABLE {
            let l3e = PageEntry(l3[l3i]);
            if !l3e.is_present() {
                continue;
            }
            if l3e.is_huge() {
                out.push((
                    index2va(l4i, l3i, 0, 0),
                    ResolvedMapping {
                        frame: l3e.frame(),
                        size: PAGE_SIZE_1G,
                        flags: l3e.flags(),
                    },
                ));
                continue;
            }
            let Some(l2) = mem.read_table(l3e.frame()) else {
                continue;
            };
            for l2i in 0..ENTRIES_PER_TABLE {
                let l2e = PageEntry(l2[l2i]);
                if !l2e.is_present() {
                    continue;
                }
                if l2e.is_huge() {
                    out.push((
                        index2va(l4i, l3i, l2i, 0),
                        ResolvedMapping {
                            frame: l2e.frame(),
                            size: PAGE_SIZE_2M,
                            flags: l2e.flags(),
                        },
                    ));
                    continue;
                }
                let Some(l1) = mem.read_table(l2e.frame()) else {
                    continue;
                };
                for l1i in 0..ENTRIES_PER_TABLE {
                    let l1e = PageEntry(l1[l1i]);
                    if !l1e.is_present() {
                        continue;
                    }
                    out.push((
                        index2va(l4i, l3i, l2i, l1i),
                        ResolvedMapping {
                            frame: l1e.frame(),
                            size: PAGE_SIZE_4K,
                            flags: l1e.flags(),
                        },
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A toy physical memory: map from frame address to table contents.
    #[derive(Default)]
    struct ToyMem {
        tables: BTreeMap<usize, [u64; ENTRIES_PER_TABLE]>,
    }

    impl ToyMem {
        fn put(&mut self, frame: usize) -> &mut [u64; ENTRIES_PER_TABLE] {
            self.tables.entry(frame).or_insert([0; ENTRIES_PER_TABLE])
        }
    }

    impl PhysFrameSource for ToyMem {
        fn read_table(&self, frame: PAddr) -> Option<&[u64; ENTRIES_PER_TABLE]> {
            self.tables.get(&frame.as_usize())
        }
    }

    fn table_entry(frame: usize) -> u64 {
        PageEntry::encode(
            PAddr::new(frame),
            EntryFlags {
                present: true,
                writable: true,
                user: true,
                huge: false,
                no_execute: false,
            },
        )
        .0
    }

    #[test]
    fn entry_encode_decode_round_trip() {
        let flags = EntryFlags {
            present: true,
            writable: false,
            user: true,
            huge: true,
            no_execute: true,
        };
        let e = PageEntry::encode(PAddr::new(0xdead_b000), flags);
        assert_eq!(e.frame(), PAddr::new(0xdead_b000));
        assert_eq!(e.flags(), flags);
    }

    #[test]
    #[should_panic(expected = "not encodable")]
    fn unaligned_frame_rejected() {
        let _ = PageEntry::encode(PAddr::new(0x1234), EntryFlags::user_rw());
    }

    #[test]
    fn walk_resolves_4k_mapping() {
        let mut mem = ToyMem::default();
        let va = VAddr(0x4_0201_3000);
        mem.put(0x1000)[va.l4_index()] = table_entry(0x2000);
        mem.put(0x2000)[va.l3_index()] = table_entry(0x3000);
        mem.put(0x3000)[va.l2_index()] = table_entry(0x4000);
        mem.put(0x4000)[va.l1_index()] =
            PageEntry::encode(PAddr::new(0xabc000), EntryFlags::user_rw()).0;

        let r = walk_4level(&mem, PAddr::new(0x1000), va).unwrap();
        assert_eq!(r.frame, PAddr::new(0xabc000));
        assert_eq!(r.size, PAGE_SIZE_4K);
        assert!(r.flags.writable && r.flags.user);
    }

    #[test]
    fn walk_faults_on_absent_entry() {
        let mut mem = ToyMem::default();
        mem.put(0x1000); // empty root
        assert!(walk_4level(&mem, PAddr::new(0x1000), VAddr(0x1000)).is_none());
    }

    #[test]
    fn walk_resolves_2m_superpage() {
        let mut mem = ToyMem::default();
        let va = VAddr(0x4020_0000);
        mem.put(0x1000)[va.l4_index()] = table_entry(0x2000);
        mem.put(0x2000)[va.l3_index()] = table_entry(0x3000);
        let huge = EntryFlags {
            present: true,
            writable: true,
            user: true,
            huge: true,
            no_execute: false,
        };
        mem.put(0x3000)[va.l2_index()] = PageEntry::encode(PAddr::new(0x20_0000), huge).0;

        let r = walk_4level(&mem, PAddr::new(0x1000), va).unwrap();
        assert_eq!(r.size, PAGE_SIZE_2M);
        assert_eq!(r.frame, PAddr::new(0x20_0000));
    }

    #[test]
    fn walk_resolves_1g_superpage() {
        let mut mem = ToyMem::default();
        let va = VAddr(0x8000_0000);
        mem.put(0x1000)[va.l4_index()] = table_entry(0x2000);
        let huge = EntryFlags {
            present: true,
            writable: false,
            user: true,
            huge: true,
            no_execute: true,
        };
        mem.put(0x2000)[va.l3_index()] = PageEntry::encode(PAddr::new(0x4000_0000), huge).0;

        let r = walk_4level(&mem, PAddr::new(0x1000), va).unwrap();
        assert_eq!(r.size, PAGE_SIZE_1G);
        assert!(!r.flags.writable && r.flags.no_execute);
    }

    #[test]
    fn enumerate_finds_all_leaves() {
        let mut mem = ToyMem::default();
        let va1 = VAddr(0x1000);
        let va2 = VAddr(0x2000);
        mem.put(0x1000)[0] = table_entry(0x2000);
        mem.put(0x2000)[0] = table_entry(0x3000);
        mem.put(0x3000)[0] = table_entry(0x4000);
        mem.put(0x4000)[va1.l1_index()] =
            PageEntry::encode(PAddr::new(0xa000), EntryFlags::user_rw()).0;
        mem.put(0x4000)[va2.l1_index()] =
            PageEntry::encode(PAddr::new(0xb000), EntryFlags::user_ro()).0;

        let all = enumerate_mappings(&mem, PAddr::new(0x1000));
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, va1);
        assert_eq!(all[0].1.frame, PAddr::new(0xa000));
        assert_eq!(all[1].0, va2);
        assert!(!all[1].1.flags.writable);
    }

    #[test]
    fn enumeration_agrees_with_pointwise_walk() {
        let mut mem = ToyMem::default();
        mem.put(0x1000)[3] = table_entry(0x2000);
        mem.put(0x2000)[4] = table_entry(0x3000);
        mem.put(0x3000)[5] = table_entry(0x4000);
        mem.put(0x4000)[6] = PageEntry::encode(PAddr::new(0xc000), EntryFlags::user_rw()).0;

        for (va, resolved) in enumerate_mappings(&mem, PAddr::new(0x1000)) {
            assert_eq!(walk_4level(&mem, PAddr::new(0x1000), va), Some(resolved));
        }
    }
}
