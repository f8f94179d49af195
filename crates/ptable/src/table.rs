//! The 4-level page table with flat, per-level permission storage.

use atmo_hw::addr::{
    PAddr, VAddr, VaRange4K, ENTRIES_PER_TABLE, PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K,
};
use atmo_hw::paging::{EntryFlags, PageEntry, PhysFrameSource, ResolvedMapping};
use atmo_mem::{AllocError, PageAllocator, PageClosure, PagePtr, PageSize};
use atmo_spec::harness::{check, Invariant, VerifResult};
use atmo_spec::{Ghost, Map, PPtr, PermMap, PointsTo, Set};
use atmo_trace::{AuditDelta, KernelEvent, TraceHandle, TraceShare};

/// One 512-entry table frame, stored in simulated physical memory.
pub type TableFrame = [u64; ENTRIES_PER_TABLE];

/// An entry of the abstract mapping: where a virtual page points and with
/// which permissions (the paper's `MapEntry`, Listing 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MapEntry {
    /// Physical frame backing the virtual page.
    pub frame: PagePtr,
    /// Access permissions.
    pub flags: EntryFlags,
}

/// Errors surfaced by mapping operations (and ultimately by the `mmap` /
/// `munmap` system calls).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapError {
    /// The virtual address is already mapped (at any size).
    AlreadyMapped,
    /// The virtual address is not mapped.
    NotMapped,
    /// No memory for an intermediate table.
    OutOfMemory,
    /// Address not aligned for the requested page size.
    Misaligned,
    /// Address is not canonical.
    NonCanonical,
    /// A superpage and a table conflict at the same slot.
    SizeConflict,
}

impl From<AllocError> for MapError {
    fn from(_: AllocError) -> Self {
        MapError::OutOfMemory
    }
}

/// Statistics from a batched range operation: how many leaf writes paid
/// the full L3→L2→L1 walk and how many hit the walk cache (same L1 table
/// as the previous page). The caller charges cycles accordingly
/// (`pt_walk_cached_read + pt_fill_write` per cached fill versus
/// `3 × pt_level_read + pt_level_write` per first walk).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Pages that resolved the full L3→L2→L1 chain.
    pub first_walks: usize,
    /// Pages that reused the cached L1 frame.
    pub cached_fills: usize,
}

/// One leaf a call wrote, as it reads after the call: its va and its
/// entry and size, `None` once unmapped.
pub type WrittenLeaf = (usize, Option<(MapEntry, PageSize)>);

/// The page table.
///
/// Concrete state: the root frame (`cr3`) plus per-level flat permission
/// maps for every table frame. Ghost state: the three abstract mappings.
#[derive(Debug)]
pub struct PageTable {
    /// Physical address of the PML4 (root) frame — the value loaded into
    /// CR3.
    pub cr3: PagePtr,
    l4_table: PermMap<TableFrame>,
    l3_tables: PermMap<TableFrame>,
    l2_tables: PermMap<TableFrame>,
    l1_tables: PermMap<TableFrame>,
    /// Abstract 4 KiB mapping (`Ghost<Map<VAddr, MapEntry>>`, Listing 1).
    pub map_4k: Ghost<Map<usize, MapEntry>>,
    /// Abstract 2 MiB mapping.
    pub map_2m: Ghost<Map<usize, MapEntry>>,
    /// Abstract 1 GiB mapping.
    pub map_1g: Ghost<Map<usize, MapEntry>>,
    /// The combined `get_address_space()` view, maintained incrementally at
    /// every leaf step so [`PageTable::address_space`] is an O(1) handle
    /// clone instead of an O(n²) rebuild. Always equal to the union of the
    /// three per-size ghost maps (their key sets are disjoint: a slot holds
    /// either a leaf or a table, never both).
    space: Map<usize, (MapEntry, PageSize)>,
    /// The va of every leaf step of `space` since the last
    /// [`PageTable::clear_leaves`], in step order, repeats included. The
    /// syscall epilogue reads it back ([`PageTable::written_leaves`]) for
    /// the node-replication log and clears it, keeping the capacity, so
    /// it is empty at every syscall boundary.
    leaves: Vec<usize>,
    /// Deferred TLB-shootdown queue: `(base va, pages)` runs whose
    /// invalidation has been queued but not yet broadcast. Flushed once per
    /// syscall epilogue (one `tlb_shootdown_batch` charge instead of one
    /// `tlb_invalidate` per page); must be empty whenever the mem domain is
    /// released (checked by `VmSubsystem::wf`).
    shootdown_queue: Vec<(usize, u64)>,
    /// Map/unmap event sink (always-equal share: tracing does not change
    /// table state).
    trace: TraceShare,
}

impl PageTable {
    /// Creates an empty address space, allocating the root frame.
    pub fn new(alloc: &mut PageAllocator) -> Result<Self, AllocError> {
        let (cr3, perm) = alloc.alloc_page_4k()?;
        let (_ptr, points_to) = perm.into_object([0u64; ENTRIES_PER_TABLE]);
        let mut l4_table = PermMap::new();
        l4_table.tracked_insert(cr3, points_to);
        Ok(PageTable {
            cr3,
            l4_table,
            l3_tables: PermMap::new(),
            l2_tables: PermMap::new(),
            l1_tables: PermMap::new(),
            map_4k: Ghost::new(Map::empty()),
            map_2m: Ghost::new(Map::empty()),
            map_1g: Ghost::new(Map::empty()),
            space: Map::empty(),
            leaves: Vec::new(),
            shootdown_queue: Vec::new(),
            trace: TraceShare::detached(),
        })
    }

    /// Routes map/unmap events into `sink`.
    pub fn attach_trace(&mut self, sink: TraceHandle) {
        self.trace.attach(sink);
    }

    // ----- entry read/write helpers (each is one hardware step, §4.2) ----

    fn read_entry(table: &PermMap<TableFrame>, frame: PagePtr, idx: usize) -> PageEntry {
        let perm = table.tracked_borrow(frame);
        PageEntry(PPtr::<TableFrame>::from_usize(frame).borrow(perm)[idx])
    }

    fn write_entry(table: &mut PermMap<TableFrame>, frame: PagePtr, idx: usize, e: PageEntry) {
        let perm = table.tracked_borrow_mut(frame);
        PPtr::<TableFrame>::from_usize(frame).borrow_mut(perm)[idx] = e.0;
    }

    /// Allocates a zeroed table frame into `level_map` and links it from
    /// `(parent_map, parent_frame, idx)`. One allocation + one entry write:
    /// a non-leaf step that provably does not change the abstract mapping.
    fn alloc_level(
        alloc: &mut PageAllocator,
        parent: (&mut PermMap<TableFrame>, PagePtr, usize),
        level_map: &mut PermMap<TableFrame>,
        trace: &TraceShare,
    ) -> Result<PagePtr, MapError> {
        let (page, perm) = alloc.alloc_page_4k()?;
        trace.audit(AuditDelta::VmAcquire(page));
        let (_ptr, points_to): (PPtr<TableFrame>, PointsTo<TableFrame>) =
            perm.into_object([0u64; ENTRIES_PER_TABLE]);
        level_map.tracked_insert(page, points_to);
        let (parent_map, parent_frame, idx) = parent;
        let link = PageEntry::encode(
            PAddr::new(page),
            EntryFlags {
                present: true,
                writable: true,
                user: true,
                huge: false,
                no_execute: false,
            },
        );
        Self::write_entry(parent_map, parent_frame, idx, link);
        Ok(page)
    }

    /// Step 1 of mapping: ensure the L3 table for `va` exists; returns its
    /// frame. Non-leaf step.
    pub fn ensure_l3(&mut self, alloc: &mut PageAllocator, va: VAddr) -> Result<PagePtr, MapError> {
        let e = Self::read_entry(&self.l4_table, self.cr3, va.l4_index());
        if e.is_present() {
            return Ok(e.frame().as_usize());
        }
        Self::alloc_level(
            alloc,
            (&mut self.l4_table, self.cr3, va.l4_index()),
            &mut self.l3_tables,
            &self.trace,
        )
    }

    /// Step 2: ensure the L2 table for `va` exists under L3 frame `l3`.
    /// Fails with [`MapError::SizeConflict`] when a 1 GiB mapping occupies
    /// the slot. Non-leaf step.
    pub fn ensure_l2(
        &mut self,
        alloc: &mut PageAllocator,
        l3: PagePtr,
        va: VAddr,
    ) -> Result<PagePtr, MapError> {
        let e = Self::read_entry(&self.l3_tables, l3, va.l3_index());
        if e.is_present() {
            if e.is_huge() {
                return Err(MapError::SizeConflict);
            }
            return Ok(e.frame().as_usize());
        }
        Self::alloc_level(
            alloc,
            (&mut self.l3_tables, l3, va.l3_index()),
            &mut self.l2_tables,
            &self.trace,
        )
    }

    /// Step 3: ensure the L1 table for `va` exists under L2 frame `l2`.
    /// Non-leaf step.
    pub fn ensure_l1(
        &mut self,
        alloc: &mut PageAllocator,
        l2: PagePtr,
        va: VAddr,
    ) -> Result<PagePtr, MapError> {
        let e = Self::read_entry(&self.l2_tables, l2, va.l2_index());
        if e.is_present() {
            if e.is_huge() {
                return Err(MapError::SizeConflict);
            }
            return Ok(e.frame().as_usize());
        }
        Self::alloc_level(
            alloc,
            (&mut self.l2_tables, l2, va.l2_index()),
            &mut self.l1_tables,
            &self.trace,
        )
    }

    /// Final leaf step of a 4 KiB map: writes the L1 entry and updates the
    /// ghost mapping by exactly one entry.
    pub fn write_leaf_4k(
        &mut self,
        l1: PagePtr,
        va: VAddr,
        frame: PagePtr,
        flags: EntryFlags,
    ) -> Result<(), MapError> {
        let e = Self::read_entry(&self.l1_tables, l1, va.l1_index());
        if e.is_present() {
            return Err(MapError::AlreadyMapped);
        }
        let mut leaf_flags = flags;
        leaf_flags.present = true;
        leaf_flags.huge = false;
        Self::write_entry(
            &mut self.l1_tables,
            l1,
            va.l1_index(),
            PageEntry::encode(PAddr::new(frame), leaf_flags),
        );
        let entry = MapEntry {
            frame,
            flags: leaf_flags,
        };
        self.map_4k.insert_mut(va.as_usize(), entry);
        self.set_leaf(va.as_usize(), Some((entry, PageSize::Size4K)));
        self.trace.emit(KernelEvent::PtMap {
            va: va.as_usize(),
            frames: 1,
        });
        self.trace.audit(AuditDelta::RefInc(frame));
        Ok(())
    }

    /// Maps the 4 KiB page `frame` at `va`: the composition of the three
    /// non-leaf steps and one leaf step.
    pub fn map_4k_page(
        &mut self,
        alloc: &mut PageAllocator,
        va: VAddr,
        frame: PagePtr,
        flags: EntryFlags,
    ) -> Result<(), MapError> {
        if !va.is_canonical() {
            return Err(MapError::NonCanonical);
        }
        if !va.is_aligned(PAGE_SIZE_4K) {
            return Err(MapError::Misaligned);
        }
        let l3 = self.ensure_l3(alloc, va)?;
        let l2 = self.ensure_l2(alloc, l3, va)?;
        let l1 = self.ensure_l1(alloc, l2, va)?;
        self.write_leaf_4k(l1, va, frame, flags)
    }

    /// Maps a 2 MiB superpage at `va` (leaf at L2 with the PS bit).
    pub fn map_2m_page(
        &mut self,
        alloc: &mut PageAllocator,
        va: VAddr,
        frame: PagePtr,
        flags: EntryFlags,
    ) -> Result<(), MapError> {
        if !va.is_canonical() {
            return Err(MapError::NonCanonical);
        }
        if !va.is_aligned(PAGE_SIZE_2M) || !frame.is_multiple_of(PAGE_SIZE_2M) {
            return Err(MapError::Misaligned);
        }
        let l3 = self.ensure_l3(alloc, va)?;
        let l2 = self.ensure_l2(alloc, l3, va)?;
        let e = Self::read_entry(&self.l2_tables, l2, va.l2_index());
        if e.is_present() {
            return Err(if e.is_huge() {
                MapError::AlreadyMapped
            } else {
                MapError::SizeConflict
            });
        }
        let mut leaf = flags;
        leaf.present = true;
        leaf.huge = true;
        Self::write_entry(
            &mut self.l2_tables,
            l2,
            va.l2_index(),
            PageEntry::encode(PAddr::new(frame), leaf),
        );
        let entry = MapEntry { frame, flags: leaf };
        self.map_2m.insert_mut(va.as_usize(), entry);
        self.set_leaf(va.as_usize(), Some((entry, PageSize::Size2M)));
        self.trace.emit(KernelEvent::PtMap {
            va: va.as_usize(),
            frames: PageSize::Size2M.frames() as u64,
        });
        self.trace.audit(AuditDelta::RefInc(frame));
        Ok(())
    }

    /// Maps a 1 GiB superpage at `va` (leaf at L3 with the PS bit).
    pub fn map_1g_page(
        &mut self,
        alloc: &mut PageAllocator,
        va: VAddr,
        frame: PagePtr,
        flags: EntryFlags,
    ) -> Result<(), MapError> {
        if !va.is_canonical() {
            return Err(MapError::NonCanonical);
        }
        if !va.is_aligned(PAGE_SIZE_1G) || !frame.is_multiple_of(PAGE_SIZE_1G) {
            return Err(MapError::Misaligned);
        }
        let l3 = self.ensure_l3(alloc, va)?;
        let e = Self::read_entry(&self.l3_tables, l3, va.l3_index());
        if e.is_present() {
            return Err(if e.is_huge() {
                MapError::AlreadyMapped
            } else {
                MapError::SizeConflict
            });
        }
        let mut leaf = flags;
        leaf.present = true;
        leaf.huge = true;
        Self::write_entry(
            &mut self.l3_tables,
            l3,
            va.l3_index(),
            PageEntry::encode(PAddr::new(frame), leaf),
        );
        let entry = MapEntry { frame, flags: leaf };
        self.map_1g.insert_mut(va.as_usize(), entry);
        self.set_leaf(va.as_usize(), Some((entry, PageSize::Size1G)));
        self.trace.emit(KernelEvent::PtMap {
            va: va.as_usize(),
            frames: PageSize::Size1G.frames() as u64,
        });
        self.trace.audit(AuditDelta::RefInc(frame));
        Ok(())
    }

    /// Unmaps the 4 KiB page at `va`, returning the frame it mapped.
    /// Intermediate tables are retained (freed when the address space is
    /// destroyed), matching the paper's kernel.
    pub fn unmap_4k_page(&mut self, va: VAddr) -> Result<PagePtr, MapError> {
        let l3 = self.walk_to_l3(va).ok_or(MapError::NotMapped)?;
        let l2 = self.walk_entry(&self.l3_tables, l3, va.l3_index())?;
        let l1 = self.walk_entry(&self.l2_tables, l2, va.l2_index())?;
        let e = Self::read_entry(&self.l1_tables, l1, va.l1_index());
        if !e.is_present() {
            return Err(MapError::NotMapped);
        }
        Self::write_entry(&mut self.l1_tables, l1, va.l1_index(), PageEntry::zero());
        self.map_4k.remove_mut(&va.as_usize());
        self.set_leaf(va.as_usize(), None);
        self.trace.emit(KernelEvent::PtUnmap {
            va: va.as_usize(),
            frames: 1,
        });
        self.trace.audit(AuditDelta::RefDec(e.frame().as_usize()));
        Ok(e.frame().as_usize())
    }

    /// Unmaps the 2 MiB superpage at `va`, returning its head frame.
    pub fn unmap_2m_page(&mut self, va: VAddr) -> Result<PagePtr, MapError> {
        let l3 = self.walk_to_l3(va).ok_or(MapError::NotMapped)?;
        let l2 = self.walk_entry(&self.l3_tables, l3, va.l3_index())?;
        let e = Self::read_entry(&self.l2_tables, l2, va.l2_index());
        if !e.is_present() || !e.is_huge() {
            return Err(MapError::NotMapped);
        }
        Self::write_entry(&mut self.l2_tables, l2, va.l2_index(), PageEntry::zero());
        self.map_2m.remove_mut(&va.as_usize());
        self.set_leaf(va.as_usize(), None);
        self.trace.emit(KernelEvent::PtUnmap {
            va: va.as_usize(),
            frames: PageSize::Size2M.frames() as u64,
        });
        self.trace.audit(AuditDelta::RefDec(e.frame().as_usize()));
        Ok(e.frame().as_usize())
    }

    /// Unmaps the 1 GiB superpage at `va`, returning its head frame.
    pub fn unmap_1g_page(&mut self, va: VAddr) -> Result<PagePtr, MapError> {
        let l3 = self.walk_to_l3(va).ok_or(MapError::NotMapped)?;
        let e = Self::read_entry(&self.l3_tables, l3, va.l3_index());
        if !e.is_present() || !e.is_huge() {
            return Err(MapError::NotMapped);
        }
        Self::write_entry(&mut self.l3_tables, l3, va.l3_index(), PageEntry::zero());
        self.map_1g.remove_mut(&va.as_usize());
        self.set_leaf(va.as_usize(), None);
        self.trace.emit(KernelEvent::PtUnmap {
            va: va.as_usize(),
            frames: PageSize::Size1G.frames() as u64,
        });
        self.trace.audit(AuditDelta::RefDec(e.frame().as_usize()));
        Ok(e.frame().as_usize())
    }

    /// One leaf step of the combined view: sets the leaf at `va` (or,
    /// with `None`, clears it) and records `va`.
    fn set_leaf(&mut self, va: usize, leaf: Option<(MapEntry, PageSize)>) {
        match leaf {
            Some(leaf) => self.space.insert_mut(va, leaf),
            None => self.space.remove_mut(&va),
        }
        self.leaves.push(va);
    }

    /// The leaves written since the last [`PageTable::clear_leaves`],
    /// each once and in va order, read back from the live table as
    /// absolute values (`None`: unmapped now). Sorts the record in
    /// place: O(n log n), no allocation.
    pub fn written_leaves(&mut self) -> impl Iterator<Item = WrittenLeaf> + '_ {
        self.leaves.sort_unstable();
        self.leaves.dedup();
        let space = &self.space;
        self.leaves.iter().map(|va| (*va, space.index(va).copied()))
    }

    /// Forgets the recorded leaves (keeps the buffer).
    pub fn clear_leaves(&mut self) {
        self.leaves.clear();
    }

    /// Leaf steps recorded since the last [`PageTable::clear_leaves`].
    pub fn recorded_leaves(&self) -> usize {
        self.leaves.len()
    }

    // ----- batched range operations (walk cache) -------------------------

    /// Maps `frames[i]` at `base + i·4K` for every `i`, resolving the
    /// L3→L2→L1 chain once per L1-table run and filling contiguous PTEs.
    /// Ghost updates and trace events are identical to `frames.len()`
    /// individual [`PageTable::map_4k_page`] calls, so the abstract address
    /// space is bit-identical to the per-page path.
    ///
    /// On failure the pages already mapped by this call are unmapped again
    /// (intermediate tables are retained, as on the per-page path) and the
    /// error returned; the caller owns the frames throughout.
    pub fn map_range(
        &mut self,
        alloc: &mut PageAllocator,
        base: VAddr,
        frames: &[PagePtr],
        flags: EntryFlags,
    ) -> Result<BatchStats, MapError> {
        if !base.is_aligned(PAGE_SIZE_4K) {
            return Err(MapError::Misaligned);
        }
        let mut stats = BatchStats::default();
        // (l4, l3, l2 index triple) → resolved L1 frame for the run.
        let mut cache: Option<((usize, usize, usize), PagePtr)> = None;
        for (i, frame) in frames.iter().enumerate() {
            let va = VAddr(base.as_usize() + i * PAGE_SIZE_4K);
            if !va.is_canonical() {
                self.rollback_range(base, i);
                return Err(MapError::NonCanonical);
            }
            let key = (va.l4_index(), va.l3_index(), va.l2_index());
            let l1 = match cache {
                Some((k, l1)) if k == key => {
                    stats.cached_fills += 1;
                    l1
                }
                _ => {
                    stats.first_walks += 1;
                    let chain = self
                        .ensure_l3(alloc, va)
                        .and_then(|l3| self.ensure_l2(alloc, l3, va))
                        .and_then(|l2| self.ensure_l1(alloc, l2, va));
                    match chain {
                        Ok(l1) => l1,
                        Err(e) => {
                            self.rollback_range(base, i);
                            return Err(e);
                        }
                    }
                }
            };
            if let Err(e) = self.write_leaf_4k(l1, va, *frame, flags) {
                self.rollback_range(base, i);
                return Err(e);
            }
            cache = Some((key, l1));
        }
        Ok(stats)
    }

    /// Unmaps the already-mapped pages `base .. base + i·4K` (failure path
    /// of [`PageTable::map_range`]).
    fn rollback_range(&mut self, base: VAddr, n: usize) {
        for k in 0..n {
            let va = VAddr(base.as_usize() + k * PAGE_SIZE_4K);
            let _ = self.unmap_4k_page(va);
        }
    }

    /// Unmaps the `n` 4 KiB pages starting at `base` with the same walk
    /// cache as [`PageTable::map_range`], returning the frames in order.
    /// All-or-nothing: every page is verified mapped (at 4 KiB) before the
    /// first entry is touched.
    pub fn unmap_range(
        &mut self,
        base: VAddr,
        n: usize,
    ) -> Result<(Vec<PagePtr>, BatchStats), MapError> {
        if !base.is_aligned(PAGE_SIZE_4K) {
            return Err(MapError::Misaligned);
        }
        for k in 0..n {
            let va = base.as_usize() + k * PAGE_SIZE_4K;
            if !self.map_4k.contains_key(&va) {
                return Err(MapError::NotMapped);
            }
        }
        let mut stats = BatchStats::default();
        let mut frames = Vec::with_capacity(n);
        let mut cache: Option<((usize, usize, usize), PagePtr)> = None;
        for k in 0..n {
            let va = VAddr(base.as_usize() + k * PAGE_SIZE_4K);
            let key = (va.l4_index(), va.l3_index(), va.l2_index());
            let l1 = match cache {
                Some((c, l1)) if c == key => {
                    stats.cached_fills += 1;
                    l1
                }
                _ => {
                    stats.first_walks += 1;
                    let l3 = self.walk_to_l3(va).ok_or(MapError::NotMapped)?;
                    let l2 = self.walk_entry(&self.l3_tables, l3, va.l3_index())?;
                    self.walk_entry(&self.l2_tables, l2, va.l2_index())?
                }
            };
            let e = Self::read_entry(&self.l1_tables, l1, va.l1_index());
            debug_assert!(e.is_present(), "precheck guarantees presence");
            Self::write_entry(&mut self.l1_tables, l1, va.l1_index(), PageEntry::zero());
            self.map_4k.remove_mut(&va.as_usize());
            self.set_leaf(va.as_usize(), None);
            self.trace.emit(KernelEvent::PtUnmap {
                va: va.as_usize(),
                frames: 1,
            });
            self.trace.audit(AuditDelta::RefDec(e.frame().as_usize()));
            frames.push(e.frame().as_usize());
            cache = Some((key, l1));
        }
        Ok((frames, stats))
    }

    /// Demotes the 2 MiB superpage at `va` back to 512 individual 4 KiB
    /// PTEs covering the same frames with the same permissions. The
    /// abstract per-4K coverage is unchanged — only the representation
    /// (one `Size2M` entry versus 512 `Size4K` entries) differs — so no
    /// map/unmap trace events are emitted. Returns the head frame; the
    /// caller splits the allocator's 2 MiB block to match
    /// ([`PageAllocator::split_mapped_2m`]).
    ///
    /// Costs one intermediate-table allocation (the new L1) plus the fills,
    /// charged by the caller.
    pub fn demote_2m(&mut self, alloc: &mut PageAllocator, va: VAddr) -> Result<PagePtr, MapError> {
        if !va.is_aligned(PAGE_SIZE_2M) {
            return Err(MapError::Misaligned);
        }
        let entry = *self
            .map_2m
            .index(&va.as_usize())
            .ok_or(MapError::NotMapped)?;
        let l3 = self.walk_to_l3(va).ok_or(MapError::NotMapped)?;
        let l2 = self.walk_entry(&self.l3_tables, l3, va.l3_index())?;
        // Replace the huge L2 leaf with a fresh L1 table, then fill it.
        let l1 = Self::alloc_level(
            alloc,
            (&mut self.l2_tables, l2, va.l2_index()),
            &mut self.l1_tables,
            &self.trace,
        )?;
        self.map_2m.remove_mut(&va.as_usize());
        self.set_leaf(va.as_usize(), None);
        // The 2 MiB leaf site disappears; 512 4 KiB leaf sites replace it
        // (the head frame's site count is net-unchanged: −2M leaf, +k=0).
        self.trace.audit(AuditDelta::RefDec(entry.frame));
        let mut leaf_flags = entry.flags;
        leaf_flags.huge = false;
        for k in 0..ENTRIES_PER_TABLE {
            let pva = va.as_usize() + k * PAGE_SIZE_4K;
            let frame = entry.frame + k * PAGE_SIZE_4K;
            Self::write_entry(
                &mut self.l1_tables,
                l1,
                k,
                PageEntry::encode(PAddr::new(frame), leaf_flags),
            );
            let e = MapEntry {
                frame,
                flags: leaf_flags,
            };
            self.map_4k.insert_mut(pva, e);
            self.set_leaf(pva, Some((e, PageSize::Size4K)));
            self.trace.audit(AuditDelta::RefInc(frame));
        }
        Ok(entry.frame)
    }

    // ----- deferred TLB shootdown ---------------------------------------

    /// Queues the invalidation of `pages` pages starting at `va` instead of
    /// broadcasting per-page `invlpg`s. The queue must be flushed (one
    /// `tlb_shootdown_batch` charge) before the mem domain is released;
    /// `VmSubsystem::wf` checks quiescence.
    pub fn defer_shootdown(&mut self, va: VAddr, pages: u64) {
        self.shootdown_queue.push((va.as_usize(), pages));
    }

    /// Pages with a queued-but-unflushed invalidation.
    pub fn pending_shootdowns(&self) -> u64 {
        self.shootdown_queue.iter().map(|(_, n)| n).sum()
    }

    /// Broadcasts one batched shootdown covering every queued run.
    /// Returns the number of pages invalidated (0 = no flush was needed
    /// and no cycles should be charged).
    pub fn flush_shootdowns(&mut self) -> u64 {
        let n = self.pending_shootdowns();
        self.shootdown_queue.clear();
        n
    }

    fn walk_to_l3(&self, va: VAddr) -> Option<PagePtr> {
        let e = Self::read_entry(&self.l4_table, self.cr3, va.l4_index());
        e.is_present().then(|| e.frame().as_usize())
    }

    fn walk_entry(
        &self,
        table: &PermMap<TableFrame>,
        frame: PagePtr,
        idx: usize,
    ) -> Result<PagePtr, MapError> {
        let e = Self::read_entry(table, frame, idx);
        if !e.is_present() || e.is_huge() {
            return Err(MapError::NotMapped);
        }
        Ok(e.frame().as_usize())
    }

    /// Resolves `va` exactly as the hardware MMU would (the trusted walk
    /// from `atmo-hw` over this table's frames).
    pub fn resolve(&self, va: VAddr) -> Option<ResolvedMapping> {
        atmo_hw::paging::walk_4level(self, PAddr::new(self.cr3), va)
    }

    /// The first page of `range` the hardware MMU resolves, at any page
    /// size ([`atmo_hw::paging::first_mapped`]: one walk per L1-table
    /// run instead of one [`PageTable::resolve`] per page).
    pub fn first_mapped(&self, range: VaRange4K) -> Option<VAddr> {
        atmo_hw::paging::first_mapped(self, PAddr::new(self.cr3), range)
    }

    /// Number of table frames owned (all levels).
    pub fn table_frame_count(&self) -> usize {
        self.l4_table.len() + self.l3_tables.len() + self.l2_tables.len() + self.l1_tables.len()
    }

    /// Releases all table frames to the allocator, consuming the table.
    ///
    /// # Panics
    ///
    /// Panics when live mappings remain — the caller must unmap (and
    /// account for) every user frame first, or kernel memory would leak.
    pub fn release(mut self, alloc: &mut PageAllocator) {
        assert!(
            self.map_4k.is_empty() && self.map_2m.is_empty() && self.map_1g.is_empty(),
            "releasing an address space with live mappings"
        );
        for map in [
            &mut self.l4_table,
            &mut self.l3_tables,
            &mut self.l2_tables,
            &mut self.l1_tables,
        ] {
            for frame in map.dom().to_vec() {
                let perm = map.tracked_remove(frame);
                let (page, _v) = atmo_mem::PagePermission::from_object(
                    PPtr::<TableFrame>::from_usize(frame),
                    perm,
                );
                self.trace.audit(AuditDelta::VmRelease(frame));
                alloc.free_page_4k(page);
            }
        }
    }

    /// The abstract address space as a single map over all page sizes,
    /// keyed by virtual address with the mapping size attached. This is
    /// the `get_address_space()` view the isolation invariants quantify
    /// over (§4.3).
    pub fn address_space(&self) -> Map<usize, (MapEntry, PageSize)> {
        // Maintained in place at every leaf step; returning it is an O(1)
        // handle clone, and the next leaf step pays one copy-on-write clone
        // while the caller still holds it. `space_rebuild_matches_cache` in
        // the tests pins the equivalence with the per-size ghost maps.
        self.space.clone()
    }

    /// The combined view rebuilt from scratch out of the three per-size
    /// ghost maps (the pre-batching definition of `address_space()`); used
    /// to audit the incrementally-maintained cache.
    pub fn rebuild_address_space(&self) -> Map<usize, (MapEntry, PageSize)> {
        [
            (&self.map_4k, PageSize::Size4K),
            (&self.map_2m, PageSize::Size2M),
            (&self.map_1g, PageSize::Size1G),
        ]
        .into_iter()
        .flat_map(|(map, size)| map.iter().map(move |(va, e)| (*va, (*e, size))))
        .collect()
    }

    /// Visits every leaf reference *site* of this address space — one
    /// call per present 4 KiB PTE / 2 MiB / 1 GiB leaf — passing the
    /// referenced head frame. Unlike [`PageTable::mapped_frames`] this
    /// preserves multiplicity: a frame mapped at two virtual addresses is
    /// visited twice, which is exactly what the incremental auditor's
    /// reference fold counts.
    pub fn visit_leaf_sites(&self, mut f: impl FnMut(PagePtr)) {
        for e in self.map_4k.values() {
            f(e.frame);
        }
        for e in self.map_2m.values() {
            f(e.frame);
        }
        for e in self.map_1g.values() {
            f(e.frame);
        }
    }

    /// The set of user frames this address space maps (head frames for
    /// superpages).
    pub fn mapped_frames(&self) -> Set<PagePtr> {
        self.map_4k
            .values()
            .chain(self.map_2m.values())
            .chain(self.map_1g.values())
            .map(|e| e.frame)
            .collect()
    }
}

/// Looks up the entry of the abstract address space `space` that covers
/// `va`, whatever the representation: the `Size4K` entry at `va`'s page,
/// or the superpage entry whose range contains it. Returns `(base va,
/// entry, size)`; three O(log n) lookups.
pub fn space_covering(
    space: &Map<usize, (MapEntry, PageSize)>,
    va: usize,
) -> Option<(usize, MapEntry, PageSize)> {
    [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G]
        .into_iter()
        .find_map(|size| {
            let base = va & !(size.bytes() - 1);
            match space.index(&base) {
                Some((e, s)) if *s == size => Some((base, *e, size)),
                _ => None,
            }
        })
}

impl PhysFrameSource for PageTable {
    /// Hands out the `PointsTo` borrow of the frame's table: the walk
    /// reads entries in place.
    fn read_table(&self, frame: PAddr) -> Option<&TableFrame> {
        let f = frame.as_usize();
        [
            &self.l4_table,
            &self.l3_tables,
            &self.l2_tables,
            &self.l1_tables,
        ]
        .into_iter()
        .find(|map| map.contains(f))
        .map(|map| PPtr::<TableFrame>::from_usize(f).borrow(map.tracked_borrow(f)))
    }
}

impl PageClosure for PageTable {
    /// "A page table does not own any other objects, besides the physical
    /// pages used to construct the page table" (§4.2).
    fn page_closure(&self) -> Set<PagePtr> {
        [
            &self.l4_table,
            &self.l3_tables,
            &self.l2_tables,
            &self.l1_tables,
        ]
        .into_iter()
        .flat_map(|map| map.iter().map(|(frame, _)| frame))
        .collect()
    }
}

impl Invariant for PageTable {
    /// Structural well-formedness (the paper's "each entry in any PML
    /// level only maps to the next PML level"), stated flat over the
    /// per-level permission maps:
    ///
    /// 1. the root is owned and is the only L4 frame;
    /// 2. every present L4 entry points to an owned L3 frame; every
    ///    present non-huge L3/L2 entry points to an owned L2/L1 frame;
    /// 3. no table frame is referenced twice (the tree is a tree);
    /// 4. every owned frame below L4 is referenced (no orphans);
    /// 5. huge bits appear only where legal (L3/L2).
    fn wf(&self) -> VerifResult {
        check(
            self.l4_table.len() == 1 && self.l4_table.contains(self.cr3),
            "page_table",
            "root frame not owned exactly once",
        )?;

        let mut referenced_l3: Vec<PagePtr> = Vec::new();
        let mut referenced_l2: Vec<PagePtr> = Vec::new();
        let mut referenced_l1: Vec<PagePtr> = Vec::new();

        for idx in 0..ENTRIES_PER_TABLE {
            let e = Self::read_entry(&self.l4_table, self.cr3, idx);
            if e.is_present() {
                check(!e.is_huge(), "page_table", "huge bit at L4")?;
                referenced_l3.push(e.frame().as_usize());
            }
        }
        for l3 in self.l3_tables.dom().to_vec() {
            for idx in 0..ENTRIES_PER_TABLE {
                let e = Self::read_entry(&self.l3_tables, l3, idx);
                if e.is_present() && !e.is_huge() {
                    referenced_l2.push(e.frame().as_usize());
                }
            }
        }
        for l2 in self.l2_tables.dom().to_vec() {
            for idx in 0..ENTRIES_PER_TABLE {
                let e = Self::read_entry(&self.l2_tables, l2, idx);
                if e.is_present() && !e.is_huge() {
                    referenced_l1.push(e.frame().as_usize());
                }
            }
        }

        for (name, refs, owned) in [
            ("L3", &referenced_l3, self.l3_tables.dom()),
            ("L2", &referenced_l2, self.l2_tables.dom()),
            ("L1", &referenced_l1, self.l1_tables.dom()),
        ] {
            let ref_set: Set<PagePtr> = refs.iter().copied().collect();
            check(
                ref_set.len() == refs.len(),
                "page_table",
                format_args!("{name} frame referenced more than once"),
            )?;
            check(
                ref_set == owned,
                "page_table",
                format_args!("{name} referenced frames differ from owned frames"),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_hw::addr::index2va;
    use atmo_hw::boot::BootInfo;

    fn setup() -> (PageAllocator, PageTable) {
        let mut alloc = PageAllocator::new(&BootInfo::simulated(16, 1, ""));
        let pt = PageTable::new(&mut alloc).unwrap();
        (alloc, pt)
    }

    #[test]
    fn empty_table_is_wf_and_resolves_nothing() {
        let (_a, pt) = setup();
        assert!(pt.is_wf());
        assert_eq!(pt.resolve(VAddr(0x1000)), None);
        assert_eq!(pt.table_frame_count(), 1);
    }

    #[test]
    fn map_4k_then_mmu_resolves_it() {
        let (mut a, mut pt) = setup();
        let frame = a.alloc_mapped(PageSize::Size4K).unwrap();
        let va = VAddr(0x40_0000);
        pt.map_4k_page(&mut a, va, frame, EntryFlags::user_rw())
            .unwrap();
        assert!(pt.is_wf());

        let r = pt.resolve(va).expect("MMU resolves the new mapping");
        assert_eq!(r.frame.as_usize(), frame);
        assert_eq!(r.size, PAGE_SIZE_4K);
        assert!(r.flags.writable && r.flags.user);

        // Ghost map agrees (the refinement relation, checked pointwise).
        let ghost = pt.map_4k.index(&va.as_usize()).unwrap();
        assert_eq!(ghost.frame, frame);
    }

    #[test]
    fn double_map_rejected() {
        let (mut a, mut pt) = setup();
        let f1 = a.alloc_mapped(PageSize::Size4K).unwrap();
        let f2 = a.alloc_mapped(PageSize::Size4K).unwrap();
        let va = VAddr(0x40_0000);
        pt.map_4k_page(&mut a, va, f1, EntryFlags::user_rw())
            .unwrap();
        assert_eq!(
            pt.map_4k_page(&mut a, va, f2, EntryFlags::user_rw()),
            Err(MapError::AlreadyMapped)
        );
    }

    #[test]
    fn unmap_restores_unmapped_state() {
        let (mut a, mut pt) = setup();
        let frame = a.alloc_mapped(PageSize::Size4K).unwrap();
        let va = VAddr(0x40_0000);
        pt.map_4k_page(&mut a, va, frame, EntryFlags::user_rw())
            .unwrap();
        assert_eq!(pt.unmap_4k_page(va), Ok(frame));
        assert_eq!(pt.resolve(va), None);
        assert!(!pt.map_4k.contains_key(&va.as_usize()));
        assert_eq!(pt.unmap_4k_page(va), Err(MapError::NotMapped));
        assert!(pt.is_wf());
    }

    #[test]
    fn map_2m_superpage() {
        let (mut a, mut pt) = setup();
        let frame = a.alloc_mapped(PageSize::Size2M).unwrap();
        let va = VAddr(0x4000_0000);
        pt.map_2m_page(&mut a, va, frame, EntryFlags::user_rw())
            .unwrap();
        assert!(pt.is_wf());
        let r = pt.resolve(va).unwrap();
        assert_eq!(r.size, PAGE_SIZE_2M);
        assert_eq!(r.frame.as_usize(), frame);
        // An address inside the superpage resolves to the same leaf.
        let inside = pt.resolve(VAddr(va.as_usize() + 0x5000)).unwrap();
        assert_eq!(inside.frame.as_usize(), frame);
        assert_eq!(pt.unmap_2m_page(va), Ok(frame));
        assert!(pt.is_wf());
    }

    #[test]
    fn map_1g_superpage() {
        let (mut a, mut pt) = setup();
        // 16 MiB of RAM cannot assemble a real 1 GiB block; map an
        // arbitrary (device) frame address instead — the page table does
        // not require the frame to come from the allocator.
        let frame = 0x4000_0000usize;
        let va = VAddr(0x80_0000_0000);
        pt.map_1g_page(&mut a, va, frame, EntryFlags::user_ro())
            .unwrap();
        let r = pt.resolve(va).unwrap();
        assert_eq!(r.size, PAGE_SIZE_1G);
        assert!(!r.flags.writable);
        assert_eq!(pt.unmap_1g_page(va), Ok(frame));
        assert!(pt.is_wf());
    }

    #[test]
    fn size_conflicts_detected() {
        let (mut a, mut pt) = setup();
        let f4k = a.alloc_mapped(PageSize::Size4K).unwrap();
        let va = VAddr(0x4000_0000);
        pt.map_4k_page(&mut a, va, f4k, EntryFlags::user_rw())
            .unwrap();
        // A 2 MiB map over the same slot hits the existing L1 table.
        let f2m = 0x20_0000usize;
        assert_eq!(
            pt.map_2m_page(&mut a, va, f2m, EntryFlags::user_rw()),
            Err(MapError::SizeConflict)
        );
        // And a 4 KiB map under an existing 1 GiB superpage conflicts too.
        let va_g = VAddr(0x80_0000_0000);
        pt.map_1g_page(&mut a, va_g, 0x4000_0000, EntryFlags::user_rw())
            .unwrap();
        assert_eq!(
            pt.map_4k_page(&mut a, va_g, f4k, EntryFlags::user_rw()),
            Err(MapError::SizeConflict)
        );
    }

    #[test]
    fn misaligned_and_noncanonical_rejected() {
        let (mut a, mut pt) = setup();
        assert_eq!(
            pt.map_4k_page(&mut a, VAddr(0x123), 0x1000, EntryFlags::user_rw()),
            Err(MapError::Misaligned)
        );
        assert_eq!(
            pt.map_4k_page(
                &mut a,
                VAddr(0x0000_8000_0000_0000),
                0x1000,
                EntryFlags::user_rw()
            ),
            Err(MapError::NonCanonical)
        );
        assert_eq!(
            pt.map_2m_page(&mut a, VAddr(0x1000), 0x20_0000, EntryFlags::user_rw()),
            Err(MapError::Misaligned)
        );
    }

    #[test]
    fn page_closure_is_table_frames() {
        let (mut a, mut pt) = setup();
        let before = pt.page_closure();
        assert_eq!(before.len(), 1);
        let frame = a.alloc_mapped(PageSize::Size4K).unwrap();
        pt.map_4k_page(&mut a, VAddr(0x40_0000), frame, EntryFlags::user_rw())
            .unwrap();
        // Mapping allocated an L3, L2 and L1 table: closure grows by 3 and
        // never includes the user frame.
        let after = pt.page_closure();
        assert_eq!(after.len(), 4);
        assert!(!after.contains(&frame));
    }

    #[test]
    fn release_returns_all_frames() {
        let (mut a, mut pt) = setup();
        let free_before = a.free_pages_4k().len();
        let frame = a.alloc_mapped(PageSize::Size4K).unwrap();
        pt.map_4k_page(&mut a, VAddr(0x40_0000), frame, EntryFlags::user_rw())
            .unwrap();
        pt.unmap_4k_page(VAddr(0x40_0000)).unwrap();
        a.dec_map_ref(frame);
        pt.release(&mut a);
        assert_eq!(a.free_pages_4k().len(), free_before + 1); // +cr3 page released... cr3 was allocated in setup
        assert!(a.allocated_pages().is_empty());
    }

    #[test]
    fn two_mappings_in_same_l1_table_share_tables() {
        let (mut a, mut pt) = setup();
        let f1 = a.alloc_mapped(PageSize::Size4K).unwrap();
        let f2 = a.alloc_mapped(PageSize::Size4K).unwrap();
        pt.map_4k_page(&mut a, VAddr(0x40_0000), f1, EntryFlags::user_rw())
            .unwrap();
        let frames_after_first = pt.table_frame_count();
        pt.map_4k_page(&mut a, VAddr(0x40_1000), f2, EntryFlags::user_rw())
            .unwrap();
        assert_eq!(
            pt.table_frame_count(),
            frames_after_first,
            "adjacent page reuses the same L1 table"
        );
        assert!(pt.is_wf());
    }

    #[test]
    fn space_rebuild_matches_cache() {
        let (mut a, mut pt) = setup();
        let rw = EntryFlags::user_rw();
        let check = |pt: &PageTable| {
            assert_eq!(pt.address_space(), pt.rebuild_address_space());
            assert!(crate::refine::refinement_wf(pt).is_ok());
        };
        check(&pt);

        // Per-page and batched 4 KiB maps.
        let f = a.alloc_mapped(PageSize::Size4K).unwrap();
        pt.map_4k_page(&mut a, VAddr(0x40_0000), f, rw).unwrap();
        check(&pt);
        let frames: Vec<PagePtr> = (0..16)
            .map(|_| a.alloc_mapped(PageSize::Size4K).unwrap())
            .collect();
        pt.map_range(&mut a, VAddr(0x80_0000), &frames, rw).unwrap();
        check(&pt);
        // A batched map that runs into the page above rolls back.
        let before = pt.address_space();
        assert_eq!(
            pt.map_range(&mut a, VAddr(0x7f_e000), &frames[..4], rw),
            Err(MapError::AlreadyMapped)
        );
        check(&pt);
        assert_eq!(pt.address_space(), before);

        // A superpage, as promotion installs it; the snapshot taken before
        // the step keeps its value.
        let huge = a.alloc_mapped(PageSize::Size2M).unwrap();
        let run = VAddr(0x4000_0000);
        pt.map_2m_page(&mut a, run, huge, rw).unwrap();
        check(&pt);
        assert_eq!(before.len() + 1, pt.address_space().len());
        assert_eq!(
            space_covering(&pt.address_space(), run.as_usize() + 0x5123)
                .unwrap()
                .2,
            PageSize::Size2M
        );

        // Demotion: one Size2M entry becomes 512 Size4K entries.
        assert_eq!(pt.demote_2m(&mut a, run), Ok(huge));
        a.split_mapped_2m(huge);
        check(&pt);
        assert_eq!(before.len() + 512, pt.address_space().len());
        assert_eq!(
            space_covering(&pt.address_space(), run.as_usize() + 0x5123)
                .unwrap()
                .2,
            PageSize::Size4K
        );

        // Partial batched unmap of the demoted run, then single unmaps.
        let (freed, _) = pt
            .unmap_range(VAddr(run.as_usize() + 4 * PAGE_SIZE_4K), 100)
            .unwrap();
        assert_eq!(freed[0], huge + 4 * PAGE_SIZE_4K);
        check(&pt);
        pt.unmap_4k_page(run).unwrap();
        check(&pt);
        pt.unmap_4k_page(VAddr(0x40_0000)).unwrap();
        check(&pt);

        // 1 GiB and 2 MiB leaves, mapped and unmapped.
        pt.map_1g_page(&mut a, VAddr(0x80_0000_0000), 0x4000_0000, rw)
            .unwrap();
        check(&pt);
        let huge2 = a.alloc_mapped(PageSize::Size2M).unwrap();
        pt.map_2m_page(&mut a, VAddr(0x4020_0000), huge2, rw)
            .unwrap();
        check(&pt);
        pt.unmap_1g_page(VAddr(0x80_0000_0000)).unwrap();
        check(&pt);
        pt.unmap_2m_page(VAddr(0x4020_0000)).unwrap();
        check(&pt);
        assert!(pt.is_wf());
    }

    #[test]
    fn written_leaves_name_each_leaf_once_in_va_order() {
        let (mut a, mut pt) = setup();
        let rw = EntryFlags::user_rw();
        let huge = a.alloc_mapped(PageSize::Size2M).unwrap();
        let run = VAddr(0x4000_0000);
        let hole = VAddr(run.as_usize() + 4 * PAGE_SIZE_4K);
        // The head is written three times: mapped at 2 MiB, unmapped and
        // mapped at 4 KiB by the demotion.
        pt.map_2m_page(&mut a, run, huge, rw).unwrap();
        pt.demote_2m(&mut a, run).unwrap();
        a.split_mapped_2m(huge);
        let (frames, _) = pt.unmap_range(hole, 2).unwrap();
        assert_eq!(pt.recorded_leaves(), 1 + 1 + 512 + 2);
        let space = pt.address_space();
        let leaves: Vec<_> = pt.written_leaves().collect();
        assert_eq!(leaves.len(), 512);
        assert!(leaves.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(leaves
            .iter()
            .all(|(va, leaf)| space.index(va) == leaf.as_ref()));
        assert_eq!(leaves[4], (hole.as_usize(), None));
        assert_eq!(leaves[0].1.unwrap().1, PageSize::Size4K);

        // Steady state: clearing keeps the buffer, so the next call's
        // steps record without allocating.
        pt.clear_leaves();
        let cap = pt.leaves.capacity();
        pt.map_range(&mut a, hole, &frames, rw).unwrap();
        pt.unmap_range(hole, 2).unwrap();
        assert_eq!((pt.recorded_leaves(), pt.leaves.capacity()), (4, cap));
    }

    #[test]
    fn index2va_mapping_visible_through_enumeration() {
        let (mut a, mut pt) = setup();
        let f = a.alloc_mapped(PageSize::Size4K).unwrap();
        let va = index2va(5, 6, 7, 8);
        pt.map_4k_page(&mut a, va, f, EntryFlags::user_rw())
            .unwrap();
        let all = atmo_hw::paging::enumerate_mappings(&pt, PAddr::new(pt.cr3));
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, va);
    }
}
