//! The 4-level page table with flat, per-level permission storage.
//!
//! Ghost state is the paper's three per-size maps, one entry per leaf;
//! [`PageTable::address_space`] builds the combined view from them. A
//! 4 KiB leaf step borrows its L1 table once per run of up to 512 PTEs.

use atmo_hw::addr::{
    PAddr, PageVa1G, PageVa2M, PageVa4K, VAddr, VaRange4K, ENTRIES_PER_TABLE, PAGE_SIZE_4K,
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
    /// The pages of a [`PageTable::map_range`] or
    /// [`PageTable::unmap_range`] form no [`VaRange4K`].
    NotAPageRange,
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
    /// The va of every leaf step since the last
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

    /// Steps 1–3: ensures the L3, L2 and L1 tables for `va`; returns the
    /// L1 frame.
    fn ensure_chain(&mut self, alloc: &mut PageAllocator, va: VAddr) -> Result<PagePtr, MapError> {
        let l3 = self.ensure_l3(alloc, va)?;
        let l2 = self.ensure_l2(alloc, l3, va)?;
        self.ensure_l1(alloc, l2, va)
    }

    /// Borrows L1 frame `l1` for a run of 4 KiB leaf steps: one
    /// permission lookup for up to 512 PTEs.
    fn l1_run(&mut self, l1: PagePtr) -> L1Run<'_> {
        let perm = self.l1_tables.tracked_borrow_mut(l1);
        L1Run {
            table: PPtr::<TableFrame>::from_usize(l1).borrow_mut(perm),
            map_4k: &mut self.map_4k,
            leaves: &mut self.leaves,
            trace: &self.trace,
        }
    }

    /// Final leaf step of a 4 KiB map: writes the L1 entry and updates the
    /// ghost mapping by exactly one entry.
    pub fn write_leaf_4k(
        &mut self,
        l1: PagePtr,
        va: PageVa4K,
        frame: PagePtr,
        flags: EntryFlags,
    ) -> Result<(), MapError> {
        self.l1_run(l1).map(va.as_usize(), leaf_4k(frame, flags))
    }

    /// Maps the 4 KiB page `frame` at `va`: the composition of the three
    /// non-leaf steps and one leaf step.
    pub fn map_4k_page(
        &mut self,
        alloc: &mut PageAllocator,
        va: PageVa4K,
        frame: PagePtr,
        flags: EntryFlags,
    ) -> Result<(), MapError> {
        let l1 = self.ensure_chain(alloc, va.va())?;
        self.write_leaf_4k(l1, va, frame, flags)
    }

    /// Maps the 2 MiB superpage `frame` (a 2 MiB-aligned head) at `va`
    /// (leaf at L2 with the PS bit).
    pub fn map_2m_page(
        &mut self,
        alloc: &mut PageAllocator,
        va: PageVa2M,
        frame: PagePtr,
        flags: EntryFlags,
    ) -> Result<(), MapError> {
        self.map_huge(alloc, PageSize::Size2M, va.va(), frame, flags)
    }

    /// Maps the 1 GiB superpage `frame` (a 1 GiB-aligned head) at `va`
    /// (leaf at L3 with the PS bit).
    pub fn map_1g_page(
        &mut self,
        alloc: &mut PageAllocator,
        va: PageVa1G,
        frame: PagePtr,
        flags: EntryFlags,
    ) -> Result<(), MapError> {
        self.map_huge(alloc, PageSize::Size1G, va.va(), frame, flags)
    }

    /// Maps a superpage of `size` at `va`: the non-leaf steps down to its
    /// table (L2 for 2 MiB, L3 for 1 GiB), then its leaf step.
    fn map_huge(
        &mut self,
        alloc: &mut PageAllocator,
        size: PageSize,
        va: VAddr,
        frame: PagePtr,
        mut flags: EntryFlags,
    ) -> Result<(), MapError> {
        let l3 = self.ensure_l3(alloc, va)?;
        let table = match size {
            PageSize::Size2M => self.ensure_l2(alloc, l3, va)?,
            _ => l3,
        };
        flags.present = true;
        flags.huge = true;
        self.huge_step(size, table, va, Some(MapEntry { frame, flags }))
            .map(drop)
    }

    /// The superpage leaf step: sets the `size` leaf at `va` in `table`
    /// (its L2 frame for 2 MiB, its L3 frame for 1 GiB) to `leaf`, or
    /// clears it with `None`, and moves that size's ghost map by the one
    /// entry. Returns the leaf's frame.
    fn huge_step(
        &mut self,
        size: PageSize,
        table: PagePtr,
        va: VAddr,
        leaf: Option<MapEntry>,
    ) -> Result<PagePtr, MapError> {
        let (tables, idx, ghost) = match size {
            PageSize::Size2M => (&mut self.l2_tables, va.l2_index(), &mut self.map_2m),
            _ => (&mut self.l3_tables, va.l3_index(), &mut self.map_1g),
        };
        let e = Self::read_entry(tables, table, idx);
        let (va, frames) = (va.as_usize(), size.frames() as u64);
        let frame = match leaf {
            Some(_) if e.is_present() => {
                return Err(if e.is_huge() {
                    MapError::AlreadyMapped
                } else {
                    MapError::SizeConflict
                })
            }
            None if !e.is_present() || !e.is_huge() => return Err(MapError::NotMapped),
            Some(entry) => {
                let pte = PageEntry::encode(PAddr::new(entry.frame), entry.flags);
                Self::write_entry(tables, table, idx, pte);
                ghost.insert_mut(va, entry);
                self.trace.emit(KernelEvent::PtMap { va, frames });
                self.trace.audit(AuditDelta::RefInc(entry.frame));
                entry.frame
            }
            None => {
                Self::write_entry(tables, table, idx, PageEntry::zero());
                ghost.remove_mut(&va);
                self.trace.emit(KernelEvent::PtUnmap { va, frames });
                self.trace.audit(AuditDelta::RefDec(e.frame().as_usize()));
                e.frame().as_usize()
            }
        };
        self.leaves.push(va);
        Ok(frame)
    }

    /// Unmaps the 4 KiB page at `va`, returning the frame it mapped.
    /// Intermediate tables are retained (freed when the address space is
    /// destroyed), matching the paper's kernel.
    pub fn unmap_4k_page(&mut self, va: PageVa4K) -> Result<PagePtr, MapError> {
        let l1 = self.walk_to_l1(va.va())?;
        self.l1_run(l1).unmap(va.as_usize())
    }

    /// Unmaps the 2 MiB superpage at `va`, returning its head frame.
    pub fn unmap_2m_page(&mut self, va: PageVa2M) -> Result<PagePtr, MapError> {
        let l2 = self.walk_to_l2(va.va())?;
        self.huge_step(PageSize::Size2M, l2, va.va(), None)
    }

    /// Unmaps the 1 GiB superpage at `va`, returning its head frame.
    pub fn unmap_1g_page(&mut self, va: PageVa1G) -> Result<PagePtr, MapError> {
        let l3 = self.walk_to_l3(va.va())?;
        self.huge_step(PageSize::Size1G, l3, va.va(), None)
    }

    /// The leaves written since the last [`PageTable::clear_leaves`],
    /// each once and in va order, read back from the per-size ghost maps
    /// as absolute values (`None`: unmapped now). Sorts the record in
    /// place: O(n log n), no allocation.
    pub fn written_leaves(&mut self) -> impl Iterator<Item = WrittenLeaf> + '_ {
        self.leaves.sort_unstable();
        self.leaves.dedup();
        let this = &*self;
        this.leaves.iter().map(|va| (*va, this.leaf_at(*va)))
    }

    /// Forgets the recorded leaves (keeps the buffer).
    pub fn clear_leaves(&mut self) {
        self.leaves.clear();
    }

    /// Leaf steps recorded since the last [`PageTable::clear_leaves`].
    pub fn recorded_leaves(&self) -> usize {
        self.leaves.len()
    }

    // ----- batched range operations (one table borrow per run) ----------

    /// Maps `frames[i]` at `base + i·4K` for every `i`, resolving the
    /// L3→L2→L1 chain and borrowing the L1 table once per L1-table run.
    /// Ghost updates and trace events are identical to `frames.len()`
    /// individual [`PageTable::map_4k_page`] calls, so the abstract address
    /// space is bit-identical to the per-page path.
    ///
    /// Pages that form no [`VaRange4K`] fail first. On a later failure the
    /// pages already mapped by this call are unmapped again and their leaf
    /// steps forgotten (intermediate tables are retained, as on the
    /// per-page path) and the error returned; the caller owns the frames
    /// throughout.
    pub fn map_range(
        &mut self,
        alloc: &mut PageAllocator,
        base: VAddr,
        frames: &[PagePtr],
        flags: EntryFlags,
    ) -> Result<BatchStats, MapError> {
        let range = VaRange4K::new(base, frames.len()).ok_or(MapError::NotAPageRange)?;
        let (mark, mut stats, mut mapped) = (self.leaves.len(), BatchStats::default(), 0);
        let filled = (|| {
            for (va, run) in l1_runs(range) {
                let l1 = self.ensure_chain(alloc, va)?;
                stats.first_walks += 1;
                stats.cached_fills += run.len() - 1;
                let mut table = self.l1_run(l1);
                for frame in &frames[run] {
                    let va = base.as_usize() + mapped * PAGE_SIZE_4K;
                    table.map(va, leaf_4k(*frame, flags))?;
                    mapped += 1;
                }
            }
            Ok(())
        })();
        if let Err(e) = filled {
            // Every va this call stepped reads as before it: forgetting the
            // steps leaves the record as the call found it.
            let _ = self.unmap_range(base, mapped);
            self.leaves.truncate(mark);
            return Err(e);
        }
        Ok(stats)
    }

    /// Unmaps the `n` 4 KiB pages starting at `base`, borrowing each L1
    /// table once per run as [`PageTable::map_range`] does, and returns
    /// the frames in order. All-or-nothing: the pages must form a
    /// [`VaRange4K`], and every page is verified mapped (at 4 KiB) before
    /// the first entry is touched.
    pub fn unmap_range(
        &mut self,
        base: VAddr,
        n: usize,
    ) -> Result<(Vec<PagePtr>, BatchStats), MapError> {
        let range = VaRange4K::new(base, n).ok_or(MapError::NotAPageRange)?;
        for va in range.iter() {
            if !self.map_4k.contains_key(&va.as_usize()) {
                return Err(MapError::NotMapped);
            }
        }
        let mut stats = BatchStats::default();
        let mut frames = Vec::with_capacity(n);
        for (va, run) in l1_runs(range) {
            let l1 = self.walk_to_l1(va)?;
            stats.first_walks += 1;
            stats.cached_fills += run.len() - 1;
            let mut table = self.l1_run(l1);
            for k in 0..run.len() {
                frames.push(table.unmap(va.as_usize() + k * PAGE_SIZE_4K)?);
            }
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
    pub fn demote_2m(
        &mut self,
        alloc: &mut PageAllocator,
        va: PageVa2M,
    ) -> Result<PagePtr, MapError> {
        let entry = *self
            .map_2m
            .index(&va.as_usize())
            .ok_or(MapError::NotMapped)?;
        let va = va.va();
        let l2 = self.walk_to_l2(va)?;
        // Replace the huge L2 leaf with a fresh L1 table, then fill it.
        let l1 = Self::alloc_level(
            alloc,
            (&mut self.l2_tables, l2, va.l2_index()),
            &mut self.l1_tables,
            &self.trace,
        )?;
        self.map_2m.remove_mut(&va.as_usize());
        self.leaves.push(va.as_usize());
        // The 2 MiB leaf site disappears; 512 4 KiB leaf sites replace it
        // (the head frame's site count is net-unchanged: −2M leaf, +k=0).
        self.trace.audit(AuditDelta::RefDec(entry.frame));
        let mut table = self.l1_run(l1);
        for k in 0..ENTRIES_PER_TABLE {
            let frame = entry.frame + k * PAGE_SIZE_4K;
            let leaf = Some(leaf_4k(frame, entry.flags));
            table.step(va.as_usize() + k * PAGE_SIZE_4K, leaf)?;
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

    /// The L3 frame of `va`'s existing table chain.
    fn walk_to_l3(&self, va: VAddr) -> Result<PagePtr, MapError> {
        Self::walk_entry(&self.l4_table, self.cr3, va.l4_index()).ok_or(MapError::NotMapped)
    }

    /// The table frame the non-leaf entry `map[frame][idx]` links to (an
    /// L4 entry is never huge: `wf` checks it).
    fn walk_entry(map: &PermMap<TableFrame>, frame: PagePtr, idx: usize) -> Option<PagePtr> {
        let e = Self::read_entry(map, frame, idx);
        (e.is_present() && !e.is_huge()).then(|| e.frame().as_usize())
    }

    /// The L2 frame of `va`'s existing table chain.
    fn walk_to_l2(&self, va: VAddr) -> Result<PagePtr, MapError> {
        let l3 = self.walk_to_l3(va)?;
        Self::walk_entry(&self.l3_tables, l3, va.l3_index()).ok_or(MapError::NotMapped)
    }

    /// The L1 frame of `va`'s existing table chain.
    fn walk_to_l1(&self, va: VAddr) -> Result<PagePtr, MapError> {
        let l2 = self.walk_to_l2(va)?;
        Self::walk_entry(&self.l2_tables, l2, va.l2_index()).ok_or(MapError::NotMapped)
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

    /// The ghost map of the `size` leaves.
    fn leaves_of(&self, size: PageSize) -> &Map<usize, MapEntry> {
        match size {
            PageSize::Size4K => &self.map_4k,
            PageSize::Size2M => &self.map_2m,
            PageSize::Size1G => &self.map_1g,
        }
    }

    /// The leaf at exactly `va`, of whichever size.
    fn leaf_at(&self, va: usize) -> Option<(MapEntry, PageSize)> {
        PageSize::ALL
            .into_iter()
            .find_map(|size| self.leaves_of(size).index(&va).map(|e| (*e, size)))
    }

    /// The leaf covering `va` (the rule of [`space_covering`], read from
    /// the per-size ghost maps without building the combined view).
    pub fn covering(&self, va: usize) -> Option<(usize, MapEntry, PageSize)> {
        covering_leaf(va, |size, base| self.leaves_of(size).index(&base).copied())
    }

    /// The abstract address space as a single map over all page sizes,
    /// keyed by virtual address with the mapping size attached: the
    /// `get_address_space()` spec function the isolation invariants
    /// quantify over (§4.3), built from the three per-size ghost maps
    /// (their key sets are disjoint: a slot holds a leaf or a table, never
    /// both). O(leaves).
    pub fn address_space(&self) -> Map<usize, (MapEntry, PageSize)> {
        PageSize::ALL
            .into_iter()
            .flat_map(|size| {
                self.leaves_of(size)
                    .iter()
                    .map(move |(va, e)| (*va, (*e, size)))
            })
            .collect()
    }

    /// Visits every leaf reference *site* of this address space — one
    /// call per present 4 KiB PTE / 2 MiB / 1 GiB leaf — passing the
    /// referenced head frame. Unlike [`PageTable::mapped_frames`] this
    /// preserves multiplicity: a frame mapped at two virtual addresses is
    /// visited twice, which is exactly what the incremental auditor's
    /// reference fold counts.
    pub fn visit_leaf_sites(&self, mut f: impl FnMut(PagePtr)) {
        for size in PageSize::ALL {
            self.leaves_of(size).values().for_each(|e| f(e.frame));
        }
    }

    /// The set of user frames this address space maps (head frames for
    /// superpages).
    pub fn mapped_frames(&self) -> Set<PagePtr> {
        let leaves = PageSize::ALL.map(|size| self.leaves_of(size).values());
        leaves.into_iter().flatten().map(|e| e.frame).collect()
    }
}

/// One L1 table borrowed for a run of 4 KiB leaf steps, beside the ghost
/// state each step moves.
struct L1Run<'a> {
    table: &'a mut TableFrame,
    map_4k: &'a mut Map<usize, MapEntry>,
    leaves: &'a mut Vec<usize>,
    trace: &'a TraceShare,
}

impl L1Run<'_> {
    /// The 4 KiB leaf step (§4.2): sets `va`'s empty PTE to `leaf`, or
    /// clears its present one with `None`, moves the 4 KiB ghost map by
    /// that one entry, records `va` and audits the leaf site's reference.
    /// Returns the leaf's frame.
    fn step(&mut self, va: usize, leaf: Option<MapEntry>) -> Result<PagePtr, MapError> {
        let pte = &mut self.table[VAddr(va).l1_index()];
        let old = PageEntry(*pte);
        let frame = match leaf {
            Some(_) if old.is_present() => return Err(MapError::AlreadyMapped),
            None if !old.is_present() => return Err(MapError::NotMapped),
            Some(e) => {
                *pte = PageEntry::encode(PAddr::new(e.frame), e.flags).0;
                self.map_4k.insert_mut(va, e);
                self.trace.audit(AuditDelta::RefInc(e.frame));
                e.frame
            }
            None => {
                *pte = PageEntry::zero().0;
                self.map_4k.remove_mut(&va);
                self.trace.audit(AuditDelta::RefDec(old.frame().as_usize()));
                old.frame().as_usize()
            }
        };
        self.leaves.push(va);
        Ok(frame)
    }

    /// Maps `entry` at `va`: the leaf step and its `PtMap` event.
    fn map(&mut self, va: usize, entry: MapEntry) -> Result<(), MapError> {
        self.step(va, Some(entry))?;
        self.trace.emit(KernelEvent::PtMap { va, frames: 1 });
        Ok(())
    }

    /// Unmaps `va`: the leaf step and its `PtUnmap` event.
    fn unmap(&mut self, va: usize) -> Result<PagePtr, MapError> {
        let frame = self.step(va, None)?;
        self.trace.emit(KernelEvent::PtUnmap { va, frames: 1 });
        Ok(frame)
    }
}

/// The 4 KiB leaf entry for `frame` with `flags`.
fn leaf_4k(frame: PagePtr, mut flags: EntryFlags) -> MapEntry {
    flags.present = true;
    flags.huge = false;
    MapEntry { frame, flags }
}

/// Splits the pages of `range` into the runs that share one L1 table:
/// `(first va, page indices)` per run.
fn l1_runs(range: VaRange4K) -> impl Iterator<Item = (VAddr, std::ops::Range<usize>)> {
    let (mut i, n) = (0, range.page_count());
    std::iter::from_fn(move || {
        let va = VAddr(range.base().as_usize() + i * PAGE_SIZE_4K);
        let run = i..n.min(i + ENTRIES_PER_TABLE - va.l1_index());
        i = run.end;
        (!run.is_empty()).then_some((va, run))
    })
}

/// The covering rule: the leaf that covers `va` is the `Size4K` entry at
/// `va`'s page or the superpage entry whose range contains it, where
/// `leaf(size, base)` looks up the entry of `size` at `base`. Returns
/// `(base va, entry, size)`; three lookups at most.
pub fn covering_leaf(
    va: usize,
    leaf: impl Fn(PageSize, usize) -> Option<MapEntry>,
) -> Option<(usize, MapEntry, PageSize)> {
    PageSize::ALL.into_iter().find_map(|size| {
        let base = va & !(size.bytes() - 1);
        leaf(size, base).map(|e| (base, e, size))
    })
}

/// The entry of the abstract address space `space` that covers `va`,
/// whatever the representation ([`covering_leaf`] over the combined
/// view).
pub fn space_covering(
    space: &Map<usize, (MapEntry, PageSize)>,
    va: usize,
) -> Option<(usize, MapEntry, PageSize)> {
    covering_leaf(va, |size, base| {
        space
            .index(&base)
            .filter(|(_, s)| *s == size)
            .map(|(e, _)| *e)
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
    use atmo_hw::addr::{index2va, PageVa, PAGE_SIZE_1G, PAGE_SIZE_2M};
    use atmo_hw::boot::BootInfo;

    fn setup() -> (PageAllocator, PageTable) {
        let mut alloc = PageAllocator::new(&BootInfo::simulated(16, 1, ""));
        let pt = PageTable::new(&mut alloc).unwrap();
        (alloc, pt)
    }

    fn page<const SIZE: usize>(va: usize) -> PageVa<SIZE> {
        PageVa::new(va).unwrap()
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
        let va = page(0x40_0000);
        pt.map_4k_page(&mut a, va, frame, EntryFlags::user_rw())
            .unwrap();
        assert!(pt.is_wf());

        let r = pt.resolve(va.va()).expect("MMU resolves the new mapping");
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
        let va = page(0x40_0000);
        pt.map_4k_page(&mut a, va, f1, EntryFlags::user_rw())
            .unwrap();
        assert_eq!(
            pt.map_4k_page(&mut a, va, f2, EntryFlags::user_rw()),
            Err(MapError::AlreadyMapped)
        );
    }

    #[test]
    fn misaligned_and_noncanonical_rejected() {
        let (mut a, mut pt) = setup();
        let frame = a.alloc_mapped(PageSize::Size4K).unwrap();
        let rw = EntryFlags::user_rw();
        // No leaf op can be handed these: the page address refuses them.
        assert_eq!(PageVa::<PAGE_SIZE_4K>::new(0x123), None);
        assert_eq!(PageVa::<PAGE_SIZE_4K>::new(0x0000_8000_0000_0000), None);
        assert_eq!(PageVa::<PAGE_SIZE_2M>::new(0x1000), None);
        // The raw-address entry points refuse them too, and touch nothing.
        for base in [0x123, 0x0000_8000_0000_0000] {
            let err = Some(MapError::NotAPageRange);
            assert_eq!(pt.map_range(&mut a, VAddr(base), &[frame], rw).err(), err);
            assert_eq!(pt.unmap_range(VAddr(base), 1).err(), err);
        }
        assert_eq!(pt.table_frame_count(), 1);
        assert!(pt.is_wf());
    }

    #[test]
    fn unmap_restores_unmapped_state() {
        let (mut a, mut pt) = setup();
        let frame = a.alloc_mapped(PageSize::Size4K).unwrap();
        let va = page(0x40_0000);
        pt.map_4k_page(&mut a, va, frame, EntryFlags::user_rw())
            .unwrap();
        assert_eq!(pt.unmap_4k_page(va), Ok(frame));
        assert_eq!(pt.resolve(va.va()), None);
        assert!(!pt.map_4k.contains_key(&va.as_usize()));
        assert_eq!(pt.unmap_4k_page(va), Err(MapError::NotMapped));
        assert!(pt.is_wf());
    }

    #[test]
    fn map_2m_superpage() {
        let (mut a, mut pt) = setup();
        let frame = a.alloc_mapped(PageSize::Size2M).unwrap();
        let va = page(0x4000_0000);
        pt.map_2m_page(&mut a, va, frame, EntryFlags::user_rw())
            .unwrap();
        assert!(pt.is_wf());
        let r = pt.resolve(va.va()).unwrap();
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
        let va = page(0x80_0000_0000);
        pt.map_1g_page(&mut a, va, frame, EntryFlags::user_ro())
            .unwrap();
        let r = pt.resolve(va.va()).unwrap();
        assert_eq!(r.size, PAGE_SIZE_1G);
        assert!(!r.flags.writable);
        assert_eq!(pt.unmap_1g_page(va), Ok(frame));
        assert!(pt.is_wf());
    }

    #[test]
    fn size_conflicts_detected() {
        let (mut a, mut pt) = setup();
        let f4k = a.alloc_mapped(PageSize::Size4K).unwrap();
        pt.map_4k_page(&mut a, page(0x4000_0000), f4k, EntryFlags::user_rw())
            .unwrap();
        // A 2 MiB map over the same slot hits the existing L1 table.
        let f2m = 0x20_0000usize;
        assert_eq!(
            pt.map_2m_page(&mut a, page(0x4000_0000), f2m, EntryFlags::user_rw()),
            Err(MapError::SizeConflict)
        );
        // And a 4 KiB map under an existing 1 GiB superpage conflicts too.
        let va_g = 0x80_0000_0000;
        pt.map_1g_page(&mut a, page(va_g), 0x4000_0000, EntryFlags::user_rw())
            .unwrap();
        assert_eq!(
            pt.map_4k_page(&mut a, page(va_g), f4k, EntryFlags::user_rw()),
            Err(MapError::SizeConflict)
        );
    }

    #[test]
    fn page_closure_is_table_frames() {
        let (mut a, mut pt) = setup();
        let before = pt.page_closure();
        assert_eq!(before.len(), 1);
        let frame = a.alloc_mapped(PageSize::Size4K).unwrap();
        pt.map_4k_page(&mut a, page(0x40_0000), frame, EntryFlags::user_rw())
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
        pt.map_4k_page(&mut a, page(0x40_0000), frame, EntryFlags::user_rw())
            .unwrap();
        pt.unmap_4k_page(page(0x40_0000)).unwrap();
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
        pt.map_4k_page(&mut a, page(0x40_0000), f1, EntryFlags::user_rw())
            .unwrap();
        let frames_after_first = pt.table_frame_count();
        pt.map_4k_page(&mut a, page(0x40_1000), f2, EntryFlags::user_rw())
            .unwrap();
        assert_eq!(
            pt.table_frame_count(),
            frames_after_first,
            "adjacent page reuses the same L1 table"
        );
        assert!(pt.is_wf());
    }

    /// A 700-page run from L1 index 400: 112, 512 and 76 PTEs in three
    /// tables.
    const RUN: VAddr = VAddr(0x4000_0000 + 400 * PAGE_SIZE_4K);

    fn run_va(i: usize) -> PageVa4K {
        page(RUN.as_usize() + i * PAGE_SIZE_4K)
    }

    /// A table whose trace sink records events and audit deltas, and 700
    /// frames for [`RUN`].
    fn traced() -> (PageAllocator, PageTable, TraceHandle, Vec<PagePtr>) {
        let (mut a, mut pt) = setup();
        let sink = atmo_trace::TraceSink::new(1, 64);
        sink.set_audit_recording(true);
        pt.attach_trace(sink.clone());
        let frames = (0..700)
            .map(|_| a.alloc_mapped(PageSize::Size4K).unwrap())
            .collect();
        (a, pt, sink, frames)
    }

    /// What the steps since the last call left: the per-size ghost maps,
    /// the written leaves (then cleared), the trace counts and the audit
    /// deltas (then drained).
    fn outcome(pt: &mut PageTable, sink: &TraceHandle) -> impl PartialEq + std::fmt::Debug {
        assert!(pt.is_wf() && crate::refine::refinement_wf(pt).is_ok());
        let maps = PageSize::ALL.map(|s| pt.leaves_of(s).clone());
        let leaves: Vec<_> = pt.written_leaves().collect();
        pt.clear_leaves();
        let mut deltas = Vec::new();
        sink.drain_audit_ledgers(&mut deltas);
        (maps, leaves, sink.snapshot(), deltas)
    }

    #[test]
    fn a_run_across_three_l1_tables_steps_as_700_single_pages() {
        let rw = EntryFlags::user_rw();
        let (mut a, mut pt, sink, frames) = traced();
        let mapped = pt.map_range(&mut a, RUN, &frames, rw).unwrap();
        let batched_map = outcome(&mut pt, &sink);
        let (freed, unmapped) = pt.unmap_range(RUN, 700).unwrap();
        let batched_unmap = outcome(&mut pt, &sink);
        let runs = BatchStats {
            first_walks: 3,
            cached_fills: 697,
        };
        assert_eq!((mapped, unmapped, &freed), (runs, runs, &frames));

        let (mut a, mut pt, sink, frames) = traced();
        for (i, f) in frames.iter().enumerate() {
            pt.map_4k_page(&mut a, run_va(i), *f, rw).unwrap();
        }
        assert_eq!(outcome(&mut pt, &sink), batched_map);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(pt.unmap_4k_page(run_va(i)), Ok(*f));
        }
        assert_eq!(outcome(&mut pt, &sink), batched_unmap);
    }

    #[test]
    fn a_run_into_a_mapped_page_leaves_the_table_as_it_found_it() {
        let rw = EntryFlags::user_rw();
        let (mut a, mut pt, _sink, frames) = traced();
        // Build the run's three L1 tables, then map its 450th page alone.
        pt.map_range(&mut a, RUN, &frames, rw).unwrap();
        pt.unmap_range(RUN, 700).unwrap();
        pt.clear_leaves();
        let blocker = a.alloc_mapped(PageSize::Size4K).unwrap();
        pt.map_4k_page(&mut a, run_va(449), blocker, rw).unwrap();
        let state = |pt: &PageTable| {
            let frame = |f: &PagePtr| *pt.read_table(PAddr::new(*f)).unwrap();
            let tables: Vec<TableFrame> = pt.page_closure().iter().map(frame).collect();
            let maps = PageSize::ALL.map(|s| pt.leaves_of(s).clone());
            (tables, maps, pt.leaves.clone())
        };
        let before = state(&pt);
        assert_eq!(
            pt.map_range(&mut a, RUN, &frames, rw),
            Err(MapError::AlreadyMapped)
        );
        assert!(state(&pt) == before);
        // Pages that are no page range: inside a page, or through the
        // non-canonical hole.
        for (base, n) in [(RUN.as_usize() + 0x800, 700), (0x7fff_ffff_f000, 2)] {
            let err = Some(MapError::NotAPageRange);
            assert_eq!(
                pt.map_range(&mut a, VAddr(base), &frames[..n], rw).err(),
                err
            );
            assert_eq!(pt.unmap_range(VAddr(base), n).err(), err);
        }
        assert!(state(&pt) == before);
        assert!(pt.is_wf() && crate::refine::refinement_wf(&pt).is_ok());
    }

    #[test]
    fn written_leaves_name_each_leaf_once_in_va_order() {
        let (mut a, mut pt) = setup();
        let rw = EntryFlags::user_rw();
        let huge = a.alloc_mapped(PageSize::Size2M).unwrap();
        let run = page(0x4000_0000);
        let hole = VAddr(run.as_usize() + 4 * PAGE_SIZE_4K);
        // The head is written three times: mapped at 2 MiB, unmapped and
        // mapped at 4 KiB by the demotion.
        pt.map_2m_page(&mut a, run, huge, rw).unwrap();
        pt.demote_2m(&mut a, run).unwrap();
        a.split_mapped_2m(huge);
        let (frames, _) = pt.unmap_range(hole, 2).unwrap();
        // A 2 MiB and a 1 GiB leaf above the demoted run.
        let huge2 = a.alloc_mapped(PageSize::Size2M).unwrap();
        pt.map_2m_page(&mut a, page(0x4020_0000), huge2, rw)
            .unwrap();
        pt.map_1g_page(&mut a, page(0x80_0000_0000), 0x4000_0000, rw)
            .unwrap();
        assert_eq!(pt.recorded_leaves(), 1 + 1 + 512 + 2 + 2);
        let space = pt.address_space();
        for va in [
            run.as_usize() + 0x5123,
            hole.as_usize(),
            0x4020_1000,
            0x80_1234_5678,
        ] {
            assert_eq!(pt.covering(va), space_covering(&space, va));
        }
        let leaves: Vec<_> = pt.written_leaves().collect();
        assert_eq!(leaves.len(), 514);
        assert!(leaves.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(leaves
            .iter()
            .all(|(va, leaf)| space.index(va) == leaf.as_ref()));
        assert_eq!(leaves[4], (hole.as_usize(), None));
        let sizes = [0, 512, 513].map(|i| leaves[i].1.unwrap().1);
        assert_eq!(sizes, PageSize::ALL);

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
        pt.map_4k_page(&mut a, page(va.as_usize()), f, EntryFlags::user_rw())
            .unwrap();
        let all = atmo_hw::paging::enumerate_mappings(&pt, PAddr::new(pt.cr3));
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, va);
    }
}
