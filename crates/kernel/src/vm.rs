//! The virtual-memory subsystem: all page tables plus the IOMMU.
//!
//! "The virtual memory management subsystem owns the memory of all page
//! tables and IOMMU page tables. The subsystem maintains a set of
//! invariants to ensure that each page table and IOMMU table's
//! `page_closure()` are pairwise disjoint, and their union is equal to the
//! `page_closure()` of the virtual memory management subsystem" (§4.2).

use std::collections::{BTreeMap, BTreeSet};

use atmo_hw::PageVa;
use atmo_mem::{closure_partition_wf, AllocError, PageAllocator, PageClosure, PagePtr, PageSize};
use atmo_ptable::{refinement_wf, Iommu, PageTable, WrittenLeaf};
use atmo_spec::harness::{check, Invariant, VerifResult};
use atmo_spec::{Map, Set, WriteSet};
use atmo_trace::{AuditDelta, TraceHandle, TraceShare};

use crate::abs::AbsSpace;

/// Address-space identifier (one per process; see
/// [`atmo_pm::Process::addr_space`]).
pub type AsId = usize;

/// The VM subsystem.
#[derive(Debug)]
pub struct VmSubsystem {
    tables: BTreeMap<AsId, PageTable>,
    /// The IOMMU and its per-device translation domains.
    pub iommu: Iommu,
    /// Map/unmap event sink, propagated to every page table (existing and
    /// future); the syscall layer counts batched-datapath outcomes into it.
    pub(crate) trace: TraceShare,
    /// Batched datapath toggle: when set (the default), `Mmap`/`Munmap`
    /// use the walk-cached range operations, promote eligible 512-page
    /// runs to 2 MiB entries, and defer TLB shootdowns to the syscall
    /// epilogue. When cleared they take the original per-page path —
    /// both produce the same abstract address space.
    batch: bool,
    /// Base addresses of transparently promoted 2 MiB entries, per
    /// space. Only these are demoted back to 4 KiB by a partial
    /// `Munmap` or a DMA pin; explicitly requested superpages
    /// (`MmapHuge2M`) keep their all-or-nothing semantics.
    promoted: BTreeMap<AsId, BTreeSet<usize>>,
    /// The spaces handed out for mutation since the last
    /// [`clear_touched`](Self::clear_touched): the three methods that
    /// can change a page table (`create_space`, `destroy_space`,
    /// `table_mut`) record it, and each table records its own leaf
    /// steps. Every syscall path clears both, so they are empty at every
    /// syscall boundary.
    touched: WriteSet<AsId>,
}

impl VmSubsystem {
    /// An empty subsystem.
    pub fn new() -> Self {
        VmSubsystem {
            tables: BTreeMap::new(),
            iommu: Iommu::new(),
            trace: TraceShare::detached(),
            batch: true,
            promoted: BTreeMap::new(),
            touched: WriteSet::default(),
        }
    }

    /// `true` when the batched VM datapath is enabled.
    pub fn batch_enabled(&self) -> bool {
        self.batch
    }

    /// Enables or disables the batched datapath (benchmarks measure the
    /// per-page baseline with it off).
    pub fn set_batch(&mut self, on: bool) {
        self.batch = on;
    }

    /// Records that the 2 MiB entry at `va` in `as_id` was transparently
    /// promoted from a 512-page run.
    pub fn note_promoted(&mut self, as_id: AsId, va: usize) {
        self.promoted.entry(as_id).or_default().insert(va);
    }

    /// Forgets a promotion (after demotion or unmap of the entry).
    pub fn clear_promoted(&mut self, as_id: AsId, va: usize) {
        if let Some(set) = self.promoted.get_mut(&as_id) {
            set.remove(&va);
            if set.is_empty() {
                self.promoted.remove(&as_id);
            }
        }
    }

    /// `true` when the 2 MiB entry at `va` in `as_id` came from
    /// transparent promotion.
    pub fn is_promoted(&self, as_id: AsId, va: usize) -> bool {
        self.promoted
            .get(&as_id)
            .is_some_and(|set| set.contains(&va))
    }

    /// `true` when some transparently promoted 2 MiB entry of `as_id`
    /// has its head in `first_head .. end`: one ordered-set range query,
    /// however long the range.
    pub fn any_promoted_in(&self, as_id: AsId, first_head: usize, end: usize) -> bool {
        self.promoted
            .get(&as_id)
            .is_some_and(|set| set.range(first_head..end).next().is_some())
    }

    /// Routes map/unmap events from every page table — current and
    /// subsequently created — into `sink`.
    pub fn attach_trace(&mut self, sink: TraceHandle) {
        for pt in self.tables.values_mut() {
            pt.attach_trace(sink.clone());
        }
        self.iommu.attach_trace(sink.clone());
        self.trace.attach(sink);
    }

    /// Creates the page table for a new address space.
    ///
    /// # Panics
    ///
    /// Panics when `as_id` already exists (process creation assigns fresh
    /// identifiers).
    pub fn create_space(
        &mut self,
        alloc: &mut PageAllocator,
        as_id: AsId,
    ) -> Result<(), AllocError> {
        assert!(!self.tables.contains_key(&as_id), "duplicate address space");
        let mut pt = PageTable::new(alloc)?;
        if let Some(sink) = self.trace.handle() {
            pt.attach_trace(sink.clone());
        }
        // The root frame was allocated before the table could observe the
        // sink; account for it here.
        self.trace.audit(AuditDelta::VmAcquire(pt.cr3));
        self.trace.audit(AuditDelta::SpaceCreate(as_id));
        self.tables.insert(as_id, pt);
        self.touched.record(as_id);
        Ok(())
    }

    /// Tears down an address space: unmaps every frame (dropping mapping
    /// references), then releases the table frames.
    ///
    /// Returns the number of mapping entries that were removed (for quota
    /// release by the caller).
    pub fn destroy_space(&mut self, alloc: &mut PageAllocator, as_id: AsId) -> usize {
        let mut pt = self.tables.remove(&as_id).expect("unknown address space");
        self.promoted.remove(&as_id);
        self.touched.record(as_id);
        let mut removed = 0;
        for (&va, (_e, size)) in pt.address_space().iter() {
            let frame = match size {
                PageSize::Size4K => PageVa::new(va).map(|va| pt.unmap_4k_page(va)),
                PageSize::Size2M => PageVa::new(va).map(|va| pt.unmap_2m_page(va)),
                PageSize::Size1G => PageVa::new(va).map(|va| pt.unmap_1g_page(va)),
            };
            alloc.dec_map_ref(frame.and_then(Result::ok).expect("leaves are mapped pages"));
            removed += 1;
        }
        pt.release(alloc);
        self.trace.audit(AuditDelta::SpaceDestroy(as_id));
        removed
    }

    /// Immutable access to an address space's page table.
    pub fn table(&self, as_id: AsId) -> Option<&PageTable> {
        self.tables.get(&as_id)
    }

    /// Mutable access to an address space's page table; records the
    /// space as touched.
    pub fn table_mut(&mut self, as_id: AsId) -> Option<&mut PageTable> {
        let pt = self.tables.get_mut(&as_id)?;
        self.touched.record(as_id);
        Some(pt)
    }

    /// The spaces created, destroyed or handed out mutably since the
    /// last [`clear_touched`](Self::clear_touched), in first-touch
    /// order.
    pub(crate) fn touched(&self) -> impl Iterator<Item = AsId> + '_ {
        self.touched.iter()
    }

    /// What the calls since the last [`clear_touched`](Self::clear_touched)
    /// wrote: every touched space in first-touch order, with the leaves
    /// its table recorded read back from it, or `None` once the space
    /// is destroyed. (No call destroys a space and creates one under
    /// the same id.)
    pub(crate) fn writes(&mut self) -> Vec<(AsId, Option<Vec<WrittenLeaf>>)> {
        let tables = &mut self.tables;
        let written = |id| {
            (
                id,
                tables.get_mut(&id).map(|t| t.written_leaves().collect()),
            )
        };
        self.touched.iter().map(written).collect()
    }

    /// Forgets the touched spaces and their tables' leaf records (keeps
    /// the buffers).
    pub(crate) fn clear_touched(&mut self) {
        for id in self.touched.iter() {
            if let Some(t) = self.tables.get_mut(&id) {
                t.clear_leaves();
            }
        }
        self.touched.clear();
    }

    /// The identifiers of all live address spaces.
    pub fn spaces(&self) -> Set<AsId> {
        self.tables.keys().copied().collect()
    }

    /// The abstract view: per-space abstract mappings (the
    /// `get_address_space()` of §4.3) — Ψ's `spaces`, and the state of
    /// every mem replica.
    pub fn view(&self) -> Map<AsId, AbsSpace> {
        self.tables
            .iter()
            .map(|(id, pt)| (*id, pt.address_space()))
            .collect()
    }
}

impl Default for VmSubsystem {
    fn default() -> Self {
        VmSubsystem::new()
    }
}

impl PageClosure for VmSubsystem {
    fn page_closure(&self) -> Set<PagePtr> {
        let mut s = self.iommu.page_closure();
        for pt in self.tables.values() {
            s.union_mut(&pt.page_closure());
        }
        s
    }
}

impl Invariant for VmSubsystem {
    /// Per-table structure + refinement, IOMMU well-formedness, and the
    /// §4.2 closure partition at this level of the hierarchy.
    fn wf(&self) -> VerifResult {
        let mut closures = Vec::new();
        for (id, pt) in &self.tables {
            pt.wf()?;
            refinement_wf(pt)?;
            check(
                pt.table_frame_count() >= 1 || !pt.address_space().is_empty(),
                "vm",
                format_args!("space {id} lost its root table"),
            )?;
            // Quiescence: the issuing syscall's epilogue broadcasts the
            // deferred shootdowns and hands the leaf record to the log
            // before the mem domain is released, so no audit point may
            // observe a pending shootdown or a recorded leaf.
            let (pending, leaves) = (pt.pending_shootdowns(), pt.recorded_leaves());
            check(
                pending == 0 && leaves == 0,
                "vm",
                format_args!(
                    "space {id} released with {pending} pages of un-broadcast \
                     shootdowns and {leaves} leaf steps no log entry took"
                ),
            )?;
            closures.push(pt.page_closure());
        }
        // Every recorded promotion is a live 2 MiB entry of its space.
        for (id, vas) in &self.promoted {
            let pt = self.tables.get(id);
            for va in vas {
                check(
                    pt.is_some_and(|pt| pt.map_2m.contains_key(va)),
                    "vm",
                    format_args!("promoted entry {va:#x} of space {id} has no 2 MiB mapping"),
                )?;
            }
        }
        self.iommu.wf()?;
        closures.push(self.iommu.page_closure());
        closure_partition_wf("vm", &self.page_closure(), &closures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_hw::addr::PageVa4K;
    use atmo_hw::boot::BootInfo;
    use atmo_hw::paging::EntryFlags;

    const PAGE: PageVa4K = PageVa4K::new(0x40_0000).unwrap();

    fn setup() -> (PageAllocator, VmSubsystem) {
        (
            PageAllocator::new(&BootInfo::simulated(16, 1, "")),
            VmSubsystem::new(),
        )
    }

    #[test]
    fn create_and_destroy_space_is_leak_free() {
        let (mut a, mut vm) = setup();
        let allocated0 = a.allocated_pages().len();
        vm.create_space(&mut a, 1).unwrap();
        assert!(vm.is_wf());

        let frame = a.alloc_mapped(PageSize::Size4K).unwrap();
        vm.table_mut(1)
            .unwrap()
            .map_4k_page(&mut a, PAGE, frame, EntryFlags::user_rw())
            .unwrap();
        // The mutant: the step's leaf record is left for no log entry.
        let err = vm.wf().unwrap_err().to_string();
        assert!(
            err.contains("space 1 released with 0 pages of un-broadcast shootdowns and 1 leaf steps no log entry took"),
            "{err}"
        );
        vm.clear_touched();
        assert!(vm.is_wf());

        let removed = vm.destroy_space(&mut a, 1);
        assert_eq!(removed, 1);
        assert_eq!(a.allocated_pages().len(), allocated0);
        assert!(a.mapped_pages().is_empty());
        assert!(vm.spaces().is_empty());
    }

    #[test]
    fn touched_spaces_are_recorded_once_past_the_inline_slots() {
        let (mut a, mut vm) = setup();
        // Eleven spaces: three past the eight the set holds inline.
        let ids: Vec<AsId> = (1..=11).collect();
        for &id in &ids {
            vm.create_space(&mut a, id).unwrap();
            vm.table_mut(id).unwrap();
        }
        vm.table_mut(1).unwrap();
        vm.destroy_space(&mut a, ids[9]);
        assert!(vm.touched().eq(ids.iter().copied()));
        vm.clear_touched();
        assert_eq!(vm.touched().count(), 0);
        vm.table_mut(2).unwrap();
        assert!(vm.touched().eq([2]));
    }

    #[test]
    fn two_spaces_have_disjoint_closures() {
        let (mut a, mut vm) = setup();
        vm.create_space(&mut a, 1).unwrap();
        vm.create_space(&mut a, 2).unwrap();
        let f1 = a.alloc_mapped(PageSize::Size4K).unwrap();
        let f2 = a.alloc_mapped(PageSize::Size4K).unwrap();
        vm.table_mut(1)
            .unwrap()
            .map_4k_page(&mut a, PAGE, f1, EntryFlags::user_rw())
            .unwrap();
        vm.table_mut(2)
            .unwrap()
            .map_4k_page(&mut a, PAGE, f2, EntryFlags::user_rw())
            .unwrap();
        vm.clear_touched();
        assert!(vm.wf().is_ok(), "{:?}", vm.wf());
        assert_eq!(vm.page_closure(), a.allocated_pages());
    }

    #[test]
    #[should_panic(expected = "duplicate address space")]
    fn duplicate_space_rejected() {
        let (mut a, mut vm) = setup();
        vm.create_space(&mut a, 1).unwrap();
        vm.create_space(&mut a, 1).unwrap();
    }

    #[test]
    fn view_projects_abstract_mappings() {
        let (mut a, mut vm) = setup();
        vm.create_space(&mut a, 7).unwrap();
        let f = a.alloc_mapped(PageSize::Size4K).unwrap();
        vm.table_mut(7)
            .unwrap()
            .map_4k_page(&mut a, PAGE, f, EntryFlags::user_ro())
            .unwrap();
        let v = vm.view();
        let space = v.index(&7).unwrap();
        let (entry, size) = space.index(&PAGE.as_usize()).unwrap();
        assert_eq!(entry.frame, f);
        assert_eq!(*size, PageSize::Size4K);
    }
}
