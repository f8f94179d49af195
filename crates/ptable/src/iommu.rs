//! IOMMU translation tables and device protection domains.
//!
//! Atmosphere places device drivers in user space and confines their DMA
//! with the IOMMU (§3, §5: "We do not trust physical devices that we can
//! run behind an I/O Memory Management Unit"). The IOMMU reuses the same
//! 4-level table format as the CPU MMU; each protection *domain* owns one
//! translation table, and each device (identified by its PCI
//! bus/device/function) is attached to at most one domain.
//!
//! The virtual-memory subsystem owns "the memory of all page tables and
//! IOMMU page tables" (§4.2); [`Iommu::page_closure`] exposes this
//! module's share of that closure.

use atmo_hw::addr::{PageVa4K, VAddr};
use atmo_hw::paging::{EntryFlags, ResolvedMapping};
use atmo_mem::{AllocError, PageAllocator, PageClosure, PagePtr};
use atmo_spec::harness::{check, Invariant, VerifResult};
use atmo_spec::set::pairwise_disjoint;
use atmo_spec::Set;
use atmo_trace::{AuditDelta, TraceHandle, TraceShare};

use crate::table::{MapError, PageTable};

/// A PCI-style device identifier (bus/device/function packed).
pub type DeviceId = u16;

/// An IOMMU protection-domain identifier.
pub type IommuDomainId = u32;

/// One protection domain: a translation table plus its attached devices.
#[derive(Debug)]
struct Domain {
    table: PageTable,
    devices: Set<DeviceId>,
}

/// The IOMMU: a set of protection domains and the device→domain binding.
#[derive(Debug)]
pub struct Iommu {
    domains: std::collections::BTreeMap<IommuDomainId, Domain>,
    next_id: IommuDomainId,
    /// Audit-delta sink, propagated to every domain table (always-equal
    /// share: tracing does not change IOMMU state).
    trace: TraceShare,
}

impl Default for Iommu {
    fn default() -> Self {
        Iommu::new()
    }
}

impl Iommu {
    /// An IOMMU with no domains.
    pub fn new() -> Self {
        Iommu {
            domains: std::collections::BTreeMap::new(),
            next_id: 0,
            trace: TraceShare::detached(),
        }
    }

    /// Routes map/unmap events and audit deltas of every domain table
    /// (current and future) into `sink`.
    pub fn attach_trace(&mut self, sink: TraceHandle) {
        for d in self.domains.values_mut() {
            d.table.attach_trace(sink.clone());
        }
        self.trace.attach(sink);
    }

    /// Creates an empty protection domain, returning its id.
    pub fn create_domain(
        &mut self,
        alloc: &mut PageAllocator,
    ) -> Result<IommuDomainId, AllocError> {
        let mut table = PageTable::new(alloc)?;
        if let Some(sink) = self.trace.handle() {
            table.attach_trace(sink.clone());
        }
        // The root frame was allocated before the table could observe the
        // sink; account for it here.
        self.trace.audit(AuditDelta::VmAcquire(table.cr3));
        let id = self.next_id;
        self.next_id += 1;
        self.domains.insert(
            id,
            Domain {
                table,
                devices: Set::empty(),
            },
        );
        Ok(id)
    }

    /// Attaches `dev` to `domain`. A device can be attached to at most one
    /// domain at a time.
    ///
    /// Returns `false` when the domain does not exist or the device is
    /// already attached elsewhere.
    pub fn attach_device(&mut self, domain: IommuDomainId, dev: DeviceId) -> bool {
        if self.domain_of(dev).is_some() {
            return false;
        }
        match self.domains.get_mut(&domain) {
            Some(d) => {
                d.devices.insert_mut(dev);
                true
            }
            None => false,
        }
    }

    /// Detaches `dev` from whatever domain holds it. Returns `true` when a
    /// binding was removed.
    pub fn detach_device(&mut self, dev: DeviceId) -> bool {
        for d in self.domains.values_mut() {
            if d.devices.contains(&dev) {
                d.devices.remove_mut(&dev);
                return true;
            }
        }
        false
    }

    /// The domain `dev` is attached to, if any.
    pub fn domain_of(&self, dev: DeviceId) -> Option<IommuDomainId> {
        self.domains
            .iter()
            .find(|(_, d)| d.devices.contains(&dev))
            .map(|(id, _)| *id)
    }

    /// Maps device-visible address `iova` to frame `frame` in `domain`.
    pub fn map_4k(
        &mut self,
        alloc: &mut PageAllocator,
        domain: IommuDomainId,
        iova: PageVa4K,
        frame: PagePtr,
        flags: EntryFlags,
    ) -> Result<(), MapError> {
        let d = self.domains.get_mut(&domain).ok_or(MapError::NotMapped)?;
        let r = d.table.map_4k_page(alloc, iova, frame, flags);
        // Nothing replicates a DMA space: drop the leaf record.
        d.table.clear_leaves();
        r
    }

    /// Whether `iova` is mapped in `domain`.
    pub fn is_mapped(&self, domain: IommuDomainId, iova: PageVa4K) -> bool {
        self.domains
            .get(&domain)
            .is_some_and(|d| d.table.map_4k.contains_key(&iova.as_usize()))
    }

    /// Unmaps `iova` from `domain`, returning the frame.
    pub fn unmap_4k(&mut self, domain: IommuDomainId, iova: PageVa4K) -> Result<PagePtr, MapError> {
        let d = self.domains.get_mut(&domain).ok_or(MapError::NotMapped)?;
        let r = d.table.unmap_4k_page(iova);
        d.table.clear_leaves();
        r
    }

    /// Translates a DMA access by `dev` at `iova`, exactly as the IOMMU
    /// hardware walk would. `None` means the DMA is blocked.
    pub fn translate(&self, dev: DeviceId, iova: VAddr) -> Option<ResolvedMapping> {
        let domain = self.domain_of(dev)?;
        self.domains.get(&domain)?.table.resolve(iova)
    }

    /// Number of live domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Devices attached to `domain`.
    pub fn attached_devices(&self, domain: IommuDomainId) -> Set<DeviceId> {
        self.domains
            .get(&domain)
            .map(|d| d.devices.clone())
            .unwrap_or_default()
    }

    /// Every frame mapped by any domain (DMA-visible memory); feeds the
    /// kernel-wide leak-freedom equation.
    pub fn mapped_frames(&self) -> Set<PagePtr> {
        let mut s = Set::empty();
        for d in self.domains.values() {
            s.union_mut(&d.table.mapped_frames());
        }
        s
    }

    /// Visits every leaf reference *site* across all domains (see
    /// [`PageTable::visit_leaf_sites`]); multiplicity preserved for the
    /// incremental auditor's reference fold.
    pub fn visit_leaf_sites(&self, mut f: impl FnMut(PagePtr)) {
        for d in self.domains.values() {
            d.table.visit_leaf_sites(&mut f);
        }
    }

    /// The IOVAs currently mapped in `domain`.
    pub fn domain_iovas(&self, domain: IommuDomainId) -> Vec<PageVa4K> {
        let iova = |va: &usize| PageVa4K::new(*va).expect("a 4 KiB leaf's va is a 4 KiB page");
        self.domains
            .get(&domain)
            .map(|d| d.table.map_4k.keys().map(iova).collect())
            .unwrap_or_default()
    }

    /// Destroys a domain, returning its table frames to the allocator. All
    /// mappings must have been removed and devices detached.
    ///
    /// # Panics
    ///
    /// Panics when devices remain attached (a revocation-order violation).
    pub fn destroy_domain(&mut self, alloc: &mut PageAllocator, domain: IommuDomainId) {
        let d = self
            .domains
            .remove(&domain)
            .expect("destroying unknown IOMMU domain");
        assert!(
            d.devices.is_empty(),
            "destroying an IOMMU domain with attached devices"
        );
        d.table.release(alloc);
    }
}

impl PageClosure for Iommu {
    fn page_closure(&self) -> Set<PagePtr> {
        let mut s = Set::empty();
        for d in self.domains.values() {
            s.union_mut(&d.table.page_closure());
        }
        s
    }
}

impl Invariant for Iommu {
    /// IOMMU well-formedness: each domain's table is well-formed and
    /// refines its abstract mapping; no device is attached to two domains;
    /// domain table closures are pairwise disjoint.
    fn wf(&self) -> VerifResult {
        let mut seen: Set<DeviceId> = Set::empty();
        let mut closures = Vec::new();
        for (id, d) in &self.domains {
            d.table.wf()?;
            crate::refine::refinement_wf(&d.table)?;
            for dev in d.devices.iter() {
                check(
                    !seen.contains(dev),
                    "iommu",
                    format_args!("device {dev} attached to multiple domains (incl. {id})"),
                )?;
                seen.insert_mut(*dev);
            }
            closures.push(d.table.page_closure());
        }
        check(
            pairwise_disjoint(&closures),
            "iommu",
            "domain translation tables share frames",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_hw::boot::BootInfo;
    use atmo_mem::PageSize;

    const IOVA: PageVa4K = PageVa4K::new(0x10_0000).unwrap();

    fn setup() -> (PageAllocator, Iommu) {
        (
            PageAllocator::new(&BootInfo::simulated(16, 1, "")),
            Iommu::new(),
        )
    }

    #[test]
    fn unattached_device_dma_is_blocked() {
        let (_a, io) = setup();
        assert_eq!(io.translate(7, VAddr(0x1000)), None);
    }

    #[test]
    fn attach_map_translate() {
        let (mut a, mut io) = setup();
        let dom = io.create_domain(&mut a).unwrap();
        assert!(io.attach_device(dom, 7));
        let frame = a.alloc_mapped(PageSize::Size4K).unwrap();
        io.map_4k(&mut a, dom, IOVA, frame, EntryFlags::user_rw())
            .unwrap();
        let r = io.translate(7, VAddr(0x10_0000)).unwrap();
        assert_eq!(r.frame.as_usize(), frame);
        assert!(io.is_wf());
        // Unmapped IOVA still blocked.
        assert_eq!(io.translate(7, VAddr(0x20_0000)), None);
    }

    #[test]
    fn device_cannot_join_two_domains() {
        let (mut a, mut io) = setup();
        let d1 = io.create_domain(&mut a).unwrap();
        let d2 = io.create_domain(&mut a).unwrap();
        assert!(io.attach_device(d1, 7));
        assert!(!io.attach_device(d2, 7));
        assert_eq!(io.domain_of(7), Some(d1));
        assert!(io.is_wf());
    }

    #[test]
    fn detach_blocks_dma_again() {
        let (mut a, mut io) = setup();
        let dom = io.create_domain(&mut a).unwrap();
        io.attach_device(dom, 3);
        let frame = a.alloc_mapped(PageSize::Size4K).unwrap();
        io.map_4k(&mut a, dom, IOVA, frame, EntryFlags::user_rw())
            .unwrap();
        assert!(io.detach_device(3));
        assert_eq!(io.translate(3, VAddr(0x10_0000)), None);
        assert!(!io.detach_device(3), "second detach is a no-op");
    }

    #[test]
    fn destroy_domain_returns_frames() {
        let (mut a, mut io) = setup();
        let allocated_before = a.allocated_pages().len();
        let dom = io.create_domain(&mut a).unwrap();
        let frame = a.alloc_mapped(PageSize::Size4K).unwrap();
        io.map_4k(&mut a, dom, IOVA, frame, EntryFlags::user_rw())
            .unwrap();
        io.unmap_4k(dom, IOVA).unwrap();
        a.dec_map_ref(frame);
        io.destroy_domain(&mut a, dom);
        assert_eq!(a.allocated_pages().len(), allocated_before);
        assert_eq!(io.domain_count(), 0);
    }

    #[test]
    fn closures_cover_all_domain_tables() {
        let (mut a, mut io) = setup();
        let d1 = io.create_domain(&mut a).unwrap();
        let d2 = io.create_domain(&mut a).unwrap();
        let f = a.alloc_mapped(PageSize::Size4K).unwrap();
        io.map_4k(&mut a, d1, IOVA, f, EntryFlags::user_rw())
            .unwrap();
        let _ = d2;
        // d1: root + 3 levels; d2: root.
        assert_eq!(io.page_closure().len(), 5);
        assert!(io.is_wf());
    }
}
