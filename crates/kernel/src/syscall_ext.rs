//! Extended system calls: 2 MiB superpage mappings and the IOMMU
//! interface.
//!
//! * **Superpages** (§4.2): "We support allocation of 2MB and 1GB
//!   superpages to support construction of large address spaces with low
//!   TLB pressure." `MmapHuge2M` allocates and maps one 2 MiB block
//!   (512 pages of quota); `MunmapHuge2M` releases it.
//! * **IOMMU** (§3, §5): device drivers live in user space and DMA is
//!   confined by IOMMU protection domains. Containers create domains,
//!   attach devices, map their own pages for DMA, and may pass domain
//!   identifiers to other containers through endpoints
//!   (`IpcPayload::iommu_grant`).
//!
//! Like the core handlers, these run against an `ExecCtx`: every IOMMU
//! table and the superpage allocator live in the mem domain, so the
//! sharded kernel takes the mem lock lazily on first touch.

use atmo_hw::addr::{PageVa2M, PageVa4K, VAddr};
use atmo_hw::paging::EntryFlags;
use atmo_mem::PageSize;
use atmo_pm::types::ThrdPtr;
use atmo_ptable::DeviceId;
use atmo_trace::VmOutcome;

use crate::syscall::{ExecCtx, SyscallError, SyscallReturn};

/// Internal result alias for the extension handlers.
type Ret = SyscallReturn;

fn ok(vals: [u64; 4]) -> Ret {
    SyscallReturn { result: Ok(vals) }
}

fn err(e: SyscallError) -> Ret {
    SyscallReturn { result: Err(e) }
}

impl ExecCtx<'_> {
    /// Maps one 2 MiB superpage at `va_base` in the caller's space,
    /// charging 512 pages of quota.
    pub(crate) fn sys_mmap_huge_2m(&mut self, t: ThrdPtr, va_base: usize, writable: bool) -> Ret {
        let costs = self.costs;
        self.charge(
            costs.syscall_validate
                + costs.page_alloc_4k
                + costs.quota_account
                + 2 * costs.pt_level_read
                + costs.pt_level_write
                + costs.page_state_update
                + costs.tlb_invalidate,
        );
        let Some(va) = PageVa2M::new(va_base) else {
            return err(SyscallError::Invalid);
        };
        let (proc_ptr, cntr) = {
            let th = self.pm.thrd(t);
            (th.owning_proc, th.owning_cntr)
        };
        let as_id = self.pm.proc(proc_ptr).addr_space;
        let frames = PageSize::Size2M.frames();
        if let Err(e) = self.pm.charge(cntr, frames) {
            return err(e.into());
        }
        let m = self.mem.domain();
        let frame = match m.alloc.alloc_mapped(PageSize::Size2M) {
            Ok(f) => f,
            Err(_) => {
                self.pm.uncharge(cntr, frames);
                return err(SyscallError::NoMem);
            }
        };
        let flags = if writable {
            EntryFlags::user_rw()
        } else {
            EntryFlags::user_ro()
        };
        let pt = m.vm.table_mut(as_id).expect("space exists");
        match pt.map_2m_page(&mut m.alloc, va, frame, flags) {
            Ok(()) => ok([va_base as u64, frames as u64, 0, 0]),
            Err(e) => {
                m.alloc.dec_map_ref(frame);
                self.pm.uncharge(cntr, frames);
                err(e.into())
            }
        }
    }

    /// Unmaps the 2 MiB superpage at `va_base`, releasing its quota.
    pub(crate) fn sys_munmap_huge_2m(&mut self, t: ThrdPtr, va_base: usize) -> Ret {
        let costs = self.costs;
        self.charge(
            costs.syscall_validate
                + costs.pt_level_write
                + costs.page_state_update
                + costs.tlb_invalidate,
        );
        let (proc_ptr, cntr) = {
            let th = self.pm.thrd(t);
            (th.owning_proc, th.owning_cntr)
        };
        let as_id = self.pm.proc(proc_ptr).addr_space;
        let m = self.mem.domain();
        let Some(va) = PageVa2M::new(va_base) else {
            return err(SyscallError::Invalid);
        };
        let pt = m.vm.table_mut(as_id).expect("space exists");
        match pt.unmap_2m_page(va) {
            Ok(frame) => {
                m.alloc.dec_map_ref(frame);
                self.pm.uncharge(cntr, PageSize::Size2M.frames());
                ok([PageSize::Size2M.frames() as u64, 0, 0, 0])
            }
            Err(e) => err(e.into()),
        }
    }

    /// Creates an IOMMU protection domain owned by the caller's
    /// container (its translation root is a kernel page).
    pub(crate) fn sys_iommu_create_domain(&mut self, t: ThrdPtr) -> Ret {
        let costs = self.costs;
        self.charge(costs.page_alloc_4k + costs.quota_account);
        let cntr = self.pm.thrd(t).owning_cntr;
        if let Err(e) = self.pm.charge(cntr, 1) {
            return err(e.into());
        }
        let m = self.mem.domain();
        match m.vm.iommu.create_domain(&mut m.alloc) {
            Ok(id) => {
                m.iommu_owner.insert(id, cntr);
                ok([id as u64, 0, 0, 0])
            }
            Err(_) => {
                self.pm.uncharge(cntr, 1);
                err(SyscallError::NoMem)
            }
        }
    }

    /// Attaches `device` to `domain` (authorized containers only).
    pub(crate) fn sys_iommu_attach(&mut self, t: ThrdPtr, domain: u32, device: DeviceId) -> Ret {
        self.charge(self.costs.syscall_validate);
        let cntr = self.pm.thrd(t).owning_cntr;
        let m = self.mem.domain();
        if !m.iommu_owner.contains_key(&domain) {
            return err(SyscallError::NotFound);
        }
        if !m.iommu_authorized(domain, cntr) {
            return err(SyscallError::Denied);
        }
        if m.vm.iommu.attach_device(domain, device) {
            ok([0, 0, 0, 0])
        } else {
            err(SyscallError::WrongState)
        }
    }

    /// Detaches `device` from whatever domain it is attached to.
    pub(crate) fn sys_iommu_detach(&mut self, t: ThrdPtr, device: DeviceId) -> Ret {
        self.charge(self.costs.syscall_validate);
        let cntr = self.pm.thrd(t).owning_cntr;
        let m = self.mem.domain();
        match m.vm.iommu.domain_of(device) {
            Some(domain) if m.iommu_authorized(domain, cntr) => {
                m.vm.iommu.detach_device(device);
                ok([0, 0, 0, 0])
            }
            Some(_) => err(SyscallError::Denied),
            None => err(SyscallError::NotFound),
        }
    }

    /// Maps the frame backing the caller's `va` at `iova` in `domain`,
    /// making it DMA-visible. The IOMMU mapping holds its own reference
    /// to the frame.
    pub(crate) fn sys_iommu_map(&mut self, t: ThrdPtr, domain: u32, iova: usize, va: usize) -> Ret {
        let costs = self.costs;
        self.charge(costs.syscall_validate + 3 * costs.pt_level_read + costs.pt_level_write);
        let (proc_ptr, cntr) = {
            let th = self.pm.thrd(t);
            (th.owning_proc, th.owning_cntr)
        };
        let as_id = self.pm.proc(proc_ptr).addr_space;
        let m = self.mem.domain();
        if !m.iommu_owner.contains_key(&domain) {
            return err(SyscallError::NotFound);
        }
        if !m.iommu_authorized(domain, cntr) {
            return err(SyscallError::Denied);
        }
        let Some(iova) = PageVa4K::new(iova) else {
            return err(SyscallError::Invalid);
        };
        let va_page = VAddr(va).align_down(atmo_hw::PAGE_SIZE_4K).as_usize();
        // DMA pinning inside a transparently promoted region demotes it
        // back to 4 KiB entries first: the IOMMU maps (and references)
        // individual frames, so the CPU-side view must expose the same
        // granularity. The IOMMU view after the round trip is identical
        // to what it would be had the region never been promoted.
        let head = va_page & !(atmo_hw::PAGE_SIZE_2M - 1);
        if m.vm.is_promoted(as_id, head) {
            crate::syscall::demote_promoted(&costs, self.meter, m, as_id, head);
            let pt = m.vm.table_mut(as_id).expect("space exists");
            let flushed = pt.flush_shootdowns();
            self.meter.charge(costs.tlb_shootdown_batch);
            m.vm.trace.count(VmOutcome::ShootdownFlushed, flushed);
        }
        // Resolve the caller's mapping (only your own memory can be made
        // DMA-visible — the isolation-preserving rule).
        let frame = {
            let pt = m.vm.table(as_id).expect("space exists");
            match pt.map_4k.index(&va_page) {
                Some(e) => e.frame,
                None => return err(SyscallError::Fault),
            }
        };
        m.alloc.inc_map_ref(frame);
        let rw = EntryFlags::user_rw();
        match m.vm.iommu.map_4k(&mut m.alloc, domain, iova, frame, rw) {
            Ok(()) => ok([iova.as_usize() as u64, 0, 0, 0]),
            Err(e) => {
                m.alloc.dec_map_ref(frame);
                err(e.into())
            }
        }
    }

    /// Unmaps `iova` from `domain`, dropping the DMA reference.
    pub(crate) fn sys_iommu_unmap(&mut self, t: ThrdPtr, domain: u32, iova: usize) -> Ret {
        let costs = self.costs;
        self.charge(costs.syscall_validate + costs.pt_level_write);
        let cntr = self.pm.thrd(t).owning_cntr;
        let m = self.mem.domain();
        if !m.iommu_owner.contains_key(&domain) {
            return err(SyscallError::NotFound);
        }
        if !m.iommu_authorized(domain, cntr) {
            return err(SyscallError::Denied);
        }
        let Some(iova) = PageVa4K::new(iova) else {
            return err(SyscallError::Invalid);
        };
        match m.vm.iommu.unmap_4k(domain, iova) {
            Ok(frame) => {
                m.alloc.dec_map_ref(frame);
                ok([0, 0, 0, 0])
            }
            Err(e) => err(e.into()),
        }
    }

    /// Tears down every IOMMU domain owned by a container in `dead`:
    /// detaches devices, unmaps IOVAs (dropping frame references), frees
    /// the translation tables, and removes access entries.
    pub(crate) fn cleanup_iommu_for(&mut self, dead: &[usize]) {
        let m = self.mem.domain();
        let doomed: Vec<u32> = m
            .iommu_owner
            .iter()
            .filter(|(_, owner)| dead.contains(owner))
            .map(|(id, _)| *id)
            .collect();
        for id in doomed {
            for dev in m.vm.iommu.attached_devices(id).to_vec() {
                m.vm.iommu.detach_device(dev);
            }
            for iova in m.vm.iommu.domain_iovas(id) {
                let frame = m.vm.iommu.unmap_4k(id, iova).expect("listed iova unmaps");
                m.alloc.dec_map_ref(frame);
            }
            m.vm.iommu.destroy_domain(&mut m.alloc, id);
            let owner = m.iommu_owner.remove(&id).expect("owned domain");
            if self.pm.cntr_perms.contains(owner) {
                self.pm.uncharge(owner, 1);
            }
            m.iommu_access.remove(&id);
        }
        // Dead containers also lose any granted access to surviving
        // domains.
        for acl in m.iommu_access.values_mut() {
            acl.retain(|c| !dead.contains(c));
        }
    }

    /// Grants the receiving thread's container access to `domain` (the
    /// delivery half of an `iommu_grant`). No-op for unknown domains.
    pub(crate) fn deliver_iommu_grant(&mut self, receiver: ThrdPtr, domain: u32) {
        let cntr = self.pm.thrd(receiver).owning_cntr;
        let m = self.mem.domain();
        if !m.iommu_owner.contains_key(&domain) {
            return;
        }
        let acl = m.iommu_access.entry(domain).or_default();
        if !acl.contains(&cntr) && m.iommu_owner.get(&domain) != Some(&cntr) {
            acl.push(cntr);
        }
    }
}
