//! Node-replicated read projections of the pm and mem domains.
//!
//! The sharded kernel's read-mostly syscalls (`getpid`, thread lookup,
//! descriptor resolve, VM resolve) spend almost their entire budget on
//! the pm domain lock — not on hold time, but on the serialization the
//! lock *models*: every acquirer syncs its meter to the domain's model
//! time, so sixteen readers advance one shared clock. This module turns
//! those paths into NrOS-style node replication ([`atmo_nr`]): each CPU
//! keeps a local, read-optimized projection of the pm and mem state
//! ([`PmView`], [`MemView`]), kept consistent by per-domain operation
//! logs. Writers still run under the authoritative domain locks — the
//! locked state remains the semantic anchor — and append a summary op
//! ([`PmOp`], [`MemOp`]) *while still holding the lock that serialized
//! the mutation*, so log order equals lock order. Readers replay their
//! local replica to the published tail and answer without touching any
//! domain lock or model clock.
//!
//! Correctness is *replica linearization*, checked at two strengths:
//!
//! * [`atmo_nr::NodeReplicated::nr_wf`] — every replica at tail `t`
//!   equals the fold of the op sequence `[0, t)` (cheap, no kernel
//!   locks);
//! * the epoch cross-check in
//!   [`SmpKernel::audit_total_wf`](crate::smp::SmpKernel::audit_total_wf)
//!   — each replica, synced to the tail, is compared **bit for bit**
//!   against a fresh projection of the authoritative locked state, and
//!   the audit ledger's `NrAppended` running sum is balanced against
//!   the logs' published tails.
//!
//! The projections deliberately keep only what the replicated reads
//! need: ownership edges, quota gauges, descriptor tables, scheduler
//! `current`, and per-space mapping summaries. Thread run states, IPC
//! buffers and queue contents stay exclusive to the locked pm domain.

use std::collections::{BTreeMap, BTreeSet};

use atmo_hw::addr::PAGE_SIZE_4K;
use atmo_nr::{NodeReplicated, NrDispatch};
use atmo_pm::ProcessManager;
use atmo_spec::harness::VerifResult;

use crate::vm::VmSubsystem;

/// The pm domain's read-optimized projection: one instance per CPU.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PmView {
    /// Scheduler `current` per CPU (`getpid`'s and descriptor
    /// resolution's entry point).
    pub current: Vec<Option<usize>>,
    /// thread → (owning process, owning container).
    pub threads: BTreeMap<usize, (usize, usize)>,
    /// process → (owning container, address space).
    pub procs: BTreeMap<usize, (usize, usize)>,
    /// container → (used, quota) gauge.
    pub quotas: BTreeMap<usize, (usize, usize)>,
    /// Live endpoint capabilities.
    pub endpoints: BTreeSet<usize>,
    /// (thread, slot) → endpoint descriptor table.
    pub descriptors: BTreeMap<(usize, usize), usize>,
}

impl PmView {
    /// Projects the authoritative pm state. Called under the pm lock
    /// (boot, structural-op append, epoch cross-check), so the view is
    /// a consistent cut.
    pub fn project(pm: &ProcessManager, ncpus: usize) -> PmView {
        let mut v = PmView {
            current: Self::current_all(pm, ncpus),
            ..PmView::default()
        };
        for (t, perm) in pm.thrd_perms.iter() {
            let th = perm.value();
            v.threads.insert(t, (th.owning_proc, th.owning_cntr));
            for (slot, d) in th.edpt_descriptors.iter().enumerate() {
                if let Some(e) = d {
                    v.descriptors.insert((t, slot), *e);
                }
            }
        }
        for (p, perm) in pm.proc_perms.iter() {
            let pr = perm.value();
            v.procs.insert(p, (pr.owning_container, pr.addr_space));
        }
        for (c, perm) in pm.cntr_perms.iter() {
            let cn = perm.value();
            v.quotas.insert(c, (cn.used, cn.quota));
        }
        for (e, _) in pm.edpt_perms.iter() {
            v.endpoints.insert(e);
        }
        v
    }

    /// The scheduler's `current` for every CPU — the payload of the
    /// cheap [`PmOp::CurrentAll`] op.
    pub fn current_all(pm: &ProcessManager, ncpus: usize) -> Vec<Option<usize>> {
        (0..ncpus).map(|c| pm.sched.current(c)).collect()
    }

    /// The thread running on `cpu`, per this replica.
    pub fn current_thread(&self, cpu: usize) -> Option<usize> {
        self.current.get(cpu).copied().flatten()
    }

    /// `getpid` against this replica: (owning process, owning
    /// container) of `cpu`'s current thread.
    pub fn getpid(&self, cpu: usize) -> Option<(usize, usize)> {
        self.threads.get(&self.current_thread(cpu)?).copied()
    }

    /// Thread lookup against this replica.
    pub fn thread_lookup(&self, t: usize) -> Option<(usize, usize)> {
        self.threads.get(&t).copied()
    }

    /// Descriptor-slot resolution for `cpu`'s current thread.
    pub fn descriptor_resolve(&self, cpu: usize, slot: usize) -> Option<usize> {
        let t = self.current_thread(cpu)?;
        self.descriptors.get(&(t, slot)).copied()
    }

    /// The address space of `cpu`'s current thread's process.
    pub fn current_addr_space(&self, cpu: usize) -> Option<usize> {
        let (proc_ptr, _) = self.getpid(cpu)?;
        Some(self.procs.get(&proc_ptr)?.1)
    }
}

/// One pm-log entry: the summary of what a locked pm mutation changed.
/// All variants are *absolute* (set, not delta), so replay is trivially
/// idempotent per entry and correctness reduces to log order — which
/// equals pm-lock order by construction.
#[derive(Clone, Debug)]
pub enum PmOp {
    /// Scheduler `current` for every CPU (cheap class: yield, call,
    /// reply and error returns, which can context-switch but never
    /// touch object tables or quotas).
    CurrentAll(Vec<Option<usize>>),
    /// One container's quota gauge (the staged mmap/munmap quota
    /// phases, which adjust `used` without structural changes).
    QuotaSet {
        /// The container whose gauge moved.
        cntr: usize,
        /// Pages charged after the op.
        used: usize,
        /// The reservation (unchanged by charges; carried so the op is
        /// a complete absolute statement).
        quota: usize,
    },
    /// Full re-projection (structural class: create/terminate,
    /// grant-carrying IPC, anything that may move objects or quota in
    /// ways a cheaper summary could miss).
    Reset(PmView),
}

impl NrDispatch for PmView {
    type Op = PmOp;

    fn apply(&mut self, op: &PmOp) {
        match op {
            PmOp::CurrentAll(c) => self.current = c.clone(),
            PmOp::QuotaSet { cntr, used, quota } => {
                self.quotas.insert(*cntr, (*used, *quota));
            }
            PmOp::Reset(v) => *self = v.clone(),
        }
    }
}

/// The mem domain's read-optimized projection: address space →
/// (page-aligned va → writable) mapping summaries, including empty
/// spaces (their existence is observable).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemView {
    /// space → va → writable, one entry per mapped 4 KiB page whatever
    /// the size of the leaf that maps it, so promotion and demotion
    /// (pure representation changes) leave the view as it is.
    pub spaces: BTreeMap<usize, BTreeMap<usize, bool>>,
}

impl MemView {
    /// Projects the authoritative VM state. Called under the mem lock.
    pub fn project(vm: &VmSubsystem) -> MemView {
        let mut spaces = BTreeMap::new();
        for id in vm.spaces().iter() {
            let table = vm.table(*id).expect("live space has a table");
            let mut pages = BTreeMap::new();
            for (base, (entry, size)) in table.address_space().iter() {
                for k in 0..size.frames() {
                    pages.insert(base + k * PAGE_SIZE_4K, entry.flags.writable);
                }
            }
            spaces.insert(*id, pages);
        }
        MemView { spaces }
    }

    /// `vm_resolve` against this replica: `Some(writable)` when the
    /// page containing `va` is mapped in `space`.
    pub fn resolve(&self, space: usize, va: usize) -> Option<bool> {
        self.spaces.get(&space)?.get(&(va & !0xFFF)).copied()
    }
}

/// One mem-log entry.
#[derive(Clone, Debug)]
pub enum MemOp {
    /// Absolute mapping summaries for a va set in one space: `Some(w)`
    /// sets, `None` clears (the staged mmap/munmap commit, read back
    /// from the authoritative table under the mem lock).
    MapRange {
        /// Target address space.
        space: usize,
        /// (page-aligned va, writable-or-unmapped) pairs.
        pages: Vec<(usize, Option<bool>)>,
    },
    /// Full re-projection (space create/destroy, grant maps, superpage
    /// ops — anything beyond a staged commit's own range).
    Reset(MemView),
}

impl NrDispatch for MemView {
    type Op = MemOp;

    fn apply(&mut self, op: &MemOp) {
        match op {
            MemOp::MapRange { space, pages } => {
                let s = self.spaces.entry(*space).or_default();
                for (va, w) in pages {
                    match w {
                        Some(w) => {
                            s.insert(*va, *w);
                        }
                        None => {
                            s.remove(va);
                        }
                    }
                }
            }
            MemOp::Reset(v) => *self = v.clone(),
        }
    }
}

/// How a locked syscall's pm-side effects are summarized into the log
/// (assigned by [`SyscallArgs::plan`](crate::syscall::SyscallArgs::plan)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PmUpdateClass {
    /// Read-only / trace-only: nothing to append.
    None,
    /// Only the scheduler's per-CPU `current` can change.
    Current,
    /// Object tables or quotas can change: re-project on success.
    Structural,
}

/// Both replicated structures of one sharded kernel: separate logs for
/// the pm and mem projections, so each domain's ops commute with the
/// other's by construction (cross-domain reads like `vm_resolve`
/// consult both replicas; each answer is individually no staler than
/// its log's tail).
pub struct KernelNr {
    /// Per-CPU pm replicas.
    pub pm: NodeReplicated<PmView>,
    /// Per-CPU mem replicas.
    pub mem: NodeReplicated<MemView>,
}

impl KernelNr {
    /// Replicas for `ncpus` CPUs, baselined on freshly projected views
    /// (taken under the respective domain locks by the caller).
    pub fn new(ncpus: usize, pm_init: PmView, mem_init: MemView) -> Self {
        KernelNr {
            pm: NodeReplicated::new(ncpus, pm_init),
            mem: NodeReplicated::new(ncpus, mem_init),
        }
    }

    /// Replica linearization for both logs.
    pub fn nr_wf(&self) -> VerifResult {
        self.pm.nr_wf()?;
        self.mem.nr_wf()
    }

    /// Replays every replica of both structures to its log's tail;
    /// returns total ops applied.
    pub fn sync_all(&self) -> u64 {
        self.pm.sync_all() + self.mem.sync_all()
    }

    /// Published tails of the (pm, mem) logs — the audit balances the
    /// ledger's `NrAppended` sum against their growth.
    pub fn tails(&self) -> (u64, u64) {
        (self.pm.tail(), self.mem.tail())
    }
}

impl std::fmt::Debug for KernelNr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelNr")
            .field("ncpus", &self.pm.ncpus())
            .field("pm_tail", &self.pm.tail())
            .field("mem_tail", &self.mem.tail())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Kernel, KernelConfig};
    use crate::syscall::{Plan, StagedOp, SyscallArgs};

    #[test]
    fn boot_projection_answers_reads() {
        let k = Kernel::boot(KernelConfig::default());
        let v = PmView::project(&k.pm, 4);
        let (p, c) = v.getpid(0).expect("init thread runs on CPU 0");
        assert_eq!(p, k.init_proc);
        assert_eq!(c, k.root_container);
        assert_eq!(v.thread_lookup(k.init_thread), Some((p, c)));
        assert_eq!(v.current_thread(1), None, "other CPUs idle at boot");
        let (used, quota) = v.quotas[&k.root_container];
        assert!(used <= quota);
        let m = MemView::project(&k.mem.vm);
        let as_id = v.current_addr_space(0).expect("init has a space");
        assert!(m.spaces.contains_key(&as_id), "init space projected");
    }

    #[test]
    fn ops_replay_to_the_reprojected_state() {
        let mut k = Kernel::boot(KernelConfig::default());
        let before = PmView::project(&k.pm, 4);
        let mem_before = MemView::project(&k.mem.vm);
        let r = k.syscall(
            0,
            SyscallArgs::Mmap {
                va_base: 0x40_0000,
                len: 2,
                writable: true,
            },
        );
        assert!(r.is_ok());
        // A Reset op carries any mutation; MapRange carries the staged
        // commit. Both must land on the fresh projection.
        let mut v = before.clone();
        v.apply(&PmOp::Reset(PmView::project(&k.pm, 4)));
        assert_eq!(v, PmView::project(&k.pm, 4));
        let mut m = mem_before.clone();
        let as_id = before.current_addr_space(0).unwrap();
        m.apply(&MemOp::MapRange {
            space: as_id,
            pages: vec![(0x40_0000, Some(true)), (0x40_1000, Some(true))],
        });
        assert_eq!(m, MemView::project(&k.mem.vm));
        assert_eq!(m.resolve(as_id, 0x40_0123), Some(true));
        m.apply(&MemOp::MapRange {
            space: as_id,
            pages: vec![(0x40_0000, None)],
        });
        assert_eq!(m.resolve(as_id, 0x40_0000), None);
    }

    #[test]
    fn quota_set_is_absolute() {
        let mut v = PmView::default();
        v.apply(&PmOp::QuotaSet {
            cntr: 7,
            used: 10,
            quota: 64,
        });
        v.apply(&PmOp::QuotaSet {
            cntr: 7,
            used: 8,
            quota: 64,
        });
        assert_eq!(v.quotas[&7], (8, 64));
    }

    /// The three predicates `SyscallArgs::plan` replaced — replica read,
    /// staged, and the update class — kept as its reference. The class
    /// `match` names every variant, so a new one does not compile until
    /// it is classified here.
    fn reference(args: &SyscallArgs) -> (bool, bool, PmUpdateClass) {
        use PmUpdateClass as C;
        use SyscallArgs as A;
        let nr_read = matches!(
            args,
            A::Getpid | A::ThreadLookup { .. } | A::DescriptorResolve { .. } | A::VmResolve { .. }
        );
        let staged = matches!(args, A::Mmap { .. } | A::Munmap { .. });
        let class = match args {
            A::Getpid | A::ThreadLookup { .. } | A::DescriptorResolve { .. } => C::None,
            A::VmResolve { .. } | A::TraceSnapshot => C::None,
            A::SchedSetWeight { .. } | A::SchedThrottle { .. } => C::None,
            A::Yield | A::Call { .. } | A::Reply { .. } => C::Current,
            A::Mmap { .. } | A::Munmap { .. } | A::MmapHuge2M { .. } => C::Structural,
            A::MunmapHuge2M { .. } | A::NewContainer { .. } | A::NewProcess { .. } => C::Structural,
            A::TerminateContainer { .. } | A::TerminateProcess { .. } | A::Exit => C::Structural,
            A::NewChildProcess | A::NewThread { .. } | A::NewEndpoint { .. } => C::Structural,
            // Receive can consume a grant.
            A::Send { .. } | A::Recv { .. } | A::Poll { .. } | A::ReplyRecv { .. } => C::Structural,
            A::TakeMsg | A::MapGranted { .. } | A::DropGrant | A::IommuCreateDomain => {
                C::Structural
            }
            A::IommuAttach { .. } | A::IommuDetach { .. } | A::IommuMap { .. } => C::Structural,
            A::IommuUnmap { .. } | A::BlkSubmitBatch { .. } | A::BlkReapBatch { .. } => {
                C::Structural
            }
        };
        (nr_read, staged, class)
    }

    #[test]
    fn update_class_is_conservative() {
        use SyscallArgs as A;
        let (va_base, len, va, cntr, proc, cpu, slot, thread) = (0, 1, 0, 0, 0, 0, 0, 0);
        let (quota, domain, device, iova, queue, max, weight) = (0, 0, 0, 0, 0, 0, 0);
        let (writable, wait, throttle, scalars) = (true, false, true, [0; 4]);
        let (cpus, ops) = (vec![], vec![]);
        let every_variant = [
            A::Mmap {
                va_base,
                len,
                writable,
            },
            A::Munmap { va_base, len },
            A::NewContainer { quota, cpus },
            A::TerminateContainer { cntr },
            A::NewProcess { cntr },
            A::NewChildProcess,
            A::Exit,
            A::TerminateProcess { proc },
            A::NewThread { proc, cpu },
            A::NewEndpoint { slot },
            A::Send {
                slot,
                scalars,
                grant_page_va: None,
                grant_endpoint_slot: None,
                grant_iommu_domain: None,
            },
            A::Recv { slot },
            A::Poll { slot },
            A::Call { slot, scalars },
            A::Reply { scalars },
            A::ReplyRecv { slot, scalars },
            A::TakeMsg,
            A::MapGranted { va },
            A::DropGrant,
            A::MmapHuge2M { va_base, writable },
            A::MunmapHuge2M { va_base },
            A::IommuCreateDomain,
            A::IommuAttach { domain, device },
            A::IommuDetach { device },
            A::IommuMap { domain, iova, va },
            A::IommuUnmap { domain, iova },
            A::BlkSubmitBatch { queue, ops },
            A::BlkReapBatch { queue, max, wait },
            A::Yield,
            A::TraceSnapshot,
            A::Getpid,
            A::ThreadLookup { thread },
            A::DescriptorResolve { slot },
            A::VmResolve { va },
            A::SchedSetWeight { cntr, weight },
            A::SchedThrottle { cntr, throttle },
        ];
        let kinds: BTreeSet<_> = every_variant.iter().map(|a| a.trace_kind()).collect();
        assert_eq!(kinds.len(), atmo_trace::SyscallKind::ALL.len());
        for args in &every_variant {
            let want = match (reference(args), args) {
                ((true, false, PmUpdateClass::None), _) => Plan::Replica,
                ((false, true, _), A::Mmap { writable, .. }) => Plan::Staged(StagedOp::Map {
                    writable: *writable,
                }),
                ((false, true, _), _) => Plan::Staged(StagedOp::Unmap),
                ((false, false, class), _) => Plan::Locked(class),
                (r, _) => panic!("{args:?}: no plan matches the reference {r:?}"),
            };
            assert_eq!(args.plan(), want, "{args:?}");
        }
    }
}
