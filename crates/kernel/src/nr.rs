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
//! An entry states what its call changed, not the whole domain:
//!
//! * a locked call that took the mem lock appends one
//!   [`MemOp::Spaces`] entry naming the address spaces it touched —
//!   [`VmSubsystem`] records every space it creates, destroys or hands
//!   out mutably — each re-projected, so replay costs O(touched);
//! * a staged `Mmap`/`Munmap` appends its range ([`MemOp::MapRange`]);
//! * only the `with_kernel` bridge, whose closure may change anything,
//!   appends a full [`MemOp::Reset`].
//!
//! On the pm side a structural call still appends a full
//! [`PmOp::Reset`], but [`PmView`]'s tables are copy-on-write handles,
//! so replaying it shares them instead of copying them.
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

use std::collections::BTreeMap;

use atmo_hw::addr::PAGE_SIZE_4K;
use atmo_nr::{NodeReplicated, NrDispatch};
use atmo_pm::ProcessManager;
use atmo_ptable::PageTable;
use atmo_spec::harness::VerifResult;
use atmo_spec::{Map, Set};

use crate::vm::{AsId, VmSubsystem};

/// The pm domain's read-optimized projection: one instance per CPU.
///
/// The five tables are the spec crate's copy-on-write [`Map`]/[`Set`]
/// handles, so replaying a [`PmOp::Reset`] shares the op's tables
/// instead of copying them; a replica copies one table only when a
/// later op writes it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PmView {
    /// Scheduler `current` per CPU (`getpid`'s and descriptor
    /// resolution's entry point).
    pub current: Vec<Option<usize>>,
    /// thread → (owning process, owning container).
    pub threads: Map<usize, (usize, usize)>,
    /// process → (owning container, address space).
    pub procs: Map<usize, (usize, usize)>,
    /// container → (used, quota) gauge.
    pub quotas: Map<usize, (usize, usize)>,
    /// Live endpoint capabilities.
    pub endpoints: Set<usize>,
    /// (thread, slot) → endpoint descriptor table.
    pub descriptors: Map<(usize, usize), usize>,
}

impl PmView {
    /// Projects the authoritative pm state. Called under the pm lock
    /// (boot, structural-op append, epoch cross-check), so the view is
    /// a consistent cut.
    pub fn project(pm: &ProcessManager, ncpus: usize) -> PmView {
        let threads = || pm.thrd_perms.iter().map(|(t, perm)| (t, perm.value()));
        PmView {
            current: Self::current_all(pm, ncpus),
            threads: threads()
                .map(|(t, th)| (t, (th.owning_proc, th.owning_cntr)))
                .collect(),
            procs: pm
                .proc_perms
                .iter()
                .map(|(p, perm)| (p, (perm.value().owning_container, perm.value().addr_space)))
                .collect(),
            quotas: pm
                .cntr_perms
                .iter()
                .map(|(c, perm)| (c, (perm.value().used, perm.value().quota)))
                .collect(),
            endpoints: pm.edpt_perms.iter().map(|(e, _)| e).collect(),
            descriptors: threads()
                .flat_map(|(t, th)| {
                    th.edpt_descriptors
                        .iter()
                        .enumerate()
                        .filter_map(move |(slot, d)| d.map(|e| ((t, slot), e)))
                })
                .collect(),
        }
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
        self.threads.index(&self.current_thread(cpu)?).copied()
    }

    /// Thread lookup against this replica.
    pub fn thread_lookup(&self, t: usize) -> Option<(usize, usize)> {
        self.threads.index(&t).copied()
    }

    /// Descriptor-slot resolution for `cpu`'s current thread.
    pub fn descriptor_resolve(&self, cpu: usize, slot: usize) -> Option<usize> {
        let t = self.current_thread(cpu)?;
        self.descriptors.index(&(t, slot)).copied()
    }

    /// The address space of `cpu`'s current thread's process.
    pub fn current_addr_space(&self, cpu: usize) -> Option<usize> {
        let (proc_ptr, _) = self.getpid(cpu)?;
        Some(self.procs.index(&proc_ptr)?.1)
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
    /// ways a cheaper summary could miss). Replay shares the view's
    /// copy-on-write tables.
    Reset(PmView),
}

impl NrDispatch for PmView {
    type Op = PmOp;

    fn apply(&mut self, op: &PmOp) {
        match op {
            PmOp::CurrentAll(c) => self.current = c.clone(),
            PmOp::QuotaSet { cntr, used, quota } => {
                self.quotas.insert_mut(*cntr, (*used, *quota));
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
        let spaces = vm
            .spaces()
            .iter()
            .map(|id| {
                let table = vm.table(*id).expect("live space has a table");
                (*id, Self::project_space(table))
            })
            .collect();
        MemView { spaces }
    }

    /// One space's summary: va → writable for every mapped 4 KiB page.
    fn project_space(table: &PageTable) -> BTreeMap<usize, bool> {
        let mut pages = BTreeMap::new();
        for (base, (entry, size)) in table.address_space().iter() {
            for k in 0..size.frames() {
                pages.insert(base + k * PAGE_SIZE_4K, entry.flags.writable);
            }
        }
        pages
    }

    /// `vm_resolve` against this replica: `Some(writable)` when the
    /// page containing `va` is mapped in `space`.
    pub fn resolve(&self, space: usize, va: usize) -> Option<bool> {
        self.spaces.get(&space)?.get(&(va & !0xFFF)).copied()
    }

    /// Where this view first differs from `truth`, for the epoch
    /// cross-check's failure message: the lowest space whose summaries
    /// differ and the lowest page in it that `truth` maps differently.
    /// `None` exactly when the views are equal.
    pub(crate) fn divergence(&self, truth: &MemView) -> Option<String> {
        if self == truth {
            return None;
        }
        let (mine, theirs) = (&self.spaces, &truth.spaces);
        let space = *mine
            .keys()
            .chain(theirs.keys())
            .filter(|id| mine.get(id) != theirs.get(id))
            .min()?;
        let empty = BTreeMap::new();
        let a = mine.get(&space).unwrap_or(&empty);
        let b = theirs.get(&space).unwrap_or(&empty);
        let state = |w: Option<&bool>| match w {
            Some(true) => "writable",
            Some(false) => "read-only",
            None => "unmapped",
        };
        let live = |m: &BTreeMap<usize, _>| match m.contains_key(&space) {
            true => "live",
            false => "absent",
        };
        let page = a
            .keys()
            .chain(b.keys())
            .filter(|va| a.get(va) != b.get(va))
            .min();
        Some(match page {
            Some(va) => format!(
                "first at space {space} page {va:#x}: replica {}, projection {}",
                state(a.get(va)),
                state(b.get(va))
            ),
            None => format!(
                "first at space {space}, which maps no page: replica {}, projection {}",
                live(mine),
                live(theirs)
            ),
        })
    }
}

/// One mem-log entry. Every variant is an absolute statement about the
/// spaces it names, so replay is idempotent per entry.
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
    /// The spaces one locked call touched, each re-projected after the
    /// call: `Some(pages)` replaces the space's summary (creating it),
    /// `None` drops a destroyed space. Empty when the call took the
    /// mem lock but changed no table.
    Spaces(Vec<(AsId, Option<BTreeMap<usize, bool>>)>),
    /// Full re-projection: the `with_kernel` bridge, whose closure may
    /// change any space.
    Reset(MemView),
}

impl MemOp {
    /// The locked path's entry: every space `vm` recorded as touched
    /// since its list was last cleared, re-projected from the
    /// authoritative tables (`None` for a space that no longer exists).
    pub(crate) fn touched(vm: &VmSubsystem) -> MemOp {
        MemOp::Spaces(
            vm.touched()
                .map(|id| (id, vm.table(id).map(MemView::project_space)))
                .collect(),
        )
    }
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
            MemOp::Spaces(spaces) => {
                for (id, pages) in spaces {
                    match pages {
                        Some(pages) => {
                            self.spaces.insert(*id, pages.clone());
                        }
                        None => {
                            self.spaces.remove(id);
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
    use std::collections::BTreeSet;

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
        let (used, quota) = *v.quotas.index(&k.root_container).unwrap();
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
    fn spaces_op_after_create_map_destroy_equals_projection() {
        use atmo_hw::paging::EntryFlags;
        use atmo_hw::VAddr;
        use atmo_mem::PageSize;

        let mut k = Kernel::boot(KernelConfig::default());
        let m = &mut k.mem;
        m.vm.create_space(&mut m.alloc, 100).unwrap();
        m.vm.clear_touched();
        let before = MemView::project(&m.vm);
        m.vm.create_space(&mut m.alloc, 101).unwrap();
        let frame = m.alloc.alloc_mapped(PageSize::Size4K).unwrap();
        let pt = m.vm.table_mut(101).unwrap();
        pt.map_4k_page(&mut m.alloc, VAddr(0x40_0000), frame, EntryFlags::user_ro())
            .unwrap();
        m.vm.destroy_space(&mut m.alloc, 100);
        let touched: Vec<_> = m.vm.touched().collect();
        assert_eq!(touched, [101, 100], "each space once, in order");
        let mut v = before.clone();
        v.apply(&MemOp::touched(&m.vm));
        assert_eq!(v, MemView::project(&m.vm));
        assert_eq!(v.resolve(101, 0x40_0000), Some(false));
        assert!(
            !v.spaces.contains_key(&100),
            "the destroyed space is dropped"
        );
    }

    #[test]
    fn empty_spaces_op_leaves_the_view_unchanged() {
        let k = Kernel::boot(KernelConfig::default());
        let before = MemView::project(&k.mem.vm);
        assert_eq!(
            k.mem.vm.touched().count(),
            0,
            "boot ends at a syscall boundary"
        );
        let mut v = before.clone();
        v.apply(&MemOp::touched(&k.mem.vm));
        v.apply(&MemOp::Spaces(Vec::new()));
        assert_eq!(v, before);
    }

    #[test]
    fn pm_reset_replay_shares_tables_copy_on_write() {
        let k = Kernel::boot(KernelConfig::default());
        let view = PmView::project(&k.pm, 4);
        let op = PmOp::Reset(view.clone());
        let mut replica = PmView::default();
        replica.apply(&op);
        replica.apply(&PmOp::QuotaSet {
            cntr: k.root_container,
            used: 1,
            quota: 2,
        });
        let PmOp::Reset(logged) = &op else {
            unreachable!()
        };
        assert_eq!(logged, &view, "the replica's write left the op alone");
        assert_eq!(replica.quotas.index(&k.root_container), Some(&(1, 2)));
        assert_ne!(replica.quotas, logged.quotas);
        assert_eq!(replica.threads, logged.threads);
    }

    #[test]
    fn divergence_names_the_first_space_and_page() {
        let mut truth = MemView::default();
        truth
            .spaces
            .insert(3, BTreeMap::from([(0x1000, true), (0x2000, false)]));
        truth.spaces.insert(5, BTreeMap::new());
        let mut replica = truth.clone();
        assert_eq!(replica.divergence(&truth), None);
        replica.spaces.get_mut(&3).unwrap().insert(0x2000, true);
        replica.spaces.get_mut(&5).unwrap().insert(0x1000, true);
        assert_eq!(
            replica.divergence(&truth).unwrap(),
            "first at space 3 page 0x2000: replica writable, projection read-only"
        );
        let mut replica = truth.clone();
        replica.spaces.insert(4, BTreeMap::new());
        assert_eq!(
            replica.divergence(&truth).unwrap(),
            "first at space 4, which maps no page: replica live, projection absent"
        );
        assert_eq!(
            truth.divergence(&replica).unwrap(),
            "first at space 4, which maps no page: replica absent, projection live"
        );
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
        assert_eq!(v.quotas.index(&7), Some(&(8, 64)));
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
