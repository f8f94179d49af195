//! Node-replicated reads of the pm and mem domains.
//!
//! The sharded kernel's read-mostly syscalls (`getpid`, thread lookup,
//! descriptor resolve, VM resolve) spend almost their entire budget on
//! the pm domain lock — not on hold time, but on the serialization the
//! lock *models*: every acquirer syncs its meter to the domain's model
//! time, so sixteen readers advance one shared clock. This module turns
//! those paths into NrOS-style node replication ([`atmo_nr`]): each CPU
//! keeps a local replica of the pm and mem state — a [`PmReplica`], and
//! Ψ's own `spaces` component (`Map<AsId, AbsSpace>`, the value
//! [`VmSubsystem::view`](crate::vm::VmSubsystem::view) returns) — kept
//! consistent by per-domain operation logs. Writers still run under
//! the authoritative domain locks — the locked state remains the
//! semantic anchor — and append an entry ([`PmOp`], [`MemOp`]) *while
//! still holding the lock that serialized the mutation*, so log order
//! equals lock order. Readers replay their local replica to the
//! published tail and answer without touching any domain lock or model
//! clock.
//!
//! An entry states what its call changed, not the whole domain:
//!
//! * a call that holds the mem lock — the locked path and the staged
//!   `Mmap`/`Munmap` mem stage alike — appends one [`MemOp::Spaces`]
//!   entry: every space the call touched, each with the leaves its page
//!   table recorded, read back from the live table, so replay costs
//!   O(leaves written);
//! * only the `with_kernel` bridge, whose closure may change anything,
//!   appends a full [`MemOp::Reset`].
//!
//! On the pm side a structural call still appends a full
//! [`PmOp::Reset`], but [`PmReplica`]'s tables are copy-on-write
//! handles, so replaying it shares them instead of copying them.
//!
//! Correctness is *replica linearization*, checked at two strengths:
//!
//! * [`atmo_nr::NodeReplicated::nr_wf`] — every replica at tail `t`
//!   equals the fold of the op sequence `[0, t)` (cheap, no kernel
//!   locks);
//! * the epoch cross-check in
//!   [`SmpKernel::audit_total_wf`](crate::smp::SmpKernel::audit_total_wf)
//!   — each replica, synced to the tail, must equal the authoritative
//!   state: a mem replica equals `vm.view()` itself (frames, flags and
//!   the 4 KiB-vs-2 MiB representation included), a pm replica a fresh
//!   [`PmReplica::project`]. The audit ledger's `NrAppended` running sum
//!   is balanced against the logs' published tails.
//!
//! The pm replica keeps only what the replicated reads need: ownership
//! edges, quota gauges, descriptor tables and scheduler `current`.
//! Thread run states, IPC buffers and queue contents stay exclusive to
//! the locked pm domain.

use std::fmt::Debug;

use atmo_mem::PageSize;
use atmo_nr::{NodeReplicated, NrDispatch};
use atmo_pm::ProcessManager;
use atmo_ptable::{MapEntry, WrittenLeaf};
use atmo_spec::harness::VerifResult;
use atmo_spec::{Map, Set};

use crate::abs::AbsSpace;
use crate::vm::AsId;

/// The pm domain's read-optimized projection: one instance per CPU.
///
/// The five tables are the spec crate's copy-on-write [`Map`]/[`Set`]
/// handles, so replaying a [`PmOp::Reset`] shares the op's tables
/// instead of copying them; a replica copies one table only when a
/// later op writes it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PmReplica {
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

impl PmReplica {
    /// Projects the authoritative pm state. Called under the pm lock
    /// (boot, structural-op append, epoch cross-check), so the view is
    /// a consistent cut.
    pub fn project(pm: &ProcessManager, ncpus: usize) -> PmReplica {
        let threads = || pm.thrd_perms.iter().map(|(t, perm)| (t, perm.value()));
        PmReplica {
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

    /// Where this replica first differs from `truth`, for the epoch
    /// cross-check's failure message: the first table, in declaration
    /// order, whose contents differ and the lowest key in it.
    pub(crate) fn divergence(&self, truth: &PmReplica) -> String {
        fn at<K: Ord + Clone + Debug, V: Clone + PartialEq + Debug>(
            table: &str,
            mine: &Map<K, V>,
            truth: &Map<K, V>,
        ) -> Option<String> {
            let k = first_difference(mine, truth)?;
            Some(format!(
                "first in {table} at key {k:?}: replica {:?}, projection {:?}",
                mine.index(k),
                truth.index(k)
            ))
        }
        let current = |v: &PmReplica| -> Map<usize, Option<usize>> {
            v.current.iter().copied().enumerate().collect()
        };
        let endpoints =
            |v: &PmReplica| -> Map<usize, ()> { v.endpoints.iter().map(|e| (*e, ())).collect() };
        at("current", &current(self), &current(truth))
            .or_else(|| at("threads", &self.threads, &truth.threads))
            .or_else(|| at("procs", &self.procs, &truth.procs))
            .or_else(|| at("quotas", &self.quotas, &truth.quotas))
            .or_else(|| at("endpoints", &endpoints(self), &endpoints(truth)))
            .or_else(|| at("descriptors", &self.descriptors, &truth.descriptors))
            .unwrap_or_else(|| "no difference".into())
    }
}

/// The lowest key at which two maps differ (present in one only, or
/// with different values).
fn first_difference<'a, K: Ord + Clone, V: Clone + PartialEq>(
    a: &'a Map<K, V>,
    b: &'a Map<K, V>,
) -> Option<&'a K> {
    a.keys()
        .chain(b.keys())
        .filter(|k| a.index(k) != b.index(k))
        .min()
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
    /// ways a cheaper summary could miss). Replay shares the replica's
    /// copy-on-write tables.
    Reset(PmReplica),
}

impl NrDispatch<PmOp> for PmReplica {
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

/// One mem-log entry. Every variant is an absolute statement about the
/// spaces it names, so replay is idempotent per entry.
#[derive(Clone, Debug)]
pub enum MemOp {
    /// The spaces one holder of the mem lock wrote:
    /// `Some(leaves)` sets each written va to its value after the call
    /// (creating the space), `None` drops a destroyed space. Empty when
    /// the call took the mem lock but wrote no table. The entry carries
    /// leaves, never a space handle: a handle held in the log would make
    /// the table's next leaf step copy its whole space.
    Spaces(Vec<(AsId, Option<Vec<WrittenLeaf>>)>),
    /// Ψ's whole `spaces`: the `with_kernel` bridge, whose closure may
    /// change any space.
    Reset(Map<AsId, AbsSpace>),
}

impl NrDispatch<MemOp> for Map<AsId, AbsSpace> {
    fn apply(&mut self, op: &MemOp) {
        match op {
            MemOp::Spaces(spaces) => {
                for (id, leaves) in spaces {
                    let Some(leaves) = leaves else {
                        self.remove_mut(id);
                        continue;
                    };
                    let space = self.entry_mut(*id);
                    for (va, leaf) in leaves {
                        match leaf {
                            Some(leaf) => space.insert_mut(*va, *leaf),
                            None => space.remove_mut(va),
                        }
                    }
                }
            }
            MemOp::Reset(spaces) => *self = spaces.clone(),
        }
    }
}

/// Where the mem replica `mine` first differs from Ψ's `spaces`, for
/// the epoch cross-check's failure message: the lowest space whose
/// contents differ and the lowest va in it whose leaf differs.
pub(crate) fn space_divergence(mine: &Map<AsId, AbsSpace>, truth: &Map<AsId, AbsSpace>) -> String {
    let Some(space) = first_difference(mine, truth) else {
        return "no difference".into();
    };
    let (a, b) = (mine.index(space), truth.index(space));
    let empty = Map::empty();
    let (pa, pb) = (a.unwrap_or(&empty), b.unwrap_or(&empty));
    let leaf = |l: Option<&(MapEntry, PageSize)>| match l {
        Some((e, size)) => format!(
            "{size:?} {} frame {:#x}",
            ["read-only", "writable"][e.flags.writable as usize],
            e.frame
        ),
        None => "unmapped".into(),
    };
    let live = |s: Option<_>| ["absent", "live"][s.is_some() as usize];
    match first_difference(pa, pb) {
        Some(va) => format!(
            "first at space {space} page {va:#x}: replica {}, Ψ {}",
            leaf(pa.index(va)),
            leaf(pb.index(va))
        ),
        None => format!(
            "first at space {space}, which maps no page: replica {}, Ψ {}",
            live(a),
            live(b)
        ),
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
/// the pm and mem replicas, so each domain's ops commute with the
/// other's by construction (cross-domain reads like `vm_resolve`
/// consult both replicas; each answer is individually no staler than
/// its log's tail).
pub struct KernelNr {
    /// Per-CPU pm replicas.
    pub pm: NodeReplicated<PmReplica, PmOp>,
    /// Per-CPU mem replicas: Ψ's `spaces`.
    pub mem: NodeReplicated<Map<AsId, AbsSpace>, MemOp>,
}

impl KernelNr {
    /// Replicas for `ncpus` CPUs, baselined on the authoritative state
    /// (taken under the respective domain locks by the caller).
    pub fn new(ncpus: usize, pm_init: PmReplica, mem_init: Map<AsId, AbsSpace>) -> Self {
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

    use atmo_hw::paging::EntryFlags;
    use atmo_hw::VAddr;
    use atmo_spec::harness::Invariant;

    use crate::kernel::{Kernel, KernelConfig};
    use crate::spec::vm_resolve_answer;
    use crate::syscall::{Plan, ReplicaRead, StagedOp, SyscallArgs};

    #[test]
    fn boot_projection_answers_reads() {
        let k = Kernel::boot(KernelConfig::default());
        let v = PmReplica::project(&k.pm, 4);
        let (p, c) = v.getpid(0).expect("init thread runs on CPU 0");
        assert_eq!(p, k.init_proc);
        assert_eq!(c, k.root_container);
        assert_eq!(v.thread_lookup(k.init_thread), Some((p, c)));
        assert_eq!(v.current_thread(1), None, "other CPUs idle at boot");
        let (used, quota) = *v.quotas.index(&k.root_container).unwrap();
        assert!(used <= quota);
        let as_id = v.current_addr_space(0).expect("init has a space");
        assert!(k.mem.vm.view().contains_key(&as_id), "init space in Ψ");
    }

    #[test]
    fn ops_replay_to_the_reprojected_state() {
        let mut k = Kernel::boot(KernelConfig::default());
        let mut v = PmReplica::project(&k.pm, 4);
        let r = k.syscall(
            0,
            SyscallArgs::Mmap {
                va_base: 0x40_0000,
                len: 2,
                writable: true,
            },
        );
        assert!(r.is_ok());
        assert_ne!(v, PmReplica::project(&k.pm, 4), "the charge moved quota");
        v.apply(&PmOp::Reset(PmReplica::project(&k.pm, 4)));
        assert_eq!(v, PmReplica::project(&k.pm, 4));
    }

    #[test]
    fn spaces_op_after_create_map_destroy_equals_projection() {
        let mut k = Kernel::boot(KernelConfig::default());
        let m = &mut k.mem;
        m.vm.create_space(&mut m.alloc, 100).unwrap();
        m.vm.clear_touched();
        let before = m.vm.view();
        m.vm.create_space(&mut m.alloc, 101).unwrap();
        let (ro, rw) = (EntryFlags::user_ro(), EntryFlags::user_rw());
        let pt = m.vm.table_mut(101).unwrap();
        let frame = m.alloc.alloc_mapped(PageSize::Size4K).unwrap();
        pt.map_4k_page(&mut m.alloc, VAddr(0x40_0000), frame, ro)
            .unwrap();
        // Mapped, unmapped and mapped again: one leaf in the entry.
        let frame = m.alloc.alloc_mapped(PageSize::Size4K).unwrap();
        pt.map_4k_page(&mut m.alloc, VAddr(0x40_1000), frame, rw)
            .unwrap();
        pt.unmap_4k_page(VAddr(0x40_1000)).unwrap();
        pt.map_4k_page(&mut m.alloc, VAddr(0x40_1000), frame, ro)
            .unwrap();
        m.vm.destroy_space(&mut m.alloc, 100);
        let op = MemOp::Spaces(m.vm.writes());
        let MemOp::Spaces(spaces) = &op else {
            unreachable!()
        };
        let ids: Vec<_> = spaces.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [101, 100], "each space once, in order");
        let vas: Vec<_> = spaces[0].1.iter().flatten().map(|(va, _)| *va).collect();
        assert_eq!(vas, [0x40_0000, 0x40_1000], "each leaf once, in va order");
        assert!(spaces[1].1.is_none(), "the destroyed space is dropped");
        let mut v = before.clone();
        v.apply(&op);
        assert_eq!(v, m.vm.view());
        assert_eq!(
            vm_resolve_answer(v.index(&101).unwrap(), 0x40_1234),
            [1, 0, 0, 0]
        );
        m.vm.clear_touched();
        assert!(m.vm.wf().is_ok(), "{:?}", m.vm.wf());
    }

    #[test]
    fn empty_spaces_op_leaves_the_view_unchanged() {
        let mut k = Kernel::boot(KernelConfig::default());
        let before = k.mem.vm.view();
        assert_eq!(
            k.mem.vm.touched().count(),
            0,
            "boot ends at a syscall boundary"
        );
        let mut v = before.clone();
        v.apply(&MemOp::Spaces(k.mem.vm.writes()));
        v.apply(&MemOp::Spaces(Vec::new()));
        assert_eq!(v, before);
    }

    #[test]
    fn pm_reset_replay_shares_tables_copy_on_write() {
        let k = Kernel::boot(KernelConfig::default());
        let view = PmReplica::project(&k.pm, 4);
        let op = PmOp::Reset(view.clone());
        let mut replica = PmReplica::default();
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
        let leaf = |frame, flags| (MapEntry { frame, flags }, PageSize::Size4K);
        let (ro, rw) = (EntryFlags::user_ro(), EntryFlags::user_rw());
        let space: AbsSpace = [(0x1000, leaf(0x8000, rw)), (0x2000, leaf(0x9000, ro))]
            .into_iter()
            .collect();
        let truth: Map<AsId, AbsSpace> = [(3, space), (5, Map::empty())].into_iter().collect();
        let mut replica = truth.clone();
        replica.entry_mut(3).insert_mut(0x2000, leaf(0x9000, rw));
        replica.entry_mut(5).insert_mut(0x1000, leaf(0x8000, rw));
        assert_eq!(
            space_divergence(&replica, &truth),
            "first at space 3 page 0x2000: replica Size4K writable frame 0x9000, \
             Ψ Size4K read-only frame 0x9000"
        );
        let mut replica = truth.clone();
        replica.insert_mut(4, Map::empty());
        assert_eq!(
            space_divergence(&replica, &truth),
            "first at space 4, which maps no page: replica live, Ψ absent"
        );
        assert_eq!(
            space_divergence(&truth, &replica),
            "first at space 4, which maps no page: replica absent, Ψ live"
        );
    }

    #[test]
    fn quota_set_is_absolute() {
        let mut v = PmReplica::default();
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

    /// The plan every call had before `SyscallArgs::plan` existed — the
    /// replica reads, the staged calls and the update class of the rest —
    /// kept as its reference. The class `match` names every variant, so a
    /// new one does not compile until it is classified here.
    fn reference(args: &SyscallArgs) -> Plan {
        use PmUpdateClass as C;
        use SyscallArgs as A;
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
        match *args {
            A::Getpid => Plan::Replica(ReplicaRead::Getpid),
            A::ThreadLookup { thread } => Plan::Replica(ReplicaRead::ThreadLookup { thread }),
            A::DescriptorResolve { slot } => Plan::Replica(ReplicaRead::DescriptorResolve { slot }),
            A::VmResolve { va } => Plan::Replica(ReplicaRead::VmResolve { va }),
            A::Mmap {
                va_base,
                len,
                writable,
            } => Plan::Staged(StagedOp::Map {
                va_base,
                len,
                writable,
            }),
            A::Munmap { va_base, len } => Plan::Staged(StagedOp::Unmap { va_base, len }),
            A::TraceSnapshot => Plan::Snapshot,
            _ => Plan::Locked(class),
        }
    }

    #[test]
    fn update_class_is_conservative() {
        let pools = crate::Pools {
            va: 0x4000_0000..0x4001_0000,
            objects: vec![0x20_0000],
            ncpus: 2,
        };
        let mut rng = atmo_spec::XorShift64Star::new(1);
        for kind in atmo_trace::SyscallKind::ALL {
            let args = SyscallArgs::sample(kind, &mut rng, &pools);
            assert_eq!(args.plan(), reference(&args), "{args:?}");
        }
    }
}
