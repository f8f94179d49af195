//! Node-replicated reads of the pm and mem domains.
//!
//! The sharded kernel's read-mostly syscalls (`getpid`, thread lookup,
//! descriptor resolve, VM resolve) spend almost their entire budget on
//! the pm domain lock — not on hold time, but on the serialization the
//! lock *models*: every acquirer syncs its meter to the domain's model
//! time, so sixteen readers advance one shared clock. This module turns
//! those paths into NrOS-style node replication ([`atmo_nr`]): each CPU
//! keeps a replica of Ψ — its pm component with every CPU's scheduler
//! `current` ([`PmState`]), and its `spaces` — and every log entry is a
//! transition of Ψ. Writers still run under the authoritative domain
//! locks and append an entry ([`PmOp`], [`MemOp`]) *while still holding
//! the lock that serialized the mutation*, so log order equals lock
//! order. Readers replay their local replica to the published tail and
//! answer without touching any domain lock or model clock.
//!
//! An entry states what its call wrote, not the whole domain:
//!
//! * a holder of the pm lock — the locked path, the staged
//!   `Mmap`/`Munmap` pm stage and the quota epilogue alike — appends one
//!   [`PmOp::Objects`] when it wrote a pm object or moved a CPU's
//!   `current`: each object the process manager recorded, with its value
//!   after the call, and each moved `current` (after an error, only the
//!   moved `current`s);
//! * a holder of the mem lock appends one [`MemOp::Spaces`]: every space
//!   the call touched, with the leaves its page table recorded, read back
//!   from the live table;
//! * only the `with_kernel` bridge, whose closure may change anything,
//!   appends a whole [`PmOp::Reset`] and [`MemOp::Reset`].
//!
//! Correctness is *replica linearization*, checked at two strengths:
//! [`atmo_nr::NodeReplicated::nr_wf`] (every replica at tail `t` equals
//! the fold of the ops `[0, t)`), and the epoch cross-check in
//! [`SmpKernel::audit_total_wf`](crate::smp::SmpKernel::audit_total_wf):
//! each replica, synced to the tail, equals the authoritative state
//! itself — a pm replica `view().pm` and every CPU's `current`, a mem
//! replica `vm.view()` — and the ledger's `NrAppended` sum balances the
//! logs' tails.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use atmo_mem::PageSize;
use atmo_nr::{NodeReplicated, NrDispatch};
use atmo_pm::manager::{PmView, PmWrites};
use atmo_pm::types::{CpuId, CtnrPtr, EdptPtr, ProcPtr, ThrdPtr};
use atmo_pm::{Container, Endpoint, Process, ProcessManager, Thread};
use atmo_ptable::{MapEntry, WrittenLeaf};
use atmo_spec::harness::VerifResult;
use atmo_spec::{Map, PermMap, WriteSet};

use crate::abs::{diff, undeclared, AbsSpace, Undeclared};
use crate::vm::AsId;

/// A pm replica: Ψ's pm component and the scheduler's `current` on
/// every CPU.
pub type PmState = (PmView, Vec<Option<ThrdPtr>>);

/// The authoritative [`PmState`] of `pm` on `ncpus` CPUs. Taken under
/// the pm lock (replication baseline, the bridge's reset, the epoch
/// cross-check), so it is a consistent cut.
pub(crate) fn pm_state(pm: &ProcessManager, ncpus: usize) -> PmState {
    (pm.view(), (0..ncpus).map(|c| pm.sched.current(c)).collect())
}

/// What one holder of the pm lock wrote: each written object's value
/// after the call (`None` once removed) and each moved CPU's `current`.
/// It carries objects, never a table handle: a handle held in the log
/// would make the table's next write copy it whole.
#[derive(Clone, Debug, Default)]
pub struct PmObjects {
    /// Written containers.
    pub containers: Vec<(CtnrPtr, Option<Container>)>,
    /// Written processes.
    pub processes: Vec<(ProcPtr, Option<Process>)>,
    /// Written threads.
    pub threads: Vec<(ThrdPtr, Option<Thread>)>,
    /// Written endpoints.
    pub endpoints: Vec<(EdptPtr, Option<Endpoint>)>,
    /// Moved CPUs and the thread each now runs.
    pub current: Vec<(CpuId, Option<ThrdPtr>)>,
}

/// One pm-log entry. Both variants are absolute statements about what
/// they name, so replay is idempotent per entry and correctness reduces
/// to log order — which equals pm-lock order by construction.
#[derive(Clone, Debug)]
pub enum PmOp {
    /// What one call wrote.
    Objects(PmObjects),
    /// The whole pm state: the `with_kernel` bridge, whose closure may
    /// change anything.
    Reset(PmState),
}

impl PmOp {
    /// The entry for what `pm` recorded since its last
    /// [`clear_written`](ProcessManager::clear_written): every written
    /// object and every moved `current` after a success, only the moved
    /// `current`s after an error. `None` when that is nothing.
    pub(crate) fn written(pm: &ProcessManager, ok: bool) -> Option<PmOp> {
        // Collected from exact-size iterators: one allocation of the
        // written objects, no spare capacity held in the log.
        fn values<T: Clone>(keys: &WriteSet<usize>, perms: &PermMap<T>) -> Vec<(usize, Option<T>)> {
            keys.iter().map(|k| (k, perms.get(k).cloned())).collect()
        }
        let nothing = PmWrites::default();
        let (w, moved) = (if ok { pm.written() } else { &nothing }, pm.sched.moved());
        if moved.is_empty() && w.is_empty() {
            return None;
        }
        Some(PmOp::Objects(PmObjects {
            containers: values(&w.containers, &pm.cntr_perms),
            processes: values(&w.processes, &pm.proc_perms),
            threads: values(&w.threads, &pm.thrd_perms),
            endpoints: values(&w.endpoints, &pm.edpt_perms),
            current: moved.iter().map(|c| (c, pm.sched.current(c))).collect(),
        }))
    }
}

impl NrDispatch<PmOp> for PmState {
    fn apply(&mut self, op: &PmOp) {
        // Writes through the replica's own value: its `clone_from` keeps
        // every handle the entry's value shares.
        fn put<T: Clone>(table: &mut Map<usize, T>, objects: &[(usize, Option<T>)]) {
            for (k, v) in objects {
                match (v, table.get_mut(k)) {
                    (Some(v), Some(mine)) => mine.clone_from(v),
                    (Some(v), None) => table.insert_mut(*k, v.clone()),
                    (None, _) => table.remove_mut(k),
                }
            }
        }
        let (pm, current) = self;
        match op {
            PmOp::Objects(o) => {
                put(&mut pm.containers, &o.containers);
                put(&mut pm.processes, &o.processes);
                put(&mut pm.threads, &o.threads);
                put(&mut pm.endpoints, &o.endpoints);
                for (cpu, t) in &o.current {
                    if let Some(slot) = current.get_mut(*cpu) {
                        *slot = *t;
                    }
                }
            }
            PmOp::Reset(state) => *self = state.clone(),
        }
    }
}

/// Where the pm replica `mine` first differs from `truth`, for the epoch
/// cross-check's failure message: the first component, in Ψ's order
/// with `current` last, and its first differing key.
pub(crate) fn pm_divergence(mine: &PmState, truth: &PmState) -> String {
    let first = || -> Result<(), Undeclared> {
        let ((p, pc), (q, qc)) = (truth, mine);
        undeclared("root", (p.root != q.root).then_some(q.root))?;
        diff("container", &p.containers, &q.containers, &[])?;
        diff("process", &p.processes, &q.processes, &[])?;
        diff("thread", &p.threads, &q.threads, &[])?;
        diff("endpoint", &p.endpoints, &q.endpoints, &[])?;
        let cpus = |c: &[Option<ThrdPtr>]| c.iter().copied().enumerate().collect::<Map<_, _>>();
        diff("current of CPU", &cpus(pc), &cpus(qc), &[])
    };
    match first() {
        Err(at) => format!("first at {at}"),
        Ok(()) => "no difference".into(),
    }
}

/// The first key at which `mine` differs from `truth`, by the frame
/// walk of [`Writes::check`](crate::abs::Writes::check).
fn first_difference<V: Clone + PartialEq>(
    mine: &Map<usize, V>,
    truth: &Map<usize, V>,
) -> Option<usize> {
    diff("", truth, mine, &[]).err().map(|at| at.key)
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
    let (a, b) = (mine.index(&space), truth.index(&space));
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
            leaf(pa.index(&va)),
            leaf(pb.index(&va))
        ),
        None => format!(
            "first at space {space}, which maps no page: replica {}, Ψ {}",
            live(a),
            live(b)
        ),
    }
}

/// Both replicated structures of one sharded kernel: separate logs for
/// the pm and mem replicas, so each domain's ops commute with the
/// other's by construction (cross-domain reads like `vm_resolve`
/// consult both replicas; each answer is individually no staler than
/// its log's tail).
pub struct KernelNr {
    /// Per-CPU pm replicas: Ψ's pm and every CPU's `current`.
    pub pm: NodeReplicated<PmState, PmOp>,
    /// Per-CPU mem replicas: Ψ's `spaces`.
    pub mem: NodeReplicated<Map<AsId, AbsSpace>, MemOp>,
}

impl KernelNr {
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

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    use atmo_hw::paging::EntryFlags;
    use atmo_hw::PageVa;
    use atmo_spec::harness::Invariant;

    use crate::kernel::{Kernel, KernelConfig};
    use crate::spec::{getpid_answer, vm_resolve_answer};
    use crate::syscall::{Plan, ReplicaRead, StagedOp, SyscallArgs};

    #[test]
    fn boot_projection_answers_reads() {
        let k = Kernel::boot(KernelConfig::default());
        let (pm, current) = pm_state(&k.pm, 4);
        assert_eq!(current, [Some(k.init_thread), None, None, None]);
        let init = pm.threads.index(&k.init_thread).expect("init thread in Ψ");
        let owners = [k.init_proc as u64, k.root_container as u64, 0, 0];
        assert_eq!(getpid_answer(init), owners);
        let root = pm.containers.index(&k.root_container).unwrap();
        assert!(root.used <= root.quota);
        let space = pm.processes.index(&k.init_proc).unwrap().addr_space;
        assert!(k.mem.vm.view().contains_key(&space), "init space in Ψ");
    }

    #[test]
    fn ops_replay_to_the_reprojected_state() {
        let mut k = Kernel::boot(KernelConfig::default());
        let mut v = pm_state(&k.pm, 4);
        // Re-picking the only runnable thread writes nothing.
        assert_eq!(k.pm.timer_tick(0), Some(k.init_thread));
        assert!(PmOp::written(&k.pm, true).is_none());
        let t = k.pm.new_thread(&mut k.mem.alloc, k.init_proc, 0).unwrap();
        assert_eq!(k.pm.timer_tick(0), Some(t), "the new thread runs");
        assert_ne!(v, pm_state(&k.pm, 4));
        let Some(PmOp::Objects(error)) = PmOp::written(&k.pm, false) else {
            panic!("the switch moved CPU 0's current");
        };
        assert!(error.threads.is_empty() && error.containers.is_empty());
        assert_eq!(error.current, [(0, Some(t))], "an error logs only current");
        let op = PmOp::written(&k.pm, true).expect("objects written");
        let PmOp::Objects(objects) = &op else {
            unreachable!()
        };
        let threads: Vec<_> = objects.threads.iter().map(|(t, _)| *t).collect();
        assert_eq!(threads, [t, k.init_thread], "each thread once, in order");
        v.apply(&op);
        assert_eq!(v, pm_state(&k.pm, 4));
        k.pm.clear_written();
        assert!(PmOp::written(&k.pm, true).is_none());
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
        let (va0, va1) = (
            PageVa::new(0x40_0000).unwrap(),
            PageVa::new(0x40_1000).unwrap(),
        );
        let frame = m.alloc.alloc_mapped(PageSize::Size4K).unwrap();
        pt.map_4k_page(&mut m.alloc, va0, frame, ro).unwrap();
        // Mapped, unmapped and mapped again: one leaf in the entry.
        let frame = m.alloc.alloc_mapped(PageSize::Size4K).unwrap();
        pt.map_4k_page(&mut m.alloc, va1, frame, rw).unwrap();
        pt.unmap_4k_page(va1).unwrap();
        pt.map_4k_page(&mut m.alloc, va1, frame, ro).unwrap();
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
        let state = pm_state(&k.pm, 4);
        let op = PmOp::Reset(state.clone());
        let mut replica = state.clone();
        replica.0.containers = Map::empty();
        replica.apply(&op);
        let root = k.root_container;
        let mut c = replica.0.containers.index(&root).unwrap().clone();
        c.used += 1;
        replica.apply(&PmOp::Objects(PmObjects {
            containers: vec![(root, Some(c))],
            ..PmObjects::default()
        }));
        let left_alone = matches!(&op, PmOp::Reset(logged) if *logged == state);
        assert!(left_alone, "the replica's write left the op alone");
        let used = |s: &PmState| s.0.containers.index(&root).map(|c| c.used);
        assert_eq!(used(&replica), used(&state).map(|u| u + 1));
        assert_eq!(replica.0.threads, state.0.threads);
    }

    #[test]
    fn gauge_only_container_replay_keeps_the_entrys_ghost_sets() {
        let mut k = Kernel::boot(KernelConfig::default());
        let mut replica = pm_state(&k.pm, 4);
        let root = k.root_container;
        k.pm.charge(root, 1).unwrap();
        let op = PmOp::written(&k.pm, true).expect("the charge wrote root");
        let PmOp::Objects(o) = &op else {
            unreachable!()
        };
        assert_eq!(o.containers.len(), 1, "a gauge-only write of root");
        replica.apply(&op);
        assert_eq!(replica, pm_state(&k.pm, 4), "the replica equals Ψ");
        let (mine, logged) = (
            replica.0.containers.index(&root).unwrap(),
            o.containers[0].1.as_ref().unwrap(),
        );
        for (m, l) in [
            (&mine.subtree, &logged.subtree),
            (&mine.owned_procs, &logged.owned_procs),
            (&mine.owned_thrds, &logged.owned_thrds),
            (&mine.owned_edpts, &logged.owned_edpts),
        ] {
            assert!(m.ptr_eq(l), "a ghost set the write left alone is shared");
        }
        assert!(mine.owned_cpus.ptr_eq(&logged.owned_cpus));
        assert!(mine.path.ptr_eq(&logged.path));
        // A write that did change a ghost set replaces the replica's.
        let mut grown = logged.clone();
        grown.owned_cpus = grown.owned_cpus.insert(3);
        replica.apply(&PmOp::Objects(PmObjects {
            containers: vec![(root, Some(grown.clone()))],
            ..PmObjects::default()
        }));
        let mine = replica.0.containers.index(&root).unwrap();
        assert_eq!(*mine, grown);
        assert!(mine.owned_cpus.ptr_eq(&grown.owned_cpus));
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

    /// The plan every call had before `SyscallArgs::plan` existed — the
    /// replica reads, the staged calls, the snapshot and the locked rest
    /// — kept as its reference.
    fn reference(args: &SyscallArgs) -> Plan {
        use SyscallArgs as A;
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
            _ => Plan::Locked,
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
