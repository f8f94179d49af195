//! The `ProcessManager`: flat permission maps + all object lifecycle and
//! IPC operations (Listing 2 of the paper).

use atmo_mem::{PageClosure, PagePermission, PagePtr, PageSource};
use atmo_spec::harness::{check, Invariant, VerifResult};
use atmo_spec::{Map, PPtr, PermMap, Set, WriteSet};
use atmo_trace::{AuditDelta, FastpathOutcome, KernelEvent, TraceHandle, TraceShare};

use crate::container::{container_tree_wf, cpu_partition_wf, quota_wf, Container};
use crate::endpoint::{endpoints_wf, Endpoint, QueueSide};
use crate::process::{process_forest_wf, Process};
use crate::sched::{sched_wf, ChargeOutcome, Scheduler};
use crate::thread::{threads_wf, Thread};
use crate::types::{
    CpuId, CtnrPtr, EdptIdx, EdptPtr, IpcPayload, PmError, ProcPtr, ThrdPtr, ThreadState,
    MAX_ENDPOINT_SLOTS,
};

/// Outcome of an IPC send-side operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// The message was handed directly to a waiting receiver.
    Delivered(ThrdPtr),
    /// The sender blocked waiting for a receiver.
    Blocked,
}

/// Outcome of an IPC receive-side operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvOutcome {
    /// A waiting sender's message was consumed.
    Received(IpcPayload),
    /// The receiver blocked waiting for a sender.
    Blocked,
}

/// Outcome of a combined `reply_recv` operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyRecvOutcome {
    /// Direct handoff: the reply went straight to the caller, which now
    /// runs on this CPU; the replier is parked on the endpoint.
    Handoff(ThrdPtr),
    /// Slow path: reply sent, and a queued sender's next request was
    /// consumed immediately.
    Received(IpcPayload),
    /// Slow path: reply sent, replier blocked awaiting the next request.
    Blocked,
}

/// Maximum consecutive direct handoffs on one CPU before the fast path
/// yields to the ready queue (starvation guard: a ping-pong pair must
/// not lock out other runnable threads on the same core).
pub const HANDOFF_BUDGET: u32 = 8;

/// The abstract view of the process manager (the Φ the `*_ensures`
/// transition specifications quantify over).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PmView {
    /// Root container.
    pub root: CtnrPtr,
    /// Abstract container map.
    pub containers: Map<CtnrPtr, Container>,
    /// Abstract process map.
    pub processes: Map<ProcPtr, Process>,
    /// Abstract thread map.
    pub threads: Map<ThrdPtr, Thread>,
    /// Abstract endpoint map.
    pub endpoints: Map<EdptPtr, Endpoint>,
}

/// The objects written since the last [`ProcessManager::clear_written`],
/// per component of [`PmView`] ([`Scheduler::moved`] has the CPUs whose
/// `current` moved).
#[derive(Debug, Default)]
pub struct PmWrites {
    /// Written containers.
    pub containers: WriteSet<CtnrPtr>,
    /// Written processes.
    pub processes: WriteSet<ProcPtr>,
    /// Written threads.
    pub threads: WriteSet<ThrdPtr>,
    /// Written endpoints.
    pub endpoints: WriteSet<EdptPtr>,
}

impl PmWrites {
    /// `true` when no object was written.
    pub fn is_empty(&self) -> bool {
        self.containers.is_empty()
            && self.processes.is_empty()
            && self.threads.is_empty()
            && self.endpoints.is_empty()
    }
}

/// The process manager (Listing 2): the root pointer plus flat permission
/// maps over every container, process, thread and endpoint in the system.
#[derive(Debug)]
pub struct ProcessManager {
    /// The boot container.
    pub root_container: CtnrPtr,
    /// Flat permissions to all containers.
    pub cntr_perms: PermMap<Container>,
    /// Flat permissions to all processes.
    pub proc_perms: PermMap<Process>,
    /// Flat permissions to all threads.
    pub thrd_perms: PermMap<Thread>,
    /// Flat permissions to all endpoints.
    pub edpt_perms: PermMap<Endpoint>,
    /// The per-CPU scheduler.
    pub sched: Scheduler,
    /// Descriptor-slot cache: `(thread, slot) → endpoint` for slots that
    /// validated successfully, so repeated IPC on the same slot skips
    /// the descriptor-table lookup. Not part of [`PmView`] — entries are
    /// derivable from `edpt_descriptors` and invalidated on descriptor
    /// removal, thread teardown and endpoint destruction.
    slot_cache: std::collections::BTreeMap<(ThrdPtr, EdptIdx), EdptPtr>,
    /// Consecutive direct handoffs per CPU since that CPU last went
    /// through its ready queue (bounded by [`HANDOFF_BUDGET`]).
    handoff_streak: Vec<u32>,
    next_addr_space: usize,
    /// The objects written since the last [`clear_written`](Self::clear_written),
    /// recorded by the four `*_mut` accessors and every permission
    /// insertion and removal.
    written: PmWrites,
    /// IPC event sink (tracing is diagnostic: not part of the view).
    trace: TraceShare,
}

impl ProcessManager {
    // ----- accessors (Listing 1 lines 35–40 idiom) -----------------------

    /// Immutable view of a container.
    ///
    /// # Panics
    ///
    /// Panics when the permission is absent (verification failure).
    pub fn cntr(&self, c: CtnrPtr) -> &Container {
        self.cntr_perms.value(c)
    }

    fn cntr_mut(&mut self, c: CtnrPtr) -> &mut Container {
        self.written.containers.record(c);
        PPtr::<Container>::from_usize(c).borrow_mut(self.cntr_perms.tracked_borrow_mut(c))
    }

    /// Immutable view of a process.
    pub fn proc(&self, p: ProcPtr) -> &Process {
        self.proc_perms.value(p)
    }

    fn proc_mut(&mut self, p: ProcPtr) -> &mut Process {
        self.written.processes.record(p);
        PPtr::<Process>::from_usize(p).borrow_mut(self.proc_perms.tracked_borrow_mut(p))
    }

    /// Immutable view of a thread.
    pub fn thrd(&self, t: ThrdPtr) -> &Thread {
        self.thrd_perms.value(t)
    }

    fn thrd_mut(&mut self, t: ThrdPtr) -> &mut Thread {
        self.written.threads.record(t);
        PPtr::<Thread>::from_usize(t).borrow_mut(self.thrd_perms.tracked_borrow_mut(t))
    }

    /// Immutable view of an endpoint.
    pub fn edpt(&self, e: EdptPtr) -> &Endpoint {
        self.edpt_perms.value(e)
    }

    fn edpt_mut(&mut self, e: EdptPtr) -> &mut Endpoint {
        self.written.endpoints.record(e);
        PPtr::<Endpoint>::from_usize(e).borrow_mut(self.edpt_perms.tracked_borrow_mut(e))
    }

    /// The abstract view Φ.
    pub fn view(&self) -> PmView {
        PmView {
            root: self.root_container,
            containers: self.cntr_perms.view(),
            processes: self.proc_perms.view(),
            threads: self.thrd_perms.view(),
            endpoints: self.edpt_perms.view(),
        }
    }

    /// The objects written since the last
    /// [`clear_written`](Self::clear_written).
    pub fn written(&self) -> &PmWrites {
        &self.written
    }

    /// Forgets the written objects and the scheduler's moved CPUs
    /// (keeps the buffers). Every system call path clears them, so both
    /// are empty at every syscall boundary.
    pub fn clear_written(&mut self) {
        let w = &mut self.written;
        w.containers.clear();
        w.processes.clear();
        w.threads.clear();
        w.endpoints.clear();
        self.sched.clear_moved();
    }

    // ----- boot -----------------------------------------------------------

    /// Boots the process manager: root container (owning all CPUs and the
    /// whole `quota`), an init process and an init thread running on CPU 0.
    pub fn boot(
        alloc: &mut dyn PageSource,
        ncpus: usize,
        quota: usize,
    ) -> Result<(Self, CtnrPtr, ProcPtr, ThrdPtr), PmError> {
        if ncpus == 0 || quota < 3 {
            return Err(PmError::InvalidArgument);
        }
        let cpus: Set<CpuId> = (0..ncpus).collect();

        let (c_ptr, c_page) = alloc.alloc_page_4k()?;
        let mut root = Container::new_root(quota, cpus);
        root.used = 3; // its own page + init process + init thread
        let (_, c_perm) = c_page.into_object(root);

        let (p_ptr, p_page) = alloc.alloc_page_4k()?;
        let mut init_proc = Process::new(c_ptr, None, atmo_spec::Seq::empty(), 0);
        let (t_ptr, t_page) = alloc.alloc_page_4k()?;
        init_proc.threads.push(t_ptr);
        let (_, p_perm) = p_page.into_object(init_proc);

        let mut init_thread = Thread::new(p_ptr, c_ptr, 0);
        init_thread.state = ThreadState::Running(0);
        let (_, t_perm) = t_page.into_object(init_thread);

        let mut pm = ProcessManager {
            root_container: c_ptr,
            cntr_perms: PermMap::new(),
            proc_perms: PermMap::new(),
            thrd_perms: PermMap::new(),
            edpt_perms: PermMap::new(),
            sched: Scheduler::new(ncpus),
            slot_cache: std::collections::BTreeMap::new(),
            handoff_streak: vec![0; ncpus],
            next_addr_space: 1,
            written: PmWrites::default(),
            trace: TraceShare::detached(),
        };
        pm.cntr_perms.tracked_insert(c_ptr, c_perm);
        pm.proc_perms.tracked_insert(p_ptr, p_perm);
        pm.thrd_perms.tracked_insert(t_ptr, t_perm);
        {
            let c = pm.cntr_mut(c_ptr);
            c.root_procs.push(p_ptr);
            c.owned_procs.assign(Set::from_slice(&[p_ptr]));
            c.owned_thrds.assign(Set::from_slice(&[t_ptr]));
        }
        pm.sched.set_current(0, t_ptr);
        // Boot ends at a syscall boundary: nothing counts as written.
        pm.clear_written();
        Ok((pm, c_ptr, p_ptr, t_ptr))
    }

    /// Routes IPC events (and, via the scheduler, context switches) into
    /// `sink`.
    pub fn attach_trace(&mut self, sink: TraceHandle) {
        self.trace.attach(sink.clone());
        self.sched.attach_trace(sink);
    }

    // ----- quota accounting ------------------------------------------------

    /// Charges `n` pages against container `c`'s quota.
    pub fn charge(&mut self, c: CtnrPtr, n: usize) -> Result<(), PmError> {
        if !self.cntr_perms.contains(c) {
            return Err(PmError::NotFound);
        }
        let cntr = self.cntr(c);
        let used = (cntr.used.checked_add(n))
            .filter(|used| *used <= cntr.quota)
            .ok_or(PmError::QuotaExceeded)?;
        self.cntr_mut(c).used = used;
        Ok(())
    }

    /// Releases `n` pages of container `c`'s charge.
    ///
    /// # Panics
    ///
    /// Panics when more is released than was charged (accounting bug).
    pub fn uncharge(&mut self, c: CtnrPtr, n: usize) {
        let cntr = self.cntr_mut(c);
        assert!(cntr.used >= n, "uncharge below zero");
        cntr.used -= n;
    }

    // ----- container lifecycle ---------------------------------------------

    /// Creates a child container under `parent` with the given memory
    /// `quota` (pages) and CPU reservation `cpus` (taken from the parent).
    ///
    /// The parent is charged `quota + 1` pages (the reservation plus the
    /// container object's page).
    pub fn new_container(
        &mut self,
        alloc: &mut dyn PageSource,
        parent: CtnrPtr,
        quota: usize,
        cpus: &[CpuId],
    ) -> Result<CtnrPtr, PmError> {
        if !self.cntr_perms.contains(parent) {
            return Err(PmError::NotFound);
        }
        {
            let p = self.cntr(parent);
            if p.children.is_full() {
                return Err(PmError::CapacityExceeded);
            }
            for cpu in cpus {
                if !p.owned_cpus.contains(cpu) {
                    return Err(PmError::CpuNotOwned);
                }
            }
            // A thread of the parent's subtree homed on a handed CPU
            // would run, now or once woken, on a CPU its container no
            // longer owns.
            let busy = !cpus.is_empty()
                && std::iter::once(&parent)
                    .chain(p.subtree.iter())
                    .flat_map(|c| self.cntr(*c).owned_thrds.iter())
                    .any(|t| cpus.contains(&self.thrd(*t).home_cpu));
            if busy {
                return Err(PmError::CpuBusy);
            }
        }
        self.charge(parent, quota.checked_add(1).ok_or(PmError::QuotaExceeded)?)?;

        let (c_ptr, page) = match alloc.alloc_page_4k() {
            Ok(x) => x,
            Err(e) => {
                self.uncharge(parent, quota + 1);
                return Err(e.into());
            }
        };
        self.trace.audit(AuditDelta::PmAcquire(c_ptr));
        let (parent_path, parent_depth) = {
            let p = self.cntr(parent);
            (p.path.view().clone(), p.depth)
        };
        let cpu_set: Set<CpuId> = cpus.iter().copied().collect();
        let child = Container::new_child(
            parent,
            &parent_path,
            parent_depth + 1,
            quota,
            cpu_set.clone(),
        );
        let (_, perm) = page.into_object(child);
        self.cntr_perms.tracked_insert(c_ptr, perm);
        self.written.containers.record(c_ptr);

        {
            let p = self.cntr_mut(parent);
            p.children.push(c_ptr);
            p.owned_cpus.difference_mut(&cpu_set);
        }
        // Extend the subtree of every ancestor (parent + parent's path) —
        // direct flat access, no recursion (new_container_ensures).
        let mut ancestors = parent_path.to_vec();
        ancestors.push(parent);
        for anc in ancestors {
            let a = self.cntr_mut(anc);
            a.subtree.insert_mut(c_ptr);
        }
        Ok(c_ptr)
    }

    /// Terminates the container `c` (which must not be the root) and its
    /// entire subtree, harvesting resources back to `c`'s parent (§3).
    ///
    /// Returns the address-space identifiers of every destroyed process so
    /// the kernel can tear down their page tables and mapped frames.
    pub fn terminate_container(
        &mut self,
        alloc: &mut dyn PageSource,
        c: CtnrPtr,
    ) -> Result<Vec<usize>, PmError> {
        if !self.cntr_perms.contains(c) {
            return Err(PmError::NotFound);
        }
        let parent = match self.cntr(c).parent {
            Some(p) => p,
            None => return Err(PmError::Denied), // the root cannot be terminated
        };

        // The dead set: c plus its ghost subtree (flat, non-recursive).
        let mut dead: Vec<CtnrPtr> = self.cntr(c).subtree.view().to_vec();
        dead.push(c);
        // The reservation the parent charged when `c` was created.
        let c_reservation = self.cntr(c).quota + 1;

        let mut freed_spaces = Vec::new();
        let mut harvested_cpus: Set<CpuId> = Set::empty();

        for &dc in &dead {
            // Terminate every process of the container (roots first; the
            // recursive teardown handles their subtrees).
            let roots: Vec<ProcPtr> = self.cntr(dc).root_procs.to_vec();
            for p in roots {
                freed_spaces.extend(self.terminate_process(alloc, p)?);
            }
            harvested_cpus.union_mut(&self.cntr(dc).owned_cpus);

            // Endpoints still charged to this container but referenced from
            // outside survive; their charge moves to the surviving parent
            // (the paper's "resources passed outside are not revoked").
            let orphan_edpts: Vec<EdptPtr> = self
                .edpt_perms
                .iter()
                .filter(|(_, e)| e.value().owning_cntr == dc)
                .map(|(ptr, _)| ptr)
                .collect();
            for e in orphan_edpts {
                self.edpt_mut(e).owning_cntr = parent;
                self.charge(parent, 1).map_err(|_| PmError::QuotaExceeded)?;
                let p = self.cntr_mut(parent);
                p.owned_edpts.insert_mut(e);
            }
        }

        // Remove the dead containers and free their pages. Budget
        // accounts retire with them: remaining budget is refunded to
        // the conservation ledger, lifetime totals fold into the
        // scheduler's retired sums. Every thread of the subtree was
        // terminated above, so no parked threads can come back.
        for &dc in &dead {
            let parked = self.sched.remove_account(dc);
            debug_assert!(
                parked.is_empty(),
                "terminated container still parks threads"
            );
            let perm = self.cntr_perms.tracked_remove(dc);
            self.written.containers.record(dc);
            let (page, _) = PagePermission::from_object(PPtr::<Container>::from_usize(dc), perm);
            self.trace.audit(AuditDelta::PmRelease(dc));
            alloc.free_page_4k(page);
        }

        // Unlink from the parent and return the reservation + CPUs.
        {
            let p = self.cntr_mut(parent);
            p.children.remove(&c);
            p.owned_cpus.union_mut(&harvested_cpus);
        }
        // Release the reservation the parent charged when `c` was created
        // (c's own quota covered the entire subtree's reservations).
        self.uncharge(parent, c_reservation);

        // Shrink ancestors' subtrees.
        let dead_set: Set<CtnrPtr> = dead.iter().copied().collect();
        let anc_path = self.cntr(parent).path.view().clone();
        let mut ancestors = anc_path.to_vec();
        ancestors.push(parent);
        for anc in ancestors {
            let a = self.cntr_mut(anc);
            a.subtree.difference_mut(&dead_set);
        }
        Ok(freed_spaces)
    }

    // ----- process / thread lifecycle --------------------------------------

    /// Creates a process in `cntr`, optionally as a child of
    /// `parent_proc` (which must live in the same container).
    pub fn new_process(
        &mut self,
        alloc: &mut dyn PageSource,
        cntr: CtnrPtr,
        parent_proc: Option<ProcPtr>,
    ) -> Result<ProcPtr, PmError> {
        if !self.cntr_perms.contains(cntr) {
            return Err(PmError::NotFound);
        }
        if let Some(pp) = parent_proc {
            if !self.proc_perms.contains(pp) {
                return Err(PmError::NotFound);
            }
            if self.proc(pp).owning_container != cntr {
                return Err(PmError::Denied);
            }
            if self.proc(pp).children.is_full() {
                return Err(PmError::CapacityExceeded);
            }
        } else if self.cntr(cntr).root_procs.is_full() {
            return Err(PmError::CapacityExceeded);
        }
        self.charge(cntr, 1)?;
        let (p_ptr, page) = match alloc.alloc_page_4k() {
            Ok(x) => x,
            Err(e) => {
                self.uncharge(cntr, 1);
                return Err(e.into());
            }
        };
        self.trace.audit(AuditDelta::PmAcquire(p_ptr));
        let parent_path = parent_proc
            .map(|pp| self.proc(pp).path.view().clone())
            .unwrap_or_default();
        let addr_space = self.next_addr_space;
        self.next_addr_space += 1;
        self.trace.audit(AuditDelta::ProcSpace(addr_space));
        let proc = Process::new(cntr, parent_proc, parent_path, addr_space);
        let (_, perm) = page.into_object(proc);
        self.proc_perms.tracked_insert(p_ptr, perm);
        self.written.processes.record(p_ptr);

        match parent_proc {
            Some(pp) => {
                self.proc_mut(pp).children.push(p_ptr);
            }
            None => {
                self.cntr_mut(cntr).root_procs.push(p_ptr);
            }
        }
        let c = self.cntr_mut(cntr);
        c.owned_procs.insert_mut(p_ptr);
        Ok(p_ptr)
    }

    /// Terminates process `p`, its threads, and its descendant processes.
    /// Returns the freed address-space identifiers.
    pub fn terminate_process(
        &mut self,
        alloc: &mut dyn PageSource,
        p: ProcPtr,
    ) -> Result<Vec<usize>, PmError> {
        if !self.proc_perms.contains(p) {
            return Err(PmError::NotFound);
        }
        // Collect the process subtree iteratively (children lists).
        let mut stack = vec![p];
        let mut order = Vec::new();
        while let Some(q) = stack.pop() {
            order.push(q);
            stack.extend(self.proc(q).children.iter());
        }

        let mut freed = Vec::new();
        // Tear down leaves first so parent links stay valid for unlinking.
        for &q in order.iter().rev() {
            let threads: Vec<ThrdPtr> = self.proc(q).threads.to_vec();
            for t in threads {
                self.terminate_thread(alloc, t)?;
            }
            let (cntr, parent) = {
                let pr = self.proc(q);
                (pr.owning_container, pr.parent)
            };
            match parent {
                Some(pp) if self.proc_perms.contains(pp) => {
                    self.proc_mut(pp).children.remove(&q);
                }
                _ => {
                    self.cntr_mut(cntr).root_procs.remove(&q);
                }
            }
            freed.push(self.proc(q).addr_space);
            self.trace
                .audit(AuditDelta::ProcSpaceGone(self.proc(q).addr_space));
            let perm = self.proc_perms.tracked_remove(q);
            self.written.processes.record(q);
            let (page, _) = PagePermission::from_object(PPtr::<Process>::from_usize(q), perm);
            self.trace.audit(AuditDelta::PmRelease(q));
            alloc.free_page_4k(page);
            let c = self.cntr_mut(cntr);
            c.owned_procs.remove_mut(&q);
            self.uncharge(cntr, 1);
        }
        Ok(freed)
    }

    /// Creates a thread in `proc`, homed on `cpu` (which the owning
    /// container — or an ancestor — must own), initially Ready.
    pub fn new_thread(
        &mut self,
        alloc: &mut dyn PageSource,
        proc: ProcPtr,
        cpu: CpuId,
    ) -> Result<ThrdPtr, PmError> {
        if !self.proc_perms.contains(proc) {
            return Err(PmError::NotFound);
        }
        let cntr = self.proc(proc).owning_container;
        if !self.container_owns_cpu(cntr, cpu) {
            return Err(PmError::CpuNotOwned);
        }
        if self.proc(proc).threads.is_full() {
            return Err(PmError::CapacityExceeded);
        }
        self.charge(cntr, 1)?;
        let (t_ptr, page) = match alloc.alloc_page_4k() {
            Ok(x) => x,
            Err(e) => {
                self.uncharge(cntr, 1);
                return Err(e.into());
            }
        };
        self.trace.audit(AuditDelta::PmAcquire(t_ptr));
        let thread = Thread::new(proc, cntr, cpu);
        let (_, perm) = page.into_object(thread);
        self.thrd_perms.tracked_insert(t_ptr, perm);
        self.written.threads.record(t_ptr);
        self.proc_mut(proc).threads.push(t_ptr);
        let c = self.cntr_mut(cntr);
        c.owned_thrds.insert_mut(t_ptr);
        // Enqueue cannot overflow (intrusive slab lists); a thread born
        // into a throttled container parks until the next refill.
        if self.sched.throttled(cntr) {
            self.sched.park(t_ptr, cpu, cntr);
        } else {
            self.sched.enqueue(cpu, t_ptr);
        }
        Ok(t_ptr)
    }

    /// Terminates a single thread: dequeues it everywhere, fixes endpoint
    /// queues and reply partners, releases its descriptors (destroying
    /// endpoints whose refcount reaches zero), and frees its page.
    pub fn terminate_thread(
        &mut self,
        alloc: &mut dyn PageSource,
        t: ThrdPtr,
    ) -> Result<(), PmError> {
        if !self.thrd_perms.contains(t) {
            return Err(PmError::NotFound);
        }
        // Scheduler removal.
        self.sched.remove(t);

        // An in-flight page grant (queued send or delivered-but-untaken
        // message) holds a mapping reference; release it so the frame is
        // not leaked (§4.2 leak freedom).
        if let Some(payload) = self.thrd(t).ipc_buf {
            if let Some(frame) = payload.page_grant {
                self.trace.audit(AuditDelta::RefDec(frame));
                alloc.dec_map_ref(frame);
            }
        }

        // Endpoint queue removal for blocked states.
        match self.thrd(t).state {
            ThreadState::BlockedSend(e) | ThreadState::BlockedRecv(e) => {
                let ep = self.edpt_mut(e);
                ep.queue.remove(&t);
                if ep.queue.is_empty() {
                    ep.side = QueueSide::Idle;
                }
            }
            _ => {}
        }
        // Threads awaiting a reply from `t` are woken empty-handed (the
        // functional-correctness guarantee of V relies on this: a crashed
        // peer cannot wedge the service, §3).
        if let Some(rp) = self.thrd(t).reply_partner {
            if self.thrd_perms.contains(rp)
                && matches!(self.thrd(rp).state, ThreadState::BlockedReply(_))
            {
                self.thrd_mut(rp).ipc_buf = None;
                self.make_ready(rp);
            }
        }
        // And a receiver owing `t` a reply forgets the obligation.
        let owing: Vec<ThrdPtr> = self
            .thrd_perms
            .iter()
            .filter(|(_, q)| q.value().reply_partner == Some(t))
            .map(|(ptr, _)| ptr)
            .collect();
        for q in owing {
            self.thrd_mut(q).reply_partner = None;
        }

        // Release descriptors.
        let descriptors: Vec<EdptPtr> = self
            .thrd(t)
            .edpt_descriptors
            .iter()
            .flatten()
            .copied()
            .collect();
        for e in descriptors {
            self.release_endpoint_ref(alloc, e);
        }

        self.remove_thread_object(alloc, t);
        Ok(())
    }

    fn remove_thread_object(&mut self, alloc: &mut dyn PageSource, t: ThrdPtr) {
        let (proc, cntr) = {
            let th = self.thrd(t);
            (th.owning_proc, th.owning_cntr)
        };
        self.sched.remove(t);
        if self.proc_perms.contains(proc) {
            self.proc_mut(proc).threads.remove(&t);
        }
        let c = self.cntr_mut(cntr);
        c.owned_thrds.remove_mut(&t);
        self.slot_cache.retain(|(owner, _), _| *owner != t);
        let perm = self.thrd_perms.tracked_remove(t);
        self.written.threads.record(t);
        let (page, _) = PagePermission::from_object(PPtr::<Thread>::from_usize(t), perm);
        self.trace.audit(AuditDelta::PmRelease(t));
        alloc.free_page_4k(page);
        self.uncharge(cntr, 1);
    }

    /// Drops one descriptor reference to `e`; destroys the endpoint when
    /// the last reference goes.
    ///
    /// A thread can be *queued* on an endpoint it no longer holds a
    /// descriptor to (its descriptor was removed while it was blocked, or
    /// it was granted away). When the last descriptor reference goes, any
    /// such threads can never rendezvous again: each is dequeued, its
    /// in-flight payload is discarded (releasing any granted page's
    /// mapping reference), and it is woken with no message delivered —
    /// the error signal for an aborted IPC.
    fn release_endpoint_ref(&mut self, alloc: &mut dyn PageSource, e: EdptPtr) {
        let (refcount, owner) = {
            let ep = self.edpt_mut(e);
            ep.refcount -= 1;
            (ep.refcount, ep.owning_cntr)
        };
        if refcount == 0 {
            let orphans: Vec<ThrdPtr> = {
                let ep = self.edpt_mut(e);
                let q = ep.queue.to_vec();
                for t in &q {
                    ep.queue.remove(t);
                }
                ep.side = QueueSide::Idle;
                q
            };
            for t in orphans {
                // An aborted send abandons its in-flight payload.
                if let Some(p) = self.thrd_mut(t).ipc_buf.take() {
                    if let Some(frame) = p.page_grant {
                        self.trace.audit(AuditDelta::RefDec(frame));
                        alloc.dec_map_ref(frame);
                    }
                }
                self.thrd_mut(t).is_calling = false;
                self.make_ready(t);
            }
            let c = self.cntr_mut(owner);
            c.owned_edpts.remove_mut(&e);
            self.slot_cache.retain(|_, cached| *cached != e);
            let perm = self.edpt_perms.tracked_remove(e);
            self.written.endpoints.record(e);
            let (page, _) = PagePermission::from_object(PPtr::<Endpoint>::from_usize(e), perm);
            self.trace.audit(AuditDelta::PmRelease(e));
            self.trace.audit(AuditDelta::CapDestroy(e));
            alloc.free_page_4k(page);
            self.uncharge(owner, 1);
        }
    }

    /// `true` when `cntr` or one of its ancestors owns `cpu`.
    pub fn container_owns_cpu(&self, cntr: CtnrPtr, cpu: CpuId) -> bool {
        if !self.cntr_perms.contains(cntr) {
            return false;
        }
        let c = self.cntr(cntr);
        c.owned_cpus.contains(&cpu)
            || c.path
                .iter()
                .any(|a| self.cntr_perms.contains(*a) && self.cntr(*a).owned_cpus.contains(&cpu))
    }

    // ----- endpoints and IPC ------------------------------------------------

    /// Creates an endpoint, installing a descriptor into `slot` of thread
    /// `t` and charging `t`'s container for its page.
    pub fn new_endpoint(
        &mut self,
        alloc: &mut dyn PageSource,
        t: ThrdPtr,
        slot: EdptIdx,
    ) -> Result<EdptPtr, PmError> {
        if !self.thrd_perms.contains(t) {
            return Err(PmError::NotFound);
        }
        if slot >= MAX_ENDPOINT_SLOTS || self.thrd(t).edpt_descriptors[slot].is_some() {
            return Err(PmError::InvalidArgument);
        }
        let cntr = self.thrd(t).owning_cntr;
        self.charge(cntr, 1)?;
        let (e_ptr, page) = match alloc.alloc_page_4k() {
            Ok(x) => x,
            Err(e) => {
                self.uncharge(cntr, 1);
                return Err(e.into());
            }
        };
        self.trace.audit(AuditDelta::PmAcquire(e_ptr));
        self.trace.audit(AuditDelta::CapCreate(e_ptr));
        let (_, perm) = page.into_object(Endpoint::new(cntr));
        self.edpt_perms.tracked_insert(e_ptr, perm);
        self.written.endpoints.record(e_ptr);
        self.thrd_mut(t).edpt_descriptors[slot] = Some(e_ptr);
        let c = self.cntr_mut(cntr);
        c.owned_edpts.insert_mut(e_ptr);
        Ok(e_ptr)
    }

    /// Installs an additional descriptor for an existing endpoint into
    /// `slot` of thread `t` (the receive side of an endpoint grant).
    pub fn install_descriptor(
        &mut self,
        t: ThrdPtr,
        slot: EdptIdx,
        e: EdptPtr,
    ) -> Result<(), PmError> {
        if !self.thrd_perms.contains(t) || !self.edpt_perms.contains(e) {
            return Err(PmError::NotFound);
        }
        if slot >= MAX_ENDPOINT_SLOTS || self.thrd(t).edpt_descriptors[slot].is_some() {
            return Err(PmError::InvalidArgument);
        }
        self.thrd_mut(t).edpt_descriptors[slot] = Some(e);
        self.edpt_mut(e).refcount += 1;
        Ok(())
    }

    /// Removes the descriptor in `slot` of `t`, releasing the reference.
    pub fn remove_descriptor(
        &mut self,
        alloc: &mut dyn PageSource,
        t: ThrdPtr,
        slot: EdptIdx,
    ) -> Result<(), PmError> {
        if !self.thrd_perms.contains(t) {
            return Err(PmError::NotFound);
        }
        let e = self
            .thrd(t)
            .descriptor(slot)
            .ok_or(PmError::InvalidArgument)?;
        self.thrd_mut(t).edpt_descriptors[slot] = None;
        self.slot_cache.remove(&(t, slot));
        self.release_endpoint_ref(alloc, e);
        Ok(())
    }

    /// Resolves `slot` of thread `t` through the descriptor-slot cache;
    /// a hit skips the descriptor-table walk entirely. Misses populate
    /// the cache so the next IPC on the same slot is a hit.
    fn cached_descriptor(&mut self, t: ThrdPtr, slot: EdptIdx) -> Result<EdptPtr, PmError> {
        if let Some(&e) = self.slot_cache.get(&(t, slot)) {
            debug_assert_eq!(
                self.thrd(t).descriptor(slot),
                Some(e),
                "stale descriptor-slot cache entry"
            );
            self.trace.count(FastpathOutcome::SlotCacheHit, 1);
            return Ok(e);
        }
        let e = self
            .thrd(t)
            .descriptor(slot)
            .ok_or(PmError::InvalidArgument)?;
        self.trace.count(FastpathOutcome::SlotCacheMiss, 1);
        self.slot_cache.insert((t, slot), e);
        Ok(e)
    }

    fn make_ready(&mut self, t: ThrdPtr) {
        self.thrd_mut(t).state = ThreadState::Ready;
        let cpu = self.thrd(t).home_cpu;
        let cntr = self.thrd(t).owning_cntr;
        // A thread of a throttled container parks off the run queues
        // until the refill wheel unthrottles it; enqueue itself cannot
        // overflow (intrusive slab lists).
        if self.sched.throttled(cntr) {
            self.sched.park(t, cpu, cntr);
            return;
        }
        self.sched.enqueue(cpu, t);
        // An idle CPU picks up the newly runnable thread immediately (the
        // hardware would take the reschedule IPI).
        self.dispatch_idle(cpu);
    }

    /// Runs the next ready thread on `cpu` when `cpu` runs none.
    pub fn dispatch_idle(&mut self, cpu: CpuId) {
        if self.sched.current(cpu).is_none() {
            if let Some(next) = self.sched.dispatch(cpu) {
                self.thrd_mut(next).state = ThreadState::Running(cpu);
            }
        }
    }

    /// Blocks the running thread on `cpu` with `state` and dispatches the
    /// next ready thread.
    fn block_current(&mut self, cpu: CpuId, t: ThrdPtr, state: ThreadState) {
        debug_assert_eq!(self.sched.current(cpu), Some(t));
        self.thrd_mut(t).state = state;
        // Going through the ready queue ends any IPC billing handoff.
        self.sched.clear_inherit(t);
        self.sched.clear_current(cpu);
        if let Some(next) = self.sched.dispatch(cpu) {
            self.thrd_mut(next).state = ThreadState::Running(cpu);
        }
        // The CPU went through its ready queue: the handoff starvation
        // budget starts over.
        self.handoff_streak[cpu] = 0;
    }

    /// Delivers `payload` into `receiver`'s buffer, installing any
    /// endpoint grant into a free descriptor slot.
    fn deliver(&mut self, receiver: ThrdPtr, mut payload: IpcPayload) {
        if let Some(grant) = payload.endpoint_grant {
            match self.thrd(receiver).free_slot() {
                Some(slot) => {
                    self.thrd_mut(receiver).edpt_descriptors[slot] = Some(grant);
                    self.edpt_mut(grant).refcount += 1;
                }
                None => {
                    // No free slot: the grant is dropped (documented
                    // behaviour; the scalar payload still arrives).
                    payload.endpoint_grant = None;
                }
            }
        }
        self.thrd_mut(receiver).ipc_buf = Some(payload);
    }

    /// The `send` operation of thread `t` (running on `cpu`) over the
    /// endpoint in `slot`.
    pub fn send(
        &mut self,
        t: ThrdPtr,
        cpu: CpuId,
        slot: EdptIdx,
        payload: IpcPayload,
    ) -> Result<SendOutcome, PmError> {
        self.check_running(t, cpu)?;
        let e = self.cached_descriptor(t, slot)?;
        if self.edpt(e).side == QueueSide::Receivers {
            let r = {
                let ep = self.edpt_mut(e);
                let r = ep.queue.pop_front().expect("non-idle queue is nonempty");
                if ep.queue.is_empty() {
                    ep.side = QueueSide::Idle;
                }
                r
            };
            self.deliver(r, payload);
            self.make_ready(r);
            // Fast path: one message transferred — submit + consume.
            self.trace.emit(KernelEvent::EndpointSend {
                endpoint: e,
                rendezvous: true,
            });
            self.trace.emit(KernelEvent::EndpointRecv {
                endpoint: e,
                rendezvous: false,
            });
            Ok(SendOutcome::Delivered(r))
        } else {
            if self.edpt(e).queue.is_full() {
                return Err(PmError::EndpointFull);
            }
            {
                let th = self.thrd_mut(t);
                th.ipc_buf = Some(payload);
                th.is_calling = false;
            }
            {
                let ep = self.edpt_mut(e);
                ep.queue.push(t);
                ep.side = QueueSide::Senders;
            }
            self.block_current(cpu, t, ThreadState::BlockedSend(e));
            self.trace.emit(KernelEvent::EndpointSend {
                endpoint: e,
                rendezvous: false,
            });
            Ok(SendOutcome::Blocked)
        }
    }

    /// Completes a receive against a waiting sender on endpoint `e`:
    /// dequeues the sender, transfers the payload into `t`, and either
    /// readies the sender or parks it awaiting `t`'s reply.
    fn complete_recv_from_sender(&mut self, t: ThrdPtr, e: EdptPtr) -> IpcPayload {
        let s = {
            let ep = self.edpt_mut(e);
            let s = ep.queue.pop_front().expect("non-idle queue is nonempty");
            if ep.queue.is_empty() {
                ep.side = QueueSide::Idle;
            }
            s
        };
        let payload = self
            .thrd_mut(s)
            .ipc_buf
            .take()
            .expect("blocked sender carries a payload");
        self.deliver(t, payload);
        let delivered = self.thrd(t).ipc_buf.expect("just delivered");
        if self.thrd(s).is_calling {
            // The sender awaits our reply.
            self.thrd_mut(s).state = ThreadState::BlockedReply(e);
            self.thrd_mut(t).reply_partner = Some(s);
        } else {
            self.make_ready(s);
        }
        // A queued sender's message was consumed (receive fast path).
        self.trace.emit(KernelEvent::EndpointRecv {
            endpoint: e,
            rendezvous: true,
        });
        delivered
    }

    /// Non-blocking receive (`poll`): delivers a waiting sender's message
    /// or reports that none is queued, never blocking the caller.
    pub fn try_recv(
        &mut self,
        t: ThrdPtr,
        cpu: CpuId,
        slot: EdptIdx,
    ) -> Result<Option<IpcPayload>, PmError> {
        self.check_running(t, cpu)?;
        let e = self.cached_descriptor(t, slot)?;
        if self.edpt(e).side == QueueSide::Senders {
            Ok(Some(self.complete_recv_from_sender(t, e)))
        } else {
            Ok(None)
        }
    }

    /// The `recv` operation of thread `t` (running on `cpu`) over the
    /// endpoint in `slot`.
    pub fn recv(&mut self, t: ThrdPtr, cpu: CpuId, slot: EdptIdx) -> Result<RecvOutcome, PmError> {
        self.check_running(t, cpu)?;
        let e = self.cached_descriptor(t, slot)?;
        self.recv_with(t, cpu, e)
    }

    /// The `recv` body against a resolved endpoint `e`.
    fn recv_with(&mut self, t: ThrdPtr, cpu: CpuId, e: EdptPtr) -> Result<RecvOutcome, PmError> {
        if self.edpt(e).side == QueueSide::Senders {
            let delivered = self.complete_recv_from_sender(t, e);
            Ok(RecvOutcome::Received(delivered))
        } else {
            if self.edpt(e).queue.is_full() {
                return Err(PmError::EndpointFull);
            }
            {
                let ep = self.edpt_mut(e);
                ep.queue.push(t);
                ep.side = QueueSide::Receivers;
            }
            self.block_current(cpu, t, ThreadState::BlockedRecv(e));
            Ok(RecvOutcome::Blocked)
        }
    }

    /// The `call` operation: send + await reply (the paper's measured
    /// call/reply round trip, Table 3).
    pub fn call(
        &mut self,
        t: ThrdPtr,
        cpu: CpuId,
        slot: EdptIdx,
        payload: IpcPayload,
    ) -> Result<SendOutcome, PmError> {
        self.check_running(t, cpu)?;
        let e = self.cached_descriptor(t, slot)?;
        self.call_with(t, cpu, e, payload)
    }

    /// The slow-rendezvous `call` body against a resolved endpoint `e`.
    fn call_with(
        &mut self,
        t: ThrdPtr,
        cpu: CpuId,
        e: EdptPtr,
        payload: IpcPayload,
    ) -> Result<SendOutcome, PmError> {
        if self.edpt(e).side == QueueSide::Receivers {
            let r = {
                let ep = self.edpt_mut(e);
                let r = ep.queue.pop_front().expect("non-idle queue is nonempty");
                if ep.queue.is_empty() {
                    ep.side = QueueSide::Idle;
                }
                r
            };
            self.deliver(r, payload);
            self.thrd_mut(r).reply_partner = Some(t);
            self.make_ready(r);
            self.block_current(cpu, t, ThreadState::BlockedReply(e));
            self.trace.emit(KernelEvent::EndpointSend {
                endpoint: e,
                rendezvous: true,
            });
            self.trace.emit(KernelEvent::EndpointRecv {
                endpoint: e,
                rendezvous: false,
            });
            Ok(SendOutcome::Delivered(r))
        } else {
            if self.edpt(e).queue.is_full() {
                return Err(PmError::EndpointFull);
            }
            {
                let th = self.thrd_mut(t);
                th.ipc_buf = Some(payload);
                th.is_calling = true;
            }
            {
                let ep = self.edpt_mut(e);
                ep.queue.push(t);
                ep.side = QueueSide::Senders;
            }
            self.block_current(cpu, t, ThreadState::BlockedSend(e));
            self.trace.emit(KernelEvent::EndpointSend {
                endpoint: e,
                rendezvous: false,
            });
            Ok(SendOutcome::Blocked)
        }
    }

    /// The `reply` operation: wakes the caller this thread owes a reply.
    pub fn reply(
        &mut self,
        t: ThrdPtr,
        cpu: CpuId,
        payload: IpcPayload,
    ) -> Result<ThrdPtr, PmError> {
        self.check_running(t, cpu)?;
        let caller = self.thrd(t).reply_partner.ok_or(PmError::WrongState)?;
        let e = match self.thrd(caller).state {
            ThreadState::BlockedReply(e) => e,
            _ => return Err(PmError::WrongState),
        };
        self.deliver(caller, payload);
        self.thrd_mut(t).reply_partner = None;
        self.make_ready(caller);
        // A reply is a direct transfer to the waiting caller.
        self.trace.emit(KernelEvent::EndpointSend {
            endpoint: e,
            rendezvous: true,
        });
        self.trace.emit(KernelEvent::EndpointRecv {
            endpoint: e,
            rendezvous: false,
        });
        Ok(caller)
    }

    /// `true` when `payload` carries a capability grant — those paths
    /// need mem-domain work at delivery time, so the pm-only fast path
    /// refuses them.
    fn payload_carries_grant(payload: &IpcPayload) -> bool {
        payload.page_grant.is_some()
            || payload.endpoint_grant.is_some()
            || payload.iommu_grant.is_some()
    }

    /// Why a `call` on endpoint `e` from `cpu` cannot take the direct
    /// handoff, or `None` when it can.
    fn call_miss_reason(
        &self,
        e: EdptPtr,
        cpu: CpuId,
        payload: &IpcPayload,
    ) -> Option<FastpathOutcome> {
        if Self::payload_carries_grant(payload) {
            return Some(FastpathOutcome::CapTransfer);
        }
        let ep = self.edpt(e);
        if ep.side != QueueSide::Receivers {
            return Some(if ep.queue.is_full() {
                FastpathOutcome::QueueFull
            } else {
                FastpathOutcome::WrongSide
            });
        }
        let r = ep.queue.get(0);
        if self.thrd(r).home_cpu != cpu {
            return Some(FastpathOutcome::CrossCpu);
        }
        if self.handoff_streak[cpu] >= HANDOFF_BUDGET {
            return Some(FastpathOutcome::Budget);
        }
        None
    }

    /// The `call` operation with the direct-handoff fast path: when a
    /// receiver is already parked on the endpoint, homed on this CPU,
    /// and the payload is scalar-only, the message moves by permission
    /// transfer and the CPU switches straight to the receiver — no
    /// ready-queue round trip. Any miss falls back to the slow
    /// rendezvous in [`call`](Self::call), which reaches the same
    /// abstract send/recv transition. Returns the outcome plus whether
    /// the fast path was taken (for cycle charging).
    pub fn call_fast(
        &mut self,
        t: ThrdPtr,
        cpu: CpuId,
        slot: EdptIdx,
        payload: IpcPayload,
    ) -> Result<(SendOutcome, bool), PmError> {
        self.check_running(t, cpu)?;
        let e = self.cached_descriptor(t, slot)?;
        if let Some(reason) = self.call_miss_reason(e, cpu, &payload) {
            self.trace.count(reason, 1);
            return self.call_with(t, cpu, e, payload).map(|o| (o, false));
        }
        let r = {
            let ep = self.edpt_mut(e);
            let r = ep.queue.pop_front().expect("non-idle queue is nonempty");
            if ep.queue.is_empty() {
                ep.side = QueueSide::Idle;
            }
            r
        };
        // The payload moves through the receiver's permission (no copy,
        // no intermediate buffer), exactly as `deliver` does on the slow
        // path; the caller parks in its reply slot and the CPU is handed
        // to the receiver without touching the ready queue.
        self.deliver(r, payload);
        self.thrd_mut(r).reply_partner = Some(t);
        self.thrd_mut(t).state = ThreadState::BlockedReply(e);
        self.sched.switch_current(cpu, t, r);
        self.thrd_mut(r).state = ThreadState::Running(cpu);
        // Budget inheritance: the server runs on the client's account
        // (resolving nested handoffs to the originating client), so a
        // shared service is never drained by any one tenant.
        let billed = self.sched.billed(t, self.thrd(t).owning_cntr);
        if billed != self.thrd(r).owning_cntr {
            self.sched.inherit(r, billed);
        }
        self.handoff_streak[cpu] += 1;
        self.trace.count(FastpathOutcome::Hit, 1);
        // Same event pair as the slow rendezvous arm: the trace audit
        // reconciles counters against events exactly, so fast and slow
        // paths must be indistinguishable at the event level.
        self.trace.emit(KernelEvent::EndpointSend {
            endpoint: e,
            rendezvous: true,
        });
        self.trace.emit(KernelEvent::EndpointRecv {
            endpoint: e,
            rendezvous: false,
        });
        Ok((SendOutcome::Delivered(r), true))
    }

    /// Why a `reply_recv` replying to `caller` and re-opening `e` from
    /// `cpu` cannot take the direct handoff, or `None` when it can.
    fn reply_recv_miss_reason(
        &self,
        e: EdptPtr,
        cpu: CpuId,
        caller: ThrdPtr,
        payload: &IpcPayload,
    ) -> Option<FastpathOutcome> {
        if Self::payload_carries_grant(payload) {
            return Some(FastpathOutcome::CapTransfer);
        }
        if self.thrd(caller).home_cpu != cpu {
            return Some(FastpathOutcome::CrossCpu);
        }
        if self.edpt(e).side == QueueSide::Senders {
            // A request is already queued: the slow path consumes it
            // instead of parking the replier.
            return Some(FastpathOutcome::WrongSide);
        }
        if self.handoff_streak[cpu] >= HANDOFF_BUDGET {
            return Some(FastpathOutcome::Budget);
        }
        None
    }

    /// The combined `reply_recv` operation: answer the caller this
    /// thread owes a reply and re-open the endpoint in `slot` for the
    /// next request, in one trap. On the fast path the CPU is handed
    /// straight back to the caller and the replier parks as the
    /// endpoint's receiver; on a miss the reply goes through
    /// [`reply`](Self::reply) and the receive through the slow `recv`
    /// body. Returns the outcome plus whether the fast path was taken.
    pub fn reply_recv(
        &mut self,
        t: ThrdPtr,
        cpu: CpuId,
        slot: EdptIdx,
        payload: IpcPayload,
    ) -> Result<(ReplyRecvOutcome, bool), PmError> {
        self.check_running(t, cpu)?;
        let e = self.cached_descriptor(t, slot)?;
        let caller = self.thrd(t).reply_partner.ok_or(PmError::WrongState)?;
        let reply_e = match self.thrd(caller).state {
            ThreadState::BlockedReply(re) => re,
            _ => return Err(PmError::WrongState),
        };
        // Validate the receive half before any mutation: the combined
        // syscall must be all-or-nothing so failed calls stay noops
        // under the refinement audit.
        if self.edpt(e).side != QueueSide::Senders && self.edpt(e).queue.is_full() {
            return Err(PmError::EndpointFull);
        }
        if let Some(reason) = self.reply_recv_miss_reason(e, cpu, caller, &payload) {
            self.trace.count(reason, 1);
            self.reply(t, cpu, payload)?;
            let out = match self.recv_with(t, cpu, e)? {
                RecvOutcome::Received(p) => ReplyRecvOutcome::Received(p),
                RecvOutcome::Blocked => ReplyRecvOutcome::Blocked,
            };
            return Ok((out, false));
        }
        // Fast path: park the replier as the endpoint's receiver, then
        // hand the CPU straight back to the caller.
        {
            let ep = self.edpt_mut(e);
            let pushed = ep.queue.push(t);
            debug_assert!(pushed, "capacity checked above");
            ep.side = QueueSide::Receivers;
        }
        self.deliver(caller, payload);
        self.thrd_mut(t).reply_partner = None;
        self.thrd_mut(t).state = ThreadState::BlockedRecv(e);
        self.sched.switch_current(cpu, t, caller);
        self.thrd_mut(caller).state = ThreadState::Running(cpu);
        // The handoff unwound: the replier stops billing to the
        // client's account.
        self.sched.clear_inherit(t);
        self.handoff_streak[cpu] += 1;
        self.trace.count(FastpathOutcome::Hit, 1);
        // Same event pair as the slow `reply`.
        self.trace.emit(KernelEvent::EndpointSend {
            endpoint: reply_e,
            rendezvous: true,
        });
        self.trace.emit(KernelEvent::EndpointRecv {
            endpoint: reply_e,
            rendezvous: false,
        });
        Ok((ReplyRecvOutcome::Handoff(caller), true))
    }

    /// Timer tick / `yield` on `cpu`: charges the tick to the running
    /// thread's billed account (the client's under an IPC inheritance
    /// handoff), advances the budget refill wheel, throttles exhausted
    /// containers — parking their Ready threads off the run queues —
    /// and round-robin rotates with state bookkeeping.
    pub fn timer_tick(&mut self, cpu: CpuId) -> Option<ThrdPtr> {
        self.handoff_streak[cpu] = 0;
        // One global wheel tick; refilled accounts unthrottle and their
        // parked threads re-enqueue (still Ready) to their home CPUs.
        self.sched.advance_wheel();
        if let Some(cur) = self.sched.current(cpu) {
            let owner = self.thrd(cur).owning_cntr;
            let billed = self.sched.billed(cur, owner);
            let exhausted = self.sched.charge_tick(billed) == ChargeOutcome::Exhausted;
            // Going through the ready queue ends any billing handoff.
            self.sched.clear_inherit(cur);
            if exhausted {
                self.sched.throttle(billed);
                // `cur` is still Running here, so the Ready filter
                // leaves it to the explicit handling below.
                self.park_ready_threads(billed);
            }
            if self.sched.throttled(owner) {
                // The thread's own container is throttled — it just
                // exhausted its budget, exhausted it from another CPU,
                // or was administratively throttled mid-run: park it
                // instead of requeueing, and run someone else.
                self.thrd_mut(cur).state = ThreadState::Ready;
                self.sched.clear_current(cpu);
                let home = self.thrd(cur).home_cpu;
                self.sched.park(cur, home, owner);
                let next = self.sched.dispatch(cpu)?;
                self.thrd_mut(next).state = ThreadState::Running(cpu);
                return Some(next);
            }
        }
        // Rotation may re-pick the running thread: then no state moves.
        let cur = self.sched.current(cpu);
        let next = self.sched.rotate(cpu);
        if next != cur {
            if let Some(cur) = cur {
                self.thrd_mut(cur).state = ThreadState::Ready;
            }
            if let Some(next) = next {
                self.thrd_mut(next).state = ThreadState::Running(cpu);
            }
        }
        next
    }

    /// Parks every Ready thread of `cntr` off the run queues into its
    /// (throttled) budget account.
    fn park_ready_threads(&mut self, cntr: CtnrPtr) {
        if !self.cntr_perms.contains(cntr) || !self.sched.throttled(cntr) {
            return;
        }
        let ready: Vec<ThrdPtr> = self
            .cntr(cntr)
            .owned_thrds
            .iter()
            .copied()
            .filter(|&t| self.thrd(t).state == ThreadState::Ready)
            .collect();
        for t in ready {
            self.sched.remove(t);
            let home = self.thrd(t).home_cpu;
            self.sched.park(t, home, cntr);
        }
    }

    /// Sets `cntr`'s scheduling weight (0 tears the account down and
    /// refunds its budget). Threads parked in a torn-down account
    /// return to their run queues.
    pub fn sched_set_weight(&mut self, cntr: CtnrPtr, weight: u32) -> Result<(), PmError> {
        if !self.cntr_perms.contains(cntr) {
            return Err(PmError::NotFound);
        }
        for (t, cpu) in self.sched.set_weight(cntr, weight) {
            self.sched.enqueue(cpu, t);
        }
        Ok(())
    }

    /// Administratively throttles or unthrottles `cntr`. Throttling
    /// parks its Ready threads (running ones park at their next tick)
    /// and holds across refills until the matching unthrottle;
    /// unthrottling re-enqueues them — unless the account is also
    /// budget-exhausted, in which case the threads stay parked until
    /// the wheel refills it. Requires a budget account.
    pub fn sched_throttle(&mut self, cntr: CtnrPtr, throttle: bool) -> Result<(), PmError> {
        if !self.cntr_perms.contains(cntr) {
            return Err(PmError::NotFound);
        }
        if self.sched.weight(cntr) == 0 {
            return Err(PmError::InvalidArgument);
        }
        if throttle {
            self.sched.throttle_admin(cntr);
            self.park_ready_threads(cntr);
        } else {
            // Re-enqueue happens inside unthrottle; threads stay Ready.
            self.sched.unthrottle_admin(cntr);
        }
        Ok(())
    }

    /// Takes the delivered message out of `t`'s buffer.
    pub fn take_message(&mut self, t: ThrdPtr) -> Option<IpcPayload> {
        self.thrd(t).ipc_buf?;
        self.thrd_mut(t).ipc_buf.take()
    }

    /// Wakes `t` if it is blocked on an endpoint (removing it from the
    /// queue) — the interrupt-notification path. Runnable or
    /// reply-blocked threads are left alone. Returns `true` when woken.
    pub fn wake_if_blocked(&mut self, _alloc: &mut dyn PageSource, t: ThrdPtr) -> bool {
        if !self.thrd_perms.contains(t) {
            return false;
        }
        match self.thrd(t).state {
            ThreadState::BlockedSend(e) | ThreadState::BlockedRecv(e) => {
                let ep = self.edpt_mut(e);
                ep.queue.remove(&t);
                if ep.queue.is_empty() {
                    ep.side = QueueSide::Idle;
                }
                // An aborted send abandons its in-flight payload.
                if let Some(p) = self.thrd_mut(t).ipc_buf.take() {
                    if let Some(frame) = p.page_grant {
                        self.trace.audit(AuditDelta::RefDec(frame));
                        _alloc.dec_map_ref(frame);
                    }
                }
                self.make_ready(t);
                true
            }
            _ => false,
        }
    }

    fn check_running(&self, t: ThrdPtr, cpu: CpuId) -> Result<(), PmError> {
        if !self.thrd_perms.contains(t) {
            return Err(PmError::NotFound);
        }
        if self.thrd(t).state != ThreadState::Running(cpu) || self.sched.current(cpu) != Some(t) {
            return Err(PmError::WrongState);
        }
        Ok(())
    }
}

impl PageClosure for ProcessManager {
    /// Every object page owned by the process manager: containers,
    /// processes, threads and endpoints (§4.2).
    fn page_closure(&self) -> Set<PagePtr> {
        let mut s = self.cntr_perms.dom();
        s.union_mut(&self.proc_perms.dom());
        s.union_mut(&self.thrd_perms.dom());
        s.union_mut(&self.edpt_perms.dom());
        s
    }
}

impl Invariant for ProcessManager {
    /// `total_wf` for the process-manager subsystem: permission-map
    /// coherence, the container tree, quotas, the CPU partition, the
    /// process forest, threads, endpoints and the scheduler.
    fn wf(&self) -> VerifResult {
        check(
            self.cntr_perms.wf()
                && self.proc_perms.wf()
                && self.thrd_perms.wf()
                && self.edpt_perms.wf(),
            "process_manager",
            "permission map incoherent",
        )?;
        // Object pages never collide across types (type safety at the
        // page level).
        let doms = [
            self.cntr_perms.dom(),
            self.proc_perms.dom(),
            self.thrd_perms.dom(),
            self.edpt_perms.dom(),
        ];
        check(
            atmo_spec::set::pairwise_disjoint(&doms),
            "process_manager",
            "two kernel objects share a page",
        )?;
        container_tree_wf(self.root_container, &self.cntr_perms)?;
        quota_wf(&self.cntr_perms)?;
        cpu_partition_wf(&self.cntr_perms)?;
        process_forest_wf(&self.cntr_perms, &self.proc_perms)?;
        threads_wf(
            &self.cntr_perms,
            &self.proc_perms,
            &self.thrd_perms,
            &self.edpt_perms,
        )?;
        endpoints_wf(&self.thrd_perms, &self.edpt_perms)?;
        sched_wf(&self.sched, &self.cntr_perms, &self.thrd_perms)?;
        // Endpoint ghost ownership.
        for (c_ptr, perm) in self.cntr_perms.iter() {
            for e in perm.value().owned_edpts.iter() {
                check(
                    self.edpt_perms.contains(*e) && self.edpt(*e).owning_cntr == c_ptr,
                    "process_manager",
                    format_args!("container {c_ptr:#x} claims foreign/dead endpoint {e:#x}"),
                )?;
            }
        }
        for (e_ptr, perm) in self.edpt_perms.iter() {
            let owner = perm.value().owning_cntr;
            check(
                self.cntr_perms.contains(owner) && self.cntr(owner).owned_edpts.contains(&e_ptr),
                "process_manager",
                format_args!("endpoint {e_ptr:#x} not recorded by its owner"),
            )?;
        }
        Ok(())
    }
}
