//! The sharded SMP kernel: per-subsystem lock domains instead of one
//! big lock.
//!
//! [`BigLockKernel`](crate::kernel::BigLockKernel) serializes *every*
//! system call behind a single mutex — correct, and exactly the model
//! the refinement proof covers, but all cores contend on one lock.
//! [`SmpKernel`] splits the kernel state into independently locked
//! domains so a dispatch acquires only the domains its system call
//! touches:
//!
//! * **pm domain** — the process manager (containers, processes,
//!   threads, endpoints, scheduler) plus the IRQ handler table. Every
//!   syscall takes this lock: the current thread lives here.
//! * **mem domain** — the page allocator, the VM subsystem (page
//!   tables, IOMMU) and the grant/IOMMU bookkeeping tables. Taken
//!   *lazily*: pm-only calls (yield, IPC, thread creation served from
//!   the page cache) never touch it.
//! * **trace** — already internally concurrent
//!   ([`TraceHandle`] shards per CPU); never
//!   needs an outer lock.
//!
//! plus per-CPU leaves: each CPU's cycle meter and its free-page cache.
//! The cache gives the hot allocation path its fast path — kernel
//! objects are built from cached frames without the mem lock, which is
//! only taken briefly for batch refill/drain.
//!
//! # Lock order
//!
//! The total acquisition order (checked at runtime in every debug
//! build) is
//!
//! ```text
//! meter(cpu) → pm → hw → snapshot → cache(cpu) → mem      [trace: leaf]
//! ```
//!
//! Publicly: **pm before mem before trace**. The multi-acquire levels
//! (meters, caches) are only taken for more than one CPU by the
//! stop-the-world path, in ascending CPU order.
//!
//! # Dispatch
//!
//! [`SyscallArgs::plan`] picks the path: a replica read (no lock), a
//! locked call (pm, mem lazily inside it) or a staged call. Every
//! critical section a dispatch opens goes through one function,
//! `in_domain`.
//!
//! # Staged calls
//!
//! `Mmap`/`Munmap` need pm (quota) *and* mem (frames, tables) for many
//! pages. Holding both for the whole loop would serialize pm-only
//! traffic behind page zeroing, so they run *staged*: validate, resolve
//! the caller (and charge a map's quota) under pm, release pm, do the
//! page work under mem, then re-acquire pm (order-legal — mem was
//! released first) to refund a failed map or release an unmap's
//! quota. Between the stages another CPU can observe the
//! quota charged but no pages mapped; that errs in the safe direction
//! and the abstract spec (`noop-on-error`, exact-on-success) still
//! holds at the return point.
//!
//! # Node replication
//!
//! With [`SmpKernel::enable_nr`] on, every write appends its summary
//! to the pm or mem log under the lock that serialized it (see
//! [`crate::nr`]). A locked call that took the mem lock appends exactly
//! one mem entry, [`MemOp::Spaces`], naming the spaces the VM
//! subsystem recorded as touched (empty when it changed no table); the
//! staged path appends its range. Every path that holds mem — the
//! locked path, the staged mem stage, the `with_kernel` bridge — clears
//! the touched list before it releases the lock, so the list is empty
//! at every syscall boundary.
//!
//! # `total_wf`
//!
//! Per-domain invariants hold under each domain's own lock; the
//! cross-domain equations (closure partition, leak freedom) are only
//! meaningful with *all* locks held and every per-CPU cache drained.
//! [`SmpKernel::audit_total_wf`] is that stop-the-world audit: it
//! assembles the domains back into a flat [`Kernel`] and runs its
//! `wf()`.

use std::collections::BTreeMap;

use atmo_hw::cycles::{CostModel, CycleMeter};
use atmo_hw::machine::Machine;
use atmo_mem::{CacheStats, PageCache};
use atmo_nr::{AppendStats, NodeReplicated, NrDispatch};
use atmo_pm::types::{CpuId, CtnrPtr, ProcPtr, ThrdPtr};
use atmo_pm::ProcessManager;
use atmo_spec::harness::{check, Invariant, VerifResult};
use atmo_spec::lock_recovering;
use atmo_trace::{AuditOutcome, LockDomain, NrOutcome, Snapshot, TraceHandle};

use crate::audit::{AuditState, Auditor};
use crate::domain::{DomainLock, LockLevel};
use crate::kernel::{Kernel, MemDomain};
use crate::nr::{KernelNr, MemOp, MemView, PmOp, PmUpdateClass, PmView};
use crate::syscall::{
    mmap_stage_mem, munmap_stage_mem, stage_pm, stage_validate, trap_bracket, uncharge_stage_pm,
    ExecCtx, MemAccess, Plan, StagedOp, SyscallArgs, SyscallError, SyscallReturn,
};

/// The pm lock domain's contents: the process manager and the IRQ
/// handler table (interrupt dispatch reads the scheduler anyway, so the
/// table rides in the same domain).
pub struct PmShard {
    /// Containers, processes, threads, endpoints, scheduler.
    pub pm: ProcessManager,
    /// vector → driver thread registrations.
    pub(crate) irq_handlers: BTreeMap<u8, ThrdPtr>,
}

/// The sharded kernel: one lock per domain, per-CPU meters and page
/// caches, a concurrent trace sink.
///
/// The domain slots are `Option`s so the stop-the-world path can `take`
/// them and assemble a flat [`Kernel`]; a successful lock acquisition
/// outside that path always observes `Some`.
pub struct SmpKernel {
    /// The modeled cost table (immutable after boot; copied freely).
    costs: CostModel,
    /// The root container (immutable identity).
    root_container: CtnrPtr,
    /// The init process (immutable identity).
    init_proc: ProcPtr,
    /// The init thread (immutable identity).
    init_thread: ThrdPtr,
    /// Number of CPUs (== meters.len() == caches.len()).
    ncpus: usize,
    /// Per-CPU cycle meters — level 0, the first thing a dispatch takes.
    meters: Vec<DomainLock<CycleMeter>>,
    /// The pm domain.
    pm: DomainLock<Option<PmShard>>,
    /// The hardware shell (interrupt controller; meters live above).
    hw: DomainLock<Option<Machine>>,
    /// The last-snapshot slot served by `SyscallArgs::TraceSnapshot`.
    snap: DomainLock<Option<Snapshot>>,
    /// Per-CPU free-page caches.
    caches: Vec<DomainLock<PageCache>>,
    /// The mem domain.
    mem: DomainLock<Option<MemDomain>>,
    /// The concurrent trace sink (leaf; internally sharded).
    trace: TraceHandle,
    /// The incremental auditor: folded cross-domain state plus its
    /// reusable ledger-drain scratch. `None` until
    /// [`enable_incremental_audit`](Self::enable_incremental_audit)
    /// baselines it. Ordered *above* every domain lock: it is always
    /// taken first and never while a domain lock is held, so the audit
    /// path cannot deadlock against dispatch.
    auditor: std::sync::Mutex<Option<Auditor>>,
    /// The node-replicated read layer: per-CPU [`PmView`]/[`MemView`]
    /// replicas over per-domain op logs (see [`crate::nr`]). `None`
    /// until [`enable_nr`](Self::enable_nr) baselines it — and with it
    /// unset, every dispatch is cycle-for-cycle identical to the plain
    /// sharded kernel (no appends, no replica charges). All replica
    /// internals are leaf mutexes, orderable under any domain lock.
    nr: std::sync::OnceLock<KernelNr>,
}

impl SmpKernel {
    /// Shards a booted [`Kernel`] into lock domains.
    pub fn new(kernel: Kernel) -> Self {
        let Kernel {
            machine,
            pm,
            mut mem,
            root_container,
            init_proc,
            init_thread,
            irq_handlers,
            trace,
            last_trace_snapshot,
        } = kernel;
        // Sharding starts at a syscall boundary: tables the owner
        // changed directly belong to no call.
        mem.vm.clear_touched();
        let costs = machine.costs;
        let ncpus = machine.cores.len();
        let meters = machine
            .cores
            .iter()
            .map(|c| DomainLock::new(c.meter.clone(), LockLevel::Meter, None, trace.clone()))
            .collect();
        let caches = (0..ncpus)
            .map(|c| {
                let mut cache = PageCache::new(c);
                // Cache fills/drains move frames in and out of the
                // closure equations; the incremental auditor needs them
                // in the ledger.
                cache.attach_trace(trace.clone());
                DomainLock::new(cache, LockLevel::Cache, None, trace.clone())
            })
            .collect();
        SmpKernel {
            costs,
            root_container,
            init_proc,
            init_thread,
            ncpus,
            meters,
            pm: DomainLock::new(
                Some(PmShard { pm, irq_handlers }),
                LockLevel::Pm,
                Some(LockDomain::Pm),
                trace.clone(),
            ),
            hw: DomainLock::new(Some(machine), LockLevel::Hw, None, trace.clone()),
            snap: DomainLock::new(
                last_trace_snapshot,
                LockLevel::Snapshot,
                None,
                trace.clone(),
            ),
            caches,
            mem: DomainLock::new(
                Some(mem),
                LockLevel::Mem,
                Some(LockDomain::Mem),
                trace.clone(),
            ),
            trace,
            auditor: std::sync::Mutex::new(None),
            nr: std::sync::OnceLock::new(),
        }
    }

    /// Turns on node-replicated reads: projects the authoritative pm
    /// and mem state (under both domain locks, so the baselines are a
    /// consistent cut) into per-CPU replicas. From here on the
    /// replicated read syscalls (`getpid`, `thread_lookup`,
    /// `descriptor_resolve`, `vm_resolve`) are served from the calling
    /// CPU's replica without touching any domain lock or model clock,
    /// and every locked mutation appends its summary op to the logs.
    ///
    /// Idempotent: a second call is a no-op (the live logs already
    /// carry the history; re-baselining would fork it).
    pub fn enable_nr(&self) {
        let mut pm_g = self.pm.lock(0);
        let mut mem_g = self.mem.lock(0);
        let shard = pm_g.as_mut().expect("pm domain present under its lock");
        let pm_view = PmView::project(&shard.pm, self.ncpus);
        let mem_view = MemView::project(
            &mem_g
                .as_mut()
                .expect("mem domain present under its lock")
                .vm,
        );
        let _ = self.nr.set(KernelNr::new(self.ncpus, pm_view, mem_view));
    }

    /// The node-replication layer, when [`enable_nr`](Self::enable_nr)
    /// has baselined it.
    pub fn nr(&self) -> Option<&KernelNr> {
        self.nr.get()
    }

    /// Number of CPUs.
    pub fn ncpus(&self) -> usize {
        self.ncpus
    }

    /// The root container's pointer.
    pub fn root_container(&self) -> CtnrPtr {
        self.root_container
    }

    /// The init process's pointer.
    pub fn init_proc(&self) -> ProcPtr {
        self.init_proc
    }

    /// The init thread's pointer.
    pub fn init_thread(&self) -> ThrdPtr {
        self.init_thread
    }

    /// The shared trace handle.
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// The system-call trap handler for `cpu` — the sharded counterpart
    /// of [`Kernel::syscall`]. Acquires only the domains the call's
    /// [`Plan`] touches; modeled time serializes through each domain's
    /// release timestamp exactly like the big lock's, but per domain.
    pub fn syscall(&self, cpu: CpuId, args: SyscallArgs) -> SyscallReturn {
        assert!(cpu < self.ncpus, "cpu {cpu} out of range");
        // Attribute this OS thread's trace emissions to `cpu`.
        self.trace.set_cpu(cpu);
        let mut meter_g = self.meters[cpu].lock(cpu);
        let kind = args.trace_kind();
        // The trampolines are per-CPU work — trap, save state, decode;
        // restore state, sysret — so they bracket the domain locks: the
        // entry runs before any shared lock is taken, and the exit
        // charges after the domains' release timestamps were published,
        // so it never serializes behind another CPU.
        trap_bracket(&self.costs, &self.trace, &mut meter_g, cpu, kind, |meter| {
            match (args.plan(), self.nr.get()) {
                (Plan::Staged(op), _) => self.staged(cpu, meter, op, &args),
                // Node-replicated reads bypass every domain lock *and
                // clock*: the answer comes from the calling CPU's
                // replica, so sixteen readers never serialize through
                // the pm domain's model time.
                (Plan::Replica, Some(nr)) => self.replica(cpu, meter, nr, args),
                (Plan::Replica, None) => self.locked(cpu, meter, PmUpdateClass::None, args),
                (Plan::Locked(class), _) => self.locked(cpu, meter, class, args),
            }
        })
    }

    /// Enters one lock domain: takes `lock` for `cpu`, syncs `meter` to
    /// the domain's release time, runs `f` on the domain's contents,
    /// and publishes the meter's time as the new release time before
    /// the guard drops. Every critical section a dispatch opens goes
    /// through here (the locked body may then take mem lazily inside).
    fn in_domain<T, R>(
        &self,
        lock: &DomainLock<Option<T>>,
        cpu: CpuId,
        meter: &mut CycleMeter,
        f: impl FnOnce(&mut T, &mut CycleMeter) -> R,
    ) -> R {
        let mut g = lock.lock(cpu);
        g.enter(meter);
        let r = f(g.as_mut().expect("domain present under its lock"), meter);
        g.publish(meter.now());
        r
    }

    /// The locked path: the pm domain, then whatever else the call
    /// touches, in lock order; `class` says how the call's pm-side
    /// effects are summarized into the replication log.
    fn locked(
        &self,
        cpu: CpuId,
        meter: &mut CycleMeter,
        class: PmUpdateClass,
        args: SyscallArgs,
    ) -> SyscallReturn {
        self.in_domain(&self.pm, cpu, meter, |shard, meter| {
            // The snapshot slot is its own domain, locked only by the
            // one call that writes it.
            let mut snap_g =
                matches!(args, SyscallArgs::TraceSnapshot).then(|| self.snap.lock(cpu));
            let mut cache_g = self.caches[cpu].lock(cpu);
            // Pre-dispatch scheduler snapshot: lets the append below
            // elide the `CurrentAll` op when the call turns out not to
            // have moved any CPU's `current` (the common
            // single-runnable-thread yield).
            let nr_pre_current = (self.nr.get().is_some() && class != PmUpdateClass::None)
                .then(|| PmView::current_all(&shard.pm, self.ncpus));
            let mut ctx = ExecCtx {
                costs: self.costs,
                meter,
                pm: &mut shard.pm,
                trace: &self.trace,
                last_snapshot: snap_g.as_deref_mut(),
                mem: MemAccess::Shard {
                    cpu,
                    lock: &self.mem,
                    cache: &mut cache_g,
                    guard: None,
                },
            };
            let ret = ctx.dispatch_current(cpu, args);
            // Mem-side replication append and release time, under the
            // still-held (lazily acquired) mem guard — log order equals
            // mem-lock order. The entry names only the spaces the call
            // touched; the list is cleared for the next holder.
            if matches!(ctx.mem, MemAccess::Shard { guard: Some(_), .. }) {
                let vm = &mut ctx.mem.domain().vm;
                if let Some(nr) = self.nr.get() {
                    self.nr_append(cpu, ctx.meter, &nr.mem, MemOp::touched(vm));
                }
                vm.clear_touched();
                self.mem.set_model_time(ctx.meter.now());
            }
            drop(ctx);
            // Pm-side replication append, still under the pm lock.
            if let (Some(nr), Some(pre)) = (self.nr.get(), nr_pre_current) {
                let op = if class == PmUpdateClass::Structural && ret.is_ok() {
                    Some(PmOp::Reset(PmView::project(&shard.pm, self.ncpus)))
                } else {
                    // Cheap class, or an error return (noop on the
                    // object tables by spec — only the scheduler's
                    // `current` may have moved, and when it did not,
                    // there is nothing to replicate).
                    let now = PmView::current_all(&shard.pm, self.ncpus);
                    (now != pre).then_some(PmOp::CurrentAll(now))
                };
                if let Some(op) = op {
                    self.nr_append(cpu, meter, &nr.pm, op);
                }
            }
            ret
        })
    }

    /// Appends `op` to `log` for `cpu`, then charges and counts the
    /// batch: a modeled cacheline copy per op appended and replayed, one
    /// ring doorbell per flat-combining flush. Caller holds the lock
    /// that serialized the mutation `op` summarizes.
    fn nr_append<D: NrDispatch>(
        &self,
        cpu: CpuId,
        meter: &mut CycleMeter,
        log: &NodeReplicated<D>,
        op: D::Op,
    ) {
        let stats = log.append(cpu, vec![op]);
        meter.charge(
            self.costs.copy_cacheline * (stats.appended + stats.replayed)
                + self.costs.ring_op * stats.combine_batches,
        );
        self.nr_count(&[stats]);
    }

    /// Counts the summed events of one or more log appends, one trace
    /// event per outcome. Ledger recording (for the incremental
    /// auditor's `NrAppended` balance) rides on the `Append` event.
    fn nr_count(&self, stats: &[AppendStats]) {
        let sum = |f: fn(&AppendStats) -> u64| stats.iter().map(f).sum();
        self.trace.count(NrOutcome::Append, sum(|s| s.appended));
        self.trace
            .count(NrOutcome::CombineBatch, sum(|s| s.combine_batches));
        self.trace.count(NrOutcome::Replay, sum(|s| s.replayed));
    }

    /// Charges and counts a read-side replica catch-up (a modeled
    /// cacheline copy per op replayed).
    fn nr_read_charge(&self, meter: &mut CycleMeter, replayed: u64) {
        meter.charge(self.costs.copy_cacheline * replayed);
        self.trace.count(NrOutcome::Replay, replayed);
    }

    /// Serves a replicated read from `cpu`'s local replicas: replay to
    /// the published tail, answer from local state. No domain lock is
    /// taken and — the scaling point — the meter never syncs to a
    /// domain's model time, so concurrent readers advance only their
    /// own clocks. Error mapping matches the locked handlers exactly
    /// (the epoch cross-check keeps the states bit-identical, so the
    /// answers can only lag the authoritative state, never disagree
    /// with the tail they linearize at).
    fn replica(
        &self,
        cpu: CpuId,
        meter: &mut CycleMeter,
        nr: &KernelNr,
        args: SyscallArgs,
    ) -> SyscallReturn {
        use SyscallError::{NotFound, WrongState};
        let walk = match args {
            SyscallArgs::VmResolve { .. } => self.costs.pt_walk_cached_read,
            _ => 0,
        };
        meter.charge(self.costs.syscall_validate + walk);
        let owner = |(p, c): (usize, usize)| [p as u64, c as u64, 0, 0];
        let (result, rs) = nr.pm.execute_ro(cpu, |v| {
            v.current_thread(cpu).ok_or(WrongState)?;
            match &args {
                SyscallArgs::Getpid => v.getpid(cpu).map(owner).ok_or(WrongState),
                SyscallArgs::ThreadLookup { thread } => {
                    v.thread_lookup(*thread).map(owner).ok_or(NotFound)
                }
                SyscallArgs::DescriptorResolve { slot } => {
                    let e = v.descriptor_resolve(cpu, *slot).ok_or(NotFound)?;
                    Ok([e as u64, 0, 0, 0])
                }
                // The caller's space; the mem replica answers below.
                SyscallArgs::VmResolve { .. } => {
                    let space = v.current_addr_space(cpu).ok_or(WrongState)?;
                    Ok([space as u64, 0, 0, 0])
                }
                _ => unreachable!("plan() replicates only the four reads above"),
            }
        });
        self.nr_read_charge(meter, rs.replayed);
        let result = match (args, result) {
            // Cross-domain read: the mapping answer comes from the mem
            // replica, no staler than *its* log's tail.
            (SyscallArgs::VmResolve { va }, Ok([space, ..])) => {
                let (w, rs) = nr.mem.execute_ro(cpu, |m| m.resolve(space as usize, va));
                self.nr_read_charge(meter, rs.replayed);
                // An unmapped address is a successful "no".
                Ok(w.map_or([0; 4], |w| [1, w as u64, 0, 0]))
            }
            (_, result) => result,
        };
        self.trace.count(NrOutcome::ReadLocal, 1);
        SyscallReturn { result }
    }

    /// The staged two-phase path for `Mmap`/`Munmap` (see the module
    /// docs): validate (lock-free) → pm stage (caller; a map's quota
    /// charge) → mem stage (allocator + page tables) → pm quota
    /// epilogue when `op` says quota moves back (a failed map, a
    /// successful unmap).
    fn staged(
        &self,
        cpu: CpuId,
        meter: &mut CycleMeter,
        op: StagedOp,
        args: &SyscallArgs,
    ) -> SyscallReturn {
        let range = match stage_validate(&self.costs, meter, args) {
            Ok(range) => range,
            Err(ret) => return ret,
        };
        let plan = self.in_domain(&self.pm, cpu, meter, |shard, meter| {
            let r = stage_pm(&mut shard.pm, cpu, range, op);
            if let (Ok(plan), StagedOp::Map { .. }) = (&r, op) {
                // The quota charge is the stage's only pm mutation:
                // append its absolute gauge while the lock still
                // serializes us.
                self.nr_append_quota(cpu, meter, &shard.pm, plan.cntr);
            }
            r
        });
        let plan = match plan {
            Ok(plan) => plan,
            Err(ret) => return ret,
        };
        let ret = self.in_domain(&self.mem, cpu, meter, |m, meter| {
            debug_assert!(
                m.vm.touched().next().is_none(),
                "a syscall left spaces touched"
            );
            let r = match op {
                StagedOp::Map { .. } => mmap_stage_mem(&self.costs, meter, m, &plan),
                StagedOp::Unmap => munmap_stage_mem(&self.costs, meter, m, &plan),
            };
            if r.is_ok() {
                self.nr_append_range(cpu, meter, m, &plan);
            }
            // The range op already states the commit.
            m.vm.clear_touched();
            r
        });
        if op.uncharges(&ret) {
            // Mem is released, so re-taking pm respects the order.
            self.quota_epilogue(cpu, meter, plan.cntr, plan.len);
        }
        ret
    }

    /// The pm-side quota epilogue of a staged call.
    fn quota_epilogue(&self, cpu: CpuId, meter: &mut CycleMeter, cntr: CtnrPtr, pages: usize) {
        self.in_domain(&self.pm, cpu, meter, |shard, meter| {
            uncharge_stage_pm(&mut shard.pm, cntr, pages);
            self.nr_append_quota(cpu, meter, &shard.pm, cntr);
        })
    }

    /// Appends one container's post-mutation quota gauge to the pm log
    /// (no-op with replication off). Caller holds the pm lock. A
    /// container terminated between a staged call's stages is skipped:
    /// the terminate's own `Structural` `Reset` already dropped it from
    /// the replicas.
    fn nr_append_quota(
        &self,
        cpu: CpuId,
        meter: &mut CycleMeter,
        pm: &ProcessManager,
        cntr: CtnrPtr,
    ) {
        if let Some(nr) = self.nr.get().filter(|_| pm.cntr_perms.contains(cntr)) {
            let c = pm.cntr(cntr);
            let op = PmOp::QuotaSet {
                cntr,
                used: c.used,
                quota: c.quota,
            };
            self.nr_append(cpu, meter, &nr.pm, op);
        }
    }

    /// Appends the staged range's post-commit mapping summaries — read
    /// back from the authoritative page table, so the op states exactly
    /// what the locked mutation produced — to the mem log (no-op with
    /// replication off). Caller holds the mem lock. Serves both staged
    /// calls: after an mmap every page reads back `Some`, after a
    /// munmap `None`.
    fn nr_append_range(
        &self,
        cpu: CpuId,
        meter: &mut CycleMeter,
        m: &MemDomain,
        plan: &crate::syscall::MemStagePlan,
    ) {
        if let Some(nr) = self.nr.get() {
            let table = m.vm.table(plan.as_id);
            let pages = plan
                .range
                .iter()
                .map(|va| {
                    let covering = table.and_then(|t| t.covering(va.as_usize()));
                    (
                        va.as_usize(),
                        covering.map(|(_base, e, _size)| e.flags.writable),
                    )
                })
                .collect();
            let op = MemOp::MapRange {
                space: plan.as_id,
                pages,
            };
            self.nr_append(cpu, meter, &nr.mem, op);
        }
    }

    /// Stops the world: takes *every* lock in order, drains the per-CPU
    /// page caches, assembles the domains into a flat [`Kernel`], and
    /// runs `f` on it. This is the compatibility bridge for everything
    /// that wants the unified view — interrupt dispatch, the verified
    /// services, and above all the `total_wf` audit.
    ///
    /// Meters are *not* synchronized here: the bridge is bookkeeping,
    /// not a modeled serialization point.
    pub fn with_kernel<R>(&self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        // Every lock, ascending level; multi-acquire levels in CPU order.
        let mut meter_gs: Vec<_> = (0..self.ncpus).map(|c| self.meters[c].lock(c)).collect();
        let mut pm_g = self.pm.lock(0);
        let mut hw_g = self.hw.lock(0);
        let mut snap_g = self.snap.lock(0);
        let mut cache_gs: Vec<_> = (0..self.ncpus).map(|c| self.caches[c].lock(c)).collect();
        let mut mem_g = self.mem.lock(0);

        let shard = pm_g.take().expect("pm domain present");
        let mut machine = hw_g.take().expect("machine present");
        let mut mem = mem_g.take().expect("mem domain present");

        // Cached frames belong to no closure; the flat invariants only
        // hold with every cache drained back to the allocator.
        for cg in cache_gs.iter_mut() {
            cg.drain_all_to(&mut mem.alloc);
        }
        // The authoritative meters live in the meter locks.
        assert_eq!(machine.cores.len(), self.ncpus);
        for (core, mg) in machine.cores.iter_mut().zip(meter_gs.iter()) {
            core.meter = (**mg).clone();
        }

        let mut k = Kernel {
            machine,
            pm: shard.pm,
            mem,
            root_container: self.root_container,
            init_proc: self.init_proc,
            init_thread: self.init_thread,
            irq_handlers: shard.irq_handlers,
            trace: self.trace.clone(),
            last_trace_snapshot: snap_g.take(),
        };
        let r = f(&mut k);

        // The bridge's `f` may mutate anything — interrupt dispatch,
        // test plumbing, the verified services all come through here —
        // so with replication on, re-baseline both logs with absolute
        // `Reset` ops before the locks release. Bookkeeping, not a
        // modeled serialization point: events are counted (and the
        // ledger keeps its `NrAppended` balance) but no cycles charge.
        if let Some(nr) = self.nr.get() {
            let s1 = nr
                .pm
                .append(0, vec![PmOp::Reset(PmView::project(&k.pm, self.ncpus))]);
            let s2 = nr
                .mem
                .append(0, vec![MemOp::Reset(MemView::project(&k.mem.vm))]);
            self.nr_count(&[s1, s2]);
        }
        k.mem.vm.clear_touched();

        // Disassemble back into the domains.
        let Kernel {
            machine,
            pm,
            mem,
            irq_handlers,
            last_trace_snapshot,
            ..
        } = k;
        let mut now = 0;
        for (mg, core) in meter_gs.iter_mut().zip(machine.cores.iter()) {
            **mg = core.meter.clone();
            now = now.max(core.meter.now());
        }
        *pm_g = Some(PmShard { pm, irq_handlers });
        *hw_g = Some(machine);
        *snap_g = last_trace_snapshot;
        *mem_g = Some(mem);
        self.pm.set_model_time(now);
        self.mem.set_model_time(now);
        r
    }

    /// Baselines (or re-baselines) the incremental auditor and turns
    /// ledger recording on: a stop-the-world full scan captures the
    /// folded image of every audited set, stale ledger entries are
    /// discarded, and from here on every mutation's delta lands in its
    /// CPU's ledger for [`audit_incremental`](Self::audit_incremental)
    /// to fold.
    pub fn enable_incremental_audit(&self) {
        let mut aud = lock_recovering(&self.auditor);
        *aud = Some(self.with_kernel(|k| {
            // Stop recording while baselining and discard anything
            // recorded since the last baseline (including the deltas
            // this very stop-the-world's cache drain just emitted) —
            // the full scan already accounts for all of it.
            k.trace.set_audit_recording(false);
            let mut stale = Vec::new();
            k.trace.drain_audit_ledgers(&mut stale);
            let mut a = Auditor::baselined(k);
            // All locks are held here: the replication logs' tails are
            // quiescent, so this is a consistent zero for the
            // `NrAppended` balance. (The bridge's own trailing `Reset`
            // appends land *after* this capture, with recording back
            // on — ledger and tails grow together.)
            a.nr_base = self.nr.get().map(KernelNr::tails).unwrap_or((0, 0));
            k.trace.set_audit_recording(true);
            a
        }));
    }

    /// The incremental well-formedness audit: drains the per-CPU
    /// ledgers into the auditor's reusable scratch, folds each delta in
    /// O(1), and re-checks the cross-domain equations in O(1) — total
    /// cost O(touched ledger entries), with **no domain lock taken and
    /// no cache drained**. A failure names the lock domain, the refuted
    /// equation, and the ledger tail that was folded into it.
    ///
    /// # Panics
    ///
    /// Panics when [`enable_incremental_audit`](Self::enable_incremental_audit)
    /// has not baselined the auditor.
    pub fn audit_incremental(&self) -> VerifResult {
        let mut aud = lock_recovering(&self.auditor);
        let a = aud
            .as_mut()
            .expect("enable_incremental_audit() must run before audit_incremental()");
        Self::fold_and_check(&self.trace, a)
    }

    /// Drains, folds and checks under an already-held auditor lock;
    /// records the audit in the trace counters and touched histogram.
    fn fold_and_check(trace: &TraceHandle, a: &mut Auditor) -> VerifResult {
        a.scratch.clear();
        trace.drain_audit_ledgers(&mut a.scratch);
        let touched = a.fold_scratch();
        let r = a
            .state
            .check(trace.net_in_flight(), trace.blk_in_flight())
            .map_err(|e| match a.scratch.last() {
                Some(d) => e.with_ledger_entry(format!("last of {touched} folded entries: {d:?}")),
                None => e,
            });
        trace.count(AuditOutcome::Incremental, touched);
        r
    }

    /// The stop-the-world `total_wf` audit: all locks held, caches
    /// drained, flat invariants checked (per-domain wf, cross-domain
    /// memory equations, trace coherence). When the incremental auditor
    /// is live, the flat audit additionally reconciles the ledger folds
    /// against a fresh full scan bit-for-bit
    /// ([`AuditState::cross_check`]) — the epoch boundary that bounds
    /// how long a missed delta or fingerprint collision could survive.
    ///
    /// Every epoch audit is also an incremental audit point (the
    /// pending ledger is folded first), so the `incremental ≥ full`
    /// counter invariant holds by construction.
    pub fn audit_total_wf(&self) -> VerifResult {
        let mut aud = lock_recovering(&self.auditor);
        match aud.as_mut() {
            Some(a) => Self::fold_and_check(&self.trace, a)?,
            None => {
                // No ledger machinery: still count the paired
                // incremental audit point (zero entries touched).
                self.trace.count(AuditOutcome::Incremental, 0);
            }
        }
        let r = self.with_kernel(|k| {
            k.wf()?;
            if let Some(a) = aud.as_mut() {
                // The stop-the-world entry drained every cache,
                // emitting deltas after the incremental fold above;
                // fold them too before comparing against the flat scan.
                a.scratch.clear();
                k.trace.drain_audit_ledgers(&mut a.scratch);
                a.fold_scratch();
                let flat = AuditState::from_kernel(k);
                a.state.cross_check(&flat)?;
            }
            // Replica linearization at the epoch boundary: every
            // replica, synced to its log's tail, must be bit-for-bit
            // the projection of the authoritative locked state — and
            // the ledger's `NrAppended` running sum must balance the
            // tails' growth since the audit baseline.
            if let Some(nr) = self.nr.get() {
                nr.sync_all();
                nr.nr_wf()?;
                let pm_view = PmView::project(&k.pm, self.ncpus);
                let mem_view = MemView::project(&k.mem.vm);
                for cpu in 0..self.ncpus {
                    nr.pm.peek(cpu, |s, tail| {
                        check(
                            s == &pm_view,
                            "nr_epoch",
                            format_args!(
                                "pm replica {cpu} at tail {tail} diverges from the \
                                 authoritative projection"
                            ),
                        )
                    })?;
                    nr.mem.peek(cpu, |s, tail| {
                        let at = s.divergence(&mem_view);
                        check(
                            at.is_none(),
                            "nr_epoch",
                            format_args!(
                                "mem replica {cpu} at tail {tail} diverges from the \
                                 authoritative projection, {}",
                                at.as_deref().unwrap_or_default()
                            ),
                        )
                    })?;
                }
                if let Some(a) = aud.as_ref() {
                    let (pt, mt) = nr.tails();
                    let grown = (pt - a.nr_base.0) + (mt - a.nr_base.1);
                    check(
                        a.state.nr_appended == grown,
                        "nr_epoch",
                        format_args!(
                            "ledger NrAppended sum {} != log-tail growth {grown} \
                             (pm {pt}, mem {mt}, base {:?})",
                            a.state.nr_appended, a.nr_base
                        ),
                    )?;
                }
            }
            Ok(())
        });
        self.trace.count(AuditOutcome::Full, 1);
        r
    }

    /// Drains every per-CPU page cache back into the shared allocator
    /// (without assembling a flat kernel). After this, the allocator's
    /// free count reflects every cached frame again.
    pub fn drain_caches(&self) {
        let mut cache_gs: Vec<_> = (0..self.ncpus).map(|c| self.caches[c].lock(c)).collect();
        let mut mem_g = self.mem.lock(0);
        let m = mem_g.as_mut().expect("mem domain present");
        for cg in cache_gs.iter_mut() {
            cg.drain_all_to(&mut m.alloc);
        }
    }

    /// A point-in-time statistics snapshot of `cpu`'s page cache.
    pub fn cache_stats(&self, cpu: CpuId) -> CacheStats {
        self.caches[cpu].lock(cpu).stats()
    }

    /// Modeled cycles elapsed on `cpu`.
    pub fn cycles(&self, cpu: CpuId) -> u64 {
        self.meters[cpu].lock(cpu).now()
    }

    /// Snapshots the concurrent trace sink (no kernel locks needed —
    /// trace is a leaf domain with its own internal sharding).
    pub fn trace_snapshot(&self) -> Snapshot {
        self.trace.snapshot()
    }

    /// Dissolves the sharding and returns the flat [`Kernel`], caches
    /// drained.
    pub fn into_inner(self) -> Kernel {
        let SmpKernel {
            costs: _,
            root_container,
            init_proc,
            init_thread,
            ncpus: _,
            meters,
            pm,
            hw,
            snap,
            caches,
            mem,
            trace,
            auditor: _,
            nr: _,
        } = self;
        let shard = pm.into_inner().expect("pm domain present");
        let mut machine = hw.into_inner().expect("machine present");
        let mut mem = mem.into_inner().expect("mem domain present");
        for cache in caches {
            cache.into_inner().drain_all_to(&mut mem.alloc);
        }
        for (core, m) in machine.cores.iter_mut().zip(meters) {
            core.meter = m.into_inner();
        }
        Kernel {
            machine,
            pm: shard.pm,
            mem,
            root_container,
            init_proc,
            init_thread,
            irq_handlers: shard.irq_handlers,
            trace,
            last_trace_snapshot: snap.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelConfig;
    use atmo_hw::addr::{PAGE_SIZE_2M, PAGE_SIZE_4K};

    fn smp(ncpus: usize) -> SmpKernel {
        SmpKernel::new(Kernel::boot(KernelConfig {
            ncpus,
            ..KernelConfig::default()
        }))
    }

    #[test]
    fn sharded_boot_passes_total_wf_audit() {
        let k = smp(4);
        let audit = k.audit_total_wf();
        assert!(audit.is_ok(), "{audit:?}");
    }

    #[test]
    fn pm_only_syscall_never_takes_mem_lock() {
        let k = smp(2);
        let before = k.trace_snapshot().counters.locks.mem.acquisitions;
        let ret = k.syscall(0, SyscallArgs::Yield);
        assert!(ret.is_ok(), "{ret:?}");
        let after = k.trace_snapshot().counters.locks.mem.acquisitions;
        assert_eq!(before, after, "yield must not touch the mem domain");
    }

    #[test]
    fn fastpath_ipc_is_pm_only_and_audits_green() {
        // The tentpole lock-order claim, asserted: direct-handoff Call
        // and ReplyRecv acquire the pm domain only — the mem lock's
        // acquisition counter must not move across either trap.
        let k = smp(1);
        let init_proc = k.init_proc();
        let ret = k.syscall(0, SyscallArgs::NewEndpoint { slot: 0 });
        assert!(ret.is_ok(), "{ret:?}");
        let e = ret.val0() as usize;
        let ret = k.syscall(
            0,
            SyscallArgs::NewThread {
                proc: init_proc,
                cpu: 0,
            },
        );
        assert!(ret.is_ok(), "{ret:?}");
        let t2 = ret.val0() as usize;
        k.with_kernel(|flat| flat.pm.install_descriptor(t2, 0, e).unwrap());

        // Park t2 as the endpoint's receiver (see the pm-level tests):
        // t1 recv-blocks, t2 sends it awake, t2 recv-blocks.
        assert!(k.syscall(0, SyscallArgs::Recv { slot: 0 }).is_ok());
        let ret = k.syscall(
            0,
            SyscallArgs::Send {
                slot: 0,
                scalars: [0; 4],
                grant_page_va: None,
                grant_endpoint_slot: None,
                grant_iommu_domain: None,
            },
        );
        assert!(ret.is_ok(), "{ret:?}");
        assert!(k.syscall(0, SyscallArgs::Recv { slot: 0 }).is_ok());
        let _ = k.syscall(0, SyscallArgs::TakeMsg);

        let before = k.trace_snapshot().counters.locks.mem.acquisitions;
        let ret = k.syscall(
            0,
            SyscallArgs::Call {
                slot: 0,
                scalars: [1; 4],
            },
        );
        assert!(ret.is_ok(), "{ret:?}");
        assert_eq!(ret.val0(), 1, "expected the direct handoff");
        let _ = k.syscall(0, SyscallArgs::TakeMsg);
        let ret = k.syscall(
            0,
            SyscallArgs::ReplyRecv {
                slot: 0,
                scalars: [2; 4],
            },
        );
        assert!(ret.is_ok(), "{ret:?}");
        assert_eq!(ret.val0(), 1, "expected the direct handoff");
        let after = k.trace_snapshot().counters.locks.mem.acquisitions;
        assert_eq!(before, after, "fastpath IPC must never take the mem lock");

        let snap = k.trace_snapshot();
        assert_eq!(snap.counters.pm.fastpath.hits, 2);
        let audit = k.audit_total_wf();
        assert!(audit.is_ok(), "{audit:?}");
    }

    #[test]
    fn staged_mmap_matches_unified_cycle_charges() {
        // Every call must get the same answer at the same cost on the
        // unified and the sharded kernel (the staged protocol reshuffles
        // *when* costs are paid, never *how much*). The seeded stream
        // over four 2 MiB runs mixes whole aligned runs (which promote),
        // 64-page chunks (partial unmaps demote), one- and two-page
        // calls, `len` 0 and misaligned bases; ranges overlap or lie
        // unmapped, and under the small quota some calls go over it —
        // most of those over an already mapped range.
        let cfg = KernelConfig {
            ncpus: 1,
            root_quota: 1200,
            ..KernelConfig::default()
        };
        let mut uni = Kernel::boot(cfg);
        let shard = SmpKernel::new(Kernel::boot(cfg));
        let mut rng = atmo_spec::XorShift64Star::new(28);
        let mut quota_errs = 0;
        for i in 0..600 {
            let run = 0x4000_0000 + rng.below(4) * PAGE_SIZE_2M;
            let chunk = run + rng.below(8) * 64 * PAGE_SIZE_4K;
            let (va_base, len) = match rng.below(6) {
                0 | 1 => (run, 512),
                2 | 3 => (chunk, 64),
                4 => (run + 1 + rng.below(PAGE_SIZE_4K - 1), rng.below(2)),
                _ => (chunk, rng.below(3)),
            };
            let args = match rng.below(2) {
                0 => SyscallArgs::Munmap { va_base, len },
                _ => SyscallArgs::Mmap {
                    va_base,
                    len,
                    writable: rng.below(2) == 0,
                },
            };
            let want = uni.syscall(0, args.clone());
            let got = shard.syscall(0, args.clone());
            assert_eq!(got.result, want.result, "call {i}: {args:?}");
            assert_eq!(shard.cycles(0), uni.cycles(0), "call {i}: {args:?}");
            quota_errs += (got.result == Err(SyscallError::Quota)) as usize;
        }
        let vm = shard.trace_snapshot().counters.vm;
        assert!(quota_errs > 0 && vm.superpage_promotions > 0 && vm.superpage_demotions > 0);
        assert!(uni.wf().is_ok());
        let audit = shard.audit_total_wf();
        assert!(audit.is_ok(), "{audit:?}");
    }

    #[test]
    fn quota_epilogue_skips_a_container_terminated_between_stages() {
        // A parent terminating a child container while the child's
        // thread on another CPU sits between the stages of an mmap or
        // munmap: the epilogue then runs for a container that is gone.
        let k = smp(1);
        k.enable_nr();
        let ret = k.syscall(
            0,
            SyscallArgs::NewContainer {
                quota: 8,
                cpus: vec![],
            },
        );
        assert!(ret.is_ok(), "{ret:?}");
        let child = ret.val0() as usize;
        let ret = k.syscall(0, SyscallArgs::TerminateContainer { cntr: child });
        assert!(ret.is_ok(), "{ret:?}");
        let mut meter = k.meters[0].lock(0);
        k.quota_epilogue(0, &mut meter, child, 1);
        drop(meter);
        let nr = k.nr().expect("replication on");
        assert!(nr.nr_wf().is_ok());
        let audit = k.audit_total_wf();
        assert!(audit.is_ok(), "{audit:?}");
    }

    #[test]
    fn staged_mmap_failure_refunds_quota() {
        let k = smp(1);
        let ret = k.syscall(
            0,
            SyscallArgs::Mmap {
                va_base: 0x50_0000,
                len: 4,
                writable: true,
            },
        );
        assert!(ret.is_ok());
        // Second map over the same range faults in stage 2 (already
        // mapped) — stage 1's quota charge must be refunded.
        let used_before = k.with_kernel(|flat| flat.pm.cntr(flat.root_container).used);
        let ret = k.syscall(
            0,
            SyscallArgs::Mmap {
                va_base: 0x50_0000,
                len: 4,
                writable: true,
            },
        );
        assert!(!ret.is_ok(), "double map must fail");
        let used_after = k.with_kernel(|flat| flat.pm.cntr(flat.root_container).used);
        assert_eq!(used_before, used_after, "stage-2 failure leaked quota");
        assert!(k.audit_total_wf().is_ok());
    }

    #[test]
    fn mmap_munmap_roundtrip_on_shards_is_wf() {
        let k = smp(2);
        let ret = k.syscall(
            0,
            SyscallArgs::Mmap {
                va_base: 0x40_0000,
                len: 16,
                writable: true,
            },
        );
        assert!(ret.is_ok(), "{ret:?}");
        assert!(k.audit_total_wf().is_ok());
        let ret = k.syscall(
            0,
            SyscallArgs::Munmap {
                va_base: 0x40_0000,
                len: 16,
            },
        );
        assert!(ret.is_ok(), "{ret:?}");
        let audit = k.audit_total_wf();
        assert!(audit.is_ok(), "{audit:?}");
    }

    #[test]
    fn cache_refill_and_audit_balance() {
        let k = smp(1);
        // Thread creation allocates kernel objects through the per-CPU
        // cache; afterwards the cache holds the rest of the refill batch.
        let init_proc = k.init_proc();
        let ret = k.syscall(
            0,
            SyscallArgs::NewThread {
                proc: init_proc,
                cpu: 0,
            },
        );
        assert!(ret.is_ok(), "{ret:?}");
        assert!(
            k.cache_stats(0).refills > 0,
            "thread creation should have refilled the cache"
        );
        // The audit drains the caches, so the closure equations balance.
        let audit = k.audit_total_wf();
        assert!(audit.is_ok(), "{audit:?}");
    }

    #[test]
    fn domain_model_time_serializes_cross_cpu_syscalls() {
        let k = smp(2);
        let c0 = {
            let r = k.syscall(0, SyscallArgs::Yield);
            assert!(r.is_ok());
            k.cycles(0)
        };
        // CPU 1 has no current thread (errors), but its dispatch still
        // syncs to the pm domain's release time — modeled serialization.
        // Its exit trampoline charges after the sync, so it lands at
        // least at cpu 0's release stamp plus its own exit cost, which
        // is >= c0 (cpu 0's exit also charged outside the lock).
        let _ = k.syscall(1, SyscallArgs::Yield);
        assert!(
            k.cycles(1) >= c0,
            "cpu 1 must observe pm's release timestamp plus its own costs"
        );
    }

    #[test]
    fn incremental_audit_tracks_syscalls_without_domain_locks() {
        let k = smp(2);
        k.enable_incremental_audit();
        let pm_before = k.trace_snapshot().counters.locks.pm.acquisitions;
        let mem_before = k.trace_snapshot().counters.locks.mem.acquisitions;
        let audit = k.audit_incremental();
        assert!(audit.is_ok(), "{audit:?}");
        let snap = k.trace_snapshot();
        assert_eq!(
            snap.counters.locks.pm.acquisitions, pm_before,
            "incremental audit must not take the pm lock"
        );
        assert_eq!(
            snap.counters.locks.mem.acquisitions, mem_before,
            "incremental audit must not take the mem lock"
        );

        let ret = k.syscall(
            0,
            SyscallArgs::Mmap {
                va_base: 0x40_0000,
                len: 8,
                writable: true,
            },
        );
        assert!(ret.is_ok(), "{ret:?}");
        let audit = k.audit_incremental();
        assert!(audit.is_ok(), "{audit:?}");
        let ret = k.syscall(
            0,
            SyscallArgs::Munmap {
                va_base: 0x40_0000,
                len: 8,
            },
        );
        assert!(ret.is_ok(), "{ret:?}");
        let audit = k.audit_incremental();
        assert!(audit.is_ok(), "{audit:?}");

        // The epoch boundary reconciles folds against the full rescan.
        let audit = k.audit_total_wf();
        assert!(audit.is_ok(), "{audit:?}");
        let snap = k.trace_snapshot();
        assert!(snap.counters.audit.incremental >= snap.counters.audit.full);
        assert!(snap.counters.audit.touched_entries > 0);
    }

    #[test]
    fn incremental_audit_survives_cache_resident_frames() {
        // Thread creation leaves refill-batch frames in the per-CPU
        // cache; the incremental equations must hold *through* the
        // cache (closure-partition's `cached` term), with no drain.
        let k = smp(1);
        k.enable_incremental_audit();
        let init_proc = k.init_proc();
        let ret = k.syscall(
            0,
            SyscallArgs::NewThread {
                proc: init_proc,
                cpu: 0,
            },
        );
        assert!(ret.is_ok(), "{ret:?}");
        assert!(k.cache_stats(0).refills > 0);
        let audit = k.audit_incremental();
        assert!(audit.is_ok(), "{audit:?}");
        let audit = k.audit_total_wf();
        assert!(audit.is_ok(), "{audit:?}");
    }

    #[test]
    fn rebaseline_discards_stale_ledger() {
        let k = smp(1);
        k.enable_incremental_audit();
        let _ = k.syscall(
            0,
            SyscallArgs::Mmap {
                va_base: 0x40_0000,
                len: 4,
                writable: true,
            },
        );
        // Re-baselining must absorb the un-folded deltas into the new
        // baseline instead of double-folding them later.
        k.enable_incremental_audit();
        let audit = k.audit_incremental();
        assert!(audit.is_ok(), "{audit:?}");
        let audit = k.audit_total_wf();
        assert!(audit.is_ok(), "{audit:?}");
    }

    #[test]
    fn nr_reads_serve_from_replicas_without_pm_lock() {
        let k = smp(2);
        k.enable_nr();
        k.enable_incremental_audit();
        let pm_before = k.trace_snapshot().counters.locks.pm.acquisitions;
        let ret = k.syscall(0, SyscallArgs::Getpid);
        assert!(ret.is_ok(), "{ret:?}");
        assert_eq!(ret.val0() as usize, k.init_proc());
        let ret = k.syscall(
            0,
            SyscallArgs::ThreadLookup {
                thread: k.init_thread(),
            },
        );
        assert!(ret.is_ok(), "{ret:?}");
        let ret = k.syscall(0, SyscallArgs::ThreadLookup { thread: 9999 });
        assert_eq!(ret.result, Err(SyscallError::NotFound));
        let snap = k.trace_snapshot();
        assert_eq!(
            snap.counters.locks.pm.acquisitions, pm_before,
            "replica reads must not take the pm lock"
        );
        assert_eq!(snap.counters.nr.read_local, 3);
        assert_eq!(snap.counters.nr.fallback_locked, 0);
        let audit = k.audit_total_wf();
        assert!(audit.is_ok(), "{audit:?}");
    }

    #[test]
    fn nr_off_reads_fall_back_to_locked_path() {
        let k = smp(1);
        let ret = k.syscall(0, SyscallArgs::Getpid);
        assert!(ret.is_ok(), "{ret:?}");
        let snap = k.trace_snapshot();
        assert_eq!(snap.counters.nr.read_local, 0);
        assert_eq!(snap.counters.nr.fallback_locked, 1);
        assert_eq!(snap.counters.nr.appended, 0, "no log without enable_nr");
    }

    #[test]
    fn nr_read_skips_the_pm_model_clock() {
        // The scaling mechanism itself: a replica read on CPU 1 never
        // syncs to the pm domain's release timestamp, so its clock
        // stays far below CPU 0's after CPU 0 ran the write traffic.
        let k = smp(2);
        k.enable_nr();
        let ret = k.syscall(
            0,
            SyscallArgs::NewThread {
                proc: k.init_proc(),
                cpu: 1,
            },
        );
        assert!(ret.is_ok(), "{ret:?}");
        // Schedule it on CPU 1 through the bridge (whose trailing Reset
        // carries the new `current` into the replicas).
        k.with_kernel(|flat| {
            flat.pm.timer_tick(1);
        });
        for _ in 0..10 {
            assert!(k.syscall(0, SyscallArgs::Yield).is_ok());
        }
        let ret = k.syscall(1, SyscallArgs::Getpid);
        assert!(ret.is_ok(), "{ret:?}");
        assert!(
            k.cycles(1) < k.cycles(0),
            "replica read serialized behind the pm clock: cpu1 {} >= cpu0 {}",
            k.cycles(1),
            k.cycles(0)
        );
        let audit = k.audit_total_wf();
        assert!(audit.is_ok(), "{audit:?}");
    }

    #[test]
    fn nr_vm_resolve_tracks_staged_mmap_and_munmap() {
        let k = smp(1);
        k.enable_nr();
        k.enable_incremental_audit();
        let va = 0x40_0000usize;
        let ret = k.syscall(0, SyscallArgs::VmResolve { va });
        assert!(ret.is_ok());
        assert_eq!(ret.val0(), 0, "nothing mapped yet");
        let ret = k.syscall(
            0,
            SyscallArgs::Mmap {
                va_base: va,
                len: 4,
                writable: true,
            },
        );
        assert!(ret.is_ok(), "{ret:?}");
        let ret = k.syscall(0, SyscallArgs::VmResolve { va: va + 0x1234 });
        assert!(ret.is_ok());
        assert_eq!(ret.result, Ok([1, 1, 0, 0]), "mapped and writable");
        assert!(k.audit_incremental().is_ok());
        let ret = k.syscall(
            0,
            SyscallArgs::Munmap {
                va_base: va,
                len: 4,
            },
        );
        assert!(ret.is_ok(), "{ret:?}");
        let ret = k.syscall(0, SyscallArgs::VmResolve { va });
        assert_eq!(ret.result, Ok([0, 0, 0, 0]), "unmapped again");
        let snap = k.trace_snapshot();
        assert!(snap.counters.nr.appended > 0, "staged ops must append");
        let audit = k.audit_total_wf();
        assert!(audit.is_ok(), "{audit:?}");
    }

    #[test]
    fn nr_epoch_cross_check_survives_with_kernel_mutations() {
        // `with_kernel` mutations bypass the per-syscall appends; the
        // bridge's trailing Reset must keep the replicas convergent.
        let k = smp(2);
        k.enable_nr();
        k.enable_incremental_audit();
        let ret = k.syscall(0, SyscallArgs::NewEndpoint { slot: 0 });
        assert!(ret.is_ok(), "{ret:?}");
        let e = ret.val0() as usize;
        // Install a descriptor through the flat bridge (slot 1), past
        // the per-syscall append path.
        k.with_kernel(|flat| {
            let t = flat.init_thread;
            flat.pm.install_descriptor(t, 1, e).unwrap()
        });
        let ret = k.syscall(0, SyscallArgs::DescriptorResolve { slot: 1 });
        assert!(
            ret.is_ok(),
            "replicas must see the bridged mutation: {ret:?}"
        );
        assert_eq!(ret.val0() as usize, e);
        let audit = k.audit_total_wf();
        assert!(audit.is_ok(), "{audit:?}");
    }

    #[test]
    fn nr_epoch_names_the_first_diverging_page() {
        let k = smp(2);
        k.enable_nr();
        let nr = k.nr().expect("replication on");
        let space = nr.pm.peek(0, |v, _| v.current_addr_space(0)).unwrap();
        // An entry no locked state backs: the replicas map a page the
        // tables do not.
        let bogus = BTreeMap::from([(0x7000, true)]);
        nr.mem
            .append(0, vec![MemOp::Spaces(vec![(space, Some(bogus))])]);
        let err = k.audit_total_wf().unwrap_err().to_string();
        assert!(
            err.contains(&format!(
                "mem replica 0 at tail 1 diverges from the authoritative projection, \
                 first at space {space} page 0x7000: replica writable, projection unmapped"
            )),
            "{err}"
        );
    }

    #[test]
    fn touched_spaces_are_empty_at_every_syscall_boundary() {
        let calls = || {
            [
                SyscallArgs::NewChildProcess,
                SyscallArgs::Mmap {
                    va_base: 0x40_0000,
                    len: 2,
                    writable: true,
                },
                SyscallArgs::MmapHuge2M {
                    va_base: 0x4000_0000,
                    writable: true,
                },
                SyscallArgs::MunmapHuge2M {
                    va_base: 0x4000_0000,
                },
                SyscallArgs::Munmap {
                    va_base: 0x40_0000,
                    len: 2,
                },
                SyscallArgs::Yield,
            ]
        };
        let mut flat = Kernel::boot(KernelConfig::default());
        let init_space = flat.pm.proc(flat.init_proc).addr_space;
        flat.mem.vm.table_mut(init_space).unwrap();
        assert!(flat.mem.vm.touched().eq([init_space]), "outside a syscall");
        let sharded = smp(4);
        sharded.enable_nr();
        let mut children = Vec::new();
        for args in calls() {
            let ret = flat.syscall(0, args.clone());
            assert!(ret.is_ok(), "{args:?}: {ret:?}");
            assert_eq!(flat.mem.vm.touched().count(), 0, "flat, after {args:?}");
            let ret = sharded.syscall(0, args.clone());
            assert!(ret.is_ok(), "{args:?}: {ret:?}");
            let m = sharded.mem.lock(0);
            assert_eq!(m.as_ref().unwrap().vm.touched().count(), 0, "{args:?}");
            if matches!(args, SyscallArgs::NewChildProcess) {
                children.push(ret.val0() as usize);
            }
        }
        for proc in children {
            let ret = sharded.syscall(0, SyscallArgs::TerminateProcess { proc });
            assert!(ret.is_ok(), "{ret:?}");
            let m = sharded.mem.lock(0);
            assert_eq!(m.as_ref().unwrap().vm.touched().count(), 0);
        }
        let audit = sharded.audit_total_wf();
        assert!(audit.is_ok(), "{audit:?}");
    }

    #[test]
    fn lock_wait_histograms_record_cross_cpu_contention() {
        let k = smp(2);
        let _ = k.syscall(0, SyscallArgs::Yield);
        let _ = k.syscall(1, SyscallArgs::Yield);
        let snap = k.trace_snapshot();
        assert!(
            snap.lock_wait_pm_hist.count() >= 2,
            "every pm acquisition records its modeled wait"
        );
        // CPU 1 entered behind CPU 0's release stamp: a nonzero wait.
        assert!(snap.lock_wait_pm_hist.max() > 0);
    }

    #[test]
    fn into_inner_roundtrip_preserves_wf() {
        let k = smp(2);
        let _ = k.syscall(
            0,
            SyscallArgs::Mmap {
                va_base: 0x40_0000,
                len: 4,
                writable: true,
            },
        );
        let flat = k.into_inner();
        assert!(flat.wf().is_ok());
    }
}
