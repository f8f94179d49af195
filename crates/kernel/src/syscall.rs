//! The system-call interface.
//!
//! Every entry point follows the paper's discipline: resolve the calling
//! thread through the flat permission maps (Listing 1 lines 35–40),
//! validate arguments, perform the transition, and either succeed having
//! changed exactly what the specification allows or fail having changed
//! nothing (error paths roll back). Costs are charged to the calling
//! CPU's cycle meter according to the calibrated [`atmo_hw::CostModel`].
//!
//! Since the lock-domain split, handlers run against an `ExecCtx`: a
//! borrowed view of the pm domain plus a `MemAccess` that either
//! points straight into the unified kernel's [`MemDomain`]
//! (single-threaded callers, the big lock) or lazily acquires the
//! sharded kernel's mem lock the first time a handler actually touches
//! memory state. Handlers that never do — `yield`, plain IPC, thread
//! creation served from the per-CPU page cache — therefore run under
//! the pm lock alone, which is exactly the "acquire only the domains
//! the syscall touches" dispatch rule of the sharded kernel.

use atmo_hw::addr::{VAddr, VaRange4K, PAGE_SIZE_2M, PAGE_SIZE_4K};
use atmo_hw::cycles::{CostModel, CycleMeter};
use atmo_hw::paging::EntryFlags;
use atmo_mem::alloc::AllocError;
use atmo_mem::{PageCache, PagePermission, PagePtr, PageSize, PageSource};
use atmo_pm::manager::{RecvOutcome, ReplyRecvOutcome, SendOutcome};
use atmo_pm::types::{CpuId, CtnrPtr, EdptIdx, IpcPayload, PmError, ProcPtr, ThrdPtr};
use atmo_pm::ProcessManager;
use atmo_ptable::MapError;
use atmo_trace::{AuditDelta, NrOutcome, Snapshot, SyscallKind, TraceHandle, VmOutcome};

use crate::domain::{DomainGuard, DomainLock};
use crate::kernel::{Kernel, MemDomain};
use crate::nr::PmUpdateClass;

/// System-call arguments (the union of all entry points).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyscallArgs {
    /// Map `len` fresh 4 KiB pages at `va_base` into the caller's space.
    Mmap {
        /// First virtual address (4 KiB aligned).
        va_base: usize,
        /// Number of pages.
        len: usize,
        /// Writable mapping?
        writable: bool,
    },
    /// Unmap `len` pages starting at `va_base` from the caller's space.
    Munmap {
        /// First virtual address.
        va_base: usize,
        /// Number of pages.
        len: usize,
    },
    /// Create a child container under the caller's container.
    NewContainer {
        /// Page reservation for the child.
        quota: usize,
        /// CPU cores passed to the child.
        cpus: Vec<CpuId>,
    },
    /// Terminate a (direct or indirect) child container.
    TerminateContainer {
        /// The doomed container.
        cntr: CtnrPtr,
    },
    /// Create a top-level process in a container of the caller's subtree.
    NewProcess {
        /// Target container.
        cntr: CtnrPtr,
    },
    /// Create a child process under the caller's own process (same
    /// container; the per-container process tree of §3).
    NewChildProcess,
    /// Terminate the calling thread (exit). The CPU dispatches the next
    /// ready thread.
    Exit,
    /// Terminate a process of the caller's container subtree.
    TerminateProcess {
        /// The doomed process.
        proc: ProcPtr,
    },
    /// Create a thread in a process of the caller's subtree, homed on `cpu`.
    NewThread {
        /// Owning process.
        proc: ProcPtr,
        /// Home CPU (must be reserved by the owning container).
        cpu: CpuId,
    },
    /// Create an endpoint in descriptor `slot` of the calling thread.
    NewEndpoint {
        /// Target descriptor slot.
        slot: EdptIdx,
    },
    /// Send on the endpoint in `slot`.
    Send {
        /// Descriptor slot.
        slot: EdptIdx,
        /// Scalar payload.
        scalars: [u64; 4],
        /// Optionally grant the page mapped at this VA (shared memory).
        grant_page_va: Option<usize>,
        /// Optionally grant the endpoint in this descriptor slot.
        grant_endpoint_slot: Option<EdptIdx>,
        /// Optionally grant access to this IOMMU protection domain.
        grant_iommu_domain: Option<u32>,
    },
    /// Receive on the endpoint in `slot`.
    Recv {
        /// Descriptor slot.
        slot: EdptIdx,
    },
    /// Non-blocking receive on the endpoint in `slot`.
    Poll {
        /// Descriptor slot.
        slot: EdptIdx,
    },
    /// Call (send + await reply) on the endpoint in `slot`.
    Call {
        /// Descriptor slot.
        slot: EdptIdx,
        /// Scalar payload.
        scalars: [u64; 4],
    },
    /// Reply to the caller this thread owes a reply.
    Reply {
        /// Scalar payload.
        scalars: [u64; 4],
    },
    /// Combined reply + receive in one trap: answer the pending caller
    /// and re-open the endpoint in `slot` for the next request. The
    /// server loop's steady-state syscall — eligible for the direct
    /// handoff fast path.
    ReplyRecv {
        /// Descriptor slot to receive on after the reply.
        slot: EdptIdx,
        /// Scalar reply payload.
        scalars: [u64; 4],
    },
    /// Take the delivered message (scalars; stashes any page grant).
    TakeMsg,
    /// Map the pending granted page at `va`.
    MapGranted {
        /// Target virtual address in the caller's space.
        va: usize,
    },
    /// Discard the pending granted page (releases its reference).
    DropGrant,
    /// Map one 2 MiB superpage at `va_base` (512 pages of quota).
    MmapHuge2M {
        /// 2 MiB-aligned virtual address.
        va_base: usize,
        /// Writable mapping?
        writable: bool,
    },
    /// Unmap the 2 MiB superpage at `va_base`.
    MunmapHuge2M {
        /// 2 MiB-aligned virtual address.
        va_base: usize,
    },
    /// Create an IOMMU protection domain owned by the caller's container.
    IommuCreateDomain,
    /// Attach a device to an IOMMU domain.
    IommuAttach {
        /// Target domain.
        domain: u32,
        /// PCI-style device id.
        device: u16,
    },
    /// Detach a device from its IOMMU domain.
    IommuDetach {
        /// PCI-style device id.
        device: u16,
    },
    /// Make the caller's page at `va` DMA-visible at `iova` in `domain`.
    IommuMap {
        /// Target domain.
        domain: u32,
        /// Device-visible address.
        iova: usize,
        /// Caller-space virtual address of the page.
        va: usize,
    },
    /// Remove the DMA mapping at `iova` in `domain`.
    IommuUnmap {
        /// Target domain.
        domain: u32,
        /// Device-visible address.
        iova: usize,
    },
    /// Post a batch of block-I/O submission entries on a queue pair and
    /// ring the doorbell once (the io_uring-shaped zero-copy submit).
    BlkSubmitBatch {
        /// Target queue pair.
        queue: usize,
        /// Submission entries (each names a DMA-pinned buffer by IOVA).
        ops: Vec<crate::blk::BlkOp>,
    },
    /// Harvest up to `max` finished block completions from a queue pair
    /// into the caller's completion ring.
    BlkReapBatch {
        /// Target queue pair.
        queue: usize,
        /// Completion-ring capacity this reap may fill.
        max: usize,
        /// Block until at least one completion is ready (delivered via
        /// the IPC fast-path wakeup) instead of returning 0.
        wait: bool,
    },
    /// Yield the CPU (round-robin rotation).
    Yield,
    /// Read-only: publish a merged trace snapshot (per-CPU rings,
    /// latency histograms, subsystem counters) for the caller to
    /// retrieve via [`Kernel::take_trace_snapshot`]. Changes no
    /// abstract kernel state.
    TraceSnapshot,
    /// Read-only: the calling thread's owning process and container.
    /// Node-replicated on the sharded kernel (served from the local
    /// pm replica when enabled).
    Getpid,
    /// Read-only: a thread's owning process and container.
    ThreadLookup {
        /// The thread to look up.
        thread: ThrdPtr,
    },
    /// Read-only: the endpoint in descriptor `slot` of the calling
    /// thread.
    DescriptorResolve {
        /// Descriptor slot to resolve.
        slot: EdptIdx,
    },
    /// Read-only: whether `va` is mapped in the caller's address space
    /// (and writable). Node-replicated on the sharded kernel (served
    /// from the local mem replica when enabled).
    VmResolve {
        /// The virtual address to translate.
        va: usize,
    },
    /// Set the scheduling weight of a container strictly below the
    /// caller in the hierarchy (never the caller's own — budgets are
    /// imposed from above). Weight 0 tears the budget account down
    /// and refunds its remaining budget; a positive weight creates or
    /// resizes the account the container's CPU ticks are charged to.
    SchedSetWeight {
        /// Target container.
        cntr: CtnrPtr,
        /// Units granted per refill period (0 = unmetered).
        weight: u32,
    },
    /// Administratively throttle (park off the run queues) or
    /// unthrottle a weighted container strictly below the caller in
    /// the hierarchy (never the caller's own).
    SchedThrottle {
        /// Target container.
        cntr: CtnrPtr,
        /// `true` parks, `false` re-enqueues.
        throttle: bool,
    },
}

impl SyscallArgs {
    /// The trace discriminant of this call (for per-kind histograms and
    /// counters).
    pub fn trace_kind(&self) -> SyscallKind {
        use atmo_trace::SyscallKind as K;
        match self {
            SyscallArgs::Mmap { .. } => K::Mmap,
            SyscallArgs::Munmap { .. } => K::Munmap,
            SyscallArgs::NewContainer { .. } => K::NewContainer,
            SyscallArgs::TerminateContainer { .. } => K::TerminateContainer,
            SyscallArgs::NewProcess { .. } => K::NewProcess,
            SyscallArgs::NewChildProcess => K::NewChildProcess,
            SyscallArgs::Exit => K::Exit,
            SyscallArgs::TerminateProcess { .. } => K::TerminateProcess,
            SyscallArgs::NewThread { .. } => K::NewThread,
            SyscallArgs::NewEndpoint { .. } => K::NewEndpoint,
            SyscallArgs::Send { .. } => K::Send,
            SyscallArgs::Recv { .. } => K::Recv,
            SyscallArgs::Poll { .. } => K::Poll,
            SyscallArgs::Call { .. } => K::Call,
            SyscallArgs::Reply { .. } => K::Reply,
            SyscallArgs::ReplyRecv { .. } => K::ReplyRecv,
            SyscallArgs::TakeMsg => K::TakeMsg,
            SyscallArgs::MapGranted { .. } => K::MapGranted,
            SyscallArgs::DropGrant => K::DropGrant,
            SyscallArgs::MmapHuge2M { .. } => K::MmapHuge2M,
            SyscallArgs::MunmapHuge2M { .. } => K::MunmapHuge2M,
            SyscallArgs::IommuCreateDomain => K::IommuCreateDomain,
            SyscallArgs::IommuAttach { .. } => K::IommuAttach,
            SyscallArgs::IommuDetach { .. } => K::IommuDetach,
            SyscallArgs::IommuMap { .. } => K::IommuMap,
            SyscallArgs::IommuUnmap { .. } => K::IommuUnmap,
            SyscallArgs::BlkSubmitBatch { .. } => K::BlkSubmitBatch,
            SyscallArgs::BlkReapBatch { .. } => K::BlkReapBatch,
            SyscallArgs::Yield => K::Yield,
            SyscallArgs::TraceSnapshot => K::TraceSnapshot,
            SyscallArgs::Getpid => K::Getpid,
            SyscallArgs::ThreadLookup { .. } => K::ThreadLookup,
            SyscallArgs::DescriptorResolve { .. } => K::DescriptorResolve,
            SyscallArgs::VmResolve { .. } => K::VmResolve,
            SyscallArgs::SchedSetWeight { .. } => K::SchedSetWeight,
            SyscallArgs::SchedThrottle { .. } => K::SchedThrottle,
        }
    }

    /// The path the sharded kernel serves this call on. The classes are
    /// conservative: any call that *might* move quota or objects
    /// (grant-carrying IPC, message take, create/terminate) is
    /// `Structural`; only calls whose pm-side effect is provably limited
    /// to a context switch are `Current`. The epoch cross-check enforces
    /// this claim bit for bit.
    pub fn plan(&self) -> Plan {
        use PmUpdateClass as C;
        match *self {
            SyscallArgs::Mmap { writable, .. } => Plan::Staged(StagedOp::Map { writable }),
            SyscallArgs::Munmap { .. } => Plan::Staged(StagedOp::Unmap),
            SyscallArgs::Getpid
            | SyscallArgs::ThreadLookup { .. }
            | SyscallArgs::DescriptorResolve { .. }
            | SyscallArgs::VmResolve { .. } => Plan::Replica,
            // Scheduler-control calls mutate only the scheduler's budget
            // side tables, which the pm view does not project.
            SyscallArgs::TraceSnapshot
            | SyscallArgs::SchedSetWeight { .. }
            | SyscallArgs::SchedThrottle { .. } => Plan::Locked(C::None),
            SyscallArgs::Yield | SyscallArgs::Call { .. } | SyscallArgs::Reply { .. } => {
                Plan::Locked(C::Current)
            }
            _ => Plan::Locked(C::Structural),
        }
    }
}

/// How the sharded kernel serves a call ([`SyscallArgs::plan`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    /// A read-only call served from the calling CPU's node replica,
    /// with no domain lock and no model clock. With replication off it
    /// runs as `Locked(PmUpdateClass::None)`.
    Replica,
    /// Dispatch under the pm lock (mem taken lazily); the class says
    /// how the call's pm-side effects are summarized into the
    /// replication log.
    Locked(PmUpdateClass),
    /// Validate, then a pm stage, then the page work under mem alone,
    /// then a pm quota epilogue — never pm and mem held together.
    Staged(StagedOp),
}

/// The page work of a staged call; it fixes when quota moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StagedOp {
    /// `mmap`: quota is charged before the mem stage and refunded when
    /// the mem stage fails.
    Map {
        /// Writable mapping?
        writable: bool,
    },
    /// `munmap`: quota is released after the mem stage succeeds.
    Unmap,
}

impl StagedOp {
    /// `true` when a mem stage that returned `ret` leaves quota to move
    /// back in the epilogue: a failed map, a successful unmap.
    pub(crate) fn uncharges(self, ret: &SyscallReturn) -> bool {
        ret.is_ok() == (self == StagedOp::Unmap)
    }
}

/// System-call error codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyscallError {
    /// Out of physical memory.
    NoMem,
    /// Container quota exhausted.
    Quota,
    /// A fixed capacity (children, threads, queue, slots) is full.
    Capacity,
    /// Referenced object does not exist.
    NotFound,
    /// Malformed arguments.
    Invalid,
    /// The caller lacks authority over the target.
    Denied,
    /// The calling thread is not in the right state.
    WrongState,
    /// Address translation failed (unmapped or conflicting VA).
    Fault,
}

impl From<PmError> for SyscallError {
    fn from(e: PmError) -> Self {
        match e {
            PmError::QuotaExceeded => SyscallError::Quota,
            PmError::OutOfMemory => SyscallError::NoMem,
            PmError::CapacityExceeded | PmError::EndpointFull => SyscallError::Capacity,
            PmError::NotFound => SyscallError::NotFound,
            PmError::InvalidArgument => SyscallError::Invalid,
            PmError::CpuNotOwned | PmError::Denied => SyscallError::Denied,
            PmError::NotEmpty | PmError::WrongState => SyscallError::WrongState,
        }
    }
}

impl From<MapError> for SyscallError {
    fn from(e: MapError) -> Self {
        match e {
            MapError::OutOfMemory => SyscallError::NoMem,
            MapError::Misaligned | MapError::NonCanonical => SyscallError::Invalid,
            MapError::AlreadyMapped | MapError::NotMapped | MapError::SizeConflict => {
                SyscallError::Fault
            }
        }
    }
}

/// The system-call return structure (the paper's `SyscallReturnStruct`).
#[must_use = "a syscall's return carries its error class and must be checked"]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyscallReturn {
    /// Success payload (up to four scalar values) or the error code.
    pub result: Result<[u64; 4], SyscallError>,
}

impl SyscallReturn {
    pub(crate) fn ok(vals: [u64; 4]) -> Self {
        SyscallReturn { result: Ok(vals) }
    }

    pub(crate) fn err(e: SyscallError) -> Self {
        SyscallReturn { result: Err(e) }
    }

    /// `true` on success.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }

    /// First scalar of a successful return.
    ///
    /// # Panics
    ///
    /// Panics on an error return.
    pub fn val0(&self) -> u64 {
        self.result.expect("syscall failed")[0]
    }

    /// The trace class of this return.
    pub fn trace_class(&self) -> atmo_trace::ReturnClass {
        use atmo_trace::ReturnClass as C;
        match self.result {
            Ok(_) => C::Ok,
            Err(SyscallError::NoMem) => C::NoMem,
            Err(SyscallError::Quota) => C::Quota,
            Err(SyscallError::Capacity) => C::Capacity,
            Err(SyscallError::NotFound) => C::NotFound,
            Err(SyscallError::Invalid) => C::Invalid,
            Err(SyscallError::Denied) => C::Denied,
            Err(SyscallError::WrongState) => C::WrongState,
            Err(SyscallError::Fault) => C::Fault,
        }
    }
}

/// How a handler reaches the memory domain.
///
/// The unified kernel hands out a direct borrow; the sharded kernel
/// hands out the mem [`DomainLock`] plus the calling CPU's page cache,
/// and the lock is taken *lazily* — only if the handler actually
/// dereferences the domain. Kernel-object page allocation and free go
/// through the [`PageSource`] impl, which serves them from the per-CPU
/// cache without the mem lock whenever possible (batch refill/drain
/// under brief acquisitions otherwise).
pub(crate) enum MemAccess<'a> {
    /// The caller already owns the memory domain (unified kernel, or a
    /// sharded stage that locked it itself).
    Direct(&'a mut MemDomain),
    /// Sharded dispatch: lock on demand, allocate through the cache.
    Shard {
        /// The calling CPU (lock-acquisition attribution).
        cpu: usize,
        /// The mem domain's lock.
        lock: &'a DomainLock<Option<MemDomain>>,
        /// The calling CPU's page cache (its lock is held by the caller).
        cache: &'a mut PageCache,
        /// The lazily acquired mem guard, once any handler touched it.
        guard: Option<DomainGuard<'a, Option<MemDomain>>>,
    },
}

impl MemAccess<'_> {
    /// The memory domain, acquiring the mem lock first if this is a
    /// sharded access that has not touched it yet.
    pub(crate) fn domain(&mut self) -> &mut MemDomain {
        match self {
            MemAccess::Direct(m) => m,
            MemAccess::Shard {
                cpu, lock, guard, ..
            } => {
                if guard.is_none() {
                    let g = guard.insert(lock.lock(*cpu));
                    debug_assert!(
                        g.as_ref().is_some_and(|m| m.vm.touched().next().is_none()),
                        "a syscall left spaces touched"
                    );
                }
                guard
                    .as_mut()
                    .expect("just acquired")
                    .as_mut()
                    .expect("mem domain present under its lock")
            }
        }
    }
}

impl PageSource for MemAccess<'_> {
    fn alloc_page_4k(&mut self) -> Result<(PagePtr, PagePermission), AllocError> {
        match self {
            MemAccess::Direct(m) => m.alloc.alloc_page_4k(),
            MemAccess::Shard {
                cpu,
                lock,
                cache,
                guard,
            } => {
                if let Some(g) = guard {
                    // Mem already locked: no point going through the cache.
                    return g
                        .as_mut()
                        .expect("mem domain present under its lock")
                        .alloc
                        .alloc_page_4k();
                }
                if let Some(got) = cache.pop() {
                    return Ok(got);
                }
                // Batch refill under a brief mem acquisition, then retry
                // the cache (ascending order: Cache is held, Mem is above).
                let mut g = lock.lock(*cpu);
                cache.refill_from(&mut g.as_mut().expect("mem domain present").alloc)?;
                drop(g);
                cache.pop().ok_or(AllocError::OutOfMemory)
            }
        }
    }

    fn free_page_4k(&mut self, perm: PagePermission) {
        match self {
            MemAccess::Direct(m) => m.alloc.free_page_4k(perm),
            MemAccess::Shard {
                cpu,
                lock,
                cache,
                guard,
            } => {
                if let Some(g) = guard {
                    g.as_mut()
                        .expect("mem domain present under its lock")
                        .alloc
                        .free_page_4k(perm);
                    return;
                }
                let page = perm.addr();
                cache.push(page, perm);
                if cache.needs_drain() {
                    let mut g = lock.lock(*cpu);
                    cache.drain_excess_to(&mut g.as_mut().expect("mem domain present").alloc);
                }
            }
        }
    }

    fn dec_map_ref(&mut self, p: PagePtr) -> bool {
        match self {
            MemAccess::Direct(m) => m.alloc.dec_map_ref(p),
            MemAccess::Shard {
                cpu, lock, guard, ..
            } => {
                if let Some(g) = guard {
                    return g
                        .as_mut()
                        .expect("mem domain present under its lock")
                        .alloc
                        .dec_map_ref(p);
                }
                // Mapped frames are never cached: brief shared access.
                lock.lock(*cpu)
                    .as_mut()
                    .expect("mem domain present")
                    .alloc
                    .dec_map_ref(p)
            }
        }
    }
}

/// The execution context a system call runs against: the pm domain and
/// the per-CPU meter borrowed mutably, the trace handle shared, and the
/// memory domain reachable through [`MemAccess`].
pub(crate) struct ExecCtx<'a> {
    /// The machine's calibrated cost model (copied; it is plain data).
    pub(crate) costs: CostModel,
    /// The calling CPU's cycle meter.
    pub(crate) meter: &'a mut CycleMeter,
    /// The pm domain: scheduler, containers, processes, endpoints.
    pub(crate) pm: &'a mut ProcessManager,
    /// The (internally sharded) trace sink.
    pub(crate) trace: &'a TraceHandle,
    /// Where `TraceSnapshot` publishes its result, when the caller
    /// provides the slot (the sharded kernel locks it only for that
    /// call).
    pub(crate) last_snapshot: Option<&'a mut Option<Snapshot>>,
    /// The memory domain (direct or lazily locked).
    pub(crate) mem: MemAccess<'a>,
}

/// The trap bracket every entry path shares: trace enter and the entry
/// trampoline charge, `body`, then the exit trampoline charge and trace
/// exit with the call's modeled latency. Both trampolines are per-CPU
/// work, so `body` takes — and publishes and releases — whatever domain
/// locks the call needs strictly inside the bracket.
#[inline]
pub(crate) fn trap_bracket(
    costs: &CostModel,
    trace: &TraceHandle,
    meter: &mut CycleMeter,
    cpu: CpuId,
    kind: SyscallKind,
    body: impl FnOnce(&mut CycleMeter) -> SyscallReturn,
) -> SyscallReturn {
    let entered = meter.now();
    trace.syscall_enter(cpu, kind);
    meter.charge(costs.syscall_entry);
    let ret = body(meter);
    meter.charge(costs.syscall_exit);
    trace.syscall_exit(cpu, kind, ret.trace_class(), meter.now() - entered);
    ret
}

impl Kernel {
    /// The system-call trap handler for `cpu`.
    ///
    /// Resolves the current thread, dispatches, and charges entry/exit
    /// trampoline costs (the assembly of §5, item 8).
    pub fn syscall(&mut self, cpu: CpuId, args: SyscallArgs) -> SyscallReturn {
        let costs = self.machine.costs;
        let (pm, trace, mem) = (&mut self.pm, &self.trace, &mut self.mem);
        let last_snapshot = Some(&mut self.last_trace_snapshot);
        let kind = args.trace_kind();
        let ret = trap_bracket(&costs, trace, self.machine.meter(cpu), cpu, kind, |meter| {
            let mut ctx = ExecCtx {
                costs,
                meter,
                pm,
                trace,
                last_snapshot,
                mem: MemAccess::Direct(mem),
            };
            ctx.dispatch_current(cpu, args)
        });
        // Nothing reads the touched spaces here; keep the list empty at
        // the syscall boundary, as on the sharded kernel.
        self.mem.vm.clear_touched();
        ret
    }
}

impl ExecCtx<'_> {
    /// Charges `cost` cycles to the calling CPU's meter.
    pub(crate) fn charge(&mut self, cost: u64) {
        self.meter.charge(cost);
    }

    /// Resolves the current thread on `cpu` and dispatches — the part of
    /// a system call that genuinely needs the pm domain. The sharded
    /// kernel calls this under the pm lock so the entry/exit trampolines
    /// (per-CPU work) stay outside the pm critical section.
    pub(crate) fn dispatch_current(&mut self, cpu: CpuId, args: SyscallArgs) -> SyscallReturn {
        let Some(t) = self.pm.sched.current(cpu) else {
            return SyscallReturn::err(SyscallError::WrongState);
        };
        match args {
            SyscallArgs::Mmap { writable, .. } => {
                self.sys_staged(cpu, StagedOp::Map { writable }, &args)
            }
            SyscallArgs::Munmap { .. } => self.sys_staged(cpu, StagedOp::Unmap, &args),
            SyscallArgs::NewContainer { quota, cpus } => self.sys_new_container(t, quota, &cpus),
            SyscallArgs::TerminateContainer { cntr } => self.sys_terminate_container(t, cntr),
            SyscallArgs::NewProcess { cntr } => self.sys_new_process(t, cntr),
            SyscallArgs::NewChildProcess => self.sys_new_child_process(t),
            SyscallArgs::Exit => self.sys_exit(cpu, t),
            SyscallArgs::TerminateProcess { proc } => self.sys_terminate_process(t, proc),
            SyscallArgs::NewThread { proc, cpu: home } => self.sys_new_thread(t, proc, home),
            SyscallArgs::NewEndpoint { slot } => self.sys_new_endpoint(t, slot),
            SyscallArgs::Send {
                slot,
                scalars,
                grant_page_va,
                grant_endpoint_slot,
                grant_iommu_domain,
            } => self.sys_send(
                cpu,
                t,
                slot,
                scalars,
                grant_page_va,
                grant_endpoint_slot,
                grant_iommu_domain,
            ),
            SyscallArgs::Recv { slot } => self.sys_recv(cpu, t, slot),
            SyscallArgs::Poll { slot } => self.sys_poll(cpu, t, slot),
            SyscallArgs::Call { slot, scalars } => self.sys_call(cpu, t, slot, scalars),
            SyscallArgs::Reply { scalars } => self.sys_reply(cpu, t, scalars),
            SyscallArgs::ReplyRecv { slot, scalars } => self.sys_reply_recv(cpu, t, slot, scalars),
            SyscallArgs::TakeMsg => self.sys_take_msg(t),
            SyscallArgs::MapGranted { va } => self.sys_map_granted(t, va),
            SyscallArgs::DropGrant => self.sys_drop_grant(t),
            SyscallArgs::MmapHuge2M { va_base, writable } => {
                self.sys_mmap_huge_2m(t, va_base, writable)
            }
            SyscallArgs::MunmapHuge2M { va_base } => self.sys_munmap_huge_2m(t, va_base),
            SyscallArgs::IommuCreateDomain => self.sys_iommu_create_domain(t),
            SyscallArgs::IommuAttach { domain, device } => self.sys_iommu_attach(t, domain, device),
            SyscallArgs::IommuDetach { device } => self.sys_iommu_detach(t, device),
            SyscallArgs::IommuMap { domain, iova, va } => self.sys_iommu_map(t, domain, iova, va),
            SyscallArgs::IommuUnmap { domain, iova } => self.sys_iommu_unmap(t, domain, iova),
            SyscallArgs::BlkSubmitBatch { queue, ops } => self.sys_blk_submit(t, queue, &ops),
            SyscallArgs::BlkReapBatch { queue, max, wait } => {
                self.sys_blk_reap(t, queue, max, wait)
            }
            SyscallArgs::Yield => self.sys_yield(cpu, t),
            SyscallArgs::TraceSnapshot => self.sys_trace_snapshot(t),
            SyscallArgs::Getpid => self.sys_getpid(t),
            SyscallArgs::ThreadLookup { thread } => self.sys_thread_lookup(thread),
            SyscallArgs::DescriptorResolve { slot } => self.sys_descriptor_resolve(t, slot),
            SyscallArgs::VmResolve { va } => self.sys_vm_resolve(t, va),
            SyscallArgs::SchedSetWeight { cntr, weight } => {
                self.sys_sched_set_weight(t, cntr, weight)
            }
            SyscallArgs::SchedThrottle { cntr, throttle } => {
                self.sys_sched_throttle(t, cntr, throttle)
            }
        }
    }

    // ----- read-only lookups (node-replicated on the sharded kernel) ------

    /// `getpid`: the calling thread's owning process and container.
    /// This is the *locked* path — the semantic anchor the per-CPU
    /// replicas are cross-checked against; the sharded kernel routes
    /// here only when node replication is off (counted as a fallback).
    fn sys_getpid(&mut self, t: ThrdPtr) -> SyscallReturn {
        self.charge(self.costs.syscall_validate);
        self.trace.count(NrOutcome::FallbackLocked, 1);
        let th = self.pm.thrd(t);
        SyscallReturn::ok([th.owning_proc as u64, th.owning_cntr as u64, 0, 0])
    }

    /// `thread_lookup`: a thread's owning process and container.
    fn sys_thread_lookup(&mut self, thread: ThrdPtr) -> SyscallReturn {
        self.charge(self.costs.syscall_validate);
        self.trace.count(NrOutcome::FallbackLocked, 1);
        if !self.pm.thrd_perms.contains(thread) {
            return SyscallReturn::err(SyscallError::NotFound);
        }
        let th = self.pm.thrd(thread);
        SyscallReturn::ok([th.owning_proc as u64, th.owning_cntr as u64, 0, 0])
    }

    /// `descriptor_resolve`: the endpoint in `slot` of the caller's
    /// descriptor table.
    fn sys_descriptor_resolve(&mut self, t: ThrdPtr, slot: EdptIdx) -> SyscallReturn {
        self.charge(self.costs.syscall_validate);
        self.trace.count(NrOutcome::FallbackLocked, 1);
        match self
            .pm
            .thrd(t)
            .edpt_descriptors
            .get(slot)
            .copied()
            .flatten()
        {
            Some(e) => SyscallReturn::ok([e as u64, 0, 0, 0]),
            None => SyscallReturn::err(SyscallError::NotFound),
        }
    }

    /// `vm_resolve`: whether `va` is mapped in the caller's address
    /// space. Returns `[mapped, writable, 0, 0]` — an unmapped address
    /// is a successful "no", not a fault. On the sharded kernel this
    /// locked path takes the mem lock (the fallback the replica path
    /// avoids).
    fn sys_vm_resolve(&mut self, t: ThrdPtr, va: usize) -> SyscallReturn {
        let costs = self.costs;
        self.charge(costs.syscall_validate + costs.pt_walk_cached_read);
        self.trace.count(NrOutcome::FallbackLocked, 1);
        let proc_ptr = self.pm.thrd(t).owning_proc;
        let as_id = self.pm.proc(proc_ptr).addr_space;
        let writable = self
            .mem
            .domain()
            .vm
            .table(as_id)
            .and_then(|table| table.covering(va).map(|(_base, e, _size)| e.flags.writable));
        match writable {
            Some(w) => SyscallReturn::ok([1, w as u64, 0, 0]),
            None => SyscallReturn::ok([0, 0, 0, 0]),
        }
    }

    /// `trace_snapshot`: publishes the merged trace snapshot (a read of
    /// ghost/diagnostic state — Ψ is unchanged, so the audit holds it to
    /// the no-op specification). The scalars summarize; the full
    /// [`atmo_trace::Snapshot`] is stashed for
    /// [`Kernel::take_trace_snapshot`].
    fn sys_trace_snapshot(&mut self, _t: ThrdPtr) -> SyscallReturn {
        self.charge(self.costs.syscall_validate);
        let snap = self.trace.snapshot();
        let ret = SyscallReturn::ok([
            snap.total_syscall_exits(),
            snap.total_events,
            snap.total_dropped,
            snap.per_cpu.len() as u64,
        ]);
        if let Some(slot) = self.last_snapshot.as_mut() {
            **slot = Some(snap);
        }
        ret
    }

    // ----- memory management ----------------------------------------------

    /// `mmap` (Listing 1: allocate `len` fresh physical pages and map
    /// them at `va_base..va_base+len*4K` in the caller's address space)
    /// and `munmap` (remove `len` 4 KiB mappings, dropping the frames'
    /// references and releasing quota). The sharded kernel's stages run
    /// back to back on direct borrows, so both kernels give the same
    /// answer at identical cycles and take the identical batched/per-page
    /// datapath by construction.
    fn sys_staged(&mut self, cpu: CpuId, op: StagedOp, args: &SyscallArgs) -> SyscallReturn {
        let costs = self.costs;
        let range = match stage_validate(&costs, self.meter, args) {
            Ok(range) => range,
            Err(ret) => return ret,
        };
        let plan = match stage_pm(self.pm, cpu, range, op) {
            Ok(plan) => plan,
            Err(ret) => return ret,
        };
        let mem = self.mem.domain();
        let ret = match op {
            StagedOp::Map { .. } => mmap_stage_mem(&costs, self.meter, mem, &plan),
            StagedOp::Unmap => munmap_stage_mem(&costs, self.meter, mem, &plan),
        };
        if op.uncharges(&ret) {
            uncharge_stage_pm(self.pm, plan.cntr, plan.len);
        }
        ret
    }

    // ----- containers / processes / threads --------------------------------

    fn sys_new_container(&mut self, t: ThrdPtr, quota: usize, cpus: &[CpuId]) -> SyscallReturn {
        let costs = self.costs;
        self.charge(costs.syscall_validate + costs.page_alloc_4k + costs.quota_account);
        let parent = self.pm.thrd(t).owning_cntr;
        match self.pm.new_container(&mut self.mem, parent, quota, cpus) {
            Ok(c) => SyscallReturn::ok([c as u64, 0, 0, 0]),
            Err(e) => SyscallReturn::err(e.into()),
        }
    }

    fn sys_terminate_container(&mut self, t: ThrdPtr, cntr: CtnrPtr) -> SyscallReturn {
        let costs = self.costs;
        self.charge(costs.syscall_validate);
        let caller_cntr = self.pm.thrd(t).owning_cntr;
        if !self.pm.cntr_perms.contains(cntr) {
            return SyscallReturn::err(SyscallError::NotFound);
        }
        // Authority: only direct/indirect children may be terminated (§3).
        if !self.pm.cntr(caller_cntr).subtree.contains(&cntr) {
            return SyscallReturn::err(SyscallError::Denied);
        }
        // Release kernel-held grant references of every dying thread.
        let mut dying_threads: Vec<ThrdPtr> = Vec::new();
        let mut dead_cntrs: Vec<CtnrPtr> = self.pm.cntr(cntr).subtree.to_vec();
        dead_cntrs.push(cntr);
        for dc in &dead_cntrs {
            dying_threads.extend(self.pm.cntr(*dc).owned_thrds.iter().copied());
        }
        self.release_pending_grants(&dying_threads);
        self.cleanup_iommu_for(&dead_cntrs);

        match self.pm.terminate_container(&mut self.mem, cntr) {
            Ok(freed_spaces) => {
                for as_id in freed_spaces {
                    self.charge(costs.page_free_4k);
                    let m = self.mem.domain();
                    m.vm.destroy_space(&mut m.alloc, as_id);
                }
                SyscallReturn::ok([0, 0, 0, 0])
            }
            Err(e) => SyscallReturn::err(e.into()),
        }
    }

    /// Authority shared by the scheduler-control calls: the target must
    /// be a strict member of the caller's subtree — the
    /// terminate-container rule (§3), which deliberately excludes the
    /// caller's own container. Budgets are imposed from above; a
    /// container that could retarget its own account would simply tear
    /// it down (`weight 0`), raise its weight, or lift a throttle, and
    /// run unmetered past whatever its parent granted.
    fn check_sched_authority(&self, t: ThrdPtr, cntr: CtnrPtr) -> Result<(), SyscallError> {
        if !self.pm.cntr_perms.contains(cntr) {
            return Err(SyscallError::NotFound);
        }
        let caller_cntr = self.pm.thrd(t).owning_cntr;
        if !self.pm.cntr(caller_cntr).subtree.contains(&cntr) {
            return Err(SyscallError::Denied);
        }
        Ok(())
    }

    fn sys_sched_set_weight(&mut self, t: ThrdPtr, cntr: CtnrPtr, weight: u32) -> SyscallReturn {
        let costs = self.costs;
        self.charge(costs.syscall_validate + costs.quota_account);
        if let Err(e) = self.check_sched_authority(t, cntr) {
            return SyscallReturn::err(e);
        }
        match self.pm.sched_set_weight(cntr, weight) {
            Ok(()) => SyscallReturn::ok([0, 0, 0, 0]),
            Err(e) => SyscallReturn::err(e.into()),
        }
    }

    fn sys_sched_throttle(&mut self, t: ThrdPtr, cntr: CtnrPtr, throttle: bool) -> SyscallReturn {
        let costs = self.costs;
        self.charge(costs.syscall_validate + costs.quota_account);
        if let Err(e) = self.check_sched_authority(t, cntr) {
            return SyscallReturn::err(e);
        }
        match self.pm.sched_throttle(cntr, throttle) {
            Ok(()) => SyscallReturn::ok([0, 0, 0, 0]),
            Err(e) => SyscallReturn::err(e.into()),
        }
    }

    fn sys_new_process(&mut self, t: ThrdPtr, cntr: CtnrPtr) -> SyscallReturn {
        let costs = self.costs;
        self.charge(costs.syscall_validate + costs.page_alloc_4k + costs.quota_account);
        let caller_cntr = self.pm.thrd(t).owning_cntr;
        if !self.pm.cntr_perms.contains(cntr) {
            return SyscallReturn::err(SyscallError::NotFound);
        }
        if cntr != caller_cntr && !self.pm.cntr(caller_cntr).subtree.contains(&cntr) {
            return SyscallReturn::err(SyscallError::Denied);
        }
        let p = match self.pm.new_process(&mut self.mem, cntr, None) {
            Ok(p) => p,
            Err(e) => return SyscallReturn::err(e.into()),
        };
        let as_id = self.pm.proc(p).addr_space;
        let m = self.mem.domain();
        if m.vm.create_space(&mut m.alloc, as_id).is_err() {
            // Roll back the half-created process.
            let _ = self.pm.terminate_process(&mut self.mem, p);
            return SyscallReturn::err(SyscallError::NoMem);
        }
        SyscallReturn::ok([p as u64, 0, 0, 0])
    }

    /// Creates a child process under the caller's process, in the same
    /// container (§3: per-container process trees with parent-child
    /// tracking).
    fn sys_new_child_process(&mut self, t: ThrdPtr) -> SyscallReturn {
        let costs = self.costs;
        self.charge(costs.syscall_validate + costs.page_alloc_4k + costs.quota_account);
        let (parent_proc, cntr) = {
            let th = self.pm.thrd(t);
            (th.owning_proc, th.owning_cntr)
        };
        let p = match self.pm.new_process(&mut self.mem, cntr, Some(parent_proc)) {
            Ok(p) => p,
            Err(e) => return SyscallReturn::err(e.into()),
        };
        let as_id = self.pm.proc(p).addr_space;
        let m = self.mem.domain();
        if m.vm.create_space(&mut m.alloc, as_id).is_err() {
            let _ = self.pm.terminate_process(&mut self.mem, p);
            return SyscallReturn::err(SyscallError::NoMem);
        }
        SyscallReturn::ok([p as u64, 0, 0, 0])
    }

    /// Terminates the calling thread. If it was the last thread of its
    /// process, the process itself stays (an empty process a parent can
    /// reuse or terminate) — matching the paper's explicit lifecycle.
    fn sys_exit(&mut self, cpu: CpuId, t: ThrdPtr) -> SyscallReturn {
        let costs = self.costs;
        self.charge(costs.thread_switch + costs.page_free_4k);
        self.release_pending_grants(&[t]);
        match self.pm.terminate_thread(&mut self.mem, t) {
            Ok(()) => {
                // The CPU is idle now; pick up the next ready thread.
                if self.pm.sched.current(cpu).is_none() {
                    if let Some(next) = self.pm.sched.dispatch(cpu) {
                        use atmo_pm::ThreadState;
                        let p = atmo_spec::PPtr::<atmo_pm::Thread>::from_usize(next);
                        p.borrow_mut(self.pm.thrd_perms.tracked_borrow_mut(next))
                            .state = ThreadState::Running(cpu);
                    }
                }
                SyscallReturn::ok([0, 0, 0, 0])
            }
            Err(e) => SyscallReturn::err(e.into()),
        }
    }

    fn sys_terminate_process(&mut self, t: ThrdPtr, proc: ProcPtr) -> SyscallReturn {
        let costs = self.costs;
        self.charge(costs.syscall_validate);
        if !self.pm.proc_perms.contains(proc) {
            return SyscallReturn::err(SyscallError::NotFound);
        }
        let caller_cntr = self.pm.thrd(t).owning_cntr;
        let caller_proc = self.pm.thrd(t).owning_proc;
        let target_cntr = self.pm.proc(proc).owning_container;
        // Authority: own process tree (self or descendant) or a process in
        // a child container.
        let same_tree = proc == caller_proc || self.pm.proc(proc).path.contains(&caller_proc);
        let child_cntr = self.pm.cntr(caller_cntr).subtree.contains(&target_cntr);
        if !(same_tree || child_cntr) {
            return SyscallReturn::err(SyscallError::Denied);
        }
        // Collect (container, mapped-page-count, as_id) per dying process
        // so quota can be released after teardown.
        let mut stack = vec![proc];
        let mut doomed = Vec::new();
        while let Some(q) = stack.pop() {
            let pr = self.pm.proc(q);
            doomed.push((pr.owning_container, pr.addr_space));
            stack.extend(pr.children.iter());
        }
        let mut dying_threads = Vec::new();
        {
            let mut stack = vec![proc];
            while let Some(q) = stack.pop() {
                dying_threads.extend(self.pm.proc(q).threads.iter());
                stack.extend(self.pm.proc(q).children.iter());
            }
        }
        self.release_pending_grants(&dying_threads);

        match self.pm.terminate_process(&mut self.mem, proc) {
            Ok(_freed) => {
                for (cntr, as_id) in doomed {
                    self.charge(costs.page_free_4k);
                    let m = self.mem.domain();
                    let removed = m.vm.destroy_space(&mut m.alloc, as_id);
                    if self.pm.cntr_perms.contains(cntr) {
                        self.pm.uncharge(cntr, removed);
                    }
                }
                SyscallReturn::ok([0, 0, 0, 0])
            }
            Err(e) => SyscallReturn::err(e.into()),
        }
    }

    fn release_pending_grants(&mut self, threads: &[ThrdPtr]) {
        let trace = self.trace;
        let m = self.mem.domain();
        for t in threads {
            if let Some(frame) = m.pending_grants.remove(t) {
                trace.audit_delta(AuditDelta::RefDec(frame));
                m.alloc.dec_map_ref(frame);
            }
        }
    }

    fn sys_new_thread(&mut self, t: ThrdPtr, proc: ProcPtr, home: CpuId) -> SyscallReturn {
        let costs = self.costs;
        self.charge(costs.syscall_validate + costs.page_alloc_4k + costs.quota_account);
        if !self.pm.proc_perms.contains(proc) {
            return SyscallReturn::err(SyscallError::NotFound);
        }
        let caller_cntr = self.pm.thrd(t).owning_cntr;
        let target_cntr = self.pm.proc(proc).owning_container;
        if target_cntr != caller_cntr && !self.pm.cntr(caller_cntr).subtree.contains(&target_cntr) {
            return SyscallReturn::err(SyscallError::Denied);
        }
        match self.pm.new_thread(&mut self.mem, proc, home) {
            Ok(nt) => SyscallReturn::ok([nt as u64, 0, 0, 0]),
            Err(e) => SyscallReturn::err(e.into()),
        }
    }

    // ----- endpoints and IPC ------------------------------------------------

    fn sys_new_endpoint(&mut self, t: ThrdPtr, slot: EdptIdx) -> SyscallReturn {
        let costs = self.costs;
        self.charge(costs.page_alloc_4k + costs.quota_account);
        match self.pm.new_endpoint(&mut self.mem, t, slot) {
            Ok(e) => SyscallReturn::ok([e as u64, 0, 0, 0]),
            Err(e) => SyscallReturn::err(e.into()),
        }
    }

    fn build_payload(
        &mut self,
        t: ThrdPtr,
        scalars: [u64; 4],
        grant_page_va: Option<usize>,
        grant_endpoint_slot: Option<EdptIdx>,
        grant_iommu_domain: Option<u32>,
    ) -> Result<IpcPayload, SyscallError> {
        let mut payload = IpcPayload::scalars(scalars);
        if let Some(domain) = grant_iommu_domain {
            // Only domains the sender is authorized for may be granted.
            let cntr = self.pm.thrd(t).owning_cntr;
            if !self.mem.domain().iommu_authorized(domain, cntr) {
                return Err(SyscallError::Denied);
            }
            payload.iommu_grant = Some(domain);
        }
        if let Some(slot) = grant_endpoint_slot {
            let e = self
                .pm
                .thrd(t)
                .descriptor(slot)
                .ok_or(SyscallError::Invalid)?;
            payload.endpoint_grant = Some(e);
        }
        if let Some(va) = grant_page_va {
            let as_id = self.pm.proc(self.pm.thrd(t).owning_proc).addr_space;
            let m = self.mem.domain();
            let pt = m.vm.table(as_id).expect("space exists");
            let frame = *pt
                .map_4k
                .index(&VAddr(va).align_down(atmo_hw::PAGE_SIZE_4K).as_usize())
                .map(|e| &e.frame)
                .ok_or(SyscallError::Fault)?;
            // The in-flight grant holds a mapping reference.
            m.alloc.inc_map_ref(frame);
            self.trace.audit_delta(AuditDelta::RefInc(frame));
            payload.page_grant = Some(frame);
        }
        Ok(payload)
    }

    fn charge_ipc(&mut self) {
        let costs = self.costs;
        self.charge(costs.endpoint_queue_op + costs.ipc_transfer + costs.thread_switch);
    }

    #[allow(clippy::too_many_arguments)]
    fn sys_send(
        &mut self,
        cpu: CpuId,
        t: ThrdPtr,
        slot: EdptIdx,
        scalars: [u64; 4],
        grant_page_va: Option<usize>,
        grant_endpoint_slot: Option<EdptIdx>,
        grant_iommu_domain: Option<u32>,
    ) -> SyscallReturn {
        self.charge_ipc();
        let payload = match self.build_payload(
            t,
            scalars,
            grant_page_va,
            grant_endpoint_slot,
            grant_iommu_domain,
        ) {
            Ok(p) => p,
            Err(e) => return SyscallReturn::err(e),
        };
        if grant_page_va.is_some() {
            self.charge(self.costs.ipc_cap_transfer);
        }
        match self.pm.send(t, cpu, slot, payload) {
            Ok(SendOutcome::Delivered(r)) => SyscallReturn::ok([1, r as u64, 0, 0]),
            Ok(SendOutcome::Blocked) => SyscallReturn::ok([0, 0, 0, 0]),
            Err(e) => {
                // Roll back the in-flight grant reference.
                if let Some(frame) = payload.page_grant {
                    self.trace.audit_delta(AuditDelta::RefDec(frame));
                    self.mem.dec_map_ref(frame);
                }
                SyscallReturn::err(e.into())
            }
        }
    }

    fn sys_recv(&mut self, cpu: CpuId, t: ThrdPtr, slot: EdptIdx) -> SyscallReturn {
        self.charge_ipc();
        match self.pm.recv(t, cpu, slot) {
            Ok(RecvOutcome::Received(_)) => self.sys_take_msg(t),
            Ok(RecvOutcome::Blocked) => SyscallReturn::ok([0, 0, 0, 0]),
            Err(e) => SyscallReturn::err(e.into()),
        }
    }

    /// Non-blocking receive: returns the message scalars when a sender
    /// was waiting, or `[0, 0, 0, u64::MAX]` when the endpoint was empty.
    fn sys_poll(&mut self, cpu: CpuId, t: ThrdPtr, slot: EdptIdx) -> SyscallReturn {
        self.charge(self.costs.endpoint_queue_op);
        match self.pm.try_recv(t, cpu, slot) {
            Ok(Some(_payload)) => {
                self.charge(self.costs.ipc_transfer);
                self.sys_take_msg(t)
            }
            Ok(None) => SyscallReturn::ok([0, 0, 0, u64::MAX]),
            Err(e) => SyscallReturn::err(e.into()),
        }
    }

    /// `call`: send + block-for-reply in one trap. Attempts the direct
    /// handoff first; the cycle charge depends on which path ran — the
    /// fast path's `ipc_fastpath` body is strictly cheaper than the slow
    /// rendezvous body (queue op + transfer + full context switch).
    /// Scalar-only payloads by construction, so the handler is pm-pure:
    /// the mem domain is never touched on either path.
    fn sys_call(
        &mut self,
        cpu: CpuId,
        t: ThrdPtr,
        slot: EdptIdx,
        scalars: [u64; 4],
    ) -> SyscallReturn {
        let payload = IpcPayload::scalars(scalars);
        match self.pm.call_fast(t, cpu, slot, payload) {
            Ok((out, true)) => {
                self.charge(self.costs.ipc_fastpath);
                let r = match out {
                    SendOutcome::Delivered(r) => r as u64,
                    SendOutcome::Blocked => 0,
                };
                SyscallReturn::ok([1, r, 0, 0])
            }
            Ok((_, false)) => {
                self.charge_ipc();
                SyscallReturn::ok([0, 0, 0, 0])
            }
            Err(e) => {
                self.charge_ipc();
                SyscallReturn::err(e.into())
            }
        }
    }

    fn sys_reply(&mut self, cpu: CpuId, t: ThrdPtr, scalars: [u64; 4]) -> SyscallReturn {
        self.charge_ipc();
        match self.pm.reply(t, cpu, IpcPayload::scalars(scalars)) {
            Ok(caller) => SyscallReturn::ok([caller as u64, 0, 0, 0]),
            Err(e) => SyscallReturn::err(e.into()),
        }
    }

    /// `reply_recv`: answer the pending caller and re-open the endpoint
    /// in `slot`, in one trap. The fast path hands the CPU straight back
    /// to the caller and parks this thread as the endpoint's receiver;
    /// misses decompose into the slow `reply` + `recv` pair (same
    /// abstract transitions, full rendezvous cost). pm-pure like
    /// `sys_call`.
    fn sys_reply_recv(
        &mut self,
        cpu: CpuId,
        t: ThrdPtr,
        slot: EdptIdx,
        scalars: [u64; 4],
    ) -> SyscallReturn {
        match self
            .pm
            .reply_recv(t, cpu, slot, IpcPayload::scalars(scalars))
        {
            Ok((ReplyRecvOutcome::Handoff(caller), _)) => {
                self.charge(self.costs.ipc_fastpath);
                SyscallReturn::ok([1, caller as u64, 0, 0])
            }
            Ok((ReplyRecvOutcome::Received(_), _)) => {
                self.charge_ipc();
                // The next request is already in the mailbox.
                self.sys_take_msg(t)
            }
            Ok((ReplyRecvOutcome::Blocked, _)) => {
                self.charge_ipc();
                SyscallReturn::ok([0, 0, 0, 0])
            }
            Err(e) => {
                self.charge_ipc();
                SyscallReturn::err(e.into())
            }
        }
    }

    /// Takes the delivered message: returns its scalars, stashing a page
    /// grant (if any) as the thread's pending grant.
    fn sys_take_msg(&mut self, t: ThrdPtr) -> SyscallReturn {
        match self.pm.take_message(t) {
            Some(payload) => {
                if let Some(domain) = payload.iommu_grant {
                    self.deliver_iommu_grant(t, domain);
                }
                if let Some(frame) = payload.page_grant {
                    // At most one pending grant per thread; a second grant
                    // replaces the first, whose reference is dropped.
                    let trace = self.trace;
                    let m = self.mem.domain();
                    if let Some(old) = m.pending_grants.insert(t, frame) {
                        trace.audit_delta(AuditDelta::RefDec(old));
                        m.alloc.dec_map_ref(old);
                    }
                }
                let e_grant = payload.endpoint_grant.map(|e| e as u64).unwrap_or(0);
                let has_page = payload.page_grant.is_some() as u64;
                SyscallReturn::ok([payload.scalars[0], payload.scalars[1], e_grant, has_page])
            }
            None => SyscallReturn::err(SyscallError::WrongState),
        }
    }

    /// Maps the pending granted frame at `va` in the caller's space,
    /// charging one page of quota (shared mappings are charged to every
    /// container that maps them — a conservative upper bound).
    fn sys_map_granted(&mut self, t: ThrdPtr, va: usize) -> SyscallReturn {
        let costs = self.costs;
        self.charge(costs.syscall_validate + costs.quota_account + costs.pt_level_write);
        let Some(&frame) = self.mem.domain().pending_grants.get(&t) else {
            return SyscallReturn::err(SyscallError::WrongState);
        };
        let va = VAddr(va);
        if !va.is_aligned(atmo_hw::PAGE_SIZE_4K) || !va.is_canonical() {
            return SyscallReturn::err(SyscallError::Invalid);
        }
        let (proc_ptr, cntr) = {
            let th = self.pm.thrd(t);
            (th.owning_proc, th.owning_cntr)
        };
        let as_id = self.pm.proc(proc_ptr).addr_space;
        if let Err(e) = self.pm.charge(cntr, 1) {
            return SyscallReturn::err(e.into());
        }
        let m = self.mem.domain();
        let pt = m.vm.table_mut(as_id).expect("space exists");
        match pt.map_4k_page(&mut m.alloc, va, frame, EntryFlags::user_rw()) {
            Ok(()) => {
                // The mapping consumes the grant's reference: the pending-
                // grant site disappears, the new leaf site (RefInc'd by the
                // page table) takes over.
                m.pending_grants.remove(&t);
                self.trace.audit_delta(AuditDelta::RefDec(frame));
                SyscallReturn::ok([va.as_usize() as u64, 0, 0, 0])
            }
            Err(e) => {
                self.pm.uncharge(cntr, 1);
                SyscallReturn::err(e.into())
            }
        }
    }

    fn sys_drop_grant(&mut self, t: ThrdPtr) -> SyscallReturn {
        let trace = self.trace;
        let m = self.mem.domain();
        match m.pending_grants.remove(&t) {
            Some(frame) => {
                trace.audit_delta(AuditDelta::RefDec(frame));
                m.alloc.dec_map_ref(frame);
                SyscallReturn::ok([0, 0, 0, 0])
            }
            None => SyscallReturn::err(SyscallError::WrongState),
        }
    }

    fn sys_yield(&mut self, cpu: CpuId, t: ThrdPtr) -> SyscallReturn {
        let costs = self.costs;
        self.charge(costs.thread_switch);
        let _ = t;
        let next = self.pm.timer_tick(cpu);
        SyscallReturn::ok([next.unwrap_or(0) as u64, 0, 0, 0])
    }
}

// ----- staged two-phase mmap/munmap ------------------------------------------
//
// The sharded kernel does not hold the pm lock across an mmap's page
// loop: stage 1 validates and charges quota under pm alone, stage 2 does
// the allocator/page-table work under mem alone, and a failed stage 2
// re-acquires pm just to release the quota. The abstract specs allow
// this: `syscall_mmap_spec` constrains only the success shape and the
// noop-on-error rule, and quota over-reservation between the stages errs
// in the safe direction. The unified kernel runs the same stages back to
// back, so both check quota before the mapped range and charge alike.

/// What stage 1 of a staged `mmap`/`munmap` resolved under the pm lock.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MemStagePlan {
    /// The charged container (uncharge target on stage-2 failure).
    pub(crate) cntr: CtnrPtr,
    /// The caller's address space.
    pub(crate) as_id: crate::vm::AsId,
    /// The validated page range.
    pub(crate) range: VaRange4K,
    /// Number of pages.
    pub(crate) len: usize,
    /// Writable mapping (mmap only)?
    pub(crate) writable: bool,
}

/// Stage 0 of a staged `mmap`/`munmap`: the argument checks and the
/// validation charge. Pure per-CPU work — the sharded kernel runs it
/// *before* taking any shared lock, so bad arguments never serialize
/// behind the pm domain. (Precedence nit: the unified kernel resolves
/// the current thread first, so with no current thread *and* bad
/// arguments the sharded kernel reports `Invalid`, and charges the
/// validation, where the unified one reports `WrongState`; both are
/// noop errors, which is all the spec pins.)
pub(crate) fn stage_validate(
    costs: &CostModel,
    meter: &mut CycleMeter,
    args: &SyscallArgs,
) -> Result<VaRange4K, SyscallReturn> {
    let (SyscallArgs::Mmap { va_base, len, .. } | SyscallArgs::Munmap { va_base, len }) = *args
    else {
        unreachable!("plan() stages only Mmap/Munmap");
    };
    meter.charge(costs.syscall_validate);
    let Some(range) = VaRange4K::new(VAddr(va_base), len) else {
        return Err(SyscallReturn::err(SyscallError::Invalid));
    };
    if len == 0 {
        return Err(SyscallReturn::err(SyscallError::Invalid));
    }
    Ok(range)
}

/// Stage 1 of a staged call: thread resolution (Listing 1 lines 35–40)
/// and, for a map, the quota charge — the only parts that need the pm
/// domain. An unmap *releases* quota, which happens after a successful
/// stage 2. No cycles are charged here; the pm hold stays as short as
/// the work it protects.
pub(crate) fn stage_pm(
    pm: &mut ProcessManager,
    cpu: CpuId,
    range: VaRange4K,
    op: StagedOp,
) -> Result<MemStagePlan, SyscallReturn> {
    let Some(t) = pm.sched.current(cpu) else {
        return Err(SyscallReturn::err(SyscallError::WrongState));
    };
    let (proc_ptr, cntr) = {
        let thread = pm.thrd(t);
        (thread.owning_proc, thread.owning_cntr)
    };
    let as_id = pm.proc(proc_ptr).addr_space;
    let writable = match op {
        StagedOp::Map { writable } => {
            if let Err(e) = pm.charge(cntr, range.len) {
                return Err(SyscallReturn::err(e.into()));
            }
            writable
        }
        StagedOp::Unmap => false,
    };
    Ok(MemStagePlan {
        cntr,
        as_id,
        range,
        len: range.len,
        writable,
    })
}

/// Stage 2 of a staged `mmap`: the allocator and page-table work, under
/// the mem domain alone. On an error return the caller must release the
/// stage-1 quota with [`uncharge_stage_pm`]. Degrades to `Fault` when
/// the address space vanished between the stages (its container was
/// terminated concurrently).
pub(crate) fn mmap_stage_mem(
    costs: &CostModel,
    meter: &mut CycleMeter,
    mem: &mut MemDomain,
    plan: &MemStagePlan,
) -> SyscallReturn {
    if mem.vm.table(plan.as_id).is_none() {
        return SyscallReturn::err(SyscallError::Fault);
    }
    for va in plan.range.iter() {
        if mem
            .vm
            .table(plan.as_id)
            .expect("checked above")
            .resolve(va)
            .is_some()
        {
            return SyscallReturn::err(SyscallError::Fault);
        }
    }
    let flags = if plan.writable {
        EntryFlags::user_rw()
    } else {
        EntryFlags::user_ro()
    };
    if mem.vm.batch_enabled() && plan.len >= BATCH_MIN_PAGES {
        mmap_batched_mem(costs, meter, mem, plan, flags)
    } else {
        mmap_per_page_mem(costs, meter, mem, plan, flags)
    }
}

/// Smallest request the batched datapath pays off for. A single-page
/// call cannot amortize anything: it pays the full first-page walk plus
/// one batched shootdown (`tlb_shootdown_batch`, 420) where the
/// per-page body pays one plain `tlb_invalidate` (160) — 2244 vs 1984
/// cycles end to end. From two pages on, every walk-cached fill saves
/// `map_fill_first_page - map_fill_next_page` cycles and the batched
/// path is strictly cheaper, so requests below this floor take the
/// per-page body even with batching enabled (mirroring real kernels,
/// which skip batch machinery for single-PTE faults).
pub const BATCH_MIN_PAGES: usize = 2;

/// The original per-page `mmap` datapath: full L3→L2→L1 walk, ledger
/// update, and TLB invalidation for every page. Kept callable (batch
/// toggle off) as the measured baseline and as the reference execution
/// the batched path must refine to the same abstract state.
fn mmap_per_page_mem(
    costs: &CostModel,
    meter: &mut CycleMeter,
    mem: &mut MemDomain,
    plan: &MemStagePlan,
    flags: EntryFlags,
) -> SyscallReturn {
    let mut mapped: Vec<(VAddr, PagePtr)> = Vec::with_capacity(plan.len);
    let rollback = |mem: &mut MemDomain, mapped: &[(VAddr, PagePtr)]| {
        for (va, frame) in mapped {
            let pt = mem.vm.table_mut(plan.as_id).expect("space exists");
            pt.unmap_4k_page(*va).expect("rollback of a fresh mapping");
            mem.alloc.dec_map_ref(*frame);
        }
    };
    for va in plan.range.iter() {
        meter.charge(
            costs.page_alloc_4k
                + costs.quota_account
                + 3 * costs.pt_level_read
                + costs.pt_level_write
                + costs.page_state_update
                + costs.tlb_invalidate,
        );
        let frame = match mem.alloc.alloc_mapped(PageSize::Size4K) {
            Ok(f) => f,
            Err(_) => {
                rollback(mem, &mapped);
                return SyscallReturn::err(SyscallError::NoMem);
            }
        };
        let pt = mem.vm.table_mut(plan.as_id).expect("space exists");
        match pt.map_4k_page(&mut mem.alloc, va, frame, flags) {
            Ok(()) => mapped.push((va, frame)),
            Err(e) => {
                mem.alloc.dec_map_ref(frame);
                rollback(mem, &mapped);
                return SyscallReturn::err(e.into());
            }
        }
    }
    SyscallReturn::ok([plan.range.base.as_usize() as u64, plan.len as u64, 0, 0])
}

/// Undoes a partially executed batched `mmap`: promoted superpages are
/// unmapped and their 2 MiB blocks split back into the exact 4 KiB free
/// set they were merged from; batched 4 KiB segments are unmapped
/// per page. The shootdown queue is drained so the mem domain is
/// released quiescent even on the error path.
fn mmap_batched_rollback(
    mem: &mut MemDomain,
    as_id: crate::vm::AsId,
    promoted: &[(usize, PagePtr)],
    mapped_4k: &[(usize, Vec<PagePtr>)],
) {
    for (va, head) in promoted {
        let pt = mem.vm.table_mut(as_id).expect("space exists");
        pt.unmap_2m_page(VAddr(*va))
            .expect("rollback of a fresh superpage");
        mem.vm.clear_promoted(as_id, *va);
        mem.alloc.dec_map_ref(*head);
        mem.alloc.split_2m(*head);
    }
    for (seg, frames) in mapped_4k {
        for (i, frame) in frames.iter().enumerate() {
            let pt = mem.vm.table_mut(as_id).expect("space exists");
            pt.unmap_4k_page(VAddr(seg + i * PAGE_SIZE_4K))
                .expect("rollback of a fresh mapping");
            mem.alloc.dec_map_ref(*frame);
        }
    }
    let flushed = {
        let pt = mem.vm.table_mut(as_id).expect("space exists");
        pt.flush_shootdowns()
    };
    mem.vm.trace.count(VmOutcome::ShootdownFlushed, flushed);
}

/// The batched `mmap` datapath (the tentpole):
///
/// * 2 MiB-aligned, fully covered 512-page runs are **promoted**: one
///   physically contiguous block (merged from the 4 KiB free list, so
///   every constituent frame was free — exactly what the spec's
///   `page_is_free` clause demands) mapped by a single L2 leaf write;
/// * everything else is filled through the **walk cache**: the
///   L3→L2→L1 chain is resolved once per L1 run, subsequent PTEs in the
///   same table charge `pt_walk_cached_read + pt_fill_write` instead of
///   the full walk, and page-state updates batch;
/// * the quota ledger is touched **once** per call, not once per page;
/// * TLB invalidations are **deferred** to one batched shootdown in the
///   epilogue, still inside the same mem critical section (the queue is
///   empty again before the mem lock is released, so the pm→mem lock
///   order and the quiescence audit are untouched).
fn mmap_batched_mem(
    costs: &CostModel,
    meter: &mut CycleMeter,
    mem: &mut MemDomain,
    plan: &MemStagePlan,
    flags: EntryFlags,
) -> SyscallReturn {
    let base = plan.range.base.as_usize();
    let end = base + plan.len * PAGE_SIZE_4K;
    let frames_2m = PageSize::Size2M.frames() as u64;
    // One ledger update for the whole call (stage 1 charged the quota in
    // a single operation).
    meter.charge(costs.quota_account);
    let mut promoted: Vec<(usize, PagePtr)> = Vec::new();
    let mut mapped_4k: Vec<(usize, Vec<PagePtr>)> = Vec::new();
    let mut va = base;
    while va < end {
        // Promotion candidate: aligned and fully covered. Permissions
        // are uniform across a single mmap call by construction.
        if va.is_multiple_of(PAGE_SIZE_2M) && va + PAGE_SIZE_2M <= end {
            if let Some(head) = mem.alloc.try_alloc_contiguous_2m() {
                let promoted_ok = {
                    let pt = mem.vm.table_mut(plan.as_id).expect("space exists");
                    match pt.map_2m_page(&mut mem.alloc, VAddr(va), head, flags) {
                        Ok(()) => {
                            pt.defer_shootdown(VAddr(va), frames_2m);
                            true
                        }
                        // A SizeConflict (an L1 table already hangs off
                        // this L2 slot) or any other failure falls back
                        // to the 4 KiB fill below.
                        Err(_) => false,
                    }
                };
                if promoted_ok {
                    meter.charge(
                        costs.page_alloc_4k
                            + 2 * costs.pt_level_read
                            + costs.pt_level_write
                            + costs.page_state_update,
                    );
                    mem.vm.note_promoted(plan.as_id, va);
                    mem.vm.trace.count(VmOutcome::SuperpagePromotion, 1);
                    mem.vm.trace.count(VmOutcome::ShootdownDeferred, frames_2m);
                    promoted.push((va, head));
                    va += PAGE_SIZE_2M;
                    continue;
                }
                mem.alloc.dec_map_ref(head);
                mem.alloc.split_2m(head);
            }
        }
        // 4 KiB segment: up to the next promotion-eligible boundary (or
        // the end of the range).
        let mut seg_end = va + PAGE_SIZE_4K;
        while seg_end < end
            && !(seg_end.is_multiple_of(PAGE_SIZE_2M) && seg_end + PAGE_SIZE_2M <= end)
        {
            seg_end += PAGE_SIZE_4K;
        }
        let npages = (seg_end - va) / PAGE_SIZE_4K;
        let mut frames: Vec<PagePtr> = Vec::with_capacity(npages);
        for _ in 0..npages {
            match mem.alloc.alloc_mapped(PageSize::Size4K) {
                Ok(f) => frames.push(f),
                Err(_) => {
                    for f in &frames {
                        mem.alloc.dec_map_ref(*f);
                    }
                    mmap_batched_rollback(mem, plan.as_id, &promoted, &mapped_4k);
                    return SyscallReturn::err(SyscallError::NoMem);
                }
            }
        }
        let mapped = {
            let pt = mem.vm.table_mut(plan.as_id).expect("space exists");
            let r = pt.map_range(&mut mem.alloc, VAddr(va), &frames, flags);
            if r.is_ok() {
                pt.defer_shootdown(VAddr(va), npages as u64);
            }
            r
        };
        match mapped {
            Ok(stats) => {
                meter.charge(
                    stats.first_walks as u64 * costs.map_fill_first_page()
                        + stats.cached_fills as u64 * costs.map_fill_next_page(),
                );
                mem.vm
                    .trace
                    .count(VmOutcome::MapBatchHit, stats.cached_fills as u64);
                mem.vm
                    .trace
                    .count(VmOutcome::ShootdownDeferred, npages as u64);
                mapped_4k.push((va, frames));
            }
            Err(e) => {
                // map_range already unmapped its own partial progress.
                for f in &frames {
                    mem.alloc.dec_map_ref(*f);
                }
                mmap_batched_rollback(mem, plan.as_id, &promoted, &mapped_4k);
                return SyscallReturn::err(e.into());
            }
        }
        va = seg_end;
    }
    // Epilogue: one batched shootdown covers every run this call queued,
    // before the mem domain is released.
    let flushed = {
        let pt = mem.vm.table_mut(plan.as_id).expect("space exists");
        pt.flush_shootdowns()
    };
    if flushed > 0 {
        meter.charge(costs.tlb_shootdown_batch);
    }
    mem.vm.trace.count(VmOutcome::ShootdownFlushed, flushed);
    SyscallReturn::ok([plan.range.base.as_usize() as u64, plan.len as u64, 0, 0])
}

/// Stage 2 of a staged `munmap`: unmapping under the mem domain. On
/// success the caller re-acquires pm and releases `plan.len` pages of
/// quota with [`uncharge_stage_pm`].
pub(crate) fn munmap_stage_mem(
    costs: &CostModel,
    meter: &mut CycleMeter,
    mem: &mut MemDomain,
    plan: &MemStagePlan,
) -> SyscallReturn {
    let Some(pt) = mem.vm.table(plan.as_id) else {
        return SyscallReturn::err(SyscallError::Fault);
    };
    // A sub-threshold unmap takes the per-page body too — unless the
    // range touches a transparently promoted superpage, which only the
    // batched body knows how to demote.
    let touches_promoted = plan.range.iter().any(|va| {
        let head = va.as_usize() & !(PAGE_SIZE_2M - 1);
        mem.vm.is_promoted(plan.as_id, head)
    });
    if !mem.vm.batch_enabled() || (plan.len < BATCH_MIN_PAGES && !touches_promoted) {
        // Original per-page path: every page must be mapped 4 KiB, then
        // each is unmapped with its own leaf write and TLB invalidation.
        for va in plan.range.iter() {
            if !pt.map_4k.contains_key(&va.as_usize()) {
                return SyscallReturn::err(SyscallError::Fault);
            }
        }
        for va in plan.range.iter() {
            meter.charge(costs.pt_level_write + costs.page_state_update + costs.tlb_invalidate);
            let pt = mem.vm.table_mut(plan.as_id).expect("space exists");
            let frame = pt.unmap_4k_page(va).expect("checked above");
            mem.alloc.dec_map_ref(frame);
        }
        return SyscallReturn::ok([plan.len as u64, 0, 0, 0]);
    }
    // Batched path. Classify every page before touching anything
    // (all-or-nothing): a page is either mapped 4 KiB, or covered by a
    // *transparently promoted* 2 MiB entry — which will be demoted so
    // the pages outside the requested range survive. Explicit
    // `MmapHuge2M` superpages still fault, preserving their
    // all-or-nothing contract.
    let frames_2m = PageSize::Size2M.frames() as u64;
    let mut demote_heads: Vec<usize> = Vec::new();
    for va in plan.range.iter() {
        let v = va.as_usize();
        if pt.map_4k.contains_key(&v) {
            continue;
        }
        let head = v & !(PAGE_SIZE_2M - 1);
        if mem.vm.is_promoted(plan.as_id, head) && pt.map_2m.contains_key(&head) {
            if demote_heads.last() != Some(&head) {
                demote_heads.push(head);
            }
        } else {
            return SyscallReturn::err(SyscallError::Fault);
        }
    }
    // Demote each promoted region the range touches: the single L2 leaf
    // becomes a fresh L1 table with 512 PTEs over the same frames with
    // the same permissions (a pure representation change — the
    // normalized abstract space is untouched), and the allocator's
    // 2 MiB block splits to match.
    for head in demote_heads {
        meter.charge(costs.pt_level_alloc + costs.pt_level_write + frames_2m * costs.pt_fill_write);
        let frame_head = {
            let pt = mem.vm.table_mut(plan.as_id).expect("space exists");
            let fh = pt
                .demote_2m(&mut mem.alloc, VAddr(head))
                .expect("prechecked promoted 2 MiB entry");
            pt.defer_shootdown(VAddr(head), frames_2m);
            fh
        };
        mem.alloc.split_mapped_2m(frame_head);
        mem.vm.clear_promoted(plan.as_id, head);
        mem.vm.trace.count(VmOutcome::SuperpageDemotion, 1);
        mem.vm.trace.count(VmOutcome::ShootdownDeferred, frames_2m);
    }
    // Walk-cached batched unmap of the (now uniformly 4 KiB) range.
    let (frames, stats) = {
        let pt = mem.vm.table_mut(plan.as_id).expect("space exists");
        let r = pt
            .unmap_range(plan.range.base, plan.len)
            .expect("prechecked range");
        pt.defer_shootdown(plan.range.base, plan.len as u64);
        r
    };
    meter.charge(
        stats.first_walks as u64
            * (3 * costs.pt_level_read + costs.pt_level_write + costs.page_state_update)
            + stats.cached_fills as u64 * costs.unmap_fill_page(),
    );
    mem.vm
        .trace
        .count(VmOutcome::MapBatchHit, stats.cached_fills as u64);
    mem.vm
        .trace
        .count(VmOutcome::ShootdownDeferred, plan.len as u64);
    for frame in frames {
        mem.alloc.dec_map_ref(frame);
    }
    // Epilogue: one batched shootdown, inside the mem critical section.
    let flushed = {
        let pt = mem.vm.table_mut(plan.as_id).expect("space exists");
        pt.flush_shootdowns()
    };
    if flushed > 0 {
        meter.charge(costs.tlb_shootdown_batch);
    }
    mem.vm.trace.count(VmOutcome::ShootdownFlushed, flushed);
    SyscallReturn::ok([plan.len as u64, 0, 0, 0])
}

/// The pm-side epilogue of a staged call: releases `pages` of quota,
/// guarded against the container having died between the stages.
pub(crate) fn uncharge_stage_pm(pm: &mut ProcessManager, cntr: CtnrPtr, pages: usize) {
    if pm.cntr_perms.contains(cntr) {
        pm.uncharge(cntr, pages);
    }
}
