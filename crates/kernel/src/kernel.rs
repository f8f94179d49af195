//! The kernel state Ψ, boot, the lock domains it splits into, and the
//! big-lock SMP wrapper kept as the sharded kernel's baseline.
//!
//! PR 2 shards the original big lock: the monolithic [`Kernel`] is now
//! assembled from two *lock domains* plus the already-concurrent trace
//! handle:
//!
//! * the **pm domain** — the process manager (scheduler, containers,
//!   processes, threads, endpoints) plus IRQ-handler registrations;
//! * the **mem domain** ([`MemDomain`]) — the page allocator, the VM
//!   subsystem (page tables + IOMMU), and the grant/IOMMU bookkeeping
//!   that lives next to them;
//! * the **trace domain** — [`TraceHandle`], internally sharded per CPU
//!   and safe to use from any context.
//!
//! A unified `Kernel` value still exists (boot, single-threaded tests,
//! the refinement harness, and the stop-the-world sections of
//! [`SmpKernel`](crate::smp::SmpKernel) all use it); the sharded wrapper
//! in [`crate::smp`] splits one apart, runs syscalls under per-domain
//! locks in the documented `pm → mem → trace` order, and reassembles it
//! for audits. [`BigLockKernel`] is the original one-global-lock wrapper
//! (§3), retained unchanged in behavior as the `repro-smp-scaling`
//! baseline.

use std::collections::BTreeMap;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use atmo_hw::machine::Machine;
use atmo_mem::{PageAllocator, PagePtr};
use atmo_pm::types::{CpuId, CtnrPtr, ProcPtr, ThrdPtr};
use atmo_pm::ProcessManager;
use atmo_spec::{into_inner_recovering, lock_recovering};
use atmo_trace::{Snapshot, TraceHandle, TraceSink, DEFAULT_RING_CAPACITY};

use crate::abs::AbstractKernel;
use crate::syscall::{SyscallArgs, SyscallReturn};
use crate::vm::VmSubsystem;

/// Boot-time configuration of the simulated machine and kernel.
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// Usable RAM in MiB.
    pub mem_mib: usize,
    /// CPU cores.
    pub ncpus: usize,
    /// Page quota granted to the root container.
    pub root_quota: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            mem_mib: 64,
            ncpus: 4,
            root_quota: 2048,
        }
    }
}

/// The memory lock domain: everything guarded by the mem lock in the
/// sharded kernel — the page allocator, the VM subsystem, and the
/// grant/IOMMU tables whose entries reference frames.
#[derive(Debug)]
pub struct MemDomain {
    /// The page allocator (§4.2).
    pub alloc: PageAllocator,
    /// The virtual-memory subsystem (§4.2).
    pub vm: VmSubsystem,
    /// Page grants delivered to a thread but not yet mapped
    /// ([`crate::syscall`]'s `MapGranted`/`DropGrant` consume them).
    pub(crate) pending_grants: BTreeMap<ThrdPtr, PagePtr>,
    /// IOMMU protection-domain ownership: domain → creating container.
    pub(crate) iommu_owner: BTreeMap<u32, CtnrPtr>,
    /// Containers granted access to a domain via IPC (`iommu_grant`).
    pub(crate) iommu_access: BTreeMap<u32, Vec<CtnrPtr>>,
    /// The block submission/completion queue pairs (§6.5.2's datapath as
    /// a syscall surface); their entries reference frames only through
    /// IOMMU translations, so they live next to the tables that validate
    /// them.
    pub blk: crate::blk::BlkState,
}

impl MemDomain {
    /// `true` when `cntr` may operate on IOMMU `domain`: it owns it or
    /// was granted access through an endpoint (§3: IPC passes "IOMMU
    /// identifiers").
    pub fn iommu_authorized(&self, domain: u32, cntr: CtnrPtr) -> bool {
        self.iommu_owner.get(&domain) == Some(&cntr)
            || self
                .iommu_access
                .get(&domain)
                .is_some_and(|v| v.contains(&cntr))
    }
}

/// The Atmosphere kernel: machine + pm domain + mem domain + trace.
#[derive(Debug)]
pub struct Kernel {
    /// The simulated machine (cores, meters, cost model, interrupts).
    pub machine: Machine,
    /// The process manager (§4.1) — the pm lock domain.
    pub pm: ProcessManager,
    /// The memory lock domain (allocator, VM, grant/IOMMU tables).
    pub mem: MemDomain,
    /// The boot container.
    pub root_container: CtnrPtr,
    /// The init process.
    pub init_proc: ProcPtr,
    /// The init thread (running on CPU 0 after boot).
    pub init_thread: ThrdPtr,
    /// Device interrupt vector → driver thread to wake (pm domain).
    pub(crate) irq_handlers: BTreeMap<u8, ThrdPtr>,
    /// The tracing subsystem: per-CPU event rings, syscall latency
    /// histograms and subsystem counters (shared with the allocator, pm
    /// and vm, which emit through clones of this handle).
    pub trace: TraceHandle,
    /// The snapshot published by the most recent
    /// [`SyscallArgs::TraceSnapshot`](crate::SyscallArgs::TraceSnapshot)
    /// call (trace state is diagnostic, not part of Ψ).
    pub(crate) last_trace_snapshot: Option<Snapshot>,
}

impl Kernel {
    /// Boots the kernel on a fresh simulated c220g5-class machine.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is unbootable (no CPU, no memory) —
    /// boot failures are fail-stop.
    pub fn boot(cfg: KernelConfig) -> Self {
        let machine = Machine::boot_c220g5(cfg.mem_mib, cfg.ncpus, "");
        let mut alloc = PageAllocator::new(&machine.boot);
        let (pm, root, init_proc, init_thread) =
            ProcessManager::boot(&mut alloc, cfg.ncpus, cfg.root_quota)
                .expect("process-manager boot failed");
        let mut vm = VmSubsystem::new();
        vm.create_space(&mut alloc, pm.proc(init_proc).addr_space)
            .expect("init address space allocation failed");
        // Tracing starts at the end of boot: the sink is created after
        // the boot-time allocations so post-boot counts reconcile with
        // issued syscalls, then shared with every emitting subsystem.
        let trace = TraceSink::new(cfg.ncpus, DEFAULT_RING_CAPACITY);
        let freq_hz = machine.profile.freq_hz;
        alloc.attach_trace(trace.clone());
        let mut pm = pm;
        pm.attach_trace(trace.clone());
        vm.attach_trace(trace.clone());
        Kernel {
            machine,
            pm,
            mem: MemDomain {
                alloc,
                vm,
                pending_grants: BTreeMap::new(),
                iommu_owner: BTreeMap::new(),
                iommu_access: BTreeMap::new(),
                blk: crate::blk::BlkState::new(freq_hz),
            },
            root_container: root,
            init_proc,
            init_thread,
            irq_handlers: BTreeMap::new(),
            trace,
            last_trace_snapshot: None,
        }
    }

    /// `true` when `cntr` may operate on IOMMU `domain`.
    pub fn iommu_authorized(&self, domain: u32, cntr: CtnrPtr) -> bool {
        self.mem.iommu_authorized(domain, cntr)
    }

    /// Charges `cost` cycles to `cpu`'s meter.
    pub fn charge(&mut self, cpu: usize, cost: u64) {
        self.machine.meter(cpu).charge(cost);
    }

    /// Cycle count of `cpu`'s meter.
    pub fn cycles(&self, cpu: usize) -> u64 {
        self.machine.cores[cpu].meter.now()
    }

    /// Builds a coherent merged trace snapshot (rings, histograms,
    /// counters across all CPUs).
    pub fn trace_snapshot(&self) -> Snapshot {
        self.trace.snapshot()
    }

    /// Takes the snapshot published by the most recent
    /// `TraceSnapshot` syscall, if any.
    pub fn take_trace_snapshot(&mut self) -> Option<Snapshot> {
        self.last_trace_snapshot.take()
    }

    /// Projects the abstract kernel state Ψ.
    pub fn view(&self) -> AbstractKernel {
        let (free_4k, allocated, mapped) = self.mem.alloc.free_allocated_mapped();
        AbstractKernel {
            pm: self.pm.view(),
            spaces: self.mem.vm.view(),
            free_4k,
            allocated,
            mapped,
        }
    }
}

/// The big-lock multiprocessor kernel (§3): every system call and
/// interrupt acquires one global lock, so kernel code runs strictly
/// serialized even when issued from many simulated CPUs concurrently.
///
/// Kept as the baseline the sharded [`SmpKernel`](crate::smp::SmpKernel)
/// is measured against: [`syscall`](BigLockKernel::syscall) models the
/// serialization in *modeled cycles* too, so the `repro-smp-scaling`
/// benchmark can compare modeled aggregate throughput on any host.
pub struct BigLockKernel {
    inner: Mutex<Kernel>,
    /// Modeled cycle count at which the big lock was last released; the
    /// next [`syscall`](Self::syscall) cannot start before it.
    lock_time: AtomicU64,
}

impl BigLockKernel {
    /// Wraps a booted kernel behind the big lock.
    pub fn new(kernel: Kernel) -> Self {
        BigLockKernel {
            inner: Mutex::new(kernel),
            lock_time: AtomicU64::new(0),
        }
    }

    /// Executes `f` under the big lock, as a trap handler on `cpu` would.
    pub fn with_kernel<R>(&self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        // A panic under the big lock is a kernel bug; later entries
        // continue against the poisoned-but-consistent state, matching
        // the fail-stop reading of the paper's verified kernel.
        let mut guard = lock_recovering(&self.inner);
        f(&mut guard)
    }

    /// A system call through the big lock, with the serialization made
    /// visible to the modeled clock: `cpu`'s meter is advanced to the
    /// lock's last modeled release time before the handler runs, exactly
    /// as a core spinning on the global lock would burn cycles until the
    /// holder exits.
    pub fn syscall(&self, cpu: CpuId, args: SyscallArgs) -> SyscallReturn {
        let mut guard = lock_recovering(&self.inner);
        let k = &mut *guard;
        k.machine
            .meter(cpu)
            .sync_to(self.lock_time.load(Ordering::Acquire));
        let ret = k.syscall(cpu, args);
        self.lock_time.fetch_max(k.cycles(cpu), Ordering::AcqRel);
        ret
    }

    /// Aggregates the per-CPU trace rings into one coherent merged
    /// snapshot, taken under the big lock so no event is lost or
    /// double-counted while merging.
    pub fn trace_snapshot(&self) -> Snapshot {
        self.with_kernel(|k| k.trace_snapshot())
    }

    /// Consumes the wrapper, returning the kernel.
    pub fn into_inner(self) -> Kernel {
        into_inner_recovering(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_spec::harness::Invariant;

    #[test]
    fn boot_produces_running_init_thread() {
        let k = Kernel::boot(KernelConfig::default());
        assert_eq!(k.pm.sched.current(0), Some(k.init_thread));
        assert!(k.pm.wf().is_ok());
        assert!(k.mem.vm.wf().is_ok());
        assert_eq!(k.mem.vm.spaces().len(), 1);
    }

    #[test]
    fn view_is_reproducible() {
        let k = Kernel::boot(KernelConfig::default());
        assert_eq!(k.view(), k.view());
    }

    #[test]
    fn two_boots_are_deterministic() {
        // Determinism underpins the output-consistency proof (§4.3).
        let a = Kernel::boot(KernelConfig::default());
        let b = Kernel::boot(KernelConfig::default());
        assert_eq!(a.view(), b.view());
    }

    #[test]
    fn single_page_calls_skip_the_batch_machinery() {
        // Below BATCH_MIN_PAGES the per-page body runs even with
        // batching on: the cycle charge matches the batch-off kernel
        // exactly (the Table 3 anchor relies on this) and no batch
        // telemetry is emitted. From the threshold on, the batched body
        // kicks in and is strictly cheaper.
        let run = |batch: bool, len: usize| {
            let mut k = Kernel::boot(KernelConfig::default());
            k.mem.vm.set_batch(batch);
            let warm = k.syscall(
                0,
                SyscallArgs::Mmap {
                    va_base: 0x40_0000,
                    len: 1,
                    writable: true,
                },
            );
            assert!(warm.is_ok());
            let start = k.cycles(0);
            let r = k.syscall(
                0,
                SyscallArgs::Mmap {
                    va_base: 0x50_0000,
                    len,
                    writable: true,
                },
            );
            assert!(r.is_ok());
            let mid = k.cycles(0);
            let r = k.syscall(
                0,
                SyscallArgs::Munmap {
                    va_base: 0x50_0000,
                    len,
                },
            );
            assert!(r.is_ok());
            let vm = k.trace_snapshot().counters.vm;
            (mid - start, k.cycles(0) - mid, vm)
        };
        let (map_off, unmap_off, _) = run(false, 1);
        let (map_on, unmap_on, vm) = run(true, 1);
        assert_eq!(map_on, map_off, "1-page mmap must take the per-page body");
        assert_eq!(unmap_on, unmap_off, "1-page munmap too");
        assert_eq!(vm.map_batch_hits, 0);
        assert_eq!(vm.tlb_shootdowns_deferred, 0);

        let (map_off2, unmap_off2, _) = run(false, crate::syscall::BATCH_MIN_PAGES);
        let (map_on2, unmap_on2, vm2) = run(true, crate::syscall::BATCH_MIN_PAGES);
        assert!(map_on2 < map_off2, "{map_on2} vs {map_off2}");
        assert!(unmap_on2 < unmap_off2, "{unmap_on2} vs {unmap_off2}");
        assert!(vm2.map_batch_hits > 0);
        assert!(vm2.tlb_shootdowns_flushed == vm2.tlb_shootdowns_deferred);
    }

    #[test]
    fn big_lock_serializes_access() {
        use std::sync::Arc;
        let smp = Arc::new(BigLockKernel::new(Kernel::boot(KernelConfig::default())));
        let mut handles = Vec::new();
        for cpu in 0..4 {
            let smp = Arc::clone(&smp);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    smp.with_kernel(|k| k.charge(cpu, 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let k = Arc::try_unwrap(smp).ok().unwrap().into_inner();
        for cpu in 0..4 {
            assert_eq!(k.cycles(cpu), 100);
        }
    }

    #[test]
    fn big_lock_syscalls_serialize_in_modeled_time() {
        let smp = BigLockKernel::new(Kernel::boot(KernelConfig::default()));
        let a = smp.syscall(0, SyscallArgs::Yield);
        assert!(a.is_ok());
        let before = smp.with_kernel(|k| k.cycles(1));
        assert_eq!(before, 0);
        // CPU 1 has no current thread after boot; the call errors but
        // still pays the modeled lock serialization + entry cost.
        let _ = smp.syscall(1, SyscallArgs::Yield);
        let (c0, c1) = smp.with_kernel(|k| (k.cycles(0), k.cycles(1)));
        assert!(
            c1 > c0,
            "CPU 1's syscall must start after CPU 0's modeled release ({c1} vs {c0})"
        );
    }
}
