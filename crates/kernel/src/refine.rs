//! The refinement and well-formedness harness.
//!
//! The paper proves two theorems (§4): *well-formedness* — `total_wf(Ψ')`
//! holds after every transition — and *refinement* — each transition
//! satisfies its abstract specification. [`audited_syscall`] is the
//! executable form: it snapshots Ψ, executes the system call, re-checks
//! `total_wf`, and validates the transition against the matching
//! specification from [`crate::spec`].
//!
//! `total_wf` itself lives here too: it conjoins the process manager's
//! and VM subsystem's invariants with the two *kernel-wide* memory
//! equations of §4.2:
//!
//! 1. **safety** — the page closures of the process manager and the VM
//!    subsystem are disjoint, and their union is exactly the allocator's
//!    `allocated` set;
//! 2. **leak freedom** — every frame the allocator says is `mapped` is
//!    mapped by at least one address space, and vice versa.

use atmo_mem::PageClosure;
use atmo_pm::{ProcessManager, ThreadState};
use atmo_spec::harness::{check, check_eqn, Invariant, VerifResult};
use atmo_trace::TraceHandle;

use crate::abs::{AbstractKernel, Writes};
use crate::kernel::{Kernel, MemDomain};
use crate::spec::{self, Step};
use crate::syscall::{SyscallArgs, SyscallReturn};

/// The pm domain's own well-formedness (restated per-domain for the
/// sharded kernel: it holds under the pm lock alone).
pub fn pm_domain_wf(pm: &ProcessManager) -> VerifResult {
    pm.wf()
}

/// The mem domain's own well-formedness: the VM subsystem's closure
/// hierarchy and the allocator's page-state invariant. Holds under the
/// mem lock alone.
pub fn mem_domain_wf(mem: &MemDomain) -> VerifResult {
    mem.vm.wf()?;
    mem.alloc.wf()?;
    // The block queue pairs live in the mem domain (their entries are
    // validated against the IOMMU tables): completion order, capacity,
    // cookie distinctness and the submit/reap ledger audit with it.
    mem.blk.wf()
}

/// The cross-domain equations of §4.2 — these quantify over *both*
/// domains at once, so the sharded kernel can only establish them with
/// every domain lock held and every per-CPU page cache drained (the
/// stop-the-world `total_wf` audit).
pub fn cross_domain_wf(pm: &ProcessManager, mem: &MemDomain) -> VerifResult {
    // Safety: kernel objects and table frames partition `allocated`.
    let pm_closure = pm.page_closure();
    let vm_closure = mem.vm.page_closure();
    check_eqn(
        pm_closure.disjoint(&vm_closure),
        "kernel_memory",
        "pm+mem",
        "closure-partition",
        "process-manager and VM closures overlap",
    )?;
    check_eqn(
        pm_closure.union(&vm_closure) == mem.alloc.allocated_pages(),
        "kernel_memory",
        "pm+mem",
        "closure-partition",
        "subsystem closures do not cover exactly the allocated pages (leak or corruption)",
    )?;

    // Every live process has exactly its own address space.
    let proc_spaces: atmo_spec::Set<usize> = pm
        .proc_perms
        .iter()
        .map(|(_, p)| p.value().addr_space)
        .collect();
    check_eqn(
        proc_spaces == mem.vm.spaces(),
        "kernel_memory",
        "pm+mem",
        "space-bijection",
        "process address spaces and VM spaces diverge",
    )?;

    // Leak freedom for user frames: the allocator's mapped heads are
    // exactly the frames referenced by some address space or an
    // in-flight grant.
    let mut referenced = atmo_spec::Set::empty();
    for id in mem.vm.spaces().iter() {
        referenced.union_mut(&mem.vm.table(*id).expect("space").mapped_frames());
    }
    for (_t, frame) in mem.pending_grants.iter() {
        referenced.insert_mut(*frame);
    }
    // DMA-visible frames hold IOMMU references.
    referenced.union_mut(&mem.vm.iommu.mapped_frames());
    // In-flight grants inside IPC buffers also hold references.
    for (_t, perm) in pm.thrd_perms.iter() {
        if let Some(p) = perm.value().ipc_buf {
            if let Some(frame) = p.page_grant {
                referenced.insert_mut(frame);
            }
        }
    }
    check_eqn(
        referenced == mem.alloc.mapped_pages(),
        "kernel_memory",
        "pm+mem",
        "leak-freedom",
        "mapped frames and address-space references diverge (leak)",
    )
}

/// Fastpath refinement: a successful direct-handoff `Call`/`ReplyRecv`
/// must land in a state the slow rendezvous also reaches — the shared
/// IPC population spec holds, and additionally the fast path satisfies
/// a *stronger* frame than the slow one: only the two rendezvous
/// participants and the endpoint the caller parks on changed at all (the
/// slow path may additionally dispatch a ready-queue thread; the
/// scheduler has that liberty), the partner ends up running, and the
/// caller ends up parked in a blocked IPC state. Together with
/// [`pm_domain_wf`] after the transition, this is the executable form of
/// "fast and slow paths map to the same abstract send/recv transitions".
pub fn fastpath_refines_rendezvous(
    pre: &AbstractKernel,
    post: &AbstractKernel,
    t: usize,
    partner: usize,
) -> bool {
    let (Some(post_t), Some(post_p)) = (post.get_thread(t), post.get_thread(partner)) else {
        return false;
    };
    let (ThreadState::BlockedReply(e) | ThreadState::BlockedRecv(e)) = post_t.state else {
        return false;
    };
    let mut handoff = Writes::new(pre);
    handoff.threads([t, partner]);
    handoff.endpoints([e]);
    spec::syscall_ipc_population_spec(pre, post)
        && handoff.check(post).is_ok()
        && matches!(post_p.state, ThreadState::Running(_))
}

/// Crash-recovery refinement for the log-structured store (§4.3's
/// refinement discipline applied to persistence): the entries a store
/// reports after replaying a (possibly torn) crash image must be
/// exactly the abstract map over the *committed prefix* of operations —
/// every committed operation survives, and no torn record surfaces.
///
/// The kernel sees only the abstract shapes (`atmo-spec`'s
/// [`atmo_spec::storage::AbstractKv`]); the concrete store under test
/// supplies its recovered entries, the workload harness supplies the
/// committed-prefix ops.
pub fn recovery_refines(
    committed: &atmo_spec::storage::AbstractKv,
    recovered: &[(Vec<u8>, Vec<u8>)],
) -> VerifResult {
    let rebuilt = atmo_spec::storage::AbstractKv::from_entries(recovered);
    check(
        rebuilt.len() == recovered.len(),
        "recovery",
        "recovered entries contain a duplicate key",
    )?;
    check(
        &rebuilt == committed,
        "recovery",
        format_args!(
            "recovered state ({} entries) diverges from the committed abstract map ({} entries)",
            rebuilt.len(),
            committed.len()
        ),
    )
}

/// `total_wf` over the assembled parts: per-domain invariants, the
/// cross-domain memory equations, and the trace subsystem's coherence.
/// This is what the sharded kernel's stop-the-world audit evaluates
/// after draining every per-CPU page cache.
pub fn total_wf_parts(pm: &ProcessManager, mem: &MemDomain, trace: &TraceHandle) -> VerifResult {
    pm_domain_wf(pm)?;
    mem_domain_wf(mem)?;
    cross_domain_wf(pm, mem)?;
    // The trace subsystem audits like any other: coherent rings,
    // histogram/counter reconciliation, monotone counters.
    atmo_trace::trace_wf(trace)
}

impl Invariant for Kernel {
    /// The kernel's `total_wf()` (Listing 1 line 31).
    fn wf(&self) -> VerifResult {
        total_wf_parts(&self.pm, &self.mem, &self.trace)
    }
}

/// Executes a system call under full audit: snapshots Ψ, runs the call,
/// asserts `total_wf(Ψ')`, checks that the call wrote nothing its row
/// does not declare, and checks the transition specification for the
/// given arguments. Returns the syscall result and the audit verdict.
///
/// Ψ's page sets are the allocator's maintained views, so the pre-state's
/// are checked against its page array (equation `views-exact`) before Ψ is
/// read; `total_wf(Ψ')` checks the post-state's.
pub fn audited_syscall(
    k: &mut Kernel,
    cpu: usize,
    args: SyscallArgs,
) -> (SyscallReturn, VerifResult) {
    let pre_views = k.mem.alloc.views_exact();
    let pre = k.view();
    let t = k.pm.sched.current(cpu).unwrap_or(0);
    let ret = k.syscall(cpu, args.clone());
    let audit = (|| -> VerifResult {
        pre_views?;
        k.wf()?;
        let post = k.view();
        let step = Step {
            pre: &pre,
            post: &post,
            t,
            ret: &ret,
        };
        match args.spec_holds(step) {
            Err(write) => check(
                false,
                "refinement",
                format_args!("{args:?} wrote {write} outside its declared writes"),
            ),
            Ok(holds) => check(
                holds,
                "refinement",
                format_args!("transition `{args:?}` violates its specification"),
            ),
        }
    })();
    (ret, audit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelConfig;

    #[test]
    fn boot_state_is_totally_wf() {
        let k = Kernel::boot(KernelConfig::default());
        assert!(k.wf().is_ok(), "{:?}", k.wf());
    }

    #[test]
    fn audited_mmap_munmap_cycle() {
        let mut k = Kernel::boot(KernelConfig::default());
        let (ret, audit) = audited_syscall(
            &mut k,
            0,
            SyscallArgs::Mmap {
                va_base: 0x40_0000,
                len: 4,
                writable: true,
            },
        );
        assert!(ret.is_ok());
        assert!(audit.is_ok(), "{audit:?}");

        let (ret, audit) = audited_syscall(
            &mut k,
            0,
            SyscallArgs::Munmap {
                va_base: 0x40_0000,
                len: 4,
            },
        );
        assert!(ret.is_ok());
        assert!(audit.is_ok(), "{audit:?}");
    }

    #[test]
    fn vm_resolve_spec_rejects_a_flipped_writable_bit() {
        let mut k = Kernel::boot(KernelConfig::default());
        let va = 0x40_0000;
        let map = SyscallArgs::Mmap {
            va_base: va,
            len: 1,
            writable: true,
        };
        assert!(k.syscall(0, map).is_ok());
        let args = SyscallArgs::VmResolve { va: va + 0x123 };
        let (ret, audit) = audited_syscall(&mut k, 0, args.clone());
        assert!(audit.is_ok(), "{audit:?}");
        assert_eq!(ret.result, Ok([1, 1, 0, 0]));
        // The mutant: the same transition, reporting the page read-only.
        let psi = k.view();
        let flipped = SyscallReturn::ok([1, 0, 0, 0]);
        let step = |ret| Step {
            pre: &psi,
            post: &psi,
            t: k.init_thread,
            ret,
        };
        assert_eq!(args.spec_holds(step(&ret)), Ok(true));
        assert_eq!(args.spec_holds(step(&flipped)), Ok(false));
    }

    #[test]
    fn audited_container_lifecycle() {
        let mut k = Kernel::boot(KernelConfig::default());
        let (ret, audit) = audited_syscall(
            &mut k,
            0,
            SyscallArgs::NewContainer {
                quota: 64,
                cpus: vec![1],
            },
        );
        assert!(ret.is_ok());
        assert!(audit.is_ok(), "{audit:?}");
        let child = ret.val0() as usize;

        let (ret, audit) =
            audited_syscall(&mut k, 0, SyscallArgs::TerminateContainer { cntr: child });
        assert!(ret.is_ok());
        assert!(audit.is_ok(), "{audit:?}");
    }

    #[test]
    fn audited_error_paths_are_noops() {
        let mut k = Kernel::boot(KernelConfig::default());
        for args in [
            SyscallArgs::Mmap {
                va_base: 0x123, // unaligned
                len: 1,
                writable: true,
            },
            SyscallArgs::Munmap {
                va_base: 0x40_0000, // not mapped
                len: 1,
            },
            SyscallArgs::NewContainer {
                quota: 1 << 40, // exceeds quota
                cpus: vec![],
            },
            SyscallArgs::NewContainer {
                quota: usize::MAX, // its object page overflows the charge
                cpus: vec![],
            },
            SyscallArgs::TerminateContainer { cntr: 0xdead },
            SyscallArgs::Reply { scalars: [0; 4] }, // nothing to reply to
            SyscallArgs::TakeMsg,                   // no message
        ] {
            let (ret, audit) = audited_syscall(&mut k, 0, args.clone());
            assert!(!ret.is_ok(), "{args:?} unexpectedly succeeded");
            assert!(audit.is_ok(), "{args:?}: {audit:?}");
        }
    }

    #[test]
    fn audited_endpoint_creation() {
        let mut k = Kernel::boot(KernelConfig::default());
        let (ret, audit) = audited_syscall(&mut k, 0, SyscallArgs::NewEndpoint { slot: 2 });
        assert!(ret.is_ok());
        assert!(audit.is_ok(), "{audit:?}");
    }

    #[test]
    fn audited_yield() {
        let mut k = Kernel::boot(KernelConfig::default());
        let (ret, audit) = audited_syscall(&mut k, 0, SyscallArgs::Yield);
        assert!(ret.is_ok());
        assert!(audit.is_ok(), "{audit:?}");
    }

    #[test]
    fn audited_fastpath_call_and_reply_recv() {
        // Drives a full client/server exchange through the audit: the
        // direct-handoff Call and the combined ReplyRecv must both pass
        // `total_wf` *and* `fastpath_refines_rendezvous`.
        let mut k = Kernel::boot(KernelConfig::default());
        let t1 = k.init_thread;
        let (ret, audit) = audited_syscall(&mut k, 0, SyscallArgs::NewEndpoint { slot: 0 });
        assert!(audit.is_ok(), "{audit:?}");
        let e = ret.val0() as usize;
        let init_proc = k.init_proc;
        let (ret, audit) = audited_syscall(
            &mut k,
            0,
            SyscallArgs::NewThread {
                proc: init_proc,
                cpu: 0,
            },
        );
        assert!(audit.is_ok(), "{audit:?}");
        let t2 = ret.val0() as usize;
        k.pm.install_descriptor(t2, 0, e).unwrap();

        // Park t2 as the receiver: t1 recv-blocks (t2 dispatched), t2
        // sends t1 awake, then t2 recv-blocks and t1 runs again.
        let (ret, audit) = audited_syscall(&mut k, 0, SyscallArgs::Recv { slot: 0 });
        assert!(ret.is_ok() && audit.is_ok(), "{audit:?}");
        let (ret, audit) = audited_syscall(
            &mut k,
            0,
            SyscallArgs::Send {
                slot: 0,
                scalars: [0; 4],
                grant_page_va: None,
                grant_endpoint_slot: None,
                grant_iommu_domain: None,
            },
        );
        assert!(ret.is_ok() && audit.is_ok(), "{audit:?}");
        let (ret, audit) = audited_syscall(&mut k, 0, SyscallArgs::Recv { slot: 0 });
        assert!(ret.is_ok() && audit.is_ok(), "{audit:?}");
        assert_eq!(k.pm.sched.current(0), Some(t1));
        let _ = k.syscall(0, SyscallArgs::TakeMsg);

        // The audited fastpath Call: direct handoff to t2.
        let (ret, audit) = audited_syscall(
            &mut k,
            0,
            SyscallArgs::Call {
                slot: 0,
                scalars: [11, 0, 0, 0],
            },
        );
        assert!(ret.is_ok());
        assert_eq!(ret.val0(), 1, "expected the direct handoff");
        assert!(audit.is_ok(), "{audit:?}");
        assert_eq!(k.pm.sched.current(0), Some(t2));
        let _ = k.syscall(0, SyscallArgs::TakeMsg);

        // The audited fastpath ReplyRecv: CPU hands straight back to t1.
        let (ret, audit) = audited_syscall(
            &mut k,
            0,
            SyscallArgs::ReplyRecv {
                slot: 0,
                scalars: [22, 0, 0, 0],
            },
        );
        assert!(ret.is_ok());
        assert_eq!(ret.val0(), 1, "expected the direct handoff");
        assert!(audit.is_ok(), "{audit:?}");
        assert_eq!(k.pm.sched.current(0), Some(t1));
    }
}
