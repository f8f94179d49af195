//! Process trees (fork-style child processes), thread exit, and IPC edge
//! cases: endpoint queue overflow, descriptor-table exhaustion, and grant
//! drops, and handing a CPU to a child container.

use atmosphere::kernel::refine::audited_syscall;
use atmosphere::kernel::{Kernel, KernelConfig, SmpKernel, SyscallArgs, SyscallError};
use atmosphere::pm::types::MAX_ENDPOINT_SLOTS;
use atmosphere::spec::harness::Invariant;

fn ok(k: &mut Kernel, cpu: usize, args: SyscallArgs) -> u64 {
    let (ret, audit) = audited_syscall(k, cpu, args.clone());
    audit.unwrap_or_else(|e| panic!("{args:?}: {e}"));
    assert!(ret.is_ok(), "{args:?} failed: {ret:?}");
    ret.val0()
}

#[test]
fn child_process_trees_grow_and_die_together() {
    let mut k = Kernel::boot(KernelConfig::default());
    // init forks a child, which forks a grandchild (same container).
    let child = ok(&mut k, 0, SyscallArgs::NewChildProcess) as usize;
    let t_child = ok(
        &mut k,
        0,
        SyscallArgs::NewThread {
            proc: child,
            cpu: 0,
        },
    ) as usize;
    k.pm.timer_tick(0);
    while k.pm.sched.current(0) != Some(t_child) {
        k.pm.timer_tick(0);
    }
    let grandchild = ok(&mut k, 0, SyscallArgs::NewChildProcess) as usize;
    assert_eq!(k.pm.proc(grandchild).parent, Some(child));
    assert!(k.pm.proc(child).children.contains(&grandchild));
    assert!(k.wf().is_ok(), "{:?}", k.wf());

    // Terminating the child takes the grandchild with it.
    k.pm.timer_tick(0); // give init the CPU back
    while k.pm.sched.current(0) != Some(k.init_thread) {
        k.pm.timer_tick(0);
    }
    ok(&mut k, 0, SyscallArgs::TerminateProcess { proc: child });
    assert!(!k.pm.proc_perms.contains(child));
    assert!(!k.pm.proc_perms.contains(grandchild));
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}

#[test]
fn exit_terminates_only_the_calling_thread() {
    let mut k = Kernel::boot(KernelConfig::default());
    let init_proc = k.init_proc;
    let t2 = ok(
        &mut k,
        0,
        SyscallArgs::NewThread {
            proc: init_proc,
            cpu: 0,
        },
    ) as usize;

    // t2 runs and exits.
    k.pm.timer_tick(0);
    assert_eq!(k.pm.sched.current(0), Some(t2));
    let ret = k.syscall(0, SyscallArgs::Exit);
    assert!(ret.is_ok());
    assert!(!k.pm.thrd_perms.contains(t2));
    // The CPU fell back to init.
    assert_eq!(k.pm.sched.current(0), Some(k.init_thread));
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}

#[test]
fn descriptor_table_exhaustion() {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: 1,
        root_quota: 2048,
    });
    for slot in 0..MAX_ENDPOINT_SLOTS {
        ok(&mut k, 0, SyscallArgs::NewEndpoint { slot });
    }
    // Every slot taken: both an occupied slot and an out-of-range slot
    // are rejected as invalid.
    for slot in [0, MAX_ENDPOINT_SLOTS] {
        let (ret, audit) = audited_syscall(&mut k, 0, SyscallArgs::NewEndpoint { slot });
        assert_eq!(ret.result, Err(SyscallError::Invalid));
        audit.unwrap();
    }
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}

#[test]
fn endpoint_grant_to_full_table_is_dropped_not_leaked() {
    let mut k = Kernel::boot(KernelConfig::default());
    let init_proc = k.init_proc;
    let t2 = ok(
        &mut k,
        0,
        SyscallArgs::NewThread {
            proc: init_proc,
            cpu: 1,
        },
    ) as usize;
    // Fill t2's descriptor table completely.
    let e0 = ok(&mut k, 0, SyscallArgs::NewEndpoint { slot: 0 }) as usize;
    for slot in 0..MAX_ENDPOINT_SLOTS {
        k.pm.install_descriptor(t2, slot, e0).unwrap();
    }
    let refs_before = k.pm.edpt(e0).refcount;

    // Send t2 another endpoint grant; there is no free slot, so the grant
    // must be dropped without corrupting refcounts.
    let e1 = ok(&mut k, 0, SyscallArgs::NewEndpoint { slot: 1 }) as usize;
    k.pm.timer_tick(1);
    let (ret, _) = audited_syscall(&mut k, 1, SyscallArgs::Recv { slot: 0 });
    assert!(ret.is_ok());
    let (ret, audit) = audited_syscall(
        &mut k,
        0,
        SyscallArgs::Send {
            slot: 1,
            scalars: [0; 4],
            grant_page_va: None,
            grant_endpoint_slot: Some(1),
            grant_iommu_domain: None,
        },
    );
    assert!(ret.is_ok(), "{ret:?}");
    audit.unwrap();
    assert_eq!(k.pm.edpt(e1).refcount, 1, "dropped grant adds no reference");
    assert_eq!(k.pm.edpt(e0).refcount, refs_before);
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}

#[test]
fn endpoint_queue_overflow_reports_capacity() {
    use atmosphere::pm::types::MAX_ENDPOINT_QUEUE;
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: 1,
        root_quota: 2048,
    });
    let init_proc = k.init_proc;
    let e = ok(&mut k, 0, SyscallArgs::NewEndpoint { slot: 0 }) as usize;

    // Spawn enough threads to overflow the endpoint's sender queue; each
    // blocks sending on the shared endpoint. Threads are spread across
    // child processes (a process holds at most MAX_PROC_THREADS threads).
    let n = MAX_ENDPOINT_QUEUE + 2;
    let mut threads = Vec::new();
    let mut proc = ok(&mut k, 0, SyscallArgs::NewChildProcess) as usize;
    let mut in_proc = 0;
    for _ in 0..n {
        if in_proc == 12 {
            proc = ok(&mut k, 0, SyscallArgs::NewChildProcess) as usize;
            in_proc = 0;
        }
        let t = ok(&mut k, 0, SyscallArgs::NewThread { proc, cpu: 0 }) as usize;
        k.pm.install_descriptor(t, 0, e).unwrap();
        threads.push(t);
        in_proc += 1;
    }
    let _ = init_proc;
    let mut full_seen = false;
    for _ in 0..4 * n {
        // Rotate until some spawned thread is current, then let it send.
        let cur = k.pm.timer_tick(0).unwrap();
        if cur == k.init_thread {
            continue;
        }
        let ret = k.syscall(
            0,
            SyscallArgs::Send {
                slot: 0,
                scalars: [1, 0, 0, 0],
                grant_page_va: None,
                grant_endpoint_slot: None,
                grant_iommu_domain: None,
            },
        );
        if ret.result == Err(SyscallError::Capacity) {
            full_seen = true;
            break;
        }
    }
    assert!(full_seen, "queue overflow surfaced as Capacity");
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}

/// Boots 2 CPUs, homes a root thread on CPU 1 (parked in `Recv` when
/// `blocked`), then asks to hand CPU 1 to a new child container. The
/// call must fail and change nothing: otherwise the thread runs, now or
/// once woken, on a CPU its container no longer owns. `flat` drives the
/// flat kernel through `audited_syscall`, else the sharded kernel.
fn busy_cpu_handoff_is_refused(flat: bool, blocked: bool) {
    let k = SmpKernel::new(Kernel::boot(KernelConfig {
        mem_mib: 32,
        ncpus: 2,
        root_quota: 512,
    }));
    let call = |cpu: usize, args: SyscallArgs| {
        if !flat {
            return k.syscall(cpu, args);
        }
        k.with_kernel(|k| {
            let (ret, audit) = audited_syscall(k, cpu, args.clone());
            audit.unwrap_or_else(|e| panic!("{args:?}: {e}"));
            ret
        })
    };
    let e = call(0, SyscallArgs::NewEndpoint { slot: 0 }).val0() as usize;
    let proc = k.init_proc();
    let t1 = call(0, SyscallArgs::NewThread { proc, cpu: 1 }).val0() as usize;
    if blocked {
        k.with_kernel(|k| {
            k.pm.timer_tick(1);
            k.pm.install_descriptor(t1, 0, e).unwrap();
        });
        assert!(call(1, SyscallArgs::Recv { slot: 0 }).is_ok());
    }
    let ret = call(0, "newcontainer 8 1".parse().unwrap());
    assert_eq!(ret.result, Err(SyscallError::WrongState));
    if blocked {
        let send = "send 0 1".parse().unwrap();
        assert!(call(0, send).is_ok(), "the send wakes t1 on CPU 1");
    }
    let audit = k.audit_total_wf();
    assert!(audit.is_ok(), "{audit:?}");
}

#[test]
fn new_container_refuses_a_cpu_hosting_a_ready_thread() {
    busy_cpu_handoff_is_refused(true, false);
    busy_cpu_handoff_is_refused(false, false);
}

#[test]
fn new_container_refuses_a_cpu_hosting_a_blocked_thread() {
    busy_cpu_handoff_is_refused(true, true);
    busy_cpu_handoff_is_refused(false, true);
}
