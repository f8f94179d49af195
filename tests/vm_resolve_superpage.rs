//! `VmResolve` under superpages: an address inside a transparently
//! promoted 512-page run, inside an explicit `MmapHuge2M` mapping, or in
//! the surviving part of a demoted run is mapped, and the locked handler
//! (`Kernel`, `SmpKernel` without replication) and the replica-served read
//! (`SmpKernel` with node replication) give the same answers.

use atmosphere::hw::{PAGE_SIZE_2M, PAGE_SIZE_4K};
use atmosphere::kernel::{Kernel, KernelConfig, SmpKernel, SyscallArgs, SyscallReturn};
use atmosphere::spec::harness::Invariant;
use atmosphere::trace::Snapshot;

/// 2 MiB-aligned base of the 512-page `Mmap` run (promoted on the way in).
const RUN: usize = 0x4000_0000;
/// Base of the explicit read-only superpage.
const HUGE: usize = 0x5000_0000;

fn boot() -> Kernel {
    Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: 2,
        root_quota: 4096,
    })
}

/// Drives the scenario through `sys` (the init thread's syscalls on CPU 0)
/// and checks every `VmResolve` answer along the way.
fn scenario(sys: impl FnMut(SyscallArgs) -> SyscallReturn) {
    let sys = std::cell::RefCell::new(sys);
    let ok = |args: SyscallArgs| {
        let ret = (sys.borrow_mut())(args.clone());
        ret.result
            .unwrap_or_else(|e| panic!("{args:?} failed: {e:?}"))
    };
    let resolve = |va: usize| ok(SyscallArgs::VmResolve { va });
    const MAPPED_RW: [u64; 4] = [1, 1, 0, 0];
    const MAPPED_RO: [u64; 4] = [1, 0, 0, 0];
    const UNMAPPED: [u64; 4] = [0, 0, 0, 0];
    let page = |i: usize| RUN + i * PAGE_SIZE_4K;

    // A promoted run: one Size2M entry, no 4 KiB entries.
    assert_eq!(resolve(RUN), UNMAPPED);
    ok(SyscallArgs::Mmap {
        va_base: RUN,
        len: 512,
        writable: true,
    });
    assert_eq!(resolve(RUN), MAPPED_RW);
    assert_eq!(resolve(page(5) + 0x123), MAPPED_RW);
    assert_eq!(resolve(page(511) + 0xfff), MAPPED_RW);
    assert_eq!(resolve(RUN + PAGE_SIZE_2M), UNMAPPED);
    assert_eq!(resolve(RUN - 1), UNMAPPED);

    // An explicit superpage.
    ok(SyscallArgs::MmapHuge2M {
        va_base: HUGE,
        writable: false,
    });
    assert_eq!(resolve(HUGE), MAPPED_RO);
    assert_eq!(resolve(HUGE + 0x12_3456), MAPPED_RO);
    assert_eq!(resolve(HUGE + PAGE_SIZE_2M), UNMAPPED);

    // A partial unmap demotes the run: 509 pages survive as 4 KiB entries.
    ok(SyscallArgs::Munmap {
        va_base: page(4),
        len: 3,
    });
    for i in [0, 3, 7, 300, 511] {
        assert_eq!(resolve(page(i) + 0x10), MAPPED_RW, "page {i} survives");
    }
    for i in 4..7 {
        assert_eq!(resolve(page(i)), UNMAPPED, "page {i} was unmapped");
    }

    ok(SyscallArgs::MunmapHuge2M { va_base: HUGE });
    assert_eq!(resolve(HUGE + 0x12_3456), UNMAPPED);
    assert_eq!(resolve(page(300)), MAPPED_RW);
}

/// The scenario must have gone through the paths it is named after.
fn assert_promoted_and_demoted_once(snap: &Snapshot) {
    assert_eq!(snap.counters.vm.superpage_promotions, 1);
    assert_eq!(snap.counters.vm.superpage_demotions, 1);
}

#[test]
fn locked_handler_resolves_through_superpages() {
    let mut k = boot();
    scenario(|args| k.syscall(0, args));
    assert_promoted_and_demoted_once(&k.trace_snapshot());
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}

#[test]
fn sharded_kernel_resolves_through_superpages_without_replication() {
    let k = SmpKernel::new(boot());
    scenario(|args| k.syscall(0, args));
    assert_promoted_and_demoted_once(&k.trace_snapshot());
    let audit = k.audit_total_wf();
    assert!(audit.is_ok(), "{audit:?}");
}

#[test]
fn replica_read_resolves_through_superpages() {
    let k = SmpKernel::new(boot());
    k.enable_nr();
    scenario(|args| k.syscall(0, args));
    let snap = k.trace_snapshot();
    assert_promoted_and_demoted_once(&snap);
    assert!(
        snap.counters.nr.read_local > 0,
        "reads were served by the replica"
    );
    // The epoch audit compares every replica with Ψ itself.
    let audit = k.audit_total_wf();
    assert!(audit.is_ok(), "{audit:?}");
}

#[test]
fn replica_projection_covers_superpages_mapped_before_replication_started() {
    let mut flat = boot();
    let ret = flat.syscall(
        0,
        SyscallArgs::Mmap {
            va_base: RUN,
            len: 512,
            writable: true,
        },
    );
    assert!(ret.is_ok(), "{ret:?}");
    let k = SmpKernel::new(flat);
    k.enable_nr();
    let ret = k.syscall(0, SyscallArgs::VmResolve { va: RUN + 0x5000 });
    assert_eq!(ret.result, Ok([1, 1, 0, 0]));
}
