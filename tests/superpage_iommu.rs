//! Superpage mappings and the IOMMU system-call interface (§3, §4.2):
//! 2 MiB user mappings with quota accounting, DMA protection domains,
//! device attachment, DMA-visibility of own memory only, grant of domain
//! identifiers over IPC, and teardown on container termination.

use atmosphere::hw::{VAddr, PAGE_SIZE_2M, PAGE_SIZE_4K};
use atmosphere::kernel::refine::audited_syscall;
use atmosphere::kernel::{BlkOp, Kernel, KernelConfig, SmpKernel, SyscallArgs, SyscallError};
use atmosphere::mem::PageSize;
use atmosphere::spec::harness::Invariant;

fn ok(k: &mut Kernel, cpu: usize, args: SyscallArgs) -> u64 {
    let (ret, audit) = audited_syscall(k, cpu, args.clone());
    audit.unwrap_or_else(|e| panic!("{args:?}: {e}"));
    assert!(ret.is_ok(), "{args:?} failed: {ret:?}");
    ret.val0()
}

/// Runs `args`, expecting a clean `Invalid`: the audit holds the error
/// path to its row's spec, so it wrote nothing.
fn invalid(k: &mut Kernel, cpu: usize, args: SyscallArgs) {
    let (ret, audit) = audited_syscall(k, cpu, args.clone());
    audit.unwrap_or_else(|e| panic!("{args:?}: {e}"));
    assert_eq!(ret.result, Err(SyscallError::Invalid), "{args:?}");
}

#[test]
fn mmap_huge_2m_roundtrip() {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: 1,
        root_quota: 2048,
    });
    let used0 = k.pm.cntr(k.root_container).used;
    ok(
        &mut k,
        0,
        SyscallArgs::MmapHuge2M {
            va_base: 0x4000_0000,
            writable: true,
        },
    );
    assert_eq!(
        k.pm.cntr(k.root_container).used,
        used0 + 512,
        "512 pages charged"
    );

    // An address inside the superpage does not name it.
    let inside = SyscallArgs::MunmapHuge2M {
        va_base: 0x4000_1000,
    };
    invalid(&mut k, 0, inside);
    // The MMU resolves an address inside the superpage.
    let as_id = k.pm.proc(k.init_proc).addr_space;
    let r = k
        .mem
        .vm
        .table(as_id)
        .unwrap()
        .resolve(VAddr(0x4000_5000))
        .unwrap();
    assert_eq!(r.size, atmosphere::hw::PAGE_SIZE_2M);

    ok(
        &mut k,
        0,
        SyscallArgs::MunmapHuge2M {
            va_base: 0x4000_0000,
        },
    );
    assert_eq!(k.pm.cntr(k.root_container).used, used0);
    assert!(k.mem.alloc.mapped_pages().is_empty());
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}

#[test]
fn mmap_huge_rejects_bad_arguments() {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: 1,
        root_quota: 2048,
    });
    // Misaligned base.
    let args = SyscallArgs::MmapHuge2M {
        va_base: 0x4000_1000,
        writable: true,
    };
    invalid(&mut k, 0, args);
    // Quota too small (needs 512 pages).
    let c = ok(
        &mut k,
        0,
        SyscallArgs::NewContainer {
            quota: 64,
            cpus: vec![],
        },
    ) as usize;
    let p = ok(&mut k, 0, SyscallArgs::NewProcess { cntr: c }) as usize;
    ok(&mut k, 0, SyscallArgs::NewThread { proc: p, cpu: 0 });
    k.pm.timer_tick(0);
    let (ret, audit) = audited_syscall(
        &mut k,
        0,
        SyscallArgs::MmapHuge2M {
            va_base: 0x4000_0000,
            writable: true,
        },
    );
    assert_eq!(ret.result, Err(SyscallError::Quota));
    audit.unwrap();
}

#[test]
fn huge_and_small_mappings_coexist() {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: 1,
        root_quota: 2048,
    });
    ok(
        &mut k,
        0,
        SyscallArgs::Mmap {
            va_base: 0x4020_0000,
            len: 2,
            writable: true,
        },
    );
    ok(
        &mut k,
        0,
        SyscallArgs::MmapHuge2M {
            va_base: 0x4040_0000,
            writable: false,
        },
    );
    assert!(k.wf().is_ok(), "{:?}", k.wf());
    // Overlapping 4K map under the superpage conflicts.
    let (ret, _audit) = audited_syscall(
        &mut k,
        0,
        SyscallArgs::Mmap {
            va_base: 0x4040_0000,
            len: 1,
            writable: true,
        },
    );
    assert_eq!(ret.result, Err(SyscallError::Fault));
}

#[test]
fn iommu_dma_visibility_lifecycle() {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: 1,
        root_quota: 2048,
    });
    // Map a page, create a domain, attach a device, expose the page.
    ok(
        &mut k,
        0,
        SyscallArgs::Mmap {
            va_base: 0x4000_0000,
            len: 1,
            writable: true,
        },
    );
    let dom = ok(&mut k, 0, SyscallArgs::IommuCreateDomain) as u32;
    ok(
        &mut k,
        0,
        SyscallArgs::IommuAttach {
            domain: dom,
            device: 7,
        },
    );
    ok(
        &mut k,
        0,
        SyscallArgs::IommuMap {
            domain: dom,
            iova: 0x10_0000,
            va: 0x4000_0000,
        },
    );
    assert!(k.wf().is_ok(), "{:?}", k.wf());
    // A block op inside the pinned page would run its 4 KiB transfer
    // into the unpinned page above, and an unmap there names no page.
    let op = BlkOp {
        cookie: 1,
        iova: 0x10_0800,
        lba: 0,
        write: false,
    };
    let args = SyscallArgs::BlkSubmitBatch {
        queue: 0,
        ops: vec![op],
    };
    invalid(&mut k, 0, args);
    let args = SyscallArgs::IommuUnmap {
        domain: dom,
        iova: 0x10_0123,
    };
    invalid(&mut k, 0, args);

    // The device resolves the IOVA to the process's frame.
    let as_id = k.pm.proc(k.init_proc).addr_space;
    let frame = k
        .mem
        .vm
        .table(as_id)
        .unwrap()
        .map_4k
        .index(&0x4000_0000)
        .unwrap()
        .frame;
    let r = k.mem.vm.iommu.translate(7, VAddr(0x10_0000)).unwrap();
    assert_eq!(r.frame.as_usize(), frame);
    assert_eq!(
        k.mem.alloc.map_refcnt(frame),
        2,
        "process + IOMMU references"
    );

    // Unmapping from the process keeps the DMA mapping alive (the driver
    // still owns the buffer) — no dangling DMA.
    ok(
        &mut k,
        0,
        SyscallArgs::Munmap {
            va_base: 0x4000_0000,
            len: 1,
        },
    );
    assert_eq!(k.mem.alloc.map_refcnt(frame), 1);
    assert!(k.mem.vm.iommu.translate(7, VAddr(0x10_0000)).is_some());
    assert!(k.wf().is_ok(), "{:?}", k.wf());

    // IOMMU unmap releases the last reference.
    ok(
        &mut k,
        0,
        SyscallArgs::IommuUnmap {
            domain: dom,
            iova: 0x10_0000,
        },
    );
    assert!(k.mem.alloc.page_is_free(frame));
    ok(&mut k, 0, SyscallArgs::IommuDetach { device: 7 });
    assert_eq!(k.mem.vm.iommu.translate(7, VAddr(0x10_0000)), None);
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}

#[test]
fn iommu_map_requires_own_mapping() {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: 1,
        root_quota: 2048,
    });
    let dom = ok(&mut k, 0, SyscallArgs::IommuCreateDomain) as u32;
    // The VA is not mapped in the caller's space: Fault.
    let (ret, audit) = audited_syscall(
        &mut k,
        0,
        SyscallArgs::IommuMap {
            domain: dom,
            iova: 0x10_0000,
            va: 0x4000_0000,
        },
    );
    assert_eq!(ret.result, Err(SyscallError::Fault));
    audit.unwrap();
}

#[test]
fn iommu_domain_access_is_container_scoped_until_granted() {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: 2,
        root_quota: 2048,
    });
    let init_proc = k.init_proc;
    // A second container with its own thread.
    let c = ok(
        &mut k,
        0,
        SyscallArgs::NewContainer {
            quota: 64,
            cpus: vec![1],
        },
    ) as usize;
    let p = ok(&mut k, 0, SyscallArgs::NewProcess { cntr: c }) as usize;
    let t2 = ok(&mut k, 0, SyscallArgs::NewThread { proc: p, cpu: 1 }) as usize;
    k.pm.timer_tick(1);

    // Root creates a domain; the child container may not attach devices.
    let dom = ok(&mut k, 0, SyscallArgs::IommuCreateDomain) as u32;
    let (ret, _) = audited_syscall(
        &mut k,
        1,
        SyscallArgs::IommuAttach {
            domain: dom,
            device: 3,
        },
    );
    assert_eq!(ret.result, Err(SyscallError::Denied));

    // Root grants the domain over an endpoint; afterwards the child may.
    let e = ok(&mut k, 0, SyscallArgs::NewEndpoint { slot: 0 }) as usize;
    k.pm.install_descriptor(t2, 0, e).unwrap();
    let (ret, _) = audited_syscall(&mut k, 1, SyscallArgs::Recv { slot: 0 });
    assert!(ret.is_ok());
    ok(
        &mut k,
        0,
        SyscallArgs::Send {
            slot: 0,
            scalars: [0; 4],
            grant_page_va: None,
            grant_endpoint_slot: None,
            grant_iommu_domain: Some(dom),
        },
    );
    let msg = k.syscall(1, SyscallArgs::TakeMsg);
    assert!(msg.is_ok());
    ok(
        &mut k,
        1,
        SyscallArgs::IommuAttach {
            domain: dom,
            device: 3,
        },
    );
    assert!(k.wf().is_ok(), "{:?}", k.wf());
    let _ = init_proc;
}

// ----- transparent 2 MiB promotion on the batched datapath --------------

/// Scratch region for the freelist-aligning filler mapping.
const FILLER_VA: usize = 0x7000_0000;

fn boot_big() -> Kernel {
    Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: 1,
        root_quota: 2048,
    })
}

/// Conditions `k` so its 4 KiB freelist head sits exactly on a fully-free
/// 2 MiB boundary, then maps a 512-page run at `va`. With the batched
/// datapath on, the run promotes to one `Size2M` entry whose frame is the
/// returned head; with it off, the per-page path pops the exact same 512
/// frames in order — which is what makes batched and per-page executions
/// comparable frame-for-frame.
///
/// Returns `(head_frame, filler_pages)`.
fn align_freelist_and_mmap_512(k: &mut Kernel, va: usize) -> (usize, usize) {
    // Warm the upper table levels through a *sibling* 2 MiB region (same
    // L3/L2, different L1): the target's L2 slot must stay empty or the
    // superpage cannot be installed there.
    for base in [va + PAGE_SIZE_2M, FILLER_VA] {
        ok(
            k,
            0,
            SyscallArgs::Mmap {
                va_base: base,
                len: 1,
                writable: true,
            },
        );
        ok(
            k,
            0,
            SyscallArgs::Munmap {
                va_base: base,
                len: 1,
            },
        );
    }
    // First 2 MiB-aligned boundary whose entire run is free.
    let free: std::collections::BTreeSet<usize> = k.mem.alloc.free_pages_4k().iter().collect();
    let lowest = *free.iter().next().expect("free memory");
    let mut head = lowest.next_multiple_of(PAGE_SIZE_2M);
    while !(0..512).all(|i| free.contains(&(head + i * PAGE_SIZE_4K))) {
        head += PAGE_SIZE_2M;
    }
    let filler = free.iter().filter(|&&p| p < head).count();
    if filler > 0 {
        ok(
            k,
            0,
            SyscallArgs::Mmap {
                va_base: FILLER_VA,
                len: filler,
                writable: true,
            },
        );
    }
    assert_eq!(
        k.mem.alloc.free_pages_4k().choose(),
        Some(head),
        "freelist head must sit on the 2 MiB boundary"
    );
    ok(
        k,
        0,
        SyscallArgs::Mmap {
            va_base: va,
            len: 512,
            writable: true,
        },
    );
    (head, filler)
}

#[test]
fn aligned_512_run_promotes_and_full_unmap_returns_frames() {
    let mut k = boot_big();
    let used0 = k.pm.cntr(k.root_container).used;
    let (head, filler) = align_freelist_and_mmap_512(&mut k, 0x4000_0000);

    let as_id = k.pm.proc(k.init_proc).addr_space;
    let pt = k.mem.vm.table(as_id).unwrap();
    let entry = pt.map_2m.index(&0x4000_0000).expect("run promoted to 2M");
    assert_eq!(entry.frame, head, "promotion took the aligned freelist run");
    assert_eq!(
        pt.resolve(VAddr(0x4000_5000)).unwrap().size,
        PAGE_SIZE_2M,
        "MMU sees one superpage"
    );
    assert_eq!(
        k.pm.cntr(k.root_container).used,
        used0 + filler + 512,
        "promotion charges the same 512-page quota as per-page"
    );
    let snap = k.trace_snapshot();
    assert_eq!(snap.counters.vm.superpage_promotions, 1);
    assert!(snap.counters.vm.tlb_shootdowns_deferred >= 512);
    assert!(
        snap.counters.vm.tlb_shootdowns_flushed <= snap.counters.vm.tlb_shootdowns_deferred,
        "trace_wf inequality"
    );
    assert!(k.wf().is_ok(), "{:?}", k.wf());

    // Full unmap demotes, returns all 512 frames and the quota.
    ok(
        &mut k,
        0,
        SyscallArgs::Munmap {
            va_base: 0x4000_0000,
            len: 512,
        },
    );
    assert_eq!(k.trace_snapshot().counters.vm.superpage_demotions, 1);
    assert_eq!(k.pm.cntr(k.root_container).used, used0 + filler);
    if filler > 0 {
        ok(
            &mut k,
            0,
            SyscallArgs::Munmap {
                va_base: FILLER_VA,
                len: filler,
            },
        );
    }
    assert!(k.mem.alloc.mapped_pages().is_empty(), "no frames leaked");
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}

#[test]
fn audits_preserve_promoted_superpage_entries() {
    // Satellite check: running the audit (total_wf, which rebuilds the
    // abstract space from the radix tree) must not regress a promoted
    // `Size2M` entry into 512 `Size4K` entries in the observed view.
    let mut k = boot_big();
    align_freelist_and_mmap_512(&mut k, 0x4000_0000);
    let as_id = k.pm.proc(k.init_proc).addr_space;

    let view_before = k.mem.vm.view();
    assert!(k.wf().is_ok(), "{:?}", k.wf());
    let (ret, audit) = audited_syscall(&mut k, 0, SyscallArgs::Yield);
    assert!(ret.is_ok() && audit.is_ok(), "{audit:?}");
    let view_after = k.mem.vm.view();

    assert_eq!(view_before, view_after, "audits must not mutate the view");
    let space = view_after.index(&as_id).unwrap();
    let (_, size) = space.index(&0x4000_0000).expect("entry survives audits");
    assert_eq!(*size, PageSize::Size2M, "superpage not regressed to 4K");
    assert_eq!(
        space
            .iter()
            .filter(|&(va, _)| (0x4000_0000..0x4020_0000).contains(va))
            .count(),
        1,
        "exactly one entry covers the promoted run"
    );
}

#[test]
fn unaligned_512_run_stays_4k() {
    let mut k = boot_big();
    // 512 pages starting one page past the 2 MiB boundary: no aligned
    // fully-covered window exists, so nothing may promote.
    ok(
        &mut k,
        0,
        SyscallArgs::Mmap {
            va_base: 0x4000_1000,
            len: 512,
            writable: true,
        },
    );
    let as_id = k.pm.proc(k.init_proc).addr_space;
    let pt = k.mem.vm.table(as_id).unwrap();
    assert!(pt.map_2m.is_empty(), "unaligned run must not promote");
    assert_eq!(pt.resolve(VAddr(0x4000_1000)).unwrap().size, PAGE_SIZE_4K);
    let snap = k.trace_snapshot();
    assert_eq!(snap.counters.vm.superpage_promotions, 0);
    assert!(
        snap.counters.vm.map_batch_hits > 0,
        "walk cache still amortizes the fills"
    );
    ok(
        &mut k,
        0,
        SyscallArgs::Munmap {
            va_base: 0x4000_1000,
            len: 512,
        },
    );
    assert!(k.mem.alloc.mapped_pages().is_empty());
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}

#[test]
fn mixed_permission_runs_never_promote() {
    let mut k = boot_big();
    // Two mmaps with different permissions jointly cover an aligned
    // 2 MiB window; promotion only ever applies within a single
    // uniform-permission call, so the window stays 4 KiB.
    ok(
        &mut k,
        0,
        SyscallArgs::Mmap {
            va_base: 0x4000_0000,
            len: 256,
            writable: true,
        },
    );
    ok(
        &mut k,
        0,
        SyscallArgs::Mmap {
            va_base: 0x4010_0000,
            len: 256,
            writable: false,
        },
    );
    let as_id = k.pm.proc(k.init_proc).addr_space;
    let pt = k.mem.vm.table(as_id).unwrap();
    assert!(pt.map_2m.is_empty(), "mixed permissions must not promote");
    assert_eq!(k.trace_snapshot().counters.vm.superpage_promotions, 0);
    let rw = pt.map_4k.index(&0x4000_0000).unwrap().flags;
    let ro = pt.map_4k.index(&0x4010_0000).unwrap().flags;
    assert_ne!(rw, ro, "each half keeps its own permissions");
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}

#[test]
fn partial_unmap_demotes_and_preserves_the_other_511() {
    let mut k = boot_big();
    let (head, _filler) = align_freelist_and_mmap_512(&mut k, 0x4000_0000);
    let as_id = k.pm.proc(k.init_proc).addr_space;
    let used_before = k.pm.cntr(k.root_container).used;

    // Unmap one page in the middle of the promoted run.
    ok(
        &mut k,
        0,
        SyscallArgs::Munmap {
            va_base: 0x4000_5000,
            len: 1,
        },
    );
    assert_eq!(k.trace_snapshot().counters.vm.superpage_demotions, 1);
    assert_eq!(k.pm.cntr(k.root_container).used, used_before - 1);

    let pt = k.mem.vm.table(as_id).unwrap();
    assert!(pt.map_2m.is_empty(), "entry demoted");
    assert!(pt.resolve(VAddr(0x4000_5000)).is_none(), "hole unmapped");
    // The other 511 pages survive with the frames the superpage covered.
    for i in 0..512usize {
        let va = 0x4000_0000 + i * PAGE_SIZE_4K;
        if i == 5 {
            assert!(pt.map_4k.index(&va).is_none());
            continue;
        }
        let e = pt.map_4k.index(&va).unwrap_or_else(|| panic!("page {i}"));
        assert_eq!(e.frame, head + i * PAGE_SIZE_4K, "page {i} keeps its frame");
    }
    assert!(k.wf().is_ok(), "{:?}", k.wf());

    // The remainder unmaps cleanly around the hole.
    ok(
        &mut k,
        0,
        SyscallArgs::Munmap {
            va_base: 0x4000_0000,
            len: 5,
        },
    );
    ok(
        &mut k,
        0,
        SyscallArgs::Munmap {
            va_base: 0x4000_6000,
            len: 506,
        },
    );
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}

/// Runs `Munmap { va_base, len }` on CPU 0 of the flat kernel, expecting
/// `Fault`; returns the modeled cycles it was charged.
fn munmap_fault_cycles(k: &mut Kernel, va_base: usize, len: usize) -> u64 {
    let before = k.cycles(0);
    let r = k.syscall(0, SyscallArgs::Munmap { va_base, len });
    assert_eq!(r.result, Err(SyscallError::Fault), "{va_base:#x}+{len}");
    k.cycles(0) - before
}

#[test]
fn munmap_over_a_hole_faults_with_nothing_touched() {
    let mut k = boot_big();
    let as_id = k.pm.proc(k.init_proc).addr_space;
    let base = 0x1000_0000;
    let args = SyscallArgs::Mmap {
        va_base: base,
        len: 40,
        writable: true,
    };
    ok(&mut k, 0, args);
    let hole = base + 20 * PAGE_SIZE_4K;
    ok(
        &mut k,
        0,
        SyscallArgs::Munmap {
            va_base: hole,
            len: 1,
        },
    );
    let view = k.view();
    let used = k.pm.cntr(k.root_container).used;
    // The charge of a fault no page of which is mapped.
    let unmapped = munmap_fault_cycles(&mut k, 0x2000_0000, 40);

    let charged = munmap_fault_cycles(&mut k, base, 40);
    assert_eq!(charged, unmapped, "no per-page work is charged");
    assert_eq!(k.view(), view);
    assert_eq!(k.pm.cntr(k.root_container).used, used);
    assert_eq!(k.mem.vm.table(as_id).unwrap().pending_shootdowns(), 0);
    assert!(k
        .mem
        .vm
        .table(as_id)
        .unwrap()
        .resolve(VAddr(base))
        .is_some());
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}

/// The hole in front of the promoted run at `0x4000_0000` that
/// [`align_freelist_and_mmap_512`] maps.
const HOLE_PAGES: usize = 4;
const HOLE_VA: usize = 0x4000_0000 - HOLE_PAGES * PAGE_SIZE_4K;

#[test]
fn munmap_over_a_hole_then_a_promoted_run_faults_before_demoting() {
    let mut k = boot_big();
    let (head, _filler) = align_freelist_and_mmap_512(&mut k, 0x4000_0000);
    let as_id = k.pm.proc(k.init_proc).addr_space;
    let view = k.view();
    let map_2m = k.mem.vm.table(as_id).unwrap().map_2m.clone();
    assert_eq!(map_2m.index(&0x4000_0000).map(|e| e.frame), Some(head));
    let unmapped = munmap_fault_cycles(&mut k, 0x2000_0000, HOLE_PAGES + 4);

    let charged = munmap_fault_cycles(&mut k, HOLE_VA, HOLE_PAGES + 4);
    assert_eq!(charged, unmapped);
    assert_eq!(k.trace_snapshot().counters.vm.superpage_demotions, 0);
    assert_eq!(k.mem.vm.table(as_id).unwrap().map_2m, map_2m);
    assert_eq!(k.view(), view);
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}

#[test]
fn munmap_over_a_filled_hole_and_a_promoted_run_demotes_once() {
    let mut k = boot_big();
    align_freelist_and_mmap_512(&mut k, 0x4000_0000);
    let as_id = k.pm.proc(k.init_proc).addr_space;
    let args = SyscallArgs::Mmap {
        va_base: HOLE_VA,
        len: HOLE_PAGES,
        writable: true,
    };
    ok(&mut k, 0, args);
    let used = k.pm.cntr(k.root_container).used;

    let args = SyscallArgs::Munmap {
        va_base: HOLE_VA,
        len: HOLE_PAGES + 4,
    };
    assert_eq!(ok(&mut k, 0, args), (HOLE_PAGES + 4) as u64);
    assert_eq!(k.trace_snapshot().counters.vm.superpage_demotions, 1);
    assert_eq!(k.pm.cntr(k.root_container).used, used - (HOLE_PAGES + 4));
    let pt = k.mem.vm.table(as_id).unwrap();
    assert!(pt.map_2m.is_empty(), "entry demoted");
    assert!(
        pt.resolve(VAddr(0x4000_4000)).is_some(),
        "the rest survives"
    );
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}

/// The longest `Munmap` from `0x1000` whose exclusive end is canonical:
/// all but the last page of the lower half.
const LONG_MUNMAP_PAGES: usize = (1 << 35) - 2;

/// A kernel whose lower half holds three 4 KiB pages at `0x1000` and no
/// promoted region, so a long unmap from `0x1000` meets mapped pages
/// before its first hole and never needs a demotion.
fn boot_with_mapped_prefix() -> Kernel {
    let mut k = boot_big();
    let args = SyscallArgs::Mmap {
        va_base: 0x1000,
        len: 3,
        writable: true,
    };
    ok(&mut k, 0, args);
    k
}

#[test]
fn long_munmap_faults_at_the_short_fault_charge() {
    let mut k = boot_with_mapped_prefix();
    let view = k.view();
    let short = munmap_fault_cycles(&mut k, 0x2000_0000, 2);
    let long = munmap_fault_cycles(&mut k, 0x1000, LONG_MUNMAP_PAGES);
    assert_eq!(long, short);
    assert_eq!(k.trace_snapshot().counters.vm.superpage_demotions, 0);
    assert_eq!(k.view(), view);
}

#[test]
fn long_munmap_faults_at_the_short_fault_charge_on_the_sharded_kernel() {
    let smp = SmpKernel::new(boot_with_mapped_prefix());
    let view = smp.with_kernel(|k| k.view());
    let fault_cycles = |va_base: usize, len: usize| {
        let before = smp.cycles(0);
        let r = smp.syscall(0, SyscallArgs::Munmap { va_base, len });
        assert_eq!(r.result, Err(SyscallError::Fault), "{va_base:#x}+{len}");
        smp.cycles(0) - before
    };
    let short = fault_cycles(0x2000_0000, 2);
    let long = fault_cycles(0x1000, LONG_MUNMAP_PAGES);
    assert_eq!(long, short);
    assert_eq!(smp.trace_snapshot().counters.vm.superpage_demotions, 0);
    assert_eq!(smp.with_kernel(|k| k.view()), view);
}

#[test]
fn iommu_view_is_stable_across_promotion_and_pin_demotion() {
    let mut k = boot_big();
    let (head, _filler) = align_freelist_and_mmap_512(&mut k, 0x4000_0000);
    let as_id = k.pm.proc(k.init_proc).addr_space;

    // Pin a page inside the promoted run for DMA: the superpage is
    // transparently demoted (grants and IOMMU references are 4 KiB-only)
    // and the device must see exactly the frame the superpage covered.
    let dom = ok(&mut k, 0, SyscallArgs::IommuCreateDomain) as u32;
    ok(
        &mut k,
        0,
        SyscallArgs::IommuAttach {
            domain: dom,
            device: 7,
        },
    );
    // A bad iova is refused before the pin demotes anything.
    let args = SyscallArgs::IommuMap {
        domain: dom,
        iova: 0x10_0123,
        va: 0x4000_0000,
    };
    invalid(&mut k, 0, args);
    assert_eq!(k.trace_snapshot().counters.vm.superpage_demotions, 0);
    let pt = k.mem.vm.table(as_id).unwrap();
    assert_eq!(pt.map_2m.index(&0x4000_0000).map(|e| e.frame), Some(head));
    ok(
        &mut k,
        0,
        SyscallArgs::IommuMap {
            domain: dom,
            iova: 0x10_0000,
            va: 0x4000_5000,
        },
    );
    assert_eq!(k.trace_snapshot().counters.vm.superpage_demotions, 1);

    let pt = k.mem.vm.table(as_id).unwrap();
    assert!(pt.map_2m.is_empty(), "pin demoted the superpage");
    let frame = pt.map_4k.index(&0x4000_5000).unwrap().frame;
    assert_eq!(frame, head + 5 * PAGE_SIZE_4K);
    let r = k.mem.vm.iommu.translate(7, VAddr(0x10_0000)).unwrap();
    assert_eq!(
        r.frame.as_usize(),
        frame,
        "device view matches the never-promoted layout"
    );
    assert_eq!(k.mem.alloc.map_refcnt(frame), 2, "process + IOMMU");
    assert!(k.wf().is_ok(), "{:?}", k.wf());

    // Process unmap keeps the DMA pin alive; the IOMMU unmap frees it.
    ok(
        &mut k,
        0,
        SyscallArgs::Munmap {
            va_base: 0x4000_0000,
            len: 512,
        },
    );
    assert_eq!(k.mem.alloc.map_refcnt(frame), 1);
    assert!(k.mem.vm.iommu.translate(7, VAddr(0x10_0000)).is_some());
    ok(
        &mut k,
        0,
        SyscallArgs::IommuUnmap {
            domain: dom,
            iova: 0x10_0000,
        },
    );
    assert!(k.mem.alloc.page_is_free(frame));
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}

#[test]
fn iommu_map_over_a_mapped_iova_faults_before_demoting() {
    let mut k = boot_big();
    let (head, _filler) = align_freelist_and_mmap_512(&mut k, 0x4000_0000);
    let as_id = k.pm.proc(k.init_proc).addr_space;
    let dom = ok(&mut k, 0, SyscallArgs::IommuCreateDomain) as u32;
    ok(
        &mut k,
        0,
        SyscallArgs::IommuAttach {
            domain: dom,
            device: 7,
        },
    );
    // The iova is taken by an ordinary page first.
    ok(
        &mut k,
        0,
        SyscallArgs::Mmap {
            va_base: 0x6000_0000,
            len: 1,
            writable: true,
        },
    );
    ok(
        &mut k,
        0,
        SyscallArgs::IommuMap {
            domain: dom,
            iova: 0x10_0000,
            va: 0x6000_0000,
        },
    );
    // Mapping it again from inside the promoted run is refused before
    // the pin demotes anything.
    let args = SyscallArgs::IommuMap {
        domain: dom,
        iova: 0x10_0000,
        va: 0x4000_0000,
    };
    let (ret, audit) = audited_syscall(&mut k, 0, args.clone());
    audit.unwrap_or_else(|e| panic!("{args:?}: {e}"));
    assert_eq!(ret.result, Err(SyscallError::Fault), "{args:?}");
    assert_eq!(k.trace_snapshot().counters.vm.superpage_demotions, 0);
    let pt = k.mem.vm.table(as_id).unwrap();
    assert_eq!(pt.map_2m.index(&0x4000_0000).map(|e| e.frame), Some(head));
}

#[test]
fn container_termination_tears_down_its_domains() {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: 2,
        root_quota: 2048,
    });
    let c = ok(
        &mut k,
        0,
        SyscallArgs::NewContainer {
            quota: 64,
            cpus: vec![1],
        },
    ) as usize;
    let p = ok(&mut k, 0, SyscallArgs::NewProcess { cntr: c }) as usize;
    ok(&mut k, 0, SyscallArgs::NewThread { proc: p, cpu: 1 });
    k.pm.timer_tick(1);

    // The child's thread creates a domain, attaches a device and maps a
    // DMA buffer.
    ok(
        &mut k,
        1,
        SyscallArgs::Mmap {
            va_base: 0x4000_0000,
            len: 1,
            writable: true,
        },
    );
    let dom = ok(&mut k, 1, SyscallArgs::IommuCreateDomain) as u32;
    ok(
        &mut k,
        1,
        SyscallArgs::IommuAttach {
            domain: dom,
            device: 9,
        },
    );
    ok(
        &mut k,
        1,
        SyscallArgs::IommuMap {
            domain: dom,
            iova: 0x20_0000,
            va: 0x4000_0000,
        },
    );
    assert_eq!(k.mem.vm.iommu.domain_count(), 1);

    // Kill the container: the domain, its device binding, its DMA
    // mappings and its frames all disappear; nothing leaks.
    let free_expected = {
        let before = k.mem.alloc.free_pages_4k().len();
        ok(&mut k, 0, SyscallArgs::TerminateContainer { cntr: c });
        before
    };
    assert_eq!(k.mem.vm.iommu.domain_count(), 0);
    assert_eq!(k.mem.vm.iommu.translate(9, VAddr(0x20_0000)), None);
    assert!(
        k.mem.alloc.free_pages_4k().len() > free_expected,
        "frames returned"
    );
    assert!(k.mem.alloc.mapped_pages().is_empty());
    assert!(k.wf().is_ok(), "{:?}", k.wf());
}
