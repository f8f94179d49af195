//! Ghost-state updates cost O(log n), not O(n): the heap allocations of a
//! system call that takes one ghost-collection step do not depend on how
//! large the collection already is. A whole-collection copy per step shows
//! up here as a count that grows with the collection (one B-tree node per
//! ~8 elements per copy).
//!
//! The allocator's abstract sets are frame bitmaps it maintains beside its
//! page array, and projecting Ψ clones them, so it costs the same number
//! of allocations whatever the amount of memory; checking the allocator's
//! invariant, `views-exact` included, allocates nothing.
//!
//! Lives in its own test binary because of the counting global allocator;
//! the count is per thread, so the tests do not see each other.

use atmosphere::hw::PAGE_SIZE_4K;
use atmosphere::kernel::{Kernel, KernelConfig, SyscallArgs};
use atmosphere::spec::harness::Invariant;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocs_during, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Fewest allocations of eight consecutive runs of `f`. The fewest,
/// because now and then a step pays for something amortised, whatever the
/// collection's size: a B-tree node split, a `Vec` doubling.
fn fewest_of_eight(mut f: impl FnMut()) -> u64 {
    (0..8)
        .map(|_| allocs_during(&mut f))
        .min()
        .expect("eight samples")
}

fn boot() -> Kernel {
    Kernel::boot(KernelConfig {
        mem_mib: 128,
        ncpus: 1,
        root_quota: 16 * 1024,
    })
}

fn ok(k: &mut Kernel, args: SyscallArgs) -> u64 {
    let ret = k.syscall(0, args.clone());
    assert!(ret.is_ok(), "{args:?}: {ret:?}");
    ret.val0()
}

/// Fewest allocations of one `Mmap` + `Munmap` of a single page in an
/// address space that maps `live` other pages as 4 KiB ghost entries.
///
/// The page is a hole in the middle of the live range, not a fresh address
/// beyond it: at the far end of a B-tree filled in ascending order an
/// insert-then-remove can split and re-merge the last leaf every time,
/// whatever the tree's size, which is not what is measured here.
fn mmap_munmap_allocs(live: usize) -> u64 {
    const LIVE_BASE: usize = 0x4000_0000;
    // Half a superpage per call: no call covers an aligned 2 MiB run, so
    // nothing is promoted and every page stays its own ghost entry.
    const CHUNK: usize = 256;
    let mut k = boot();
    for i in 0..=live / CHUNK {
        ok(
            &mut k,
            SyscallArgs::Mmap {
                va_base: LIVE_BASE + i * CHUNK * PAGE_SIZE_4K,
                len: if i < live / CHUNK { CHUNK } else { 1 },
                writable: true,
            },
        );
    }
    let probe = LIVE_BASE + (live / 2 + 3) * PAGE_SIZE_4K;
    let unmap_probe = SyscallArgs::Munmap {
        va_base: probe,
        len: 1,
    };
    ok(&mut k, unmap_probe.clone());
    let as_id = k.pm.proc(k.init_proc).addr_space;
    assert_eq!(k.mem.vm.table(as_id).unwrap().map_4k.len(), live);

    fewest_of_eight(|| {
        ok(
            &mut k,
            SyscallArgs::Mmap {
                va_base: probe,
                len: 1,
                writable: true,
            },
        );
        ok(&mut k, unmap_probe.clone());
    })
}

#[test]
fn single_page_mmap_allocations_do_not_grow_with_the_address_space() {
    let small = mmap_munmap_allocs(256);
    let large = mmap_munmap_allocs(8192);
    assert_eq!(
        small, large,
        "Mmap+Munmap of one page: {small} allocations with 256 pages live, \
         {large} with 8192"
    );
}

/// Fewest allocations of eight consecutive `NewThread` calls in a root
/// container that already owns `owned` threads.
fn new_thread_allocs(owned: usize) -> u64 {
    let mut k = boot();
    let root = k.root_container;
    let init_proc = k.init_proc;
    // Fill processes with threads until the container owns `owned`: the
    // init process's 32 children, then 31 more root processes, then the
    // init process itself, which makes 64 x 16 = 1024 at most.
    let mut have = 1; // the init thread
    for i in 0..64 {
        if have == owned {
            break;
        }
        let p = match i {
            0..=31 => ok(&mut k, SyscallArgs::NewChildProcess) as usize,
            32..=62 => ok(&mut k, SyscallArgs::NewProcess { cntr: root }) as usize,
            _ => init_proc,
        };
        while have < owned && !k.pm.proc(p).threads.is_full() {
            ok(&mut k, SyscallArgs::NewThread { proc: p, cpu: 0 });
            have += 1;
        }
    }
    assert_eq!(k.pm.cntr(root).owned_thrds.len(), owned);
    // The probe process is a child of whichever thread runs next: the
    // oldest thread made above, whose process has no children yet (the
    // init process's child list is full by now), or the init thread when
    // it is alone.
    ok(&mut k, SyscallArgs::Yield);
    let probe_proc = ok(&mut k, SyscallArgs::NewChildProcess) as usize;

    fewest_of_eight(|| {
        ok(
            &mut k,
            SyscallArgs::NewThread {
                proc: probe_proc,
                cpu: 0,
            },
        );
    })
}

#[test]
fn thread_creation_allocations_do_not_grow_with_the_containers_threads() {
    let small = new_thread_allocs(1);
    let large = new_thread_allocs(1024);
    assert_eq!(
        small, large,
        "NewThread: {small} allocations in a container owning 1 thread, \
         {large} in one owning 1024"
    );
}

/// A kernel with `mem_mib` of RAM, a few kernel objects, a mapped run and
/// a promoted superpage, so the allocator holds frames in every state.
fn kernel_with(mem_mib: usize) -> Kernel {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib,
        ncpus: 1,
        root_quota: 2048,
    });
    let proc = k.init_proc;
    ok(&mut k, SyscallArgs::NewThread { proc, cpu: 0 });
    ok(&mut k, SyscallArgs::NewEndpoint { slot: 1 });
    for (va_base, len) in [(0x4000_0000, 40), (0x8000_0000, 512)] {
        ok(
            &mut k,
            SyscallArgs::Mmap {
                va_base,
                len,
                writable: true,
            },
        );
    }
    k
}

#[test]
fn kernel_view_allocations_do_not_grow_with_memory() {
    let count = |mem_mib| {
        let k = kernel_with(mem_mib);
        fewest_of_eight(|| drop(k.view()))
    };
    let (small, large) = (count(64), count(512));
    assert_eq!(
        small, large,
        "Kernel::view(): {small} allocations at 64 MiB, {large} at 512 MiB"
    );
}

#[test]
fn allocator_wf_allocates_nothing() {
    let k = kernel_with(64);
    let n = allocs_during(|| k.mem.alloc.wf().expect("well-formed"));
    assert_eq!(n, 0, "PageAllocator::wf() made {n} allocations");
}
