//! Kernel objects live out of line: a permission is an address and a
//! pointer, so the flat permission maps (`PermMap`, §4.1) hold 16 bytes
//! per entry and what a system call adds to the heap is its objects, not
//! the B-tree nodes around them. With the pointee stored inline the first
//! table frame put into any of a page table's four level maps allocated
//! one 45 KiB leaf node (eleven inline 4 KiB slots for one frame), so a
//! new process cost ~48 KiB of heap and its first mapped page ~133 KiB.
//!
//! Lives in its own test binary because of the counting global allocator.

use atmosphere::hw::PAGE_SIZE_4K;
use atmosphere::kernel::{Kernel, KernelConfig, SyscallArgs};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{bytes_kept_by, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const KIB: i64 = 1024;

fn boot() -> Kernel {
    Kernel::boot(KernelConfig {
        mem_mib: 128,
        ncpus: 2,
        root_quota: 16 * 1024,
    })
}

fn ok(k: &mut Kernel, cpu: usize, args: SyscallArgs) -> u64 {
    let ret = k.syscall(cpu, args.clone());
    assert!(ret.is_ok(), "{args:?}: {ret:?}");
    ret.val0()
}

/// A kernel with `procs` processes live — init's, and the others one each
/// in a tenant container of its own, 32 to a rack, as the multi-tenant
/// fleets are built — and one more tenant container, still empty, with
/// room for eight.
fn fleet(procs: usize) -> (Kernel, usize) {
    let mut k = boot();
    let (mut rack, mut tenant) = (0, 0);
    for i in 0..procs {
        if i % 32 == 0 {
            let args = SyscallArgs::NewContainer {
                quota: 256,
                cpus: vec![],
            };
            rack = ok(&mut k, 0, args) as usize;
        }
        // The syscall parents a container to the caller's own; a rack's
        // tenants come from `pm` directly.
        let spare = i + 1 == procs;
        let quota = if spare { 64 } else { 4 };
        tenant =
            k.pm.new_container(&mut k.mem.alloc, rack, quota, &[])
                .expect("tenant container");
        if !spare {
            ok(&mut k, 0, SyscallArgs::NewProcess { cntr: tenant });
        }
    }
    (k, tenant)
}

/// Heap bytes one `NewProcess` keeps, with `procs` processes live: the
/// fewest of eight consecutive ones, because now and then one of them
/// pays for a B-tree node split in a fleet-wide map, whatever its size.
fn new_process_bytes(procs: usize) -> i64 {
    let (mut k, cntr) = fleet(procs);
    let one = |_| {
        bytes_kept_by(|| {
            ok(&mut k, 0, SyscallArgs::NewProcess { cntr });
        })
    };
    (0..8).map(one).min().expect("eight samples")
}

#[test]
fn a_new_process_keeps_a_few_kib_of_heap_whatever_the_fleet() {
    let (few, many) = (new_process_bytes(16), new_process_bytes(1024));
    assert!(
        few <= 8 * KIB,
        "NewProcess kept {few} bytes of heap: a process is a 4 KiB root \\
         table, its object and a handful of map entries"
    );
    assert_eq!(few, many, "with 16 processes live and with 1024");
}

#[test]
fn the_first_mapped_page_of_a_fresh_space_keeps_three_table_frames() {
    let mut k = boot();
    let args = SyscallArgs::NewContainer {
        quota: 64,
        cpus: vec![1],
    };
    let cntr = ok(&mut k, 0, args) as usize;
    let proc = ok(&mut k, 0, SyscallArgs::NewProcess { cntr }) as usize;
    ok(&mut k, 0, SyscallArgs::NewThread { proc, cpu: 1 });
    assert!(k.pm.timer_tick(1).is_some(), "the new thread runs on CPU 1");
    let mmap = SyscallArgs::Mmap {
        va_base: 0x4000_0000,
        len: 1,
        writable: true,
    };
    let kept = bytes_kept_by(|| {
        ok(&mut k, 1, mmap);
    });
    assert!(
        kept <= 16 * KIB,
        "the first Mmap kept {kept} bytes of heap: three 4 KiB table \\
         frames and their map entries"
    );
    assert!(kept >= 3 * PAGE_SIZE_4K as i64, "{kept} bytes: the frames");
}
