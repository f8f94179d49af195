//! The seven workloads. Names are stable identifiers.

use std::time::Instant;

use atmo_kernel::{Kernel, SyscallArgs};

use crate::harness::{run, RunResult};

mod checked_fuzz;
mod ipc_rpc;
mod kv_blk;
mod net_http;
mod smp_readmix;
mod tenant_sched;
mod vm_churn;

/// Workload names, in the order `all` and `check` run them.
pub const NAMES: [&str; 7] = [
    "ipc-rpc",
    "vm-churn",
    "smp-readmix",
    "net-http",
    "kv-blk",
    "tenant-sched",
    "checked-fuzz",
];

/// The modeled CPU that issues next in discrete-event order: the one with
/// the smallest clock (the lowest index among equals).
fn earliest(clocks: &[u64]) -> usize {
    let mut c = 0;
    for i in 1..clocks.len() {
        if clocks[i] < clocks[c] {
            c = i;
        }
    }
    c
}

/// A container, a process and a running thread of its own for every CPU
/// after the first (which keeps root's): `(container, process, thread)` by
/// CPU. Set-up for the workloads whose CPUs must not share objects.
fn boot_per_cpu(k: &mut Kernel, ncpus: usize, quota: usize) -> Vec<(usize, usize, usize)> {
    let mut owners = vec![(k.root_container, k.init_proc, k.init_thread)];
    for cpu in 1..ncpus {
        let cntr = k
            .syscall(
                0,
                SyscallArgs::NewContainer {
                    quota,
                    cpus: vec![cpu],
                },
            )
            .val0() as usize;
        let proc = k.syscall(0, SyscallArgs::NewProcess { cntr }).val0() as usize;
        let thread = k.syscall(0, SyscallArgs::NewThread { proc, cpu }).val0() as usize;
        assert_eq!(k.pm.timer_tick(cpu), Some(thread), "the thread runs");
        owners.push((cntr, proc, thread));
    }
    owners
}

/// Flips page slot `slot` of a 64-slot shadow bitmap: the `Mmap` or
/// `Munmap` of the page at `base + slot × 4 KiB`, and the return it must
/// have.
fn toggle_page(mapped: &mut u64, slot: usize, base: usize) -> (SyscallArgs, [u64; 4]) {
    let va = base + slot * 0x1000;
    let was_mapped = *mapped >> slot & 1 == 1;
    *mapped ^= 1 << slot;
    if was_mapped {
        (
            SyscallArgs::Munmap {
                va_base: va,
                len: 1,
            },
            [1, 0, 0, 0],
        )
    } else {
        (
            SyscallArgs::Mmap {
                va_base: va,
                len: 1,
                writable: true,
            },
            [va as u64, 1, 0, 0],
        )
    }
}

/// The frames behind `pages` pages the init process has mapped (4 KiB
/// each) from `va` on. Set-up only: this is how mapped memory becomes a
/// `ConnTable` arena or a `DmaWindow`, and the one place the benchmark
/// looks below the syscall surface.
fn mapped_frames(k: &Kernel, va: usize, pages: usize) -> Vec<usize> {
    let as_id = k.pm.proc(k.init_proc).addr_space;
    let table = k.mem.vm.table(as_id).expect("init address space");
    (0..pages)
        .map(|i| {
            table
                .map_4k
                .index(&(va + i * 0x1000))
                .expect("the page is mapped")
                .frame
        })
        .collect()
}

/// Runs the named workload once; `None` for an unknown name.
pub fn run_named(
    name: &str,
    seed: u64,
    seconds: u32,
    trace: bool,
    process_start: Instant,
) -> Option<RunResult> {
    Some(match name {
        "ipc-rpc" => run::<ipc_rpc::IpcRpc>(seed, seconds, trace, process_start),
        "vm-churn" => run::<vm_churn::VmChurn>(seed, seconds, trace, process_start),
        "smp-readmix" => run::<smp_readmix::SmpReadmix>(seed, seconds, trace, process_start),
        "net-http" => run::<net_http::NetHttp>(seed, seconds, trace, process_start),
        "kv-blk" => run::<kv_blk::KvBlk>(seed, seconds, trace, process_start),
        "tenant-sched" => run::<tenant_sched::TenantSched>(seed, seconds, trace, process_start),
        "checked-fuzz" => run::<checked_fuzz::CheckedFuzz>(seed, seconds, trace, process_start),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use crate::harness::{Ctx, Gates, Workload};
    use crate::probe::Counts;

    /// What a miniature run leaves behind: modeled clocks, counters, and
    /// the median modeled latency.
    type Outcome = (Vec<u64>, Counts, Option<u64>);

    /// Two slices of `ops` ops each, then the workload's own exit gates.
    fn miniature<W: Workload>(seed: u64, ops: usize, trace: bool) -> Outcome {
        let mut w = W::setup(seed, ops);
        let mut ctx = Ctx::new(trace, 2 * ops);
        let before = w.counts();
        for slice in 0..2 {
            ctx.tr.set_on(slice == 0);
            w.run_slice(&mut ctx);
        }
        ctx.tr.set_on(false);
        let d = w.counts().since(&before);
        let clocks = w.clocks();
        assert_eq!(ctx.failed, 0, "{}: ops failed", W::NAME);
        assert_eq!(ctx.lat.count(), 2 * ops as u64, "{}: samples", W::NAME);
        assert_eq!(ctx.tr.violations, 0, "{}: span nesting", W::NAME);
        let mut gates = Gates::default();
        w.finish(&mut ctx, &d, &mut gates);
        for g in &gates.0 {
            // A hundred victim ops do not exhaust a budget; the fleet's
            // metering is a gate for full-size runs.
            assert!(
                g.ok || g.name == "sched.fleet_was_metered",
                "{}: gate {}: {}",
                W::NAME,
                g.name,
                g.detail
            );
        }
        assert_eq!(ctx.failed, 0, "{}: exit checks failed ops", W::NAME);
        ctx.lat.seal();
        (clocks, d, ctx.lat.quantile(0.5))
    }

    /// Same seed: the same op stream, so the same modeled clocks, counters
    /// and latencies, traced or not. Another seed: another stream (checked
    /// on the modeled clocks when `seed_moves_clocks`).
    fn reproduces<W: Workload>(ops: usize, seed_moves_clocks: bool) {
        let a = miniature::<W>(11, ops, false);
        let b = miniature::<W>(11, ops, false);
        assert_eq!(
            a.0,
            b.0,
            "{}: clocks differ between same-seed runs",
            W::NAME
        );
        assert_eq!(a.2, b.2, "{}: latencies differ", W::NAME);
        let traced = miniature::<W>(11, ops, true);
        assert_eq!(a.0, traced.0, "{}: tracing perturbed the model", W::NAME);
        // Obligations are process-wide and other tests run beside this one.
        let strip = |c: &Counts| Counts {
            obligations: 0,
            ..*c
        };
        assert_eq!(
            strip(&a.1),
            strip(&traced.1),
            "{}: tracing perturbed a counter",
            W::NAME
        );
        let other = miniature::<W>(12, ops, false);
        if seed_moves_clocks {
            assert_ne!(
                a.0,
                other.0,
                "{}: the seed does not reach the op stream",
                W::NAME
            );
        }
    }

    #[test]
    fn ipc_rpc_reproduces() {
        reproduces::<super::ipc_rpc::IpcRpc>(2000, true);
    }

    #[test]
    fn vm_churn_reproduces() {
        reproduces::<super::vm_churn::VmChurn>(60, true);
    }

    #[test]
    fn smp_readmix_reproduces() {
        reproduces::<super::smp_readmix::SmpReadmix>(4000, true);
    }

    #[test]
    fn net_http_reproduces() {
        reproduces::<super::net_http::NetHttp>(3000, true);
    }

    #[test]
    fn kv_blk_reproduces() {
        reproduces::<super::kv_blk::KvBlk>(20_000, true);
    }

    #[test]
    fn tenant_sched_reproduces() {
        // The seed picks *which* tenants are churned, throttled and
        // re-weighted; what those syscalls cost does not depend on it.
        reproduces::<super::tenant_sched::TenantSched>(100, false);
    }

    #[test]
    fn checked_fuzz_reproduces() {
        reproduces::<super::checked_fuzz::CheckedFuzz>(602, true);
    }
}
