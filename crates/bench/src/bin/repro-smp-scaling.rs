//! Reproduces the **SMP scaling** experiment: aggregate syscall
//! throughput of the big-lock kernel vs the sharded lock-domain kernel
//! at 1, 2, 4, 8 and 16 CPUs.
//!
//! The workload is per-CPU-disjoint (each CPU owns its container,
//! process, thread and address-space range): even CPUs are mem-heavy
//! (single-page `mmap`/`munmap` rounds), odd CPUs are pm-heavy
//! (yields). Execution is a deterministic discrete-event simulation:
//! the runnable CPU with the smallest modeled clock issues its next
//! syscall, which is exactly how concurrently free-running cores
//! interleave on lock acquisitions. Serialization is visible through
//! the locks' modeled release timestamps — a big-lock kernel's clock
//! chain accumulates *every* CPU's work, while the sharded kernel only
//! chains work through the domains it actually contends on.
//!
//! Aggregate throughput = total ops / modeled seconds of the
//! longest-running CPU. The run fails if the sharded kernel does not
//! reach 2x the big-lock baseline at 4 CPUs, or if any stop-the-world
//! `total_wf` audit fails.

use std::collections::VecDeque;

use atmo_bench::render_table;
use atmo_hw::cycles::CpuProfile;
use atmo_kernel::kernel::BigLockKernel;
use atmo_kernel::smp::SmpKernel;
use atmo_kernel::{Kernel, KernelConfig, SyscallArgs, SyscallReturn};
use atmo_spec::harness::{Invariant, VerifResult};

/// Yields an odd (pm-heavy) CPU performs per even-CPU map/unmap round;
/// chosen so the pm and mem domain chains carry comparable work under
/// the big lock while the sharded pm chain (dispatch only — the
/// trampolines are per-CPU) stays below the mem chain.
const YIELDS_PER_ROUND: usize = 8;

/// Common surface of the two kernels under test.
trait SmpSyscall {
    fn call(&self, cpu: usize, args: SyscallArgs) -> SyscallReturn;
    fn clock(&self, cpu: usize) -> u64;
    fn audit(&self) -> VerifResult;
}

impl SmpSyscall for BigLockKernel {
    fn call(&self, cpu: usize, args: SyscallArgs) -> SyscallReturn {
        self.syscall(cpu, args)
    }
    fn clock(&self, cpu: usize) -> u64 {
        self.with_kernel(|k| k.cycles(cpu))
    }
    fn audit(&self) -> VerifResult {
        self.with_kernel(|k| k.wf())
    }
}

impl SmpSyscall for SmpKernel {
    fn call(&self, cpu: usize, args: SyscallArgs) -> SyscallReturn {
        self.syscall(cpu, args)
    }
    fn clock(&self, cpu: usize) -> u64 {
        self.cycles(cpu)
    }
    fn audit(&self) -> VerifResult {
        self.audit_total_wf()
    }
}

/// Boots a kernel with one runnable thread per CPU, each in its own
/// container (CPU 0 keeps the init thread).
fn boot(ncpus: usize) -> Kernel {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus,
        root_quota: 16384,
    });
    for cpu in 1..ncpus {
        let c = k
            .syscall(
                0,
                SyscallArgs::NewContainer {
                    quota: 512,
                    cpus: vec![cpu],
                },
            )
            .val0() as usize;
        let p = k.syscall(0, SyscallArgs::NewProcess { cntr: c }).val0() as usize;
        let r = k.syscall(0, SyscallArgs::NewThread { proc: p, cpu });
        assert!(r.is_ok(), "setup thread for cpu {cpu}: {r:?}");
        k.pm.timer_tick(cpu);
    }
    k
}

/// The per-CPU op list: even CPUs map+unmap one page per round, odd
/// CPUs yield `YIELDS_PER_ROUND` times per round.
fn ops_for(cpu: usize, rounds: usize) -> VecDeque<SyscallArgs> {
    let mut ops = VecDeque::new();
    for round in 0..rounds {
        if cpu.is_multiple_of(2) {
            let va_base = 0x4000_0000 + round * 0x1000;
            ops.push_back(SyscallArgs::Mmap {
                va_base,
                len: 1,
                writable: true,
            });
            ops.push_back(SyscallArgs::Munmap { va_base, len: 1 });
        } else {
            for _ in 0..YIELDS_PER_ROUND {
                ops.push_back(SyscallArgs::Yield);
            }
        }
    }
    ops
}

struct RunStats {
    ops: u64,
    max_cycles: u64,
}

/// Discrete-event simulation: always advance the pending CPU with the
/// smallest modeled clock (free-running cores reach their next lock
/// acquisition in clock order).
fn run(k: &dyn SmpSyscall, ncpus: usize, rounds: usize) -> RunStats {
    let mut queues: Vec<VecDeque<SyscallArgs>> = (0..ncpus).map(|c| ops_for(c, rounds)).collect();
    let mut ops = 0u64;
    loop {
        let next = (0..ncpus)
            .filter(|&c| !queues[c].is_empty())
            .min_by_key(|&c| k.clock(c));
        let Some(cpu) = next else { break };
        let args = queues[cpu].pop_front().expect("non-empty queue");
        let r = k.call(cpu, args);
        assert!(r.is_ok(), "cpu {cpu}: {r:?}");
        ops += 1;
    }
    let audit = k.audit();
    assert!(audit.is_ok(), "total_wf audit failed: {audit:?}");
    RunStats {
        ops,
        max_cycles: (0..ncpus).map(|c| k.clock(c)).max().unwrap_or(0),
    }
}

fn mops_per_sec(stats: &RunStats, profile: &CpuProfile) -> f64 {
    stats.ops as f64 / profile.cycles_to_seconds(stats.max_cycles) / 1e6
}

fn main() {
    let rounds: usize = std::env::var("SMP_SCALING_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let profile = CpuProfile::c220g5();

    let mut rows = Vec::new();
    let mut speedup_at_4 = 0.0;
    for ncpus in [1usize, 2, 4, 8, 16] {
        // Baselines boot identically; only the lock structure differs.
        let big = BigLockKernel::new(boot(ncpus));
        let big_stats = run(&big, ncpus, rounds);
        let big_tp = mops_per_sec(&big_stats, &profile);

        let shard = SmpKernel::new(boot(ncpus));
        let shard_stats = run(&shard, ncpus, rounds);
        let shard_tp = mops_per_sec(&shard_stats, &profile);

        let speedup = shard_tp / big_tp;
        if ncpus == 4 {
            speedup_at_4 = speedup;
        }
        for (name, stats, tp) in [
            ("big-lock", &big_stats, big_tp),
            ("sharded", &shard_stats, shard_tp),
        ] {
            rows.push(vec![
                format!("{ncpus}"),
                name.to_string(),
                format!("{}", stats.ops),
                format!("{:.0}k", stats.max_cycles as f64 / 1e3),
                format!("{tp:.2}"),
                if name == "sharded" {
                    format!("{speedup:.2}x")
                } else {
                    String::new()
                },
            ]);
        }

        // Lock instrumentation from the sharded run: the contention
        // profile behind the scaling numbers. Holds are modeled cycles
        // (meter entering the domain to the published release time).
        let locks = shard.trace_snapshot().counters.locks;
        println!(
            "[{ncpus} cpu] lock acquisitions: pm {} (contended {}), mem {} (contended {}); \
             max modeled hold: pm {}cy, mem {}cy",
            locks.pm.acquisitions,
            locks.pm.contended,
            locks.mem.acquisitions,
            locks.mem.contended,
            locks.pm.hold_max_cycles,
            locks.mem.hold_max_cycles,
        );
    }
    println!();
    print!(
        "{}",
        render_table(
            &format!(
                "SMP scaling: big lock vs sharded lock domains \
                 ({rounds} rounds, modeled c220g5 cycles)"
            ),
            &["CPUs", "Config", "Ops", "Longest CPU", "Mops/s", "Speedup"],
            &rows,
        )
    );
    println!();
    println!(
        "workload: even CPUs mmap+munmap 1 page/round, odd CPUs {YIELDS_PER_ROUND} yields/round;"
    );
    println!("aggregate throughput = total ops / modeled time of the longest-running CPU.");
    println!(
        "sharded speedup at 4 CPUs: {speedup_at_4:.2}x (acceptance: >= 2.0x; \
         total_wf audited after every run)"
    );
    assert!(
        speedup_at_4 >= 2.0,
        "sharded kernel must reach 2x aggregate throughput at 4 CPUs, got {speedup_at_4:.2}x"
    );
}
