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

use atmo_bench::{
    boot_thread_per_cpu, drain, max_clock, mops_per_sec, render_table, write_heavy_ops, Machine,
    YIELDS_PER_ROUND,
};
use atmo_kernel::kernel::BigLockKernel;
use atmo_kernel::smp::SmpKernel;

/// Rounds per CPU.
const ROUNDS: usize = 200;

struct RunStats {
    ops: u64,
    max_cycles: u64,
}

/// Drains the write-heavy mix on `ncpus` CPUs, then audits.
fn run(k: &mut impl Machine, ncpus: usize) -> RunStats {
    let mut queues: Vec<_> = (0..ncpus)
        .map(|c| write_heavy_ops(c, ROUNDS, 0x4000_0000))
        .collect();
    let ops = drain(k, &mut queues, |_, _| {});
    let audit = k.audit();
    assert!(audit.is_ok(), "total_wf audit failed: {audit:?}");
    RunStats {
        ops,
        max_cycles: max_clock(k, ncpus),
    }
}

fn main() {
    let mut rows = Vec::new();
    let mut speedup_at_4 = 0.0;
    for ncpus in [1usize, 2, 4, 8, 16] {
        // Baselines boot identically; only the lock structure differs.
        let mut big = BigLockKernel::new(boot_thread_per_cpu(ncpus).0);
        let big_stats = run(&mut big, ncpus);
        let big_tp = mops_per_sec(big_stats.ops, big_stats.max_cycles);

        let mut shard = SmpKernel::new(boot_thread_per_cpu(ncpus).0);
        let shard_stats = run(&mut shard, ncpus);
        let shard_tp = mops_per_sec(shard_stats.ops, shard_stats.max_cycles);

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
                 ({ROUNDS} rounds, modeled c220g5 cycles)"
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
