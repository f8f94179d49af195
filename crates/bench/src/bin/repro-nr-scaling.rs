//! Reproduces the **node-replication read scaling** experiment:
//! aggregate throughput of the replicated read path (`getpid`,
//! `thread_lookup`, `descriptor_resolve`, `vm_resolve` served from
//! per-CPU replicas over the flat-combining op log) vs the locked
//! fallback path, at 1–16 CPUs.
//!
//! Two workload mixes, both per-CPU-disjoint and run as a
//! deterministic discrete-event simulation (smallest modeled clock
//! issues next):
//!
//! * **read-mostly** — 48 replicated reads + 1 yield per round, plus a
//!   single-page `mmap`/`munmap` pair every 8th round (so the logs
//!   carry real update traffic and readers actually replay). With
//!   replication on, a read touches no domain lock and *no domain
//!   model clock*, so reader CPUs advance independently; with it off,
//!   every read serializes through the pm domain's release timestamp.
//! * **write-heavy** — the smp-scaling mix (even CPUs map/unmap, odd
//!   CPUs yield), replication on vs off: the log appends ride the
//!   already-locked write path, so the overhead must stay under 5%.
//!
//! Epoch checks run throughout: the incremental audit every
//! `AUDIT_EVERY` ops and the stop-the-world `audit_total_wf` (replica
//! linearization + bit-for-bit replica-vs-locked-state cross-check +
//! `NrAppended` ledger balance) at every run boundary.
//!
//! Acceptance: replicated read-mostly aggregate throughput >= 6x the
//! 1-CPU baseline at 8 CPUs and >= 10x at 16; write-heavy replication
//! overhead <= 5%; every audit green.

use std::collections::VecDeque;

use atmo_bench::{
    boot_thread_per_cpu, drain, max_clock, mops_per_sec, render_table, write_heavy_ops,
};
use atmo_kernel::smp::SmpKernel;
use atmo_kernel::SyscallArgs;

/// Rounds per CPU.
const ROUNDS: usize = 40;

/// Replicated reads per round in the read-mostly mix.
const READS_PER_ROUND: usize = 48;

/// A map/unmap pair lands every this-many rounds in the read-mostly
/// mix, keeping the op logs warm under the readers.
const WRITE_EVERY: usize = 8;

/// Incremental-audit cadence (ops) during the DES loop.
const AUDIT_EVERY: u64 = 512;

/// Per-CPU VA arenas never overlap.
fn va_arena(cpu: usize) -> usize {
    0x4000_0000 + cpu * 0x100_0000
}

/// The read-mostly op list for one CPU.
fn read_mostly_ops(cpu: usize, thread: usize) -> VecDeque<SyscallArgs> {
    let base = va_arena(cpu);
    let mut ops = VecDeque::new();
    for round in 0..ROUNDS {
        for i in 0..READS_PER_ROUND {
            ops.push_back(match i % 4 {
                0 => SyscallArgs::Getpid,
                1 => SyscallArgs::ThreadLookup { thread },
                2 => SyscallArgs::DescriptorResolve { slot: 0 },
                _ => SyscallArgs::VmResolve {
                    va: base + (round % WRITE_EVERY) * 0x1000,
                },
            });
        }
        ops.push_back(SyscallArgs::Yield);
        if round % WRITE_EVERY == 0 {
            let va_base = base + round * 0x1000;
            ops.push_back(SyscallArgs::Mmap {
                va_base,
                len: 1,
                writable: true,
            });
            ops.push_back(SyscallArgs::Munmap { va_base, len: 1 });
        }
    }
    ops
}

struct RunStats {
    ops: u64,
    max_cycles: u64,
    read_local: u64,
    fallback_locked: u64,
    replayed: u64,
}

/// Drains `queues` with an incremental audit every [`AUDIT_EVERY`] ops
/// and a closing stop-the-world epoch audit.
fn run(k: &mut SmpKernel, mut queues: Vec<VecDeque<SyscallArgs>>) -> RunStats {
    let ops = drain(k, &mut queues, |k, ops| {
        if ops.is_multiple_of(AUDIT_EVERY) {
            let audit = k.audit_incremental();
            assert!(audit.is_ok(), "incremental audit failed: {audit:?}");
        }
    });
    let audit = k.audit_total_wf();
    assert!(audit.is_ok(), "epoch total_wf audit failed: {audit:?}");
    let nr = k.trace_snapshot().counters.nr;
    RunStats {
        ops,
        max_cycles: max_clock(k, queues.len()),
        read_local: nr.read_local,
        fallback_locked: nr.fallback_locked,
        replayed: nr.replayed,
    }
}

/// Boots a sharded kernel (replication on or off) and runs one mix.
fn run_mix(ncpus: usize, replicated: bool, read_mostly: bool) -> RunStats {
    let (mut kernel, threads) = boot_thread_per_cpu(ncpus);
    for cpu in 0..ncpus {
        // An endpoint in every thread's slot 0, so
        // `descriptor_resolve` has something to find.
        let r = kernel.syscall(cpu, SyscallArgs::NewEndpoint { slot: 0 });
        assert!(r.is_ok(), "setup endpoint for cpu {cpu}: {r:?}");
    }
    let mut k = SmpKernel::new(kernel);
    if replicated {
        k.enable_nr();
    }
    k.enable_incremental_audit();
    let queues = (0..ncpus)
        .map(|c| {
            if read_mostly {
                read_mostly_ops(c, threads[c])
            } else {
                write_heavy_ops(c, ROUNDS, va_arena(c))
            }
        })
        .collect();
    run(&mut k, queues)
}

fn main() {
    // ---- read-mostly: replicated vs locked, 1..16 CPUs -------------
    let mut rows = Vec::new();
    let mut base_tp = 0.0;
    let mut speedup_at = std::collections::BTreeMap::new();
    for ncpus in [1usize, 2, 4, 8, 16] {
        let locked = run_mix(ncpus, false, true);
        let locked_tp = mops_per_sec(locked.ops, locked.max_cycles);
        let repl = run_mix(ncpus, true, true);
        let repl_tp = mops_per_sec(repl.ops, repl.max_cycles);
        if ncpus == 1 {
            base_tp = repl_tp;
        }
        let speedup = repl_tp / base_tp;
        speedup_at.insert(ncpus, speedup);
        assert_eq!(
            locked.read_local, 0,
            "replication off must never serve a replica read"
        );
        assert_eq!(
            repl.fallback_locked, 0,
            "replication on must never fall back on this mix"
        );
        for (name, stats, tp, sp) in [
            ("locked", &locked, locked_tp, String::new()),
            ("replicated", &repl, repl_tp, format!("{speedup:.2}x")),
        ] {
            rows.push(vec![
                format!("{ncpus}"),
                name.to_string(),
                format!("{}", stats.ops),
                format!("{}", stats.read_local),
                format!("{}", stats.replayed),
                format!("{}k", stats.max_cycles / 1000),
                format!("{tp:.2}"),
                sp,
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            &format!(
                "NR read scaling: locked vs per-CPU replicas \
                 ({ROUNDS} rounds, {READS_PER_ROUND} reads/round, modeled c220g5 cycles)"
            ),
            &[
                "CPUs",
                "Reads via",
                "Ops",
                "Replica reads",
                "Replayed",
                "Longest CPU",
                "Mops/s",
                "Speedup vs 1-CPU",
            ],
            &rows,
        )
    );
    println!();

    // ---- write-heavy: replication overhead on the locked path ------
    let mut wrows = Vec::new();
    let mut worst_ratio = f64::INFINITY;
    for ncpus in [4usize, 16] {
        let off = run_mix(ncpus, false, false);
        let off_tp = mops_per_sec(off.ops, off.max_cycles);
        let on = run_mix(ncpus, true, false);
        let on_tp = mops_per_sec(on.ops, on.max_cycles);
        let ratio = on_tp / off_tp;
        worst_ratio = worst_ratio.min(ratio);
        wrows.push(vec![
            format!("{ncpus}"),
            format!("{off_tp:.2}"),
            format!("{on_tp:.2}"),
            format!("{:.1}%", (1.0 - ratio) * 100.0),
        ]);
    }
    print!(
        "{}",
        render_table(
            &format!("NR write-heavy overhead ({ROUNDS} rounds, smp-scaling mix)"),
            &["CPUs", "NR off Mops/s", "NR on Mops/s", "Overhead"],
            &wrows,
        )
    );
    println!();
    println!(
        "read-mostly mix: {READS_PER_ROUND} replicated reads + 1 yield per round, \
         mmap+munmap every {WRITE_EVERY}th round;"
    );
    println!(
        "audits: incremental every {AUDIT_EVERY} ops, stop-the-world epoch \
         (replica linearization + bit-for-bit cross-check + NrAppended balance) per run."
    );
    let s8 = speedup_at[&8];
    let s16 = speedup_at[&16];
    println!(
        "replicated read speedup: {s8:.2}x @ 8 CPUs (acceptance >= 6x), \
         {s16:.2}x @ 16 CPUs (acceptance >= 10x); \
         write-heavy overhead {:.1}% (acceptance <= 5%)",
        (1.0 - worst_ratio) * 100.0
    );
    assert!(s8 >= 6.0, "need >= 6x at 8 CPUs, got {s8:.2}x");
    assert!(s16 >= 10.0, "need >= 10x at 16 CPUs, got {s16:.2}x");
    assert!(
        worst_ratio >= 0.95,
        "write-heavy replication overhead above 5%: ratio {worst_ratio:.3}"
    );
}
