//! Differential syscall fuzzing against the incremental audit ledgers.
//!
//! Two oracles run over every fuzzed schedule:
//!
//! * [`SmpKernel::audit_incremental`] after **every** operation — the
//!   O(touched) ledger fold, taken with no domain lock and no cache
//!   drain;
//! * [`SmpKernel::audit_total_wf`] at **epoch boundaries** — the
//!   stop-the-world flat audit, which additionally reconciles the
//!   incremental folds against a fresh full scan bit-for-bit.
//!
//! The differential claim is that they never disagree: any delta a
//! mutation forgets to emit (or emits twice) surfaces as a named
//! divergence at the next epoch, and any equation the incremental fold
//! refutes is a real invariant violation the flat audit would also
//! catch.
//!
//! The fuzzer is *coverage-guided*: schedules live in a population,
//! coverage is the set of `(syscall kind, outcome)` pairs observed, and
//! schedules that light up new coverage are kept and mutated further
//! (ops inserted/removed/rewritten, CPUs reassigned — schedule
//! mutation). Seeds come from `tests/corpus/audit_*.txt`, which also
//! replay verbatim as regression anchors. Set `AUDIT_FUZZ_ROUNDS` to
//! fuzz longer than the CI default.

use std::collections::HashSet;
use std::mem::Discriminant;

use atmosphere::drivers::{BlkPool, PktPool};
use atmosphere::kernel::refine::audited_syscall;
use atmosphere::kernel::{Kernel, KernelConfig, Pools, SmpKernel, SyscallArgs};
use atmosphere::spec::XorShift64Star;
use atmosphere::trace::SyscallKind::{self, *};

/// One fuzzed operation: a syscall issued from a simulated CPU.
#[derive(Clone, Debug)]
struct Op {
    cpu: usize,
    args: SyscallArgs,
}

/// A fuzz schedule: the ops, in program order. (Per-CPU interleaving is
/// modeled by the `cpu` field; the DES driver issues them serially, as
/// the single-OS-thread audit points require.)
type Schedule = Vec<Op>;

// ----- corpus text format ------------------------------------------------
//
// One op per line: `<cpu> <syscall line>`, `#` comments. The syscall line
// is `SyscallArgs`'s own corpus format, which represents every call.

fn format_op(op: &Op) -> String {
    format!("{} {}", op.cpu, op.args)
}

fn parse_op(line: &str) -> Option<Op> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (cpu, args) = line.split_once(' ').expect("cpu and syscall");
    let args = args.parse().unwrap_or_else(|e| panic!("`{line}`: {e}"));
    Some(Op {
        cpu: cpu.parse().expect("cpu"),
        args,
    })
}

// ----- random op generation and mutation ---------------------------------

/// Every call, weighted toward the memory paths the ledgers track;
/// `Exit` rarely, since it leaves its CPU idle.
fn weight(kind: SyscallKind) -> usize {
    match kind {
        Mmap | Munmap => 4,
        NewContainer | Yield => 2,
        _ => 1,
    }
}

fn random_op(rng: &mut XorShift64Star, ncpus: usize) -> Op {
    // Guesses at the root container and boot-era objects, which make
    // the scheduler-control and lifecycle calls act for real.
    let pools = Pools {
        va: 0x4000_0000..0x4004_0000,
        objects: (0..8).map(|i| 0x20_0000 + i * 0x1000).collect(),
        ncpus,
    };
    let cpu = rng.below(ncpus);
    let kind = rng.weighted(&SyscallKind::ALL, weight);
    let args = SyscallArgs::sample(kind, rng, &pools);
    Op { cpu, args }
}

/// Schedule mutation: rewrite, insert, delete ops, or reassign CPUs.
fn mutate(rng: &mut XorShift64Star, parent: &Schedule, ncpus: usize) -> Schedule {
    let mut s = parent.clone();
    for _ in 0..rng.range(1, 5) {
        match rng.below(4) {
            // Insert a fresh op at a random point.
            0 => {
                let at = rng.below(s.len() + 1);
                s.insert(at, random_op(rng, ncpus));
            }
            // Delete an op.
            1 if !s.is_empty() => {
                s.remove(rng.below(s.len()));
            }
            // Rewrite an op wholesale.
            2 if !s.is_empty() => {
                let at = rng.below(s.len());
                s[at] = random_op(rng, ncpus);
            }
            // Schedule mutation: move an op to a different CPU.
            _ if !s.is_empty() => {
                let at = rng.below(s.len());
                s[at].cpu = rng.below(ncpus);
            }
            _ => s.push(random_op(rng, ncpus)),
        }
    }
    s
}

// ----- the differential oracle -------------------------------------------

/// One coverage point: which syscall variant ran and how it returned.
type CovPoint = (Discriminant<SyscallArgs>, u8);

fn config(ncpus: usize) -> KernelConfig {
    KernelConfig {
        mem_mib: 32,
        ncpus,
        root_quota: 1024,
    }
}

fn boot_smp(ncpus: usize) -> SmpKernel {
    let k = SmpKernel::new(Kernel::boot(config(ncpus)));
    // Put a running thread on every CPU (created, then dispatched by one
    // tick) so fuzzed ops issued there execute for real instead of
    // uniformly failing with `WrongState`.
    // (Thread-capacity errors past the cap are themselves coverage.)
    let init_proc = k.init_proc();
    for cpu in 1..ncpus {
        let _ = k.syscall(
            0,
            SyscallArgs::NewThread {
                proc: init_proc,
                cpu,
            },
        );
        k.with_kernel(|k| k.pm.timer_tick(cpu));
    }
    // Node replication on: replicated reads route through the per-CPU
    // replicas, and both audit oracles additionally check replica
    // linearization and the `NrAppended` ledger balance.
    k.enable_nr();
    k.enable_incremental_audit();
    k
}

/// Runs one schedule under the differential oracle: incremental audit
/// after every op, flat cross-check audit every `epoch` ops and at the
/// end. Returns the coverage points the run lit up.
///
/// Panics (test failure) the moment either oracle goes red — the
/// failure message carries the op index, the schedule line, and the
/// structured violation (domain, equation, ledger entry).
fn run_differential(
    k: &SmpKernel,
    schedule: &Schedule,
    epoch: usize,
    tag: &str,
) -> HashSet<CovPoint> {
    let mut cov = HashSet::new();
    for (i, op) in schedule.iter().enumerate() {
        let ret = k.syscall(op.cpu, op.args.clone());
        cov.insert((std::mem::discriminant(&op.args), ret.trace_class() as u8));
        let audit = k.audit_incremental();
        assert!(
            audit.is_ok(),
            "{tag}: incremental audit red after op {i} `{}`: {}",
            format_op(op),
            audit.unwrap_err()
        );
        if (i + 1) % epoch == 0 {
            let audit = k.audit_total_wf();
            assert!(
                audit.is_ok(),
                "{tag}: flat epoch audit disagreed after op {i} `{}`: {}",
                format_op(op),
                audit.unwrap_err()
            );
        }
    }
    let audit = k.audit_total_wf();
    assert!(
        audit.is_ok(),
        "{tag}: final flat cross-check disagreed: {}",
        audit.unwrap_err()
    );
    cov
}

macro_rules! corpus {
    ($($name:literal),*) => {
        [$(($name, include_str!(concat!("corpus/", $name)))),*]
    };
}

/// The checked-in corpus: file name and text.
const CORPUS: [(&str, &str); 8] = corpus!(
    "audit_mem_lifecycle.txt",
    "audit_ipc_grants.txt",
    "audit_smp_mixed.txt",
    "audit_nr_readers.txt",
    "audit_nr_mixed.txt",
    "audit_mt_churn.txt",
    "audit_mt_throttle.txt",
    "audit_blk_batch.txt"
);

/// The corpus's cross-CPU IPC needs an endpoint two threads hold, which
/// no call sequence from fresh threads can make: CPU 0's thread creates
/// one in slot 15 and every other CPU's current thread gets it there.
fn share_endpoint(k: &mut Kernel) {
    let e = k.syscall(0, SyscallArgs::NewEndpoint { slot: 15 });
    assert!(e.is_ok(), "{e:?}");
    for cpu in 1..k.machine.cores.len() {
        let t = k.pm.sched.current(cpu).expect("a thread on every CPU");
        k.pm.install_descriptor(t, 15, e.val0() as usize).unwrap();
    }
}

fn corpus_schedules() -> Vec<(&'static str, Schedule)> {
    CORPUS
        .iter()
        .map(|&(name, text)| (name, text.lines().filter_map(parse_op).collect()))
        .collect()
}

// ----- tests -------------------------------------------------------------

/// The checked-in corpus replays green under both oracles: these are
/// the regression anchors the fuzzer's interesting finds graduate into.
/// (As a debug-build test it also runs under the lock-order checker.)
#[test]
fn corpus_replays_green_under_both_oracles() {
    for (name, schedule) in corpus_schedules() {
        assert!(!schedule.is_empty(), "{name} parsed to an empty schedule");
        let k = boot_smp(8);
        k.with_kernel(share_endpoint);
        let cov = run_differential(&k, &schedule, 16, name);
        assert!(!cov.is_empty());
    }
    // Every line parses and formats back to itself.
    for (name, text) in CORPUS {
        for line in text.lines() {
            if let Some(op) = parse_op(line) {
                assert_eq!(format_op(&op), line.trim(), "{name}");
            }
        }
    }
}

/// The corpus replays on the flat kernel through `audited_syscall` as
/// well, with a thread running on every CPU: each success is held to its
/// row's declared writes and spec. An error is fine (it must be a
/// no-op); an audit failure is not.
#[test]
fn corpus_replays_green_under_the_transition_specs() {
    let mut succeeded = std::collections::BTreeSet::new();
    for (name, schedule) in corpus_schedules() {
        let mut k = Kernel::boot(config(8));
        let init_proc = k.init_proc;
        for cpu in 1..8 {
            let _ = k.syscall(
                0,
                SyscallArgs::NewThread {
                    proc: init_proc,
                    cpu,
                },
            );
            k.pm.timer_tick(cpu);
        }
        share_endpoint(&mut k);
        for (i, op) in schedule.iter().enumerate() {
            let (ret, audit) = audited_syscall(&mut k, op.cpu, op.args.clone());
            if let Err(e) = audit {
                panic!("{name}: op {i} `{}`: {e}", format_op(op));
            }
            if ret.is_ok() {
                succeeded.insert(op.args.trace_kind());
            }
        }
    }
    for kind in [
        IommuCreateDomain,
        IommuMap,
        BlkSubmitBatch,
        BlkReapBatch,
        MapGranted,
        DropGrant,
        NewChildProcess,
        TerminateProcess,
    ] {
        assert!(succeeded.contains(&kind), "no {kind:?} succeeded");
    }
}

/// The satellite property: after randomized syscall sequences on 1, 4
/// and 8 CPUs — with cache-resident pages (thread creation refills the
/// per-CPU caches) and in-flight pkt/blk pool handles — the
/// incremental audit and the flat audit agree.
#[test]
fn incremental_agrees_with_flat_on_1_4_8_cpus() {
    let mut issued = std::collections::BTreeSet::new();
    for &ncpus in &[1usize, 4, 8] {
        for case in 0..6u64 {
            let mut rng = XorShift64Star::new(0x5eed_a0d1 + case * 131 + ncpus as u64);
            let k = boot_smp(ncpus);

            // In-flight pool handles: acquire packet and block buffers
            // against the kernel's trace sink, release some, keep the
            // rest outstanding across the audits.
            let mut pkt_pool = PktPool::anonymous(8);
            pkt_pool.attach_trace(k.trace().clone());
            let mut blk_pool = BlkPool::anonymous(8);
            blk_pool.attach_trace(k.trace().clone());
            let mut pkts: Vec<_> = (0..rng.range(1, 5))
                .filter_map(|_| pkt_pool.try_acquire())
                .collect();
            let blks: Vec<_> = (0..rng.range(1, 5))
                .filter_map(|_| blk_pool.try_acquire())
                .collect();
            if pkts.len() > 1 {
                pkt_pool.release(pkts.pop().unwrap());
            }

            // Cache-resident pages: thread creation allocates kernel
            // objects through the per-CPU cache, leaving the rest of
            // the refill batch cached.
            let init_proc = k.init_proc();
            let ret = k.syscall(
                0,
                SyscallArgs::NewThread {
                    proc: init_proc,
                    cpu: 0,
                },
            );
            assert!(ret.is_ok(), "{ret:?}");
            assert!(k.cache_stats(0).refills > 0, "cache must be resident");

            let schedule: Schedule = (0..rng.range(10, 40))
                .map(|_| random_op(&mut rng, ncpus))
                .collect();
            issued.extend(schedule.iter().map(|op| op.args.trace_kind()));
            run_differential(&k, &schedule, 8, &format!("ncpus={ncpus} case={case}"));

            // Outstanding handles stayed in the fold all along.
            for b in pkts {
                pkt_pool.release(b);
            }
            for b in blks {
                blk_pool.release(b);
            }
            let audit = k.audit_incremental();
            assert!(audit.is_ok(), "{audit:?}");
        }
    }
    assert_eq!(issued.len(), SyscallKind::ALL.len(), "every call issued");
}
/// The scaled-out tentpole: coverage-guided differential fuzzing over
/// 8–16 simulated CPUs. The population starts from the checked-in
/// corpus plus random schedules; every round mutates a parent and
/// keeps the child iff it lights up new `(syscall, outcome)` coverage.
/// Both oracles run on every schedule; they must never disagree.
#[test]
fn coverage_guided_differential_fuzz() {
    let rounds: u64 = std::env::var("AUDIT_FUZZ_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let mut rng = XorShift64Star::new(0x5eed_c0ff);
    let mut population: Vec<Schedule> = corpus_schedules().into_iter().map(|(_, s)| s).collect();
    let mut coverage: HashSet<CovPoint> = HashSet::new();

    // Seed round: run the corpus on 8 CPUs to establish baseline
    // coverage.
    for (i, s) in population.clone().iter().enumerate() {
        let k = boot_smp(8);
        coverage.extend(run_differential(&k, s, 16, &format!("seed {i}")));
    }
    let seed_cov = coverage.len();

    for round in 0..rounds {
        // 8–16 CPUs, rotating so schedules migrate across widths.
        let ncpus = 8 + (round as usize % 3) * 4;
        let parent = rng.below(population.len());
        let mut child = mutate(&mut rng, &population[parent], ncpus);
        // Parents bred at a wider round carry CPU ids past this
        // round's width; fold them in rather than trap on dispatch.
        for op in &mut child {
            op.cpu %= ncpus;
        }
        let k = boot_smp(ncpus);
        let cov = run_differential(&k, &child, 16, &format!("round {round} ncpus={ncpus}"));
        let novel = cov.iter().any(|p| !coverage.contains(p));
        coverage.extend(cov);
        if novel {
            population.push(child);
        }
    }
    assert!(
        coverage.len() >= seed_cov,
        "coverage can only grow ({} -> {})",
        seed_cov,
        coverage.len()
    );
    // The corpus alone cannot be the whole story: mutation must have
    // found at least one new (syscall, outcome) point in CI-sized runs.
    assert!(
        population.len() > 3 || coverage.len() > seed_cov,
        "fuzzer made no progress: {} coverage points, {} schedules",
        coverage.len(),
        population.len()
    );
}
