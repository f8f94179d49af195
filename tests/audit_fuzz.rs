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
use atmosphere::kernel::{BlkOp, Kernel, KernelConfig, SmpKernel, SyscallArgs, SyscallError};
use atmosphere::spec::XorShift64Star;

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
// One op per line: `<cpu> <name> [args...]`, `#` comments. Only the
// subset of syscalls the fuzzer generates is representable, which is
// exactly what replay needs.

fn format_op(op: &Op) -> String {
    let c = op.cpu;
    match &op.args {
        SyscallArgs::Mmap {
            va_base,
            len,
            writable,
        } => format!("{c} mmap {va_base:#x} {len} {}", u8::from(*writable)),
        SyscallArgs::Munmap { va_base, len } => format!("{c} munmap {va_base:#x} {len}"),
        SyscallArgs::MmapHuge2M { va_base, writable } => {
            format!("{c} mmap2m {va_base:#x} {}", u8::from(*writable))
        }
        SyscallArgs::MunmapHuge2M { va_base } => format!("{c} munmap2m {va_base:#x}"),
        SyscallArgs::NewContainer { quota, .. } => format!("{c} newcontainer {quota}"),
        SyscallArgs::TerminateContainer { cntr } => format!("{c} termcontainer {cntr:#x}"),
        SyscallArgs::NewProcess { cntr } => format!("{c} newprocess {cntr:#x}"),
        SyscallArgs::NewChildProcess => format!("{c} newchild"),
        SyscallArgs::TerminateProcess { proc } => format!("{c} termprocess {proc:#x}"),
        SyscallArgs::NewThread { proc, cpu } => format!("{c} newthread {proc:#x} {cpu}"),
        SyscallArgs::NewEndpoint { slot } => format!("{c} newendpoint {slot}"),
        SyscallArgs::Send {
            slot,
            scalars,
            grant_page_va,
            ..
        } => match grant_page_va {
            Some(va) => format!("{c} send {slot} {} {va:#x}", scalars[0]),
            None => format!("{c} send {slot} {}", scalars[0]),
        },
        SyscallArgs::Poll { slot } => format!("{c} poll {slot}"),
        SyscallArgs::Call { slot, scalars } => format!("{c} call {slot} {}", scalars[0]),
        SyscallArgs::Reply { scalars } => format!("{c} reply {}", scalars[0]),
        SyscallArgs::ReplyRecv { slot, scalars } => {
            format!("{c} replyrecv {slot} {}", scalars[0])
        }
        SyscallArgs::TakeMsg => format!("{c} takemsg"),
        SyscallArgs::MapGranted { va } => format!("{c} mapgranted {va:#x}"),
        SyscallArgs::DropGrant => format!("{c} dropgrant"),
        SyscallArgs::IommuCreateDomain => format!("{c} iommucreate"),
        SyscallArgs::IommuAttach { domain, device } => {
            format!("{c} iommuattach {domain} {device}")
        }
        SyscallArgs::IommuMap { domain, iova, va } => {
            format!("{c} iommumap {domain} {iova:#x} {va:#x}")
        }
        SyscallArgs::IommuUnmap { domain, iova } => format!("{c} iommuunmap {domain} {iova:#x}"),
        SyscallArgs::BlkSubmitBatch { queue, ops } => {
            format!("{c} blksubmit {queue} {}", ops.len())
        }
        SyscallArgs::BlkReapBatch { queue, max, wait } => {
            format!("{c} blkreap {queue} {max} {}", u8::from(*wait))
        }
        SyscallArgs::Getpid => format!("{c} getpid"),
        SyscallArgs::ThreadLookup { thread } => format!("{c} thread_lookup {thread:#x}"),
        SyscallArgs::DescriptorResolve { slot } => format!("{c} descriptor_resolve {slot}"),
        SyscallArgs::VmResolve { va } => format!("{c} vm_resolve {va:#x}"),
        SyscallArgs::SchedSetWeight { cntr, weight } => {
            format!("{c} setweight {cntr:#x} {weight}")
        }
        SyscallArgs::SchedThrottle { cntr, throttle } => {
            format!("{c} throttle {cntr:#x} {}", u8::from(*throttle))
        }
        SyscallArgs::Yield => format!("{c} yield"),
        SyscallArgs::TraceSnapshot => format!("{c} snapshot"),
        other => unreachable!("fuzzer never generates {other:?}"),
    }
}

fn parse_num(s: &str) -> usize {
    match s.strip_prefix("0x") {
        Some(hex) => usize::from_str_radix(hex, 16).expect("hex literal"),
        None => s.parse().expect("decimal literal"),
    }
}

fn parse_op(line: &str) -> Option<Op> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let mut p = line.split_whitespace();
    let cpu = parse_num(p.next().expect("cpu"));
    let name = p.next().expect("op name");
    let mut num = || parse_num(p.next().unwrap_or_else(|| panic!("args for {name}")));
    let args = match name {
        "mmap" => SyscallArgs::Mmap {
            va_base: num(),
            len: num(),
            writable: num() != 0,
        },
        "munmap" => SyscallArgs::Munmap {
            va_base: num(),
            len: num(),
        },
        "mmap2m" => SyscallArgs::MmapHuge2M {
            va_base: num(),
            writable: num() != 0,
        },
        "munmap2m" => SyscallArgs::MunmapHuge2M { va_base: num() },
        "newcontainer" => SyscallArgs::NewContainer {
            quota: num(),
            cpus: vec![],
        },
        "termcontainer" => SyscallArgs::TerminateContainer { cntr: num() },
        "newprocess" => SyscallArgs::NewProcess { cntr: num() },
        "newchild" => SyscallArgs::NewChildProcess,
        "termprocess" => SyscallArgs::TerminateProcess { proc: num() },
        "newthread" => SyscallArgs::NewThread {
            proc: num(),
            cpu: num(),
        },
        "newendpoint" => SyscallArgs::NewEndpoint { slot: num() },
        "send" => {
            let slot = num();
            let scalar = num() as u64;
            let grant_page_va = p.next().map(parse_num);
            SyscallArgs::Send {
                slot,
                scalars: [scalar, 0, 0, 0],
                grant_page_va,
                grant_endpoint_slot: None,
                grant_iommu_domain: None,
            }
        }
        "poll" => SyscallArgs::Poll { slot: num() },
        "call" => SyscallArgs::Call {
            slot: num(),
            scalars: [num() as u64, 0, 0, 0],
        },
        "reply" => SyscallArgs::Reply {
            scalars: [num() as u64, 0, 0, 0],
        },
        "replyrecv" => SyscallArgs::ReplyRecv {
            slot: num(),
            scalars: [num() as u64, 0, 0, 0],
        },
        "takemsg" => SyscallArgs::TakeMsg,
        "mapgranted" => SyscallArgs::MapGranted { va: num() },
        "dropgrant" => SyscallArgs::DropGrant,
        "iommucreate" => SyscallArgs::IommuCreateDomain,
        "iommuattach" => SyscallArgs::IommuAttach {
            domain: num() as u32,
            device: num() as u16,
        },
        "iommumap" => SyscallArgs::IommuMap {
            domain: num() as u32,
            iova: num(),
            va: num(),
        },
        "iommuunmap" => SyscallArgs::IommuUnmap {
            domain: num() as u32,
            iova: num(),
        },
        "blksubmit" => {
            let queue = num();
            let n = num();
            SyscallArgs::BlkSubmitBatch {
                queue,
                ops: (0..n)
                    .map(|i| BlkOp {
                        cookie: i as u64,
                        iova: 0x10_0000 + i * 0x1000,
                        lba: i as u64,
                        write: i % 2 == 0,
                    })
                    .collect(),
            }
        }
        "blkreap" => SyscallArgs::BlkReapBatch {
            queue: num(),
            max: num(),
            wait: num() != 0,
        },
        "getpid" => SyscallArgs::Getpid,
        "thread_lookup" => SyscallArgs::ThreadLookup { thread: num() },
        "descriptor_resolve" => SyscallArgs::DescriptorResolve { slot: num() },
        "vm_resolve" => SyscallArgs::VmResolve { va: num() },
        "setweight" => SyscallArgs::SchedSetWeight {
            cntr: num(),
            weight: num() as u32,
        },
        "throttle" => SyscallArgs::SchedThrottle {
            cntr: num(),
            throttle: num() != 0,
        },
        "yield" => SyscallArgs::Yield,
        "snapshot" => SyscallArgs::TraceSnapshot,
        other => panic!("unknown corpus op {other:?}"),
    };
    Some(Op { cpu, args })
}

fn parse_schedule(text: &str) -> Schedule {
    text.lines().filter_map(parse_op).collect()
}

// ----- random op generation and mutation ---------------------------------

fn random_va(rng: &mut XorShift64Star) -> usize {
    0x4000_0000 + rng.below(64) * 0x1000
}

fn random_ptr(rng: &mut XorShift64Star) -> usize {
    match rng.below(3) {
        0 => 0,
        1 => 0xdead_b000,
        _ => 0x20_0000 + rng.below(8) * 0x1000,
    }
}

/// A container pointer for the scheduler-control ops: half the time the
/// root container (always live, so weights/throttles take effect for
/// real), otherwise a guess that exercises the error paths.
fn sched_target(rng: &mut XorShift64Star) -> usize {
    if rng.chance(1, 2) {
        0x20_0000
    } else {
        random_ptr(rng)
    }
}

fn random_op(rng: &mut XorShift64Star, ncpus: usize) -> Op {
    let cpu = rng.below(ncpus);
    let args = match rng.below(31) {
        0 | 1 => SyscallArgs::Mmap {
            va_base: random_va(rng),
            len: rng.range(1, 9),
            writable: rng.chance(1, 2),
        },
        2 | 3 => SyscallArgs::Munmap {
            va_base: random_va(rng),
            len: rng.range(1, 9),
        },
        4 => SyscallArgs::MmapHuge2M {
            va_base: 0x8000_0000 + rng.below(4) * 0x20_0000,
            writable: true,
        },
        5 => SyscallArgs::MunmapHuge2M {
            va_base: 0x8000_0000 + rng.below(4) * 0x20_0000,
        },
        6 => SyscallArgs::NewContainer {
            quota: rng.below(64),
            cpus: vec![],
        },
        7 => SyscallArgs::TerminateContainer {
            cntr: random_ptr(rng),
        },
        8 => SyscallArgs::NewProcess {
            cntr: random_ptr(rng),
        },
        9 => SyscallArgs::TerminateProcess {
            proc: random_ptr(rng),
        },
        10 => SyscallArgs::NewThread {
            proc: random_ptr(rng),
            cpu: rng.below(ncpus),
        },
        11 => SyscallArgs::NewEndpoint {
            slot: rng.below(18),
        },
        12 => {
            let grant_page_va = rng.chance(1, 2).then(|| random_va(rng));
            SyscallArgs::Send {
                slot: rng.below(3),
                scalars: [rng.next_u64() % 100, 0, 0, 0],
                grant_page_va,
                grant_endpoint_slot: None,
                grant_iommu_domain: None,
            }
        }
        13 => SyscallArgs::Poll { slot: rng.below(3) },
        14 => SyscallArgs::TakeMsg,
        15 => SyscallArgs::MapGranted { va: random_va(rng) },
        16 => SyscallArgs::DropGrant,
        17 => SyscallArgs::Call {
            slot: rng.below(3),
            scalars: [rng.next_u64() % 100, 0, 0, 0],
        },
        18 => SyscallArgs::ReplyRecv {
            slot: rng.below(3),
            scalars: [rng.next_u64() % 100, 0, 0, 0],
        },
        19 => SyscallArgs::IommuCreateDomain,
        20 => SyscallArgs::IommuMap {
            domain: rng.below(2) as u32,
            iova: 0x10_0000 + rng.below(8) * 0x1000,
            va: random_va(rng),
        },
        21 => SyscallArgs::BlkSubmitBatch {
            queue: rng.below(2),
            ops: (0..rng.below(3))
                .map(|i| BlkOp {
                    cookie: rng.next_u64() % 8,
                    iova: 0x10_0000 + i * 0x1000,
                    lba: rng.next_u64() % 512,
                    write: rng.chance(1, 2),
                })
                .collect(),
        },
        22 => SyscallArgs::BlkReapBatch {
            queue: rng.below(2),
            max: rng.below(4),
            wait: false,
        },
        // Replicated reads: served from the per-CPU replicas when the
        // fuzzed CPU has a current thread, `WrongState` coverage when
        // it does not. Either way the `NrAppended` ledger balance and
        // the epoch replica cross-check run over them.
        23 => SyscallArgs::Getpid,
        24 => SyscallArgs::ThreadLookup {
            thread: random_ptr(rng),
        },
        25 => SyscallArgs::DescriptorResolve {
            slot: rng.below(18),
        },
        26 => SyscallArgs::VmResolve { va: random_va(rng) },
        // Multi-tenant scheduler control: weight changes (0 tears the
        // account down), throttle/unthrottle, and extra container
        // spawn churn so accounts retire under teardown. The budget
        // ledger must stay conserved through all of it.
        27 => SyscallArgs::SchedSetWeight {
            cntr: sched_target(rng),
            weight: rng.below(5) as u32,
        },
        28 => SyscallArgs::SchedThrottle {
            cntr: sched_target(rng),
            throttle: rng.chance(1, 2),
        },
        29 => SyscallArgs::NewContainer {
            quota: rng.below(16),
            cpus: vec![],
        },
        _ => SyscallArgs::Yield,
    };
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

fn error_code(e: SyscallError) -> u8 {
    match e {
        SyscallError::NoMem => 1,
        SyscallError::Quota => 2,
        SyscallError::Capacity => 3,
        SyscallError::NotFound => 4,
        SyscallError::Invalid => 5,
        SyscallError::Denied => 6,
        SyscallError::WrongState => 7,
        SyscallError::Fault => 8,
    }
}

/// One coverage point: which syscall variant ran and how it returned.
type CovPoint = (Discriminant<SyscallArgs>, u8);

fn boot_smp(ncpus: usize) -> SmpKernel {
    let k = SmpKernel::new(Kernel::boot(KernelConfig {
        mem_mib: 32,
        ncpus,
        root_quota: 1024,
    }));
    // Put a runnable thread on every CPU so fuzzed ops issued there
    // execute for real instead of uniformly failing with `WrongState`.
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
        let outcome = match ret.result {
            Ok(_) => 0,
            Err(e) => error_code(e),
        };
        cov.insert((std::mem::discriminant(&op.args), outcome));
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

fn corpus_schedules() -> Vec<(&'static str, Schedule)> {
    vec![
        (
            "audit_mem_lifecycle.txt",
            parse_schedule(include_str!("corpus/audit_mem_lifecycle.txt")),
        ),
        (
            "audit_ipc_grants.txt",
            parse_schedule(include_str!("corpus/audit_ipc_grants.txt")),
        ),
        (
            "audit_smp_mixed.txt",
            parse_schedule(include_str!("corpus/audit_smp_mixed.txt")),
        ),
        (
            "audit_nr_readers.txt",
            parse_schedule(include_str!("corpus/audit_nr_readers.txt")),
        ),
        (
            "audit_nr_mixed.txt",
            parse_schedule(include_str!("corpus/audit_nr_mixed.txt")),
        ),
        (
            "audit_mt_churn.txt",
            parse_schedule(include_str!("corpus/audit_mt_churn.txt")),
        ),
        (
            "audit_mt_throttle.txt",
            parse_schedule(include_str!("corpus/audit_mt_throttle.txt")),
        ),
    ]
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
        let cov = run_differential(&k, &schedule, 16, name);
        assert!(!cov.is_empty());
        // The corpus round-trips through the text format (replaying a
        // re-serialized corpus is the same schedule).
        for op in &schedule {
            let line = format_op(op);
            let reparsed = parse_op(&line).expect("round-trip");
            assert_eq!(
                std::mem::discriminant(&reparsed.args),
                std::mem::discriminant(&op.args),
                "{name}: `{line}` reparsed to a different op"
            );
            assert_eq!(reparsed.cpu, op.cpu);
        }
    }
}

/// The satellite property: after randomized syscall sequences on 1, 4
/// and 8 CPUs — with cache-resident pages (thread creation refills the
/// per-CPU caches) and in-flight pkt/blk pool handles — the
/// incremental audit and the flat audit agree.
#[test]
fn incremental_agrees_with_flat_on_1_4_8_cpus() {
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
