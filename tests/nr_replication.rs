//! Replica-linearization property tests for the node-replication layer.
//!
//! The core claim (`nr_wf`) is that every replica at completion tail
//! `t` equals the flat fold of the abstract op sequence `[0, t)` over
//! the initial state, and that a stale replica is *exactly* stale — its
//! state reflects precisely the prefix it has replayed, never anything
//! newer. These tests check the claim two ways:
//!
//! * against a raw [`NodeReplicated`] over a small register machine,
//!   with a shadow log the test folds independently (so the oracle does
//!   not share code with the implementation);
//! * against the kernel's own `PmView`/`MemView` replicas under fuzzed
//!   syscall schedules on 1, 4, 8 and 16 CPUs, where the epoch audit
//!   (`audit_total_wf`) additionally cross-checks each replica
//!   bit-for-bit against a fresh projection of the locked state.

use atmosphere::kernel::{Kernel, KernelConfig, SmpKernel, SyscallArgs};
use atmosphere::nr::{NodeReplicated, NrDispatch, DEFAULT_LOG_CAPACITY};
use atmosphere::spec::XorShift64Star;
use atmosphere::trace::SyscallKind;

// ----- a small, order-sensitive register machine -------------------------

/// Ops over four registers. `Set` after `Add` differs from `Add` after
/// `Set`, so replay *order* (not just multiplicity) is observable.
#[derive(Clone, Copy, Debug)]
enum RegOp {
    Set(usize, u64),
    Add(usize, u64),
}

#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct Regs {
    regs: [u64; 4],
    applied: u64,
}

impl NrDispatch for Regs {
    type Op = RegOp;
    fn apply(&mut self, op: &RegOp) {
        match *op {
            RegOp::Set(r, v) => self.regs[r] = v,
            RegOp::Add(r, d) => self.regs[r] = self.regs[r].wrapping_add(d),
        }
        self.applied += 1;
    }
}

/// The independent oracle: a flat fold of a shadow-log prefix.
fn fold(prefix: &[RegOp]) -> Regs {
    let mut s = Regs::default();
    for op in prefix {
        s.apply(op);
    }
    s
}

fn random_regop(rng: &mut XorShift64Star) -> RegOp {
    let reg = rng.below(4);
    if rng.chance(1, 2) {
        RegOp::Set(reg, rng.next_u64() % 1000)
    } else {
        RegOp::Add(reg, rng.next_u64() % 1000)
    }
}

/// Fuzzed mixes of `execute_mut` (append + local replay) and the
/// fire-and-forget `append` on 1/4/8/16 replicas: at every step, every
/// probed replica equals the fold of exactly its replayed prefix — the
/// stale-read bound — and reads linearize at the published tail.
#[test]
fn replica_equals_fold_of_replayed_prefix() {
    for &ncpus in &[1usize, 4, 8, 16] {
        let mut rng = XorShift64Star::new(0x5eed_11ea + ncpus as u64);
        let nr = NodeReplicated::new(ncpus, Regs::default());
        let mut shadow: Vec<RegOp> = Vec::new();
        for step in 0..400usize {
            let cpu = rng.below(ncpus);
            let batch: Vec<RegOp> = (0..rng.range(1, 4))
                .map(|_| random_regop(&mut rng))
                .collect();
            shadow.extend(batch.iter().copied());
            let stats = if rng.chance(1, 2) {
                nr.execute_mut(cpu, batch)
            } else {
                nr.append(cpu, batch)
            };
            assert!(stats.appended > 0);
            assert_eq!(
                nr.tail() as usize,
                shadow.len(),
                "log order is program order"
            );

            // Stale-read bound: the probed replica's state is the fold
            // of exactly the prefix its tail records — never newer.
            let probe = rng.below(ncpus);
            nr.peek(probe, |s, tail| {
                assert!(tail as usize <= shadow.len());
                assert_eq!(
                    *s,
                    fold(&shadow[..tail as usize]),
                    "replica {probe} at tail {tail} is not the fold of its prefix (ncpus={ncpus})"
                );
            });

            // A read replays to the published tail and answers from it.
            if step % 16 == 0 {
                let (seen, rs) = nr.execute_ro(probe, |s| s.clone());
                assert_eq!(rs.tail as usize, shadow.len());
                assert_eq!(seen, fold(&shadow));
            }
            if step % 64 == 0 {
                nr.sync_all();
                assert!(nr.nr_wf().is_ok(), "{:?}", nr.nr_wf());
            }
        }
        nr.sync_all();
        assert!(nr.nr_wf().is_ok(), "{:?}", nr.nr_wf());
        assert_eq!(nr.fold_to_tail(), fold(&shadow));
        for cpu in 0..ncpus {
            nr.peek(cpu, |s, tail| {
                assert_eq!(tail as usize, shadow.len());
                assert_eq!(*s, fold(&shadow), "replica {cpu} diverged after sync_all");
            });
        }
    }
}

/// Drives the log far past `DEFAULT_LOG_CAPACITY` with fire-and-forget
/// appends: the checkpoint GC must fold the replayed prefix (bounding
/// the retained window) without perturbing the abstract fold.
#[test]
fn gc_checkpoint_preserves_the_fold_past_capacity() {
    let ncpus = 4;
    let mut rng = XorShift64Star::new(0x5eed_6c6c);
    let nr = NodeReplicated::new(ncpus, Regs::default());
    let mut shadow: Vec<RegOp> = Vec::new();
    for step in 0..2600usize {
        let cpu = rng.below(ncpus);
        let batch: Vec<RegOp> = (0..rng.range(4, 9))
            .map(|_| random_regop(&mut rng))
            .collect();
        shadow.extend(batch.iter().copied());
        nr.append(cpu, batch);
        if step % 512 == 511 {
            // Replicas catch up, so the next GC pass has a prefix to fold.
            nr.sync_all();
            assert!(nr.nr_wf().is_ok(), "{:?}", nr.nr_wf());
        }
    }
    nr.sync_all();
    assert!(
        shadow.len() > DEFAULT_LOG_CAPACITY,
        "workload must exceed capacity"
    );
    assert!(nr.checkpoint_tail() > 0, "GC never folded a prefix");
    assert!(
        nr.retained_ops() <= DEFAULT_LOG_CAPACITY + 16,
        "retained window unbounded: {} ops",
        nr.retained_ops()
    );
    assert!(nr.nr_wf().is_ok(), "{:?}", nr.nr_wf());
    assert_eq!(
        nr.fold_to_tail(),
        fold(&shadow),
        "GC changed the abstract fold"
    );
}

// ----- kernel-level replication ------------------------------------------

/// Per-CPU VA arenas inside the shared init address space.
fn va_arena(cpu: usize) -> usize {
    0x4000_0000 + cpu * 0x100_0000
}

/// Boots an NR-enabled sharded kernel: one runnable thread of the init
/// process per CPU (so every CPU reads the same address space), an
/// endpoint in descriptor slot 0 on each, incremental audit armed.
fn boot_nr(ncpus: usize) -> (SmpKernel, Vec<usize>) {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus,
        root_quota: 16384,
    });
    let mut threads = vec![k.init_thread];
    for cpu in 1..ncpus {
        let proc = k.init_proc;
        let r = k.syscall(0, SyscallArgs::NewThread { proc, cpu });
        assert!(r.is_ok(), "thread for cpu {cpu}: {r:?}");
        threads.push(r.val0() as usize);
        k.pm.timer_tick(cpu);
    }
    for cpu in 0..ncpus {
        let r = k.syscall(cpu, SyscallArgs::NewEndpoint { slot: 0 });
        assert!(r.is_ok(), "endpoint for cpu {cpu}: {r:?}");
    }
    let k = SmpKernel::new(k);
    k.enable_nr();
    k.enable_incremental_audit();
    (k, threads)
}

fn random_syscall(rng: &mut XorShift64Star, cpu: usize, threads: &[usize]) -> SyscallArgs {
    let base = va_arena(cpu);
    match rng.below(12) {
        0 | 1 => SyscallArgs::Getpid,
        2 | 3 => SyscallArgs::ThreadLookup {
            thread: threads[rng.below(threads.len())],
        },
        4 => SyscallArgs::DescriptorResolve { slot: rng.below(3) },
        5 | 6 => SyscallArgs::VmResolve {
            va: base + rng.below(16) * 0x1000,
        },
        7 => SyscallArgs::Mmap {
            va_base: base + rng.below(16) * 0x1000,
            len: rng.range(1, 4),
            writable: rng.chance(1, 2),
        },
        8 => SyscallArgs::Munmap {
            va_base: base + rng.below(16) * 0x1000,
            len: rng.range(1, 4),
        },
        9 => SyscallArgs::NewEndpoint {
            slot: 1 + rng.below(3),
        },
        _ => SyscallArgs::Yield,
    }
}

/// Fuzzed schedules mixing replicated reads with pm/mem mutations on
/// 1, 4, 8 and 16 CPUs: the incremental audit stays green throughout,
/// the epoch audit (replica linearization + bit-for-bit replica vs
/// locked-projection cross-check + `NrAppended` ledger balance) stays
/// green at boundaries, and both kernel replicas converge to their
/// logs' abstract folds.
#[test]
fn kernel_replicas_linearize_under_fuzzed_syscalls() {
    for &ncpus in &[1usize, 4, 8, 16] {
        for case in 0..3u64 {
            let mut rng = XorShift64Star::new(0x5eed_00aa + case * 977 + ncpus as u64);
            let (k, threads) = boot_nr(ncpus);
            for i in 0..240usize {
                let cpu = rng.below(ncpus);
                let args = random_syscall(&mut rng, cpu, &threads);
                // Errors (unmapped resolves, busy slots) are fair game;
                // the audits must stay green either way.
                let _ = k.syscall(cpu, args);
                if i % 32 == 31 {
                    let audit = k.audit_incremental();
                    assert!(audit.is_ok(), "ncpus={ncpus} case={case} op {i}: {audit:?}");
                }
                if i % 120 == 119 {
                    let audit = k.audit_total_wf();
                    assert!(audit.is_ok(), "ncpus={ncpus} case={case} op {i}: {audit:?}");
                }
            }
            let audit = k.audit_total_wf();
            assert!(audit.is_ok(), "ncpus={ncpus} case={case} final: {audit:?}");

            // Every replica, once caught up, equals the abstract fold.
            let nr = k.nr().expect("replication enabled");
            nr.sync_all();
            assert!(nr.nr_wf().is_ok(), "{:?}", nr.nr_wf());
            let pm_fold = nr.pm.fold_to_tail();
            let mem_fold = nr.mem.fold_to_tail();
            for cpu in 0..ncpus {
                nr.pm.peek(cpu, |s, tail| {
                    assert_eq!(tail, nr.pm.tail());
                    assert_eq!(*s, pm_fold, "pm replica {cpu} diverged");
                });
                nr.mem.peek(cpu, |s, tail| {
                    assert_eq!(tail, nr.mem.tail());
                    assert_eq!(*s, mem_fold, "mem replica {cpu} diverged");
                });
            }
        }
    }
}

/// The kernel-level stale-read bound: a peer replica stays exactly at
/// its recorded tail until *it* reads — and that first read replays to
/// the published tail, observing a write another CPU appended.
#[test]
fn kernel_replica_read_observes_cross_cpu_write_on_replay() {
    let (k, _threads) = boot_nr(4);
    let nr = k.nr().expect("replication enabled");
    let va = va_arena(0) + 0x3000;

    // CPU 1 resolves the page before the write: unmapped, served local.
    let r = k.syscall(1, SyscallArgs::VmResolve { va });
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(r.val0(), 0, "page must start unmapped");
    let tail_before = nr.mem.tail();
    assert_eq!(nr.mem.replica_tail(1), tail_before);

    // CPU 0 maps it: the write appends to the mem log (fire-and-forget)
    // without touching CPU 1's replica.
    let r = k.syscall(
        0,
        SyscallArgs::Mmap {
            va_base: va,
            len: 1,
            writable: true,
        },
    );
    assert!(r.is_ok(), "{r:?}");
    let tail_after = nr.mem.tail();
    assert!(tail_after > tail_before, "mmap must append to the mem log");
    assert_eq!(
        nr.mem.replica_tail(1),
        tail_before,
        "peer replica must not advance until it reads"
    );
    // Stale-read bound: CPU 1's replica still resolves the old answer —
    // its state is the fold of exactly [0, tail_before).
    let space = nr
        .pm
        .peek(1, |s, _| s.current_addr_space(1))
        .expect("cpu 1 has a current thread");
    nr.mem.peek(1, |s, tail| {
        assert_eq!(tail, tail_before);
        assert_eq!(s.resolve(space, va), None, "stale replica must miss");
    });

    // CPU 1's next read replays to the published tail and sees the map.
    let r = k.syscall(1, SyscallArgs::VmResolve { va });
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(r.val0(), 1, "replayed read must observe the mapping");
    assert_eq!(nr.mem.replica_tail(1), tail_after);

    let audit = k.audit_total_wf();
    assert!(audit.is_ok(), "{audit:?}");
}

// ----- one locked call at a time -----------------------------------------

/// The mem-reaching calls the per-call differential must see succeed.
const MEM_CALLS: [SyscallKind; 10] = [
    SyscallKind::NewProcess,
    SyscallKind::NewChildProcess,
    SyscallKind::TerminateProcess,
    SyscallKind::TerminateContainer,
    SyscallKind::Exit,
    SyscallKind::MmapHuge2M,
    SyscallKind::MunmapHuge2M,
    SyscallKind::MapGranted,
    SyscallKind::DropGrant,
    SyscallKind::Mmap,
];

/// Per-CPU state of the differential's episodes.
#[derive(Default)]
struct CpuEpisodes {
    /// A child process of the CPU's thread, when one is live.
    child: Option<usize>,
    /// A child container holding one process, when one is live.
    cntr: Option<usize>,
    /// Which of the CPU's two 2 MiB slots hold a superpage.
    huge: [bool; 2],
    /// Step of the promote/demote cycle over the CPU's 512-page run.
    run_step: usize,
}

/// The next episode on `cpu`: a short call sequence, issued in order.
fn episode(
    rng: &mut XorShift64Star,
    cpu: usize,
    st: &mut CpuEpisodes,
    k: &SmpKernel,
) -> Vec<(usize, SyscallArgs)> {
    let run = va_arena(cpu);
    let huge = 0x8000_0000 + cpu * 0x100_0000;
    match rng.below(6) {
        0 => vec![(
            cpu,
            match st.child.take() {
                Some(proc) => SyscallArgs::TerminateProcess { proc },
                None => SyscallArgs::NewChildProcess,
            },
        )],
        1 => match st.cntr.take() {
            Some(cntr) => vec![(cpu, SyscallArgs::TerminateContainer { cntr })],
            None => vec![(
                cpu,
                SyscallArgs::NewContainer {
                    quota: 64,
                    cpus: vec![],
                },
            )],
        },
        2 => {
            let slot = rng.below(2);
            let va_base = huge + slot * 0x20_0000;
            st.huge[slot] = !st.huge[slot];
            vec![(
                cpu,
                match st.huge[slot] {
                    true => SyscallArgs::MmapHuge2M {
                        va_base,
                        writable: rng.chance(1, 2),
                    },
                    false => SyscallArgs::MunmapHuge2M { va_base },
                },
            )]
        }
        3 => {
            // Whole run (promotes), a 64-page hole (demotes), the hole
            // back, the whole run away.
            let chunk = run + 64 * 0x1000;
            st.run_step = (st.run_step + 1) % 4;
            let args = match st.run_step {
                1 => SyscallArgs::Mmap {
                    va_base: run,
                    len: 512,
                    writable: true,
                },
                2 => SyscallArgs::Munmap {
                    va_base: chunk,
                    len: 64,
                },
                3 => SyscallArgs::Mmap {
                    va_base: chunk,
                    len: 64,
                    writable: rng.chance(1, 2),
                },
                _ => SyscallArgs::Munmap {
                    va_base: run,
                    len: 512,
                },
            };
            vec![(cpu, args)]
        }
        // A second thread of the init process on `cpu` runs and exits;
        // the CPU's own thread resumes.
        4 => vec![
            (
                cpu,
                SyscallArgs::NewThread {
                    proc: k.init_proc(),
                    cpu,
                },
            ),
            (cpu, SyscallArgs::Yield),
            (cpu, SyscallArgs::Exit),
        ],
        // CPU 1 receives a page granted by CPU 0 over the endpoint in
        // both threads' slot 1, then maps or drops it.
        _ => {
            let (src, dst) = (0x6000_0000, 0x7000_0000 + rng.below(16) * 0x1000);
            let keep = rng.chance(1, 2);
            let mut calls = vec![
                (1, SyscallArgs::Recv { slot: 1 }),
                (
                    0,
                    SyscallArgs::Mmap {
                        va_base: src,
                        len: 1,
                        writable: true,
                    },
                ),
                (
                    0,
                    SyscallArgs::Send {
                        slot: 1,
                        scalars: [0; 4],
                        grant_page_va: Some(src),
                        grant_endpoint_slot: None,
                        grant_iommu_domain: None,
                    },
                ),
                (1, SyscallArgs::TakeMsg),
                (
                    1,
                    match keep {
                        true => SyscallArgs::MapGranted { va: dst },
                        false => SyscallArgs::DropGrant,
                    },
                ),
                (
                    0,
                    SyscallArgs::Munmap {
                        va_base: src,
                        len: 1,
                    },
                ),
            ];
            if keep {
                calls.push((
                    1,
                    SyscallArgs::Munmap {
                        va_base: dst,
                        len: 1,
                    },
                ));
            }
            calls
        }
    }
}

/// Every mem-reaching call judged alone, with replication on: after
/// each call the epoch audit compares every replica, synced to the
/// tail, with a fresh projection of the locked state. The comparison
/// runs before the audit bridge appends its own `Reset`, so a call
/// whose mem-log entry misses a space it changed fails at that call.
#[test]
fn kernel_replicas_replay_each_mem_call_alone() {
    let mut succeeded = std::collections::BTreeSet::new();
    let mut promotions_and_demotions = (0, 0);
    for ncpus in [2usize, 4] {
        let mut rng = XorShift64Star::new(0x7a11_0c01 + ncpus as u64);
        let (k, threads) = boot_nr(ncpus);
        let e = k.syscall(0, SyscallArgs::NewEndpoint { slot: 1 });
        assert!(e.is_ok(), "{e:?}");
        k.with_kernel(|flat| {
            flat.pm
                .install_descriptor(threads[1], 1, e.val0() as usize)
                .unwrap()
        });
        let mut st: Vec<CpuEpisodes> = (0..ncpus).map(|_| CpuEpisodes::default()).collect();
        for ep in 0..30 {
            let cpu = rng.below(ncpus);
            let mut calls =
                std::collections::VecDeque::from(episode(&mut rng, cpu, &mut st[cpu], &k));
            while let Some((c, args)) = calls.pop_front() {
                let kind = args.trace_kind();
                let ret = k.syscall(c, args);
                if ret.is_ok() {
                    succeeded.insert(kind);
                    match kind {
                        SyscallKind::NewChildProcess => st[c].child = Some(ret.val0() as usize),
                        // One process in the new container: a space for
                        // its terminate to destroy.
                        SyscallKind::NewContainer => {
                            let cntr = ret.val0() as usize;
                            st[c].cntr = Some(cntr);
                            calls.push_front((c, SyscallArgs::NewProcess { cntr }));
                        }
                        _ => {}
                    }
                }
                let audit = k.audit_total_wf();
                assert!(
                    audit.is_ok(),
                    "ncpus={ncpus} episode {ep}, {kind:?} on cpu {c} \
                     returned {ret:?}: {audit:?}"
                );
            }
        }
        let vm = k.trace_snapshot().counters.vm;
        promotions_and_demotions.0 += vm.superpage_promotions;
        promotions_and_demotions.1 += vm.superpage_demotions;
    }
    for call in MEM_CALLS {
        assert!(succeeded.contains(&call), "{call:?} never succeeded");
    }
    assert!(promotions_and_demotions.0 > 0 && promotions_and_demotions.1 > 0);
}
