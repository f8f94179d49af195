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
//! * against the kernel's own replicas — copies of Ψ's pm (with every
//!   CPU's `current`) and of Ψ's `spaces` per CPU — under fuzzed syscall
//!   schedules on 1, 4, 8 and 16 CPUs, where the epoch audit
//!   (`audit_total_wf`) additionally requires each replica to equal the
//!   locked state's Ψ itself;
//! * one call at a time: after each mem- or pm-writing call, the epoch
//!   audit judges that call's log entry alone.

use atmosphere::kernel::spec::vm_resolve_answer;
use atmosphere::kernel::{Kernel, KernelConfig, Pools, SmpKernel, SyscallArgs};
use atmosphere::nr::{NodeReplicated, NrDispatch, DEFAULT_LOG_CAPACITY};
use atmosphere::spec::XorShift64Star;
use atmosphere::trace::SyscallKind::{self, *};

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

impl NrDispatch<RegOp> for Regs {
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

/// Mostly replicated reads, beside the mutations they must observe.
fn weight(kind: SyscallKind) -> usize {
    match kind {
        Getpid | ThreadLookup | VmResolve | Yield => 2,
        DescriptorResolve | Mmap | Munmap | NewEndpoint => 1,
        _ => 0,
    }
}

fn random_syscall(rng: &mut XorShift64Star, cpu: usize, threads: &[usize]) -> SyscallArgs {
    let pools = Pools {
        va: va_arena(cpu)..va_arena(cpu) + 16 * 0x1000,
        objects: threads.to_vec(),
        ncpus: threads.len(),
    };
    let kind = rng.weighted(&SyscallKind::ALL, weight);
    SyscallArgs::sample(kind, rng, &pools)
}

/// Fuzzed schedules mixing replicated reads with pm/mem mutations on
/// 1, 4, 8 and 16 CPUs: the incremental audit stays green throughout,
/// the epoch audit (replica linearization + replica vs locked-state
/// cross-check + `NrAppended` ledger balance) stays
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
        .peek(1, |(pm, current), _| {
            let t = pm.threads.index(&current[1]?)?;
            Some(pm.processes.index(&t.owning_proc)?.addr_space)
        })
        .expect("cpu 1 has a current thread");
    nr.mem.peek(1, |s, tail| {
        assert_eq!(tail, tail_before);
        let answer = s.index(&space).map(|s| vm_resolve_answer(s, va));
        assert_eq!(answer, Some([0; 4]), "stale replica must miss");
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
/// each call the epoch audit compares every mem replica, synced to the
/// tail, with Ψ's `spaces` — frames, flags and leaf sizes included. The
/// comparison runs before the audit bridge appends its own `Reset`, so
/// a call whose mem-log entry misses a leaf it wrote (the 512 of a
/// promotion or a demotion included) fails at that call.
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

/// Every pm-writing call judged alone, with replication on: a scripted
/// run over two CPUs whose threads share an endpoint in slot 1 makes
/// each call below succeed once, and after each the epoch audit
/// compares every pm replica, synced to the tail, with Ψ's pm and every
/// CPU's `current`. A call whose pm-log entry misses an object it wrote
/// (a write site that skips its record) fails at that call, naming the
/// component and key.
#[test]
fn kernel_replicas_replay_each_pm_call_alone() {
    use SyscallArgs as A;
    let send = |grant_page_va, grant_endpoint_slot| A::Send {
        slot: 1,
        scalars: [7; 4],
        grant_page_va,
        grant_endpoint_slot,
        grant_iommu_domain: None,
    };
    for ncpus in [2usize, 4] {
        let (k, threads) = boot_nr(ncpus);
        let e = k.syscall(0, A::NewEndpoint { slot: 1 });
        assert!(e.is_ok(), "{e:?}");
        k.with_kernel(|flat| {
            flat.pm
                .install_descriptor(threads[1], 1, e.val0() as usize)
                .unwrap()
        });
        let (va, dst) = (va_arena(0), va_arena(1));
        let call = A::Call {
            slot: 1,
            scalars: [3; 4],
        };
        let mut script = std::collections::VecDeque::from([
            (0, A::NewEndpoint { slot: 2 }),
            // An endpoint grant, then two page grants: one mapped, one
            // dropped.
            (1, A::Recv { slot: 1 }),
            (0, send(None, Some(2))),
            (1, A::TakeMsg),
            (
                0,
                A::Mmap {
                    va_base: va,
                    len: 2,
                    writable: true,
                },
            ),
            (1, A::Recv { slot: 1 }),
            (0, send(Some(va), None)),
            (1, A::TakeMsg),
            (1, A::MapGranted { va: dst }),
            (1, A::Recv { slot: 1 }),
            (0, send(Some(va + 0x1000), None)),
            (1, A::TakeMsg),
            (1, A::DropGrant),
            // CPU 0's sender parks until CPU 1 polls.
            (0, send(None, None)),
            (1, A::Poll { slot: 1 }),
            // Call and reply, then call and reply-receive.
            (1, A::Recv { slot: 1 }),
            (0, call.clone()),
            (1, A::Reply { scalars: [4; 4] }),
            (1, A::Recv { slot: 1 }),
            (0, call),
            (
                1,
                A::ReplyRecv {
                    slot: 1,
                    scalars: [5; 4],
                },
            ),
            (0, send(None, None)),
            // A second thread on CPU 0 runs and exits.
            (
                0,
                A::NewThread {
                    proc: k.init_proc(),
                    cpu: 0,
                },
            ),
            (0, A::Yield),
            (0, A::Exit),
            (0, A::NewChildProcess),
            (
                0,
                A::NewContainer {
                    quota: 64,
                    cpus: vec![],
                },
            ),
        ]);
        let mut succeeded = std::collections::BTreeSet::new();
        while let Some((cpu, args)) = script.pop_front() {
            let kind = args.trace_kind();
            let ret = k.syscall(cpu, args);
            assert!(ret.is_ok(), "ncpus={ncpus}: {kind:?} on cpu {cpu}: {ret:?}");
            succeeded.insert(kind);
            let audit = k.audit_total_wf();
            assert!(
                audit.is_ok(),
                "ncpus={ncpus}: {kind:?} on cpu {cpu}: {audit:?}"
            );
            let v = ret.val0() as usize;
            // What the created objects make possible: the scheduler
            // controls and the teardowns.
            let next = match kind {
                SyscallKind::NewChildProcess => vec![A::TerminateProcess { proc: v }],
                SyscallKind::NewContainer => vec![
                    A::SchedSetWeight { cntr: v, weight: 4 },
                    A::SchedThrottle {
                        cntr: v,
                        throttle: true,
                    },
                    A::SchedThrottle {
                        cntr: v,
                        throttle: false,
                    },
                    A::NewProcess { cntr: v },
                    A::TerminateContainer { cntr: v },
                ],
                SyscallKind::NewProcess => vec![A::NewThread { proc: v, cpu: 1 }],
                _ => vec![],
            };
            for args in next.into_iter().rev() {
                script.push_front((0, args));
            }
        }
        for kind in [
            Send,
            Recv,
            Poll,
            Call,
            Reply,
            ReplyRecv,
            TakeMsg,
            MapGranted,
            DropGrant,
            Yield,
            NewThread,
            Exit,
            NewEndpoint,
            SchedSetWeight,
            SchedThrottle,
            TerminateProcess,
            TerminateContainer,
        ] {
            assert!(
                succeeded.contains(&kind),
                "ncpus={ncpus}: {kind:?} never succeeded"
            );
        }
    }
}
