//! A trace `Snapshot` is a function of the workload, not of the host.
//!
//! Everything a snapshot holds is a count or a modeled-cycle quantity:
//! a domain lock's hold runs from the acquirer's meter entering the
//! domain to the release time it published, a scheduler pick records the
//! run-queue levels and nodes it touched, and nothing is read off the host
//! clock. So one seeded workload driven twice must leave two equal
//! snapshots — including `locks.*.hold_max_cycles` and the pick
//! histogram, which were host nanoseconds before and never repeated.

use atmosphere::kernel::{Kernel, KernelConfig, SmpKernel, SyscallArgs};
use atmosphere::spec::rng::XorShift64Star;
use atmosphere::trace::Snapshot;

const NCPUS: usize = 4;
const OPS: usize = 6000;
const VA_BASE: usize = 0x4000_0000;

fn send(slot: usize) -> SyscallArgs {
    SyscallArgs::Send {
        slot,
        scalars: [0; 4],
        grant_page_va: None,
        grant_endpoint_slot: None,
        grant_iommu_domain: None,
    }
}

/// Four CPUs, each with its own container and process holding a client
/// and a server thread parked on a shared endpoint, node replication on.
/// Each op goes to the CPU with the smallest modeled clock and is drawn
/// from the seed: an IPC leg (`Call` by the client, `TakeMsg` +
/// `ReplyRecv` by the server), a one-page `Mmap`/`Munmap` toggle, a
/// `Yield`, or a replicated read.
fn run(seed: u64) -> Snapshot {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: NCPUS,
        root_quota: 8192,
    });
    for cpu in 0..NCPUS {
        let proc = if cpu == 0 {
            k.init_proc
        } else {
            let cntr = k
                .syscall(
                    0,
                    SyscallArgs::NewContainer {
                        quota: 512,
                        cpus: vec![cpu],
                    },
                )
                .val0() as usize;
            let proc = k.syscall(0, SyscallArgs::NewProcess { cntr }).val0() as usize;
            assert!(k.syscall(0, SyscallArgs::NewThread { proc, cpu }).is_ok());
            assert!(k.pm.timer_tick(cpu).is_some(), "cpu {cpu}'s client runs");
            proc
        };
        let endpoint = k.syscall(cpu, SyscallArgs::NewEndpoint { slot: 0 }).val0() as usize;
        let server = k.syscall(cpu, SyscallArgs::NewThread { proc, cpu }).val0() as usize;
        k.pm.install_descriptor(server, 0, endpoint)
            .expect("endpoint installs");
        // Park the server as the endpoint's receiver: the client
        // recv-blocks, the server sends it awake and recv-blocks.
        for args in [
            SyscallArgs::Recv { slot: 0 },
            send(0),
            SyscallArgs::Recv { slot: 0 },
            SyscallArgs::TakeMsg,
        ] {
            let r = k.syscall(cpu, args.clone());
            assert!(r.is_ok(), "cpu {cpu} {args:?}: {r:?}");
        }
    }
    let k = SmpKernel::new(k);
    k.enable_nr();

    let mut rng = XorShift64Star::new(seed);
    let mut in_server = [false; NCPUS];
    let mut mapped = [0u64; NCPUS];
    for op in 0..OPS {
        let cpu = (0..NCPUS).min_by_key(|&c| k.cycles(c)).expect("cpus");
        let calls = match rng.below(8) {
            0..=2 => {
                in_server[cpu] = !in_server[cpu];
                if in_server[cpu] {
                    vec![SyscallArgs::Call {
                        slot: 0,
                        scalars: [op as u64; 4],
                    }]
                } else {
                    vec![
                        SyscallArgs::TakeMsg,
                        SyscallArgs::ReplyRecv {
                            slot: 0,
                            scalars: [op as u64; 4],
                        },
                    ]
                }
            }
            3 | 4 => {
                let slot = rng.below(64);
                let va_base = VA_BASE + slot * 0x1000;
                mapped[cpu] ^= 1 << slot;
                vec![if mapped[cpu] >> slot & 1 == 1 {
                    SyscallArgs::Mmap {
                        va_base,
                        len: 1,
                        writable: true,
                    }
                } else {
                    SyscallArgs::Munmap { va_base, len: 1 }
                }]
            }
            5 => vec![SyscallArgs::Yield],
            6 => vec![SyscallArgs::Getpid],
            _ => vec![SyscallArgs::VmResolve {
                va: VA_BASE + rng.below(64) * 0x1000,
            }],
        };
        for args in calls {
            let r = k.syscall(cpu, args.clone());
            assert!(r.is_ok(), "op {op} cpu {cpu} {args:?}: {r:?}");
        }
    }
    let audit = k.audit_total_wf();
    assert!(audit.is_ok(), "{audit:?}");
    k.trace_snapshot()
}

#[test]
fn same_seed_runs_leave_equal_snapshots() {
    let (a, b) = (run(7), run(7));
    // Row by row first, so a drifted counter is named.
    for ((name, x), (_, y)) in a.counters.flat().iter().zip(b.counters.flat().iter()) {
        assert_eq!(x, y, "{name} differs between two runs of seed 7");
    }
    assert_eq!(a.sched_pick_hist, b.sched_pick_hist);
    assert_eq!(a.lock_wait_pm_hist, b.lock_wait_pm_hist);
    assert_eq!(a, b);
    assert_eq!(a.render(), b.render());

    // The workload reached every quantity that used to be host time.
    let locks = &a.counters.locks;
    assert!(locks.pm.hold_max_cycles > 0 && locks.mem.hold_max_cycles > 0);
    assert!(a.lock_wait_pm_hist.max() > 0, "cross-CPU pm contention");
    assert!(a.sched_pick_hist.count() > 0 && a.sched_pick_hist.max() > 0);
    assert!(a.counters.pm.fastpath.hits > 0 && a.counters.nr.read_local > 0);
    assert!(a.counters.ptable.maps > 0 && a.counters.ptable.unmaps > 0);
    // A hold is modeled cycles: it cannot exceed the run's modeled length.
    let modeled_end = a.syscalls.iter().map(|s| s.max_cycles).max().unwrap_or(0);
    assert!(locks.pm.hold_max_cycles <= modeled_end);
    assert!(locks.mem.hold_max_cycles <= modeled_end);

    // And the equality is not vacuous: another seed is another snapshot.
    assert_ne!(a, run(8));
}
