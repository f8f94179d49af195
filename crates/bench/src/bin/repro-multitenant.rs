//! Reproduces the **multi-tenant scale-out** experiment: 1000+
//! containers with per-container CPU budgets, live churn and
//! adversarial neighbors, against a latency-sensitive victim tenant
//! that owns one CPU exclusively.
//!
//! Topology (4 CPUs): CPU 0 runs the root control plane (endpoint
//! draining — the wakeup storms — plus container churn: every churn
//! period one tenant is terminated mid-life and respawned). CPUs 1–2
//! carry the tenant fleet: zero-CPU containers whose threads share the
//! root-owned CPUs, weighted so the aggregate refill rate far exceeds
//! capacity — the fleet perpetually exhausts its budgets, throttles,
//! parks and unparks. CPU 1 tenants flood a shared endpoint (blocking
//! sender storms drained by the control plane), CPU 2 tenants burn
//! their quotas (process spawns and mmaps until `QuotaExceeded`). The
//! victim owns CPU 3 exclusively (strict partition) and runs a
//! yield+map+unmap loop; each iteration's modeled cycles are recorded.
//!
//! Execution is the same discrete-event interleaving as the SMP
//! scaling experiment: the CPU with the smallest modeled clock issues
//! its next syscall, so lock serialization is visible through each
//! domain's modeled release timestamps.
//!
//! Acceptance gates (the scheduler's O(1) claims):
//! * victim p99 latency with the full fleet shifts ≤ 5% relative to a
//!   4-tenant baseline running the identical adversarial schedule;
//! * the run-queue levels and nodes a scheduler pick touches (counted
//!   inside the scheduler, one trace-histogram sample per pick) at
//!   1000+ containers stay within 2x of the 4-container run, mean and
//!   max — an exact count, so the gate needs no noise floor;
//! * the incremental audit stays green throughout, and the final
//!   stop-the-world audit — which cross-checks the budget-conservation
//!   ledger bit-for-bit against a full scan — passes.

use std::collections::HashMap;

use atmo_bench::{render_table, Machine};
use atmo_kernel::smp::SmpKernel;
use atmo_kernel::{Kernel, KernelConfig, SyscallArgs, SyscallError};

/// Tenants in the large fleet.
const FLEET_SIZE: usize = 1000;
/// Victim iterations per scenario.
const VICTIM_OPS: usize = 1500;
/// One control-plane churn (terminate + respawn a tenant) per this many
/// control-plane turns.
const CHURN_EVERY: u64 = 48;
/// Modeled halt-poll cost when a CPU has nothing runnable.
const IDLE_CYCLES: u64 = 2_000;
/// Victim budget weight: refills comfortably above its tick rate, so
/// the victim itself never throttles.
const VICTIM_WEIGHT: u32 = 16;

/// Direct children are capped at 32 per container, so the fleet is a
/// two-level hierarchy: root -> 32 racks -> up to 32 tenants each
/// (rack 0 also hosts the victim).
const RACKS: usize = 32;

struct Tenant {
    cntr: usize,
    thrd: usize,
    rack: usize,
}

struct Fleet {
    tenants: Vec<Tenant>,
    /// thread -> container, for the quota-exhaustion ops that target
    /// whichever tenant happens to be current.
    cntr_of: HashMap<usize, usize>,
    flood_endpoint: usize,
}

fn tenant_weight(i: usize) -> u32 {
    1 + (i % 4) as u32
}

/// A container under `parent` (direct pm calls — the syscall surface
/// always parents to the caller's container) with `quota`, owning
/// `cpus`, holding one process with its address space and one thread
/// homed on `cpu`, with budget weight `weight`. Returns the container
/// and the thread.
fn spawn(
    k: &mut Kernel,
    parent: usize,
    quota: usize,
    cpus: &[usize],
    cpu: usize,
    weight: u32,
) -> (usize, usize) {
    let cntr =
        k.pm.new_container(&mut k.mem.alloc, parent, quota, cpus)
            .expect("container");
    let proc_ =
        k.pm.new_process(&mut k.mem.alloc, cntr, None)
            .expect("process");
    let as_id = k.pm.proc(proc_).addr_space;
    k.mem
        .vm
        .create_space(&mut k.mem.alloc, as_id)
        .expect("address space");
    let thrd =
        k.pm.new_thread(&mut k.mem.alloc, proc_, cpu)
            .expect("thread");
    k.pm.sched_set_weight(cntr, weight).expect("weight");
    (cntr, thrd)
}

/// Spawns tenant `i` as a child of `rack` (tenants are grandchildren of
/// root) and installs the flood endpoint in its descriptor slot 0.
fn spawn_tenant(k: &mut Kernel, rack: usize, i: usize, flood_endpoint: usize) -> Tenant {
    let (cntr, thrd) = spawn(k, rack, 8, &[], 1 + i % 2, tenant_weight(i));
    k.pm.install_descriptor(thrd, 0, flood_endpoint).unwrap();
    Tenant { cntr, thrd, rack }
}

fn boot(tenants: usize) -> (SmpKernel, Fleet) {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 128,
        ncpus: 4,
        root_quota: 32 * 1024,
    });
    // The racks: root's direct children. Rack 0 takes CPU 3 and hands
    // it on to the victim.
    let racks: Vec<usize> = (0..RACKS)
        .map(|r| {
            let cpus = if r == 0 { vec![3] } else { vec![] };
            k.ok(SyscallArgs::NewContainer { quota: 384, cpus }) as usize
        })
        .collect();
    // Victim: exclusive ownership of CPU 3 (strict partition takes the
    // CPU away from rack 0), its own budget account.
    spawn(&mut k, racks[0], 64, &[3], 3, VICTIM_WEIGHT);
    k.pm.timer_tick(3);

    // The shared endpoint the CPU-1 tenants flood; `NewEndpoint` already
    // installs it in the creating (init) thread's slot 0, so the root
    // control plane can drain it directly.
    let flood_endpoint = k.ok(SyscallArgs::NewEndpoint { slot: 0 }) as usize;

    // Rack slot per tenant: rack 0 has room for 31 (the victim took a
    // slot), the rest for 32 each.
    let mut slots = Vec::new();
    for (ri, &rack) in racks.iter().enumerate() {
        for _ in 0..(if ri == 0 { 31 } else { 32 }) {
            slots.push(rack);
        }
    }
    assert!(
        tenants <= slots.len(),
        "fleet of {tenants} exceeds the {} rack slots",
        slots.len()
    );
    let mut fleet = Fleet {
        tenants: Vec::with_capacity(tenants),
        cntr_of: HashMap::new(),
        flood_endpoint,
    };
    for (i, &slot) in slots.iter().enumerate().take(tenants) {
        let t = spawn_tenant(&mut k, slot, i, flood_endpoint);
        fleet.cntr_of.insert(t.thrd, t.cntr);
        fleet.tenants.push(t);
    }
    for cpu in 1..3 {
        k.pm.timer_tick(cpu);
    }
    let smp = SmpKernel::new(k);
    smp.enable_incremental_audit();
    (smp, fleet)
}

/// No runnable thread answered the trap: tick the scheduler directly
/// (refills may have unparked someone) and model a halt-poll so the
/// DES clock keeps moving.
fn idle_turn(smp: &SmpKernel, cpu: usize) {
    smp.with_kernel(|k| {
        if k.pm.timer_tick(cpu).is_none() {
            k.machine.meter(cpu).charge(IDLE_CYCLES);
        }
    });
}

/// One adversary syscall on `cpu`; errors are the point (quota
/// exhaustion, endpoint overflow), only a missing current thread gets
/// the scheduler re-dispatched.
fn adversary_turn(smp: &SmpKernel, fleet: &Fleet, cpu: usize, turn: u64) {
    let args = if cpu == 1 {
        // Endpoint flood: blocking sender storms, drained (woken) by
        // the control plane on CPU 0.
        if turn.is_multiple_of(2) {
            SyscallArgs::Send {
                slot: 0,
                scalars: [turn, 0, 0, 0],
                grant_page_va: None,
                grant_endpoint_slot: None,
                grant_iommu_domain: None,
            }
        } else {
            SyscallArgs::Yield
        }
    } else {
        // Quota exhaustion: spawn processes and map pages in whichever
        // tenant is current until its quota refuses.
        match turn % 4 {
            0 => {
                let cur = smp.with_kernel(|k| k.pm.sched.current(cpu));
                let Some(t) = cur else {
                    idle_turn(smp, cpu);
                    return;
                };
                match fleet.cntr_of.get(&t) {
                    Some(&cntr) => SyscallArgs::NewProcess { cntr },
                    None => SyscallArgs::Yield,
                }
            }
            1 | 2 => SyscallArgs::Mmap {
                va_base: 0x6000_0000 + (turn % 512) as usize * 0x1000,
                len: 1,
                writable: true,
            },
            _ => SyscallArgs::Yield,
        }
    };
    let r = smp.syscall(cpu, args);
    if r.result == Err(SyscallError::WrongState) {
        // Nothing dispatched on this CPU (the whole queue is parked or
        // blocked): let the scheduler try again.
        idle_turn(smp, cpu);
    }
}

/// One control-plane turn on CPU 0: drain the flood endpoint (waking
/// blocked senders) or, every [`CHURN_EVERY`] turns, churn one tenant —
/// terminate its container mid-life and respawn it.
fn control_turn(smp: &SmpKernel, fleet: &mut Fleet, turn: u64, next_churn: &mut usize) {
    if turn % CHURN_EVERY == CHURN_EVERY - 1 && !fleet.tenants.is_empty() {
        let i = *next_churn % fleet.tenants.len();
        *next_churn += 1;
        let old = &fleet.tenants[i];
        let rack = old.rack;
        let r = smp.syscall(0, SyscallArgs::TerminateContainer { cntr: old.cntr });
        assert!(r.is_ok(), "churn terminate tenant {i}: {r:?}");
        fleet.cntr_of.remove(&old.thrd);
        let flood = fleet.flood_endpoint;
        let t = smp.with_kernel(|k| spawn_tenant(k, rack, i, flood));
        fleet.cntr_of.insert(t.thrd, t.cntr);
        fleet.tenants[i] = t;
        return;
    }
    let args = match turn % 3 {
        0 => SyscallArgs::Recv { slot: 0 },
        1 => SyscallArgs::TakeMsg,
        _ => SyscallArgs::Yield,
    };
    let r = smp.syscall(0, args);
    if r.result == Err(SyscallError::WrongState) {
        idle_turn(smp, 0);
    }
}

struct ScenarioStats {
    tenants: usize,
    victim_ops: usize,
    victim_mean: u64,
    victim_p99: u64,
    /// Levels and nodes touched, summed over all picks.
    pick_steps: u64,
    pick_max: u64,
    picks: u64,
    budget: (u64, u64, u64, u64),
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() as f64 * p) as usize).min(sorted.len() - 1);
    sorted[idx]
}

fn run_scenario(tenants: usize, victim_ops: usize) -> ScenarioStats {
    let (smp, mut fleet) = boot(tenants);
    let mut lat = Vec::with_capacity(victim_ops);
    let mut turns = [0u64; 4];
    let mut next_churn = 0usize;
    let victim_va = 0x5000_0000usize;

    while lat.len() < victim_ops {
        let cpu = (0..4usize)
            .min_by_key(|&c| smp.cycles(c))
            .expect("four CPUs");
        turns[cpu] += 1;
        match cpu {
            3 => {
                let t0 = smp.cycles(3);
                for args in [
                    SyscallArgs::Yield,
                    SyscallArgs::Mmap {
                        va_base: victim_va,
                        len: 1,
                        writable: true,
                    },
                    SyscallArgs::Munmap {
                        va_base: victim_va,
                        len: 1,
                    },
                ] {
                    let r = smp.syscall(3, args.clone());
                    assert!(r.is_ok(), "victim op {} {args:?}: {r:?}", lat.len());
                }
                lat.push(smp.cycles(3) - t0);
                if lat.len() % 256 == 0 {
                    let a = smp.audit_incremental();
                    assert!(a.is_ok(), "incremental audit at op {}: {a:?}", lat.len());
                }
            }
            0 => control_turn(&smp, &mut fleet, turns[0], &mut next_churn),
            c => adversary_turn(&smp, &fleet, c, turns[c]),
        }
    }

    // Epoch audit: flat invariants plus the bit-for-bit cross-check of
    // the incremental fold — including the budget-conservation ledger.
    let a = smp.audit_total_wf();
    assert!(a.is_ok(), "stop-the-world audit: {a:?}");
    let budget = smp.with_kernel(|k| k.pm.sched.budget_totals());
    let (granted, consumed, refunded, remaining) = budget;
    assert_eq!(
        granted,
        consumed + refunded + remaining,
        "budget ledger out of balance"
    );

    lat.sort_unstable();
    let snap = smp.trace_snapshot();
    let picks = &snap.sched_pick_hist;
    ScenarioStats {
        tenants,
        victim_ops,
        victim_mean: lat.iter().sum::<u64>() / lat.len() as u64,
        victim_p99: percentile(&lat, 0.99),
        pick_steps: picks.total_cycles(),
        pick_max: picks.max(),
        picks: picks.count(),
        budget,
    }
}

fn main() {
    let small = run_scenario(4, VICTIM_OPS);
    let large = run_scenario(FLEET_SIZE, VICTIM_OPS);

    let mut rows = Vec::new();
    for s in [&small, &large] {
        rows.push(vec![
            format!("{}", s.tenants + RACKS + 2), // + racks + root + victim
            format!("{}", s.victim_ops),
            format!("{}", s.victim_mean),
            format!("{}", s.victim_p99),
            format!("{:.2}", s.pick_steps as f64 / s.picks as f64),
            format!("{}", s.pick_max),
            format!("{}", s.picks),
        ]);
    }
    print!(
        "{}",
        render_table(
            &format!(
                "Multi-tenant scale-out: {FLEET_SIZE} tenants + churn + adversaries \
                 vs a 4-tenant baseline ({VICTIM_OPS} victim ops, modeled c220g5 cycles; \
                 pick cost in run-queue levels + nodes touched)"
            ),
            &[
                "Containers",
                "Victim ops",
                "Victim mean",
                "Victim p99",
                "Pick steps",
                "Pick max",
                "Picks",
            ],
            &rows,
        )
    );
    let (g, c, r, m) = large.budget;
    println!();
    println!(
        "budget ledger at {FLEET_SIZE} tenants: granted {g} = consumed {c} + refunded {r} \
         + remaining {m}"
    );

    // Gate 1: victim isolation. The fleet behind CPUs 0-2 grows 256x;
    // the victim's p99 on its exclusively-owned CPU must not move more
    // than 5% (small absolute floor for quantization).
    let p99_limit = large.victim_p99 as f64;
    let base = small.victim_p99 as f64;
    assert!(
        p99_limit <= base * 1.05 + 64.0,
        "victim p99 shifted {:.1}% ({} -> {} cycles) at {FLEET_SIZE} tenants",
        (p99_limit / base - 1.0) * 100.0,
        small.victim_p99,
        large.victim_p99,
    );
    println!(
        "victim p99 shift at {FLEET_SIZE} tenants: {:+.2}% (gate: <= 5%)",
        (p99_limit / base - 1.0) * 100.0
    );

    // Gate 2: O(1) pick. The levels and nodes a pick touches may not
    // grow more than 2x from 4 to 1000+ containers, in the mean
    // (cross-multiplied, so the comparison is exact) or in the worst
    // case.
    assert!(
        large.pick_steps * small.picks <= 2 * small.pick_steps * large.picks
            && large.pick_max <= 2 * small.pick_max,
        "pick steps grew from {}/{} (max {}) to {}/{} (max {}) at {FLEET_SIZE} tenants",
        small.pick_steps,
        small.picks,
        small.pick_max,
        large.pick_steps,
        large.picks,
        large.pick_max,
    );
    println!(
        "pick steps: {:.2} -> {:.2} mean, {} -> {} max over {} picks (gate: <= 2x)",
        small.pick_steps as f64 / small.picks as f64,
        large.pick_steps as f64 / large.picks as f64,
        small.pick_max,
        large.pick_max,
        large.picks
    );
    println!("both audits green: incremental every 256 victim ops, stop-the-world at exit.");
}
