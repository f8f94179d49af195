//! Reproduces the **IPC fast path** experiment: modeled cycles per
//! round trip for the direct-handoff `Call`/`ReplyRecv` pair vs the
//! slow `Send`+`Recv` rendezvous, at 1, 2 and 4 CPUs, plus an N-client
//! server scenario.
//!
//! Each CPU hosts one client/server thread pair sharing an endpoint
//! (both homed on that CPU — the fast path refuses cross-CPU partners).
//! In **fast** mode a round trip is `Call` → `TakeMsg` → `ReplyRecv` →
//! `TakeMsg`: when the partner is already parked on the endpoint the
//! kernel hands the CPU straight across without touching the ready
//! queue, charging the strictly cheaper `ipc_fastpath` body. In **slow**
//! mode the same exchange is decomposed into `Send`/`Recv` pairs, which
//! always pay the full rendezvous body (queue op + transfer + context
//! switch) in each direction.
//!
//! Execution is the same deterministic discrete-event simulation as
//! `repro-smp-scaling`: the pending CPU with the smallest modeled clock
//! issues its next syscall. Every run ends in a stop-the-world
//! `total_wf` audit; the run fails if the fast path does not save at
//! least 30% of the modeled cycles per round trip at 1 CPU.

use std::collections::VecDeque;

use atmo_bench::{drain, render_table, spawn_cpu_thread, Machine};
use atmo_hw::cycles::{CostModel, CpuProfile};
use atmo_kernel::smp::SmpKernel;
use atmo_kernel::{Kernel, KernelConfig, SyscallArgs};

/// Round trips per CPU, and requests in the N-client scenario.
const ROUNDS: usize = 200;

/// Boots a kernel with one client/server thread pair on each of
/// `ncpus` CPUs, each pair in its own container with a shared endpoint
/// in both threads' slot 0. CPU 0 reuses the init thread as its client.
fn boot(ncpus: usize) -> Kernel {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus,
        root_quota: 4096,
    });
    // CPU 0: the init thread is the client; the endpoint descriptor
    // lands in its slot 0 via the ordinary syscall.
    let proc = k.init_proc;
    let server0 = k.ok(SyscallArgs::NewThread { proc, cpu: 0 }) as usize;
    let e0 = k.ok(SyscallArgs::NewEndpoint { slot: 0 }) as usize;
    k.pm.install_descriptor(server0, 0, e0).unwrap();

    for cpu in 1..ncpus {
        let (proc, client) = spawn_cpu_thread(&mut k, cpu);
        let server = k.ok(SyscallArgs::NewThread { proc, cpu }) as usize;
        // The endpoint is created through the init thread (temp slot),
        // then installed into both pair members.
        let e = k.ok(SyscallArgs::NewEndpoint { slot: cpu }) as usize;
        k.pm.install_descriptor(client, 0, e).unwrap();
        k.pm.install_descriptor(server, 0, e).unwrap();
        // Dispatch the client (creation order put it at the queue front).
        k.pm.timer_tick(cpu);
    }
    k
}

/// The priming script for one pair: parks the server as the endpoint's
/// receiver and leaves the client current with an empty mailbox.
/// Identical for both modes, so steady-state measurements start from
/// the same concrete state.
fn prime_ops() -> VecDeque<SyscallArgs> {
    let send = SyscallArgs::Send {
        slot: 0,
        scalars: [0; 4],
        grant_page_va: None,
        grant_endpoint_slot: None,
        grant_iommu_domain: None,
    };
    VecDeque::from(vec![
        // client recv-blocks; the server is dispatched…
        SyscallArgs::Recv { slot: 0 },
        // …sends the client awake…
        send,
        // …and parks as the receiver; the client is dispatched.
        SyscallArgs::Recv { slot: 0 },
        SyscallArgs::TakeMsg,
    ])
}

/// One fast round trip: combined syscalls, direct handoff both ways.
fn fast_round() -> [SyscallArgs; 4] {
    [
        SyscallArgs::Call {
            slot: 0,
            scalars: [1, 0, 0, 0],
        },
        SyscallArgs::TakeMsg,
        SyscallArgs::ReplyRecv {
            slot: 0,
            scalars: [2, 0, 0, 0],
        },
        SyscallArgs::TakeMsg,
    ]
}

/// One slow round trip: the same exchange decomposed into Send+Recv
/// pairs (every leg pays the full rendezvous body).
fn slow_round() -> [SyscallArgs; 6] {
    let send = |v: u64| SyscallArgs::Send {
        slot: 0,
        scalars: [v, 0, 0, 0],
        grant_page_va: None,
        grant_endpoint_slot: None,
        grant_iommu_domain: None,
    };
    [
        send(1),
        SyscallArgs::Recv { slot: 0 },
        SyscallArgs::TakeMsg,
        send(2),
        SyscallArgs::Recv { slot: 0 },
        SyscallArgs::TakeMsg,
    ]
}

struct ModeStats {
    /// Modeled cycles per round trip on the longest-running CPU.
    cycles_per_rt: f64,
    fast_hits: u64,
    fast_fallbacks: u64,
}

/// Runs [`ROUNDS`] ping-pong round trips on every CPU in `mode` (fast:
/// Call/ReplyRecv; slow: Send/Recv) and returns steady-state cycles per
/// round trip.
fn run_pingpong(ncpus: usize, fast: bool) -> ModeStats {
    let mut k = SmpKernel::new(boot(ncpus));

    let mut queues: Vec<VecDeque<SyscallArgs>> = (0..ncpus).map(|_| prime_ops()).collect();
    drain(&mut k, &mut queues, |_, _| {});
    let start: Vec<u64> = (0..ncpus).map(|c| k.cycles(c)).collect();

    let mut queues: Vec<VecDeque<SyscallArgs>> = (0..ncpus)
        .map(|_| {
            let mut q = VecDeque::new();
            for _ in 0..ROUNDS {
                if fast {
                    q.extend(fast_round());
                } else {
                    q.extend(slow_round());
                }
            }
            q
        })
        .collect();
    drain(&mut k, &mut queues, |_, _| {});

    let audit = k.audit_total_wf();
    assert!(audit.is_ok(), "total_wf audit failed: {audit:?}");

    let steady_max = (0..ncpus)
        .zip(&start)
        .map(|(c, &s)| k.cycles(c) - s)
        .max()
        .unwrap_or(0);
    let fp = k.trace_snapshot().counters.pm.fastpath;
    ModeStats {
        cycles_per_rt: steady_max as f64 / ROUNDS as f64,
        fast_hits: fp.hits,
        fast_fallbacks: fp.fallbacks(),
    }
}

/// The N-client server scenario on one CPU: clients round-robin through
/// `Call`, the server answers every request with `ReplyRecv`. Every
/// trap takes the direct handoff (the inter-client `Yield` resets the
/// handoff budget), and no client is starved — each is served exactly
/// `rounds / nclients` times by construction of the rotation.
fn run_nclient_server(nclients: usize) -> (f64, u64) {
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: 1,
        root_quota: 4096,
    });
    let proc = k.init_proc;
    // Creation order fixes the ready queue: server first, then the
    // extra clients; the init thread is client 0 and stays current.
    let server = k.ok(SyscallArgs::NewThread { proc, cpu: 0 }) as usize;
    let mut clients = vec![k.init_thread];
    for _ in 1..nclients {
        clients.push(k.ok(SyscallArgs::NewThread { proc, cpu: 0 }) as usize);
    }
    let e = k.ok(SyscallArgs::NewEndpoint { slot: 0 }) as usize;
    k.pm.install_descriptor(server, 0, e).unwrap();
    for &c in &clients[1..] {
        k.pm.install_descriptor(c, 0, e).unwrap();
    }
    let mut k = SmpKernel::new(k);

    // Prime: client 0 yields (server, queue front, is dispatched), the
    // server parks as the receiver, the next client is dispatched.
    let mut queues = [VecDeque::from(vec![
        SyscallArgs::Yield,
        SyscallArgs::Recv { slot: 0 },
    ])];
    drain(&mut k, &mut queues, |_, _| {});
    let start = k.cycles(0);

    let mut ops = VecDeque::new();
    for _ in 0..ROUNDS {
        ops.extend(fast_round());
        // The served client yields so the next client gets its turn
        // (this also resets the per-CPU handoff budget).
        ops.push_back(SyscallArgs::Yield);
    }
    let mut queues = [ops];
    drain(&mut k, &mut queues, |_, _| {});

    let audit = k.audit_total_wf();
    assert!(audit.is_ok(), "total_wf audit failed: {audit:?}");
    let fp = k.trace_snapshot().counters.pm.fastpath;
    assert_eq!(
        fp.hits,
        2 * ROUNDS as u64,
        "every Call and ReplyRecv in the server loop must take the handoff"
    );
    ((k.cycles(0) - start) as f64 / ROUNDS as f64, fp.hits)
}

fn main() {
    let profile = CpuProfile::c220g5();
    let costs = CostModel::c220g5();

    let mut rows = Vec::new();
    let mut savings_at_1 = 0.0;
    for ncpus in [1usize, 2, 4] {
        let slow = run_pingpong(ncpus, false);
        let fast = run_pingpong(ncpus, true);
        let savings = 1.0 - fast.cycles_per_rt / slow.cycles_per_rt;
        if ncpus == 1 {
            savings_at_1 = savings;
        }
        for (name, stats) in [("send+recv", &slow), ("fastpath", &fast)] {
            rows.push(vec![
                format!("{ncpus}"),
                name.to_string(),
                format!("{:.0}", stats.cycles_per_rt),
                format!(
                    "{:.2}",
                    profile.cycles_to_seconds(stats.cycles_per_rt as u64) * 1e6
                ),
                format!("{}", stats.fast_hits),
                format!("{}", stats.fast_fallbacks),
                if name == "fastpath" {
                    format!("{:.1}%", savings * 100.0)
                } else {
                    String::new()
                },
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            &format!(
                "IPC round trip: direct-handoff fast path vs Send+Recv rendezvous \
                 ({ROUNDS} rounds/CPU, modeled c220g5 cycles)"
            ),
            &[
                "CPUs",
                "Mode",
                "Cycles/RT",
                "us/RT",
                "FP hits",
                "FP fallbacks",
                "Savings",
            ],
            &rows,
        )
    );
    println!();
    println!(
        "cost model: slow rendezvous body = {} + {} + {} = {} cycles/leg; \
         fastpath body = {} cycles/leg",
        costs.endpoint_queue_op,
        costs.ipc_transfer,
        costs.thread_switch,
        costs.endpoint_queue_op + costs.ipc_transfer + costs.thread_switch,
        costs.ipc_fastpath,
    );
    println!(
        "fallbacks in fast mode are the handoff-budget guard (every {} consecutive \
         handoffs the fast path yields to the ready queue).",
        atmo_pm::manager::HANDOFF_BUDGET,
    );

    let nclients = 4;
    let (cy_rt, hits) = run_nclient_server(nclients);
    println!();
    println!(
        "{nclients}-client server (1 CPU, {ROUNDS} requests round-robin): \
         {cy_rt:.0} cycles/request incl. client yield, {hits} handoffs, 0 fallbacks, \
         every client served equally."
    );
    println!();
    println!(
        "fastpath savings at 1 CPU: {:.1}% (acceptance: >= 30%; \
         total_wf audited after every run)",
        savings_at_1 * 100.0
    );
    assert!(
        savings_at_1 >= 0.30,
        "fast path must save >= 30% modeled cycles per round trip at 1 CPU, \
         got {:.1}%",
        savings_at_1 * 100.0
    );
}
