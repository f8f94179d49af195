//! Trace report: run a mixed workload — process/thread lifecycle, IPC
//! call/reply, memory mapping, scheduling — and print the merged trace
//! snapshot the kernel collected along the way: per-CPU event rings,
//! per-syscall latency histograms and the subsystem counters.
//!
//! ```sh
//! cargo run --example trace_report
//! ```

use std::time::Instant;

use atmosphere::kernel::{Kernel, KernelConfig, SyscallArgs};
use atmosphere::spec::harness::Invariant;

fn main() {
    let mut k = Kernel::boot(KernelConfig::default());

    // A service container on CPU 1 with its own process and thread.
    let child = k
        .syscall(
            0,
            SyscallArgs::NewContainer {
                quota: 256,
                cpus: vec![1],
            },
        )
        .val0() as usize;
    let p = k.syscall(0, SyscallArgs::NewProcess { cntr: child }).val0() as usize;
    let _ = k.syscall(0, SyscallArgs::NewThread { proc: p, cpu: 1 });
    k.pm.timer_tick(1);

    // Memory traffic on both CPUs: map, touch, unmap.
    for (cpu, rounds) in [(0usize, 12usize), (1, 8)] {
        for r in 0..rounds {
            let base = 0x4000_0000 + r * 0x8000;
            let _ = k.syscall(
                cpu,
                SyscallArgs::Mmap {
                    va_base: base,
                    len: 4,
                    writable: true,
                },
            );
            if r % 2 == 0 {
                let _ = k.syscall(
                    cpu,
                    SyscallArgs::Munmap {
                        va_base: base,
                        len: 4,
                    },
                );
            }
        }
    }

    // IPC: a second init thread parks in recv; the first calls it.
    let t2 = k
        .syscall(
            0,
            SyscallArgs::NewThread {
                proc: k.init_proc,
                cpu: 0,
            },
        )
        .val0() as usize;
    let e = k.syscall(0, SyscallArgs::NewEndpoint { slot: 0 }).val0() as usize;
    k.pm.install_descriptor(t2, 0, e).unwrap();
    k.pm.timer_tick(0);
    let _ = k.syscall(0, SyscallArgs::Recv { slot: 0 });
    for i in 0..10u64 {
        let _ = k.syscall(
            0,
            SyscallArgs::Call {
                slot: 0,
                scalars: [i, 0, 0, 0],
            },
        );
        let _ = k.syscall(
            0,
            SyscallArgs::Reply {
                scalars: [i * 2, 0, 0, 0],
            },
        );
        let _ = k.syscall(0, SyscallArgs::TakeMsg);
        k.pm.timer_tick(0);
        let _ = k.syscall(0, SyscallArgs::Recv { slot: 0 });
    }

    // A 512-page run in a fresh 2 MiB region: the batched datapath
    // promotes it to one superpage; the partial unmap demotes it back.
    let _ = k.syscall(
        0,
        SyscallArgs::Mmap {
            va_base: 0x6000_0000,
            len: 512,
            writable: true,
        },
    );
    let _ = k.syscall(
        0,
        SyscallArgs::Munmap {
            va_base: 0x6000_5000,
            len: 1,
        },
    );

    // Scheduling churn, and a couple of deliberate failures so the error
    // column of the report is populated.
    for _ in 0..6 {
        let _ = k.syscall(0, SyscallArgs::Yield);
    }
    let _ = k.syscall(
        0,
        SyscallArgs::Munmap {
            va_base: 0x7000_0000,
            len: 1,
        },
    );
    let _ = k.syscall(0, SyscallArgs::NewEndpoint { slot: 0 });

    // The snapshot is also reachable from userspace via the read-only
    // `TraceSnapshot` syscall; here we read it host-side.
    let vals = k
        .syscall(0, SyscallArgs::TraceSnapshot)
        .result
        .expect("trace_snapshot is infallible");
    println!(
        "trace_snapshot syscall: {} syscalls completed, {} events, {} dropped, {} CPUs\n",
        vals[0], vals[1], vals[2], vals[3],
    );
    print!("{}", k.take_trace_snapshot().expect("stashed").render());

    // IPC fastpath telemetry: direct handoffs vs rendezvous fallbacks,
    // broken down by miss reason, plus the descriptor-slot cache.
    let fp = k.trace_snapshot().counters.pm.fastpath;
    println!("\n== IPC fastpath ==");
    println!("direct handoffs (hits)   {}", fp.hits);
    println!(
        "fallbacks                {} (wrong-side {}, queue-full {}, cross-cpu {}, cap-transfer {}, budget {})",
        fp.fallbacks(),
        fp.fallback_wrong_side,
        fp.fallback_queue_full,
        fp.fallback_cross_cpu,
        fp.fallback_cap_transfer,
        fp.fallback_budget,
    );
    println!(
        "slot cache               {} hits, {} misses",
        fp.slot_cache_hits, fp.slot_cache_misses
    );

    // Batched VM datapath telemetry: walk-cache amortization, superpage
    // promotion/demotion, and the deferred-shootdown ledger (trace_wf
    // enforces flushed <= deferred).
    let vm = k.trace_snapshot().counters.vm;
    println!("\n== Batched VM datapath ==");
    println!("walk-cache fills (batch hits)  {}", vm.map_batch_hits);
    println!(
        "superpages               {} promoted, {} demoted",
        vm.superpage_promotions, vm.superpage_demotions
    );
    println!(
        "TLB shootdowns           {} deferred, {} flushed in batches",
        vm.tlb_shootdowns_deferred, vm.tlb_shootdowns_flushed
    );
    assert!(vm.superpage_promotions >= 1, "512-page run promoted");
    assert!(vm.tlb_shootdowns_flushed <= vm.tlb_shootdowns_deferred);

    // Zero-copy network datapath telemetry: a short RX → app → TX pass
    // over a traced pool, then the counters plus the in-flight gauge
    // (trace_wf enforces acquired == released + in_flight).
    {
        use atmosphere::drivers::{DriverCosts, IxgbeDevice, IxgbeDriver, PktPool};
        use atmosphere::hw::cycles::CycleMeter;
        let sink = k.trace.clone();
        let mut drv = IxgbeDriver::new(IxgbeDevice::new(2_200_000_000), DriverCosts::atmosphere());
        drv.attach_trace(sink.clone());
        let mut pool = PktPool::anonymous(8);
        pool.attach_trace(sink);
        let mut meter = CycleMeter::new();
        let mut bufs = Vec::with_capacity(32);
        for _ in 0..4 {
            drv.rx_batch_zc(&mut meter, &mut pool, &mut bufs, 32);
            drv.tx_batch_zc(&mut meter, &mut pool, &mut bufs);
        }
        // One deliberate exhaustion and one counted fallback copy.
        let held: Vec<_> = (0..8).filter_map(|_| pool.try_acquire()).collect();
        assert!(pool.try_acquire().is_none(), "exhaustion is backpressure");
        let mut held = held;
        let last = held.pop().expect("held handles");
        let _pkt = pool.copy_out(last);
        for b in held {
            pool.release(b);
        }
    }
    let snap = k.trace_snapshot();
    let net = snap.counters.net;
    println!("\n== Zero-copy network datapath ==");
    println!(
        "pool ledger              {} acquired, {} released, {} in flight (gauge)",
        net.pool_acquired, net.pool_released, snap.net_in_flight
    );
    println!(
        "zc batches               rx {} ({} frames), tx {} ({} frames)",
        net.rx_zc_batches, net.rx_zc_frames, net.tx_zc_batches, net.tx_zc_frames
    );
    println!(
        "exhaustion / fallbacks   {} exhausted acquires, {} fallback copies",
        net.pool_exhausted, net.fallback_copies
    );
    assert_eq!(
        net.pool_acquired,
        net.pool_released + snap.net_in_flight as u64,
        "pool ledger balances"
    );
    assert!(net.pool_exhausted >= 1 && net.fallback_copies == 1);

    // Verified block datapath telemetry: a short zero-copy batched
    // submit/reap pass over a traced buffer pool and NVMe queue pair,
    // then the blk counters plus the in-flight gauge (trace_wf enforces
    // acquired == released + in_flight and reap_ios <= submit_ios).
    {
        use atmosphere::drivers::nvme::{IoKind, NvmeDevice, NvmeSpec, NvmeZcQueue};
        use atmosphere::drivers::{BlkPool, DriverCosts};
        use atmosphere::hw::cycles::CycleMeter;
        let sink = k.trace.clone();
        let mut q = NvmeZcQueue::new(
            NvmeDevice::new(NvmeSpec::p3700(2_200_000_000)),
            DriverCosts::atmosphere(),
        );
        q.attach_trace(sink.clone());
        let mut pool = BlkPool::anonymous(8);
        pool.attach_trace(sink);
        let mut meter = CycleMeter::new();
        let mut done = Vec::with_capacity(8);
        for _ in 0..4 {
            let bufs: Vec<_> = (0..8).filter_map(|_| pool.try_acquire()).collect();
            q.submit_batch_zc(&mut meter, IoKind::Write, bufs);
            while q.queue_depth() > 0 {
                q.wait_reap_zc(&mut meter, &mut done);
            }
            for b in done.drain(..) {
                pool.release(b);
            }
        }
    }
    let snap = k.trace_snapshot();
    let blk = snap.counters.blk;
    println!("\n== Verified block datapath ==");
    println!(
        "pool ledger              {} acquired, {} released, {} in flight (gauge)",
        blk.pool_acquired, blk.pool_released, snap.blk_in_flight
    );
    println!(
        "batched rings            {} submit batches ({} I/Os), {} reap batches ({} I/Os)",
        blk.submit_batches, blk.submit_ios, blk.reap_batches, blk.reap_ios
    );
    println!(
        "wakeups / fallbacks      {} reaper wakeups, {} fallback copies",
        blk.wakeups, blk.fallback_copies
    );
    assert_eq!(
        blk.pool_acquired,
        blk.pool_released + snap.blk_in_flight as u64,
        "blk pool ledger balances"
    );
    assert_eq!(blk.submit_ios, 32);
    assert_eq!(blk.reap_ios, 32, "every submitted I/O reaped");

    assert!(k.wf().is_ok(), "{:?}", k.wf());
    println!("\ntotal_wf (including trace_wf) holds over the final state.");

    // The same trace sink instruments the sharded kernel's lock
    // domains. The unified kernel above takes no domain locks, so its
    // lock table stays zero; drive a two-CPU sharded kernel and the
    // per-domain acquisition counters fill in.
    let smp = atmosphere::kernel::SmpKernel::new(Kernel::boot(KernelConfig {
        mem_mib: 32,
        ncpus: 2,
        root_quota: 512,
    }));
    let c = smp
        .syscall(
            0,
            SyscallArgs::NewContainer {
                quota: 64,
                cpus: vec![1],
            },
        )
        .val0() as usize;
    let p = smp.syscall(0, SyscallArgs::NewProcess { cntr: c }).val0() as usize;
    let _ = smp.syscall(0, SyscallArgs::NewThread { proc: p, cpu: 1 });
    smp.with_kernel(|k| k.pm.timer_tick(1));
    for r in 0..8usize {
        let base = 0x5000_0000 + r * 0x4000;
        let _ = smp.syscall(
            0,
            SyscallArgs::Mmap {
                va_base: base,
                len: 2,
                writable: true,
            },
        );
        let _ = smp.syscall(1, SyscallArgs::Yield);
        let _ = smp.syscall(
            0,
            SyscallArgs::Munmap {
                va_base: base,
                len: 2,
            },
        );
    }

    println!("\n== Sharded kernel: lock-domain instrumentation ==");
    let locks = smp.trace_snapshot().counters.locks;
    for (name, l) in [
        ("pm", &locks.pm),
        ("mem", &locks.mem),
        ("trace", &locks.trace),
    ] {
        println!(
            "{name:<5} {} acquisitions, {} contended, max hold {} cycles",
            l.acquisitions, l.contended, l.hold_max_cycles
        );
    }
    let audit = smp.audit_total_wf();
    assert!(audit.is_ok(), "{audit:?}");
    println!("total_wf audit (stop-the-world, caches drained) holds on the sharded kernel.");

    // Incremental auditing: switch the sharded kernel's trace sink to
    // delta recording, churn some state, and fold only the touched
    // ledger entries — no domain lock, no cache drain. The audit.*
    // counters below separate the O(touched) folds from the flat
    // rescans they are cross-checked against.
    // A snapshot holds modeled cycles and counts only, so the audits'
    // host cost is timed here, from outside.
    smp.enable_incremental_audit();
    let mut incremental_ns = Vec::new();
    for r in 0..8usize {
        let base = 0x6000_0000 + r * 0x2000;
        let _ = smp.syscall(
            0,
            SyscallArgs::Mmap {
                va_base: base,
                len: 1,
                writable: true,
            },
        );
        let t = Instant::now();
        let audit = smp.audit_incremental();
        incremental_ns.push(t.elapsed().as_nanos());
        assert!(audit.is_ok(), "{audit:?}");
    }
    incremental_ns.sort_unstable();
    let t = Instant::now();
    let audit = smp.audit_total_wf();
    let full_ns = t.elapsed().as_nanos();
    assert!(audit.is_ok(), "{audit:?}");

    println!("\n== Incremental wf audits ==");
    let snap = smp.trace_snapshot();
    let a = &snap.counters.audit;
    println!(
        "audit.incremental        {} ledger folds ({} entries folded)",
        a.incremental, a.touched_entries
    );
    println!(
        "audit.full               {} stop-the-world rescans (each cross-checks the ledger)",
        a.full
    );
    println!(
        "audit host time          incremental p50 {}ns, full {}ns (p50 {} entries folded)",
        incremental_ns[incremental_ns.len() / 2],
        full_ns,
        snap.audit_touched_hist.p50()
    );
    assert!(
        a.incremental >= a.full,
        "every full audit folds the pending ledger first"
    );
    println!("incremental ledger folds agree with the flat rescan bit-for-bit.");

    // Node replication: per-CPU replicas over a flat-combining op log.
    // The reads below route through CPU-local replicas — no pm/mem
    // lock, no domain model clock — while the writes in between append
    // to the op logs for the readers to replay. The epoch audit then
    // checks replica linearization, the bit-for-bit replica-vs-locked
    // cross-check and the NrAppended ledger balance.
    smp.enable_nr();
    let _ = smp.syscall(0, SyscallArgs::NewEndpoint { slot: 0 });
    for r in 0..6usize {
        let _ = smp.syscall(0, SyscallArgs::Getpid);
        let _ = smp.syscall(0, SyscallArgs::DescriptorResolve { slot: 0 });
        let _ = smp.syscall(
            0,
            SyscallArgs::VmResolve {
                va: 0x6000_0000 + r * 0x2000,
            },
        );
        let _ = smp.syscall(1, SyscallArgs::Getpid);
        let _ = smp.syscall(
            0,
            SyscallArgs::Mmap {
                va_base: 0x7000_0000 + r * 0x1000,
                len: 1,
                writable: false,
            },
        );
    }
    let audit = smp.audit_total_wf();
    assert!(audit.is_ok(), "{audit:?}");

    println!("\n== Node-replicated read path ==");
    let snap = smp.trace_snapshot();
    let nr = snap.counters.nr;
    println!(
        "nr.read_local            {} reads served from per-CPU replicas",
        nr.read_local
    );
    println!(
        "nr.fallback_locked       {} reads via the locked fallback (replication off)",
        nr.fallback_locked
    );
    println!(
        "nr.appended              {} ops appended in {} combiner batches",
        nr.appended, nr.combine_batches
    );
    println!(
        "nr.replayed              {} ops replayed onto replicas",
        nr.replayed
    );
    println!(
        "lock.wait_cycles         pm {} waits (max {}cy), mem {} waits (max {}cy)",
        snap.lock_wait_pm_hist.count(),
        snap.lock_wait_pm_hist.max(),
        snap.lock_wait_mem_hist.count(),
        snap.lock_wait_mem_hist.max(),
    );
    assert!(nr.read_local >= 24, "the reads above are replica-served");
    assert_eq!(nr.fallback_locked, 0, "replication stayed on");
    assert!(nr.combine_batches <= nr.appended, "trace_wf's nr bound");
    println!(
        "replica linearization, the bit-for-bit epoch cross-check and the \
         NrAppended ledger balance hold."
    );

    // Event-driven httpd: a small shard attached to the same sink —
    // accepts, serves, one slowloris reap — then the httpd.* counters,
    // the ready-batch histogram and the conns_live gauge (trace_wf
    // enforces the monotone bounds: closes <= accepts, conns_live ==
    // accepts - closes).
    {
        use atmosphere::apps::event::{HTTP_PAYLOAD_OFFSET, TICK_SHIFT};
        use atmosphere::apps::{ConnTable, EventCoreConfig, EventHttpd};
        use atmosphere::drivers::{
            queue_for_seq, write_udp64, DriverCosts, IxgbeDevice, IxgbeDriver, PktPool,
        };
        use atmosphere::hw::cycles::CycleMeter;
        let cfg = EventCoreConfig::new(0, 2);
        let header_ticks = cfg.header_ticks;
        let mut ev = EventHttpd::new(cfg, ConnTable::anonymous(64, 0, 2));
        ev.attach_trace(smp.trace().clone());
        ev.add_page("/index.html", b"traced event core");
        let mut drv = IxgbeDriver::new(
            IxgbeDevice::steered(2_200_000_000, 2, 0),
            DriverCosts::atmosphere(),
        );
        let mut pool = PktPool::anonymous(16);
        let mut meter = CycleMeter::new();
        let flows: Vec<u64> = (0..)
            .filter(|&r| queue_for_seq(r, 2) == 0)
            .take(9)
            .collect();
        let send =
            |ev: &mut EventHttpd, meter: &mut CycleMeter, pool: &mut PktPool, flow, http: &[u8]| {
                let mut buf = pool.try_acquire().expect("pool has slots");
                let frame = pool.slot_mut(&buf);
                write_udp64(frame, flow);
                frame[HTTP_PAYLOAD_OFFSET..HTTP_PAYLOAD_OFFSET + http.len()].copy_from_slice(http);
                buf.set_len(HTTP_PAYLOAD_OFFSET + http.len());
                let mut bufs = vec![buf];
                ev.ingest(meter, pool, &mut bufs);
            };
        for &flow in &flows[..8] {
            send(
                &mut ev,
                &mut meter,
                &mut pool,
                flow,
                b"GET /index.html HTTP/1.1\r\nHost: r\r\n\r\n",
            );
        }
        while ev.served() < 8 {
            ev.tick(&mut meter, &mut drv, &mut pool);
        }
        // One trickled header dies to the read-header timer.
        send(&mut ev, &mut meter, &mut pool, flows[8], b"GET /index.ht");
        meter.charge((header_ticks + 2) << TICK_SHIFT);
        ev.tick(&mut meter, &mut drv, &mut pool);
        assert_eq!(ev.live(), 8, "slowloris reaped, keep-alive conns kept");

        println!("\n== Event-driven httpd ==");
        let snap = smp.trace_snapshot();
        let h = snap.counters.httpd;
        println!(
            "conns                    {} accepts, {} closes, {} live (gauge)",
            h.accepts, h.closes, snap.httpd_conns_live
        );
        println!(
            "requests                 {} served, timeouts {} keepalive / {} header / {} drain",
            h.served, h.timeouts_keepalive, h.timeouts_header, h.timeouts_drain
        );
        println!(
            "event loop               {} ready batches (p50 {}, max {}), {} wheel cascades, \
             {} parked / {} unparked",
            snap.httpd_ready_hist.count(),
            snap.httpd_ready_hist.p50(),
            snap.httpd_ready_hist.max(),
            h.wheel_cascades,
            h.parked,
            h.unparked,
        );
        assert_eq!(h.accepts, 9);
        assert_eq!(h.served, 8);
        assert!(h.timeouts_header >= 1, "slowloris reap recorded");
        assert!(h.closes <= h.accepts, "trace_wf monotone bound");
        assert_eq!(
            snap.httpd_conns_live,
            (h.accepts - h.closes) as i64,
            "conns_live gauge balances"
        );
        println!("the httpd ledger (closes <= accepts, live == accepts - closes) balances.");
    }

    // Multi-tenant scheduler telemetry: two weighted tenants contend
    // for the root-owned CPUs through the per-CPU run queues (tenants
    // own zero CPUs; the ancestor rule shares the root's). Timer ticks
    // generate O(1) picks (histogrammed wall-clock), periodic refills,
    // and — since the light tenant's weight is far under the tick rate
    // — budget-exhaustion throttles; an administrative throttle
    // round-trip exercises the park/unpark path explicitly.
    {
        let mut mt = Kernel::boot(KernelConfig {
            mem_mib: 32,
            ncpus: 2,
            root_quota: 1024,
        });
        let mut cntrs = [0usize; 2];
        for (i, slot) in cntrs.iter_mut().enumerate() {
            let c = mt
                .syscall(
                    0,
                    SyscallArgs::NewContainer {
                        quota: 64,
                        cpus: vec![],
                    },
                )
                .val0() as usize;
            let p = mt.syscall(0, SyscallArgs::NewProcess { cntr: c }).val0() as usize;
            for cpu in 0..2 {
                let r = mt.syscall(0, SyscallArgs::NewThread { proc: p, cpu });
                assert!(r.is_ok(), "{r:?}");
            }
            let weight = 1 + 2 * i as u32; // 1 : 3
            let r = mt.syscall(0, SyscallArgs::SchedSetWeight { cntr: c, weight });
            assert!(r.is_ok(), "{r:?}");
            *slot = c;
        }
        for _ in 0..96 {
            mt.pm.timer_tick(0);
            mt.pm.timer_tick(1);
        }
        let r = mt.syscall(
            0,
            SyscallArgs::SchedThrottle {
                cntr: cntrs[1],
                throttle: true,
            },
        );
        assert!(r.is_ok(), "{r:?}");
        let r = mt.syscall(
            0,
            SyscallArgs::SchedThrottle {
                cntr: cntrs[1],
                throttle: false,
            },
        );
        assert!(r.is_ok(), "{r:?}");
        mt.pm.timer_tick(0);

        println!("\n== Multi-tenant scheduler ==");
        let snap = mt.trace_snapshot();
        let s = snap.counters.sched;
        println!(
            "run queues               {} O(1) picks (p50 {} steps, max {}), {} enqueues, {} removes",
            s.picks,
            snap.sched_pick_hist.p50(),
            snap.sched_pick_hist.max(),
            s.enqueues,
            s.removes,
        );
        println!(
            "budgets                  {} refills, {} throttles / {} unthrottles, {} parked / {} unparked",
            s.refills, s.throttles, s.unthrottles, s.parked, s.unparked
        );
        println!(
            "inheritance              {} inherited handoffs",
            s.inherited_handoffs
        );
        let (granted, consumed, refunded, remaining) = mt.pm.sched.budget_totals();
        println!(
            "budget ledger            granted {granted} = consumed {consumed} \
             + refunded {refunded} + remaining {remaining}"
        );
        assert_eq!(granted, consumed + refunded + remaining, "ledger balances");
        assert!(s.picks > 0 && s.refills > 0, "contention generated picks");
        assert!(
            s.throttles >= 1 && s.unthrottles >= 1,
            "throttle round trips recorded"
        );
        assert_eq!(snap.sched_pick_hist.count(), s.picks, "trace_wf's balance");
        assert!(mt.wf().is_ok(), "{:?}", mt.wf());
        println!(
            "the budget-conservation ledger (granted = consumed + refunded + remaining) balances."
        );
    }
}
