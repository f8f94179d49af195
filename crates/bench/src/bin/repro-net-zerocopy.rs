//! Reproduces the **zero-copy network datapath** experiment: the
//! grant-backed packet-buffer pool ([`PktPool`]) versus the cloning
//! datapath, on the Maglev load-balancer pipeline.
//!
//! Both modes execute the identical RX → ring → app → TX pipeline with
//! real code (frames are generated, parsed and header-rewritten); only
//! the buffer management differs:
//!
//! * **cloning** — the driver materialises an owned `Packet` per frame
//!   (`heap_alloc` + `copy_cacheline`), ships it through the SPSC ring,
//!   and the TX side copies it back out into the descriptor ring;
//! * **zero-copy** — the NIC writes into pool slots, [`PktBuf`] handles
//!   move through the ring by permission transfer, Maglev rewrites
//!   headers in place, and TX releases the slots; nothing is copied and
//!   nothing is allocated on the steady path (asserted from the pool
//!   counters).
//!
//! Multi-CPU rows run per-CPU run-to-completion workers on RSS-steered
//! queues ([`IxgbeDevice::steered`]): each queue sees its exact hash
//! share of the 14.2 Mpps line rate, so per-worker throughput is
//! `min(CPU rate, queue line rate)` and the aggregate recovers the
//! Figure-4 shape. A kernel-backed section builds the pool from
//! DMA-pinned frames via the IOMMU syscalls and audits leak freedom
//! (`wf` / `page_closure`) with handles dropped mid-pipeline.
//!
//! The run fails if zero-copy does not save at least 40% cycles/packet
//! at one CPU, or if four steered CPUs do not beat one in aggregate.

use atmo_apps::maglev::{MaglevTable, MAGLEV_APP_COST};
use atmo_bench::{pin_dma_window, render_table, unpin_dma_window, DMA_IOVA, FREQ};
use atmo_drivers::pkt::Packet;
use atmo_drivers::{
    DriverCosts, IxgbeDevice, IxgbeDriver, PktBuf, PktPool, SpscRing, IXGBE_LINE_RATE_64B_PPS,
};
use atmo_hw::cycles::{CostModel, CpuProfile, CycleMeter};
use atmo_kernel::{Kernel, KernelConfig};
use atmo_mem::DmaWindow;
use atmo_spec::harness::Invariant;
use atmo_trace::{trace_wf, TraceHandle, TraceSink};

/// Batches per configuration.
const ROUNDS: usize = 6000;
const BATCH: usize = 32;
const POOL_SLOTS: usize = 1024;

/// One measured pipeline configuration.
struct RunStats {
    packets: u64,
    cycles: u64,
}

impl RunStats {
    fn cycles_per_pkt(&self) -> f64 {
        self.cycles as f64 / self.packets as f64
    }

    fn mpps(&self, profile: &CpuProfile) -> f64 {
        profile.throughput(self.packets, self.cycles) / 1e6
    }
}

fn backends() -> Vec<String> {
    (0..8).map(|i| format!("backend-{i}")).collect()
}

/// The cloning Maglev pipeline on one CPU at full line rate: every frame
/// is cloned into an owned `Packet` (`heap_alloc` + one cache-line copy),
/// handed through the SPSC ring, rewritten, copied into the TX
/// descriptors and freed.
fn run_cloning(table: &MaglevTable, costs: &CostModel) -> RunStats {
    let mut drv = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
    let mut ring: SpscRing<Packet> = SpscRing::new(2 * BATCH);
    let mut meter = CycleMeter::new();
    let mut rx: Vec<Packet> = Vec::with_capacity(BATCH);
    let mut app: Vec<Packet> = Vec::with_capacity(BATCH);
    let mut done = 0u64;
    for _ in 0..ROUNDS {
        rx.clear();
        let n = drv.rx_batch_into(&mut meter, &mut rx, BATCH);
        // Clone each frame out of the descriptor ring into an app-owned
        // buffer (the allocation + copy the zero-copy path eliminates).
        meter.charge((costs.heap_alloc + costs.copy_cacheline) * n as u64);
        for pkt in rx.drain(..) {
            ring.enqueue(pkt)
                .unwrap_or_else(|_| unreachable!("ring sized for the batch"));
            meter.charge(costs.ring_op);
        }
        app.clear();
        let taken = ring.dequeue_into(&mut app, BATCH);
        meter.charge(costs.ring_op * taken as u64);
        for pkt in app.iter_mut() {
            table.process_packet(pkt).expect("generated frames parse");
        }
        meter.charge(MAGLEV_APP_COST * taken as u64);
        // TX copies the rewritten frames back into the descriptor ring.
        meter.charge(costs.copy_cacheline * taken as u64);
        drv.tx_batch(&mut meter, std::mem::take(&mut app));
        done += taken as u64;
    }
    RunStats {
        packets: done,
        cycles: meter.now(),
    }
}

/// The zero-copy Maglev pipeline for one run-to-completion worker on one
/// RSS queue: handles move RX → ring → app → TX by permission transfer,
/// the rewrite happens in the NIC slot, TX releases the slots.
fn run_zerocopy_worker(
    table: &MaglevTable,
    rounds: usize,
    costs: &CostModel,
    nqueues: usize,
    queue: usize,
    sink: Option<&TraceHandle>,
) -> RunStats {
    let device = if nqueues == 1 {
        IxgbeDevice::new(FREQ)
    } else {
        IxgbeDevice::steered(FREQ, nqueues, queue)
    };
    let mut drv = IxgbeDriver::new(device, DriverCosts::atmosphere());
    let mut pool = PktPool::anonymous(POOL_SLOTS);
    if let Some(sink) = sink {
        sink.set_cpu(queue);
        drv.attach_trace(sink.clone());
        pool.attach_trace(sink.clone());
    }
    let mut ring: SpscRing<PktBuf> = SpscRing::new(2 * BATCH);
    let mut meter = CycleMeter::new();
    let mut rx: Vec<PktBuf> = Vec::with_capacity(BATCH);
    let mut app: Vec<PktBuf> = Vec::with_capacity(BATCH);
    let rx_cap = rx.capacity();
    let mut done = 0u64;
    for _ in 0..rounds {
        let n = drv.rx_batch_zc(&mut meter, &mut pool, &mut rx, BATCH);
        for buf in rx.drain(..) {
            ring.enqueue(buf)
                .unwrap_or_else(|_| unreachable!("ring sized for the batch"));
            meter.charge(costs.ring_op);
        }
        let taken = ring.dequeue_into(&mut app, BATCH);
        meter.charge(costs.ring_op * taken as u64);
        for buf in app.iter() {
            table
                .process_frame(pool.data_mut(buf))
                .expect("generated frames parse");
        }
        meter.charge(MAGLEV_APP_COST * taken as u64);
        drv.tx_batch_zc(&mut meter, &mut pool, &mut app);
        done += n as u64;
        assert_eq!(rx.capacity(), rx_cap, "steady-state RX buffer reallocated");
    }
    assert_eq!(pool.exhausted(), 0, "pool sized for the pipeline depth");
    assert_eq!(pool.in_flight(), 0, "every handle released by TX");
    assert_eq!(
        pool.acquired(),
        done,
        "ledger: one acquire per delivered frame"
    );
    assert!(pool.is_wf(), "{:?}", pool.wf());
    RunStats {
        packets: done,
        cycles: meter.now(),
    }
}

/// Aggregate zero-copy throughput over `nqueues` steered workers, each a
/// run-to-completion loop on its own CPU. RSS gives the workers disjoint
/// flow spaces, so no cross-worker synchronisation exists to model; the
/// aggregate is the sum of the per-worker steady-state rates.
fn run_zerocopy_smp(
    table: &MaglevTable,
    costs: &CostModel,
    nqueues: usize,
    profile: &CpuProfile,
    sink: Option<&TraceHandle>,
) -> (f64, Vec<RunStats>) {
    let stats: Vec<RunStats> = (0..nqueues)
        .map(|q| run_zerocopy_worker(table, ROUNDS, costs, nqueues, q, sink))
        .collect();
    let agg = stats.iter().map(|s| s.mpps(profile)).sum();
    (agg, stats)
}

/// Builds a kernel-backed pool: `NPAGES` frames DMA-pinned through the
/// IOMMU (device 7) and unmapped from the process ([`pin_dma_window`]),
/// so they survive in `page_closure()` through `iommu.mapped_frames()`
/// alone, exactly like a long-lived driver buffer. Runs a short
/// zero-copy pipeline over it **dropping every third frame
/// mid-pipeline** (the handle is released through the pool, never
/// transmitted), then tears everything down and audits leak freedom at
/// every step.
fn kernel_backed_pool_audit(table: &MaglevTable) {
    const NPAGES: usize = 64;
    let mut k = Kernel::boot(KernelConfig {
        mem_mib: 64,
        ncpus: 1,
        root_quota: 2048,
    });
    let (dom, frames) = pin_dma_window(&mut k, 7, NPAGES);
    for &f in &frames {
        assert_eq!(k.mem.alloc.map_refcnt(f), 1, "DMA pin holds the frame");
    }

    let mut pool = PktPool::from_window(DmaWindow::new(DMA_IOVA, frames));
    let mut drv = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
    let mut meter = CycleMeter::new();
    let mut rx: Vec<PktBuf> = Vec::with_capacity(BATCH);
    let mut app: Vec<PktBuf> = Vec::with_capacity(BATCH);
    let (mut forwarded, mut dropped) = (0u64, 0u64);
    for _ in 0..64 {
        drv.rx_batch_zc(&mut meter, &mut pool, &mut rx, BATCH);
        for (i, buf) in rx.drain(..).enumerate() {
            if i % 3 == 2 {
                // A mid-pipeline drop: the handle goes back through the
                // pool's only discard path, so the slot cannot leak.
                pool.release(buf);
                dropped += 1;
            } else {
                app.push(buf);
            }
        }
        for buf in app.iter() {
            table
                .process_frame(pool.data_mut(buf))
                .expect("generated frames parse");
        }
        meter.charge(MAGLEV_APP_COST * app.len() as u64);
        forwarded += drv.tx_batch_zc(&mut meter, &mut pool, &mut app) as u64;
    }
    assert!(
        forwarded > 0 && dropped > 0,
        "both pipeline fates exercised"
    );
    assert_eq!(pool.in_flight(), 0, "drops and TX together release all");
    assert_eq!(pool.acquired(), forwarded + dropped);
    assert!(pool.is_wf(), "{:?}", pool.wf());
    assert!(k.wf().is_ok(), "pool in service: {:?}", k.wf());

    // Teardown: reclaim the frames from the pool and unpin them.
    let frames = pool
        .into_window()
        .expect("kernel-backed pool has a window")
        .into_frames();
    unpin_dma_window(&mut k, dom, 7, &frames);
    println!(
        "kernel-backed pool: {NPAGES} DMA-pinned pages, {forwarded} forwarded + \
         {dropped} dropped mid-pipeline, page_closure() covered the pool \
         throughout (wf audited at pin, in service, and after teardown)."
    );
}

fn main() {
    let profile = CpuProfile::c220g5();
    let costs = CostModel::c220g5();
    let table = MaglevTable::new(&backends(), 65537);
    let line_mpps = IXGBE_LINE_RATE_64B_PPS / 1e6;

    // One traced single-CPU pass first: the sink's pool ledger
    // (`acquired == released + in_flight`) must balance under trace_wf.
    let sink = TraceSink::new(4, 4096);
    let traced = run_zerocopy_worker(&table, 500, &costs, 1, 0, Some(&sink));
    trace_wf(&sink).expect("net ledger balances");
    let snap = sink.snapshot();
    assert_eq!(snap.counters.net.pool_acquired, traced.packets);
    assert_eq!(snap.counters.net.pool_released, traced.packets);
    assert_eq!(snap.net_in_flight, 0);

    let cloning = run_cloning(&table, &costs);
    let (zc1, zc1_stats) = run_zerocopy_smp(&table, &costs, 1, &profile, None);
    let (zc2, _) = run_zerocopy_smp(&table, &costs, 2, &profile, None);
    let (zc4, zc4_stats) = run_zerocopy_smp(&table, &costs, 4, &profile, None);

    let clone_cpp = cloning.cycles_per_pkt();
    let zc_cpp = zc1_stats[0].cycles_per_pkt();
    let savings = 1.0 - zc_cpp / clone_cpp;

    let mut rows = vec![
        vec![
            "1".into(),
            "cloning".into(),
            format!("{clone_cpp:.0}"),
            format!("{:.2}", cloning.mpps(&profile)),
            String::new(),
        ],
        vec![
            "1".into(),
            "zero-copy".into(),
            format!("{zc_cpp:.0}"),
            format!("{zc1:.2}"),
            format!("{:.1}%", savings * 100.0),
        ],
        vec![
            "2".into(),
            "zero-copy".into(),
            String::new(),
            format!("{zc2:.2}"),
            String::new(),
        ],
        vec![
            "4".into(),
            "zero-copy".into(),
            String::new(),
            format!("{zc4:.2}"),
            String::new(),
        ],
    ];
    rows.push(vec![
        "-".into(),
        "line rate".into(),
        String::new(),
        format!("{line_mpps:.2}"),
        String::new(),
    ]);
    print!(
        "{}",
        render_table(
            &format!(
                "Zero-copy network datapath, Maglev pipeline \
                 ({ROUNDS} batches of {BATCH}, modeled c220g5 cycles)"
            ),
            &["CPUs", "Mode", "Cycles/pkt", "Mpps (agg)", "Savings"],
            &rows,
        )
    );
    println!();
    println!(
        "steady path: 0 heap allocations, 0 payload copies ({} frames, \
         pool ledger acquired == released, exhausted == 0, trace_wf ok \
         on the traced pass)",
        zc1_stats[0].packets
    );
    println!();
    kernel_backed_pool_audit(&table);
    println!();
    println!(
        "zero-copy saves {:.1}% cycles/packet at 1 CPU (acceptance: >= 40%); \
         aggregate {zc4:.2} Mpps on 4 steered CPUs vs {zc1:.2} on 1.",
        savings * 100.0
    );

    // Acceptance: the zero-copy rework must be a >= 40% per-packet win,
    // flow steering must scale the aggregate, and every configuration
    // must sit on the min(CPU rate, line rate) curve.
    assert!(
        savings >= 0.40,
        "zero-copy must save >= 40% cycles/packet, got {:.1}%",
        savings * 100.0
    );
    assert!(zc4 > zc1, "4 steered CPUs must beat 1 in aggregate");
    let cpu_rate = FREQ as f64 / zc_cpp / 1e6;
    let predicted1 = cpu_rate.min(line_mpps);
    assert!(
        (zc1 - predicted1).abs() / predicted1 < 0.05,
        "1-CPU zero-copy off the min(CPU, line) curve: {zc1} vs {predicted1}"
    );
    assert!(
        zc1 < line_mpps * 0.99,
        "1 CPU must be CPU-bound below line rate: {zc1}"
    );
    assert!(
        (14.0..14.3).contains(&zc4),
        "4 steered queues must aggregate to line rate: {zc4}"
    );
    for (q, s) in zc4_stats.iter().enumerate() {
        let share = atmo_drivers::RssSteer::new(4).share(q);
        let queue_line = line_mpps * share;
        let rate = s.mpps(&profile);
        assert!(
            (rate - queue_line).abs() / queue_line < 0.05,
            "queue {q} off its line-rate share: {rate} vs {queue_line}"
        );
    }
}
