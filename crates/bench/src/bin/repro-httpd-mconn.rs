//! Reproduces the **million-connection httpd** experiment: the
//! event-driven connection core (per-CPU shards, hierarchical timer
//! wheels, epoll-style readiness) sustains one million live simulated
//! connections on 4 RSS-steered CPUs, with per-iteration cost
//! O(ready + expired) instead of O(live).
//!
//! The connection arenas are carved from kernel-`Mapped` frames, so
//! every byte of connection state sits inside `page_closure()` and the
//! incremental leak-freedom audit covers it for the whole run.
//!
//! Four scenarios, each driven per shard by its own cycle meter:
//!
//! 1. **flash-crowd** — the shards idle near capacity, then 100k new
//!    connections arrive in one burst, each sending a request;
//! 2. **slowloris / idle churn** — at one million live connections,
//!    idle event-loop iterations are measured against the O(live) scan
//!    baseline (the >= 10x claim), and headers that trickle in are
//!    reaped by the read-header timer while the idle mass is untouched;
//! 3. **incast** — a deliberately tiny packet pool against thousands of
//!    simultaneous large responses: exhaustion parks connections,
//!    TX completions unpark them, and the pool ledger stays balanced;
//! 4. **long-tail** — a mixed object-size workload (128 B to 256 KiB)
//!    reporting p50/p99/p999 request latency.
//!
//! Acceptance (asserted): >= 1M live connections at the target scale;
//! idle iteration >= 10x cheaper than the O(live) scan; zero pm/mem
//! domain-lock acquisitions inside the steady-state loops;
//! `audit_incremental` and the epoch `audit_total_wf` green throughout;
//! the arena unmaps cleanly at the end (no leaked frame).

use std::time::Instant;

use atmo_apps::event::{EV_SCAN_VISIT_COST, HTTP_PAYLOAD_OFFSET, TICK_SHIFT};
use atmo_apps::{ConnTable, EventCoreConfig, EventHttpd, CONN_SLOTS_PER_PAGE};
use atmo_bench::{mapped_frames, mmap_chunked, munmap_chunked, render_table, Tag, FREQ};
use atmo_drivers::{
    queue_for_seq, write_udp64, DriverCosts, IxgbeDevice, IxgbeDriver, PktPool, RSS_FLOW_PERIOD,
};
use atmo_hw::CycleMeter;
use atmo_kernel::{Kernel, KernelConfig, SmpKernel};
use atmo_mem::PagePtr;
use atmo_spec::harness::Invariant;
use atmo_spec::rng::XorShift64Star;
use atmo_trace::{LatencyHist, TraceSink, DEFAULT_RING_CAPACITY};

/// Target live connections.
const CONNS: usize = 1_000_000;
const NQUEUES: usize = 4;
const ARENA_VA: usize = 0x4000_0000;
const PAGE_4K: usize = 0x1000;
/// Mmap chunk small enough to never trigger superpage promotion (the
/// frame extraction below needs the 4 KiB mappings to stay 4 KiB).
const MMAP_CHUNK: usize = 256;
/// Packet-pool slots per shard in the throughput scenarios.
const POOL_SLOTS: usize = 8192;
/// Packet-pool slots per shard in the incast scenario (deliberately
/// starved).
const INCAST_POOL_SLOTS: usize = 512;

/// The `k`-th distinct flow that RSS-steers to `queue`: steering is
/// periodic in the 4096-residue flow space, so enumerate the queue's
/// residues once and stride by the period.
struct FlowGen {
    residues: Vec<u64>,
}

impl FlowGen {
    fn new(queue: usize) -> Self {
        let residues = (0..RSS_FLOW_PERIOD)
            .filter(|&r| queue_for_seq(r, NQUEUES) == queue)
            .collect();
        FlowGen { residues }
    }

    fn flow(&self, k: usize) -> u64 {
        let n = self.residues.len();
        self.residues[k % n] + (k / n) as u64 * RSS_FLOW_PERIOD
    }
}

/// One shard's rig: event core over a kernel-backed arena slice, a
/// steered NIC queue, a packet pool and a worker cycle meter.
struct Shard {
    ev: EventHttpd,
    drv: IxgbeDriver,
    pool: PktPool,
    meter: CycleMeter,
    flows: FlowGen,
}

impl Shard {
    fn build(queue: usize, frames: Vec<PagePtr>, pool_slots: usize) -> Self {
        let table = ConnTable::from_frames(frames, queue, NQUEUES);
        // A realistic keepalive (~60 s of modeled time at 2.2 GHz); the
        // unit-test default (5000 ticks ~ 19 ms) would reap the idle
        // masses mid-scenario at million-connection scale.
        let mut cfg = EventCoreConfig::new(queue, NQUEUES);
        cfg.keepalive_ticks = 16_000_000;
        let mut ev = EventHttpd::new(cfg, table);
        ev.add_page("/index.html", &page_body(2048));
        ev.add_page("/obj-128", &page_body(128));
        ev.add_page("/obj-2k", &page_body(2048));
        ev.add_page("/obj-16k", &page_body(16 * 1024));
        ev.add_page("/obj-256k", &page_body(256 * 1024));
        Shard {
            ev,
            drv: IxgbeDriver::new(
                IxgbeDevice::steered(FREQ, NQUEUES, queue),
                DriverCosts::atmosphere(),
            ),
            pool: PktPool::anonymous(pool_slots),
            meter: CycleMeter::new(),
            flows: FlowGen::new(queue),
        }
    }

    /// Sends one request frame for `flow` (client side, uncharged).
    fn send(&mut self, flow: u64, http: &[u8]) -> bool {
        let Some(mut buf) = self.pool.try_acquire() else {
            return false;
        };
        let frame = self.pool.slot_mut(&buf);
        write_udp64(frame, flow);
        frame[HTTP_PAYLOAD_OFFSET..HTTP_PAYLOAD_OFFSET + http.len()].copy_from_slice(http);
        buf.set_len(HTTP_PAYLOAD_OFFSET + http.len());
        let mut bufs = vec![buf];
        self.ev.ingest(&mut self.meter, &mut self.pool, &mut bufs);
        true
    }

    fn tick(&mut self) -> usize {
        self.ev.tick(&mut self.meter, &mut self.drv, &mut self.pool)
    }

    /// Fills the shard with idle keep-alive connections until `live`.
    fn fill_idle(&mut self, live: usize) {
        let mut k = self.ev.table().opened() as usize;
        while self.ev.live() < live {
            let flow = self.flows.flow(k);
            k += 1;
            if self.ev.table().lookup(flow).is_some() {
                continue;
            }
            self.ev
                .accept(&mut self.meter, flow)
                .expect("arena sized for the fill");
        }
    }
}

fn page_body(len: usize) -> Vec<u8> {
    (0..len).map(|i| b'a' + (i % 26) as u8).collect()
}

fn cycles_to_us(c: u64) -> f64 {
    c as f64 / (FREQ as f64 / 1e6)
}

struct ScenarioRow {
    name: &'static str,
    live: usize,
    requests: u64,
    hist: LatencyHist,
    note: String,
}

fn report_rows(rows: &[ScenarioRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{}", r.live),
                format!("{}", r.requests),
                format!("{:.1}", cycles_to_us(r.hist.p50())),
                format!("{:.1}", cycles_to_us(r.hist.percentile(99.0))),
                format!("{:.1}", cycles_to_us(r.hist.percentile(99.9))),
                r.note.clone(),
            ]
        })
        .collect()
}

/// In-flight requests per shard in [`drive_requests`] — a closed-loop
/// load generator's admission window.
const CLIENT_WINDOW: usize = 512;

/// Drives `per_shard` requests per shard through the event loop as a
/// closed-loop client.
fn drive_requests(
    shards: &mut [Shard],
    per_shard: usize,
    flow_base: usize,
    path: impl Fn(usize, &mut XorShift64Star) -> &'static str,
) -> u64 {
    let mut rng = XorShift64Star::new(0x1775_0BA5);
    let mut served = 0u64;
    for shard in shards.iter_mut() {
        let base_served = shard.ev.served();
        let mut sent = 0usize;
        let mut stalled = 0u32;
        loop {
            let done = (shard.ev.served() - base_served) as usize;
            if done >= per_shard {
                break;
            }
            // Closed-loop client: keep at most CLIENT_WINDOW requests
            // in flight, so response backlogs (ready ring, parked
            // queue) stay bounded the way an admission-controlled load
            // generator keeps them; TX completions refill pool slots.
            while sent < per_shard && sent - done < CLIENT_WINDOW {
                let p = path(sent, &mut rng);
                let req = format!("GET {p} HTTP/1.1\r\nHost: b\r\n\r\n");
                let flow = shard.flows.flow(flow_base + sent);
                if !shard.send(flow, req.as_bytes()) {
                    break;
                }
                sent += 1;
            }
            shard.tick();
            // Fail loudly instead of spinning if the loop stops making
            // progress (e.g. a timeout reaped a conn mid-response).
            if (shard.ev.served() - base_served) as usize == done {
                stalled += 1;
                assert!(
                    stalled < 10_000,
                    "drive stalled: sent {sent} served {done}/{per_shard}, live {} \
                     parked {} ready {} pool in-flight {}",
                    shard.ev.live(),
                    shard.ev.parked_len(),
                    shard.ev.ready_len(),
                    shard.pool.in_flight(),
                );
            } else {
                stalled = 0;
            }
        }
        served += shard.ev.served() - base_served;
    }
    served
}

#[allow(clippy::too_many_lines)]
fn main() {
    let per_shard = CONNS.div_ceil(NQUEUES);
    let pages_per_shard = per_shard.div_ceil(CONN_SLOTS_PER_PAGE);
    let cap_per_shard = pages_per_shard * CONN_SLOTS_PER_PAGE;
    let total_pages = pages_per_shard * NQUEUES;
    let live_target = cap_per_shard * NQUEUES;

    println!("== repro-httpd-mconn: million-connection event-driven httpd ==");
    println!(
        "target {CONNS} conns -> {} slots on {NQUEUES} shards ({total_pages} arena pages, 64 B/conn)",
        live_target
    );

    // -- Kernel-backed connection arenas ---------------------------------
    let t0 = Instant::now();
    let mem_mib = ((total_pages * PAGE_4K) >> 20) + 32;
    let mut k = SmpKernel::new(Kernel::boot(KernelConfig {
        mem_mib,
        ncpus: NQUEUES,
        root_quota: total_pages + 4096,
    }));
    mmap_chunked(&mut k, ARENA_VA, total_pages, MMAP_CHUNK);
    let frames: Vec<PagePtr> = k.with_kernel(|k| mapped_frames(k, ARENA_VA, total_pages));
    k.enable_incremental_audit();
    let shard_frames = |q: usize| frames[q * pages_per_shard..(q + 1) * pages_per_shard].to_vec();
    println!("arena mapped: {total_pages} pages, incremental audit baselined");
    print!(
        "{}",
        Tag::Host.lines(&format!(
            "arena mapped in {:.2}s",
            t0.elapsed().as_secs_f64()
        ))
    );

    // pm/mem domain-lock acquisition counts; sampled around every
    // steady-state loop below to assert the event core never enters the
    // kernel (the audits between scenarios do lock, legitimately).
    let locks = |k: &SmpKernel| {
        let s = k.trace_snapshot();
        (
            s.counters.locks.pm.acquisitions,
            s.counters.locks.mem.acquisitions,
        )
    };
    let locks_before = locks(&k);

    let mut rows: Vec<ScenarioRow> = Vec::new();
    // Each scenario's host wall time, reported apart from its row.
    let mut wall: Vec<String> = Vec::new();
    let sink = TraceSink::new(NQUEUES, DEFAULT_RING_CAPACITY);

    // -- Scenario 1: flash crowd -----------------------------------------
    let t = Instant::now();
    let burst_per_shard = (cap_per_shard / 10).clamp(1, 25_000);
    // Scenario 2's slowloris trickle tops the shards up to exactly full
    // capacity, so the flash-crowd fill leaves that much headroom.
    let loris_per_shard = 512.min(burst_per_shard);
    let idle_fill = cap_per_shard - burst_per_shard - loris_per_shard;
    let mut shards: Vec<Shard> = (0..NQUEUES)
        .map(|q| {
            let mut s = Shard::build(q, shard_frames(q), POOL_SLOTS);
            s.ev.attach_trace(sink.clone());
            s.fill_idle(idle_fill);
            s
        })
        .collect();
    let l0 = locks(&k);
    let served = drive_requests(&mut shards, burst_per_shard, idle_fill, |_, _| {
        "/index.html"
    });
    assert_eq!(locks(&k), l0, "flash-crowd loop took a pm/mem lock");
    let mut hist = LatencyHist::default();
    let mut live = 0;
    for s in &shards {
        hist.merge(s.ev.latency());
        live += s.ev.live();
    }
    k.audit_incremental()
        .unwrap_or_else(|e| panic!("flash-crowd incremental audit: {e}"));
    for s in &shards {
        s.ev.wf().unwrap_or_else(|e| panic!("flash-crowd wf: {e}"));
    }
    assert_eq!(served, (burst_per_shard * NQUEUES) as u64);
    assert_eq!(
        live,
        live_target - loris_per_shard * NQUEUES,
        "burst conns stay live (keep-alive)"
    );
    rows.push(ScenarioRow {
        name: "flash-crowd",
        live,
        requests: served,
        hist,
        note: format!("{}-conn burst", burst_per_shard * NQUEUES),
    });
    wall.push(format!("flash-crowd {:.2}s", t.elapsed().as_secs_f64()));

    // -- Scenario 2: slowloris + idle churn (the O(ready) claim) ---------
    // Reuse the fully-live shards from scenario 1: every connection idle,
    // keep-alive timers armed. Idle event-loop iterations must not scan
    // the live mass.
    let t = Instant::now();
    let idle_iters = 2000u64;
    let mut idle_cycles = 0u64;
    let mut scan_cycles = 0u64;
    let l0 = locks(&k);
    for s in shards.iter_mut() {
        let c0 = s.meter.now();
        for _ in 0..idle_iters {
            s.tick();
        }
        idle_cycles += s.meter.now() - c0;
        // The O(live) comparison: one full scan per iteration.
        let c1 = s.meter.now();
        s.ev.scan_step_baseline(&mut s.meter);
        scan_cycles += (s.meter.now() - c1) * idle_iters;
    }
    let idle_per_iter = idle_cycles / (idle_iters * NQUEUES as u64);
    let scan_per_iter = scan_cycles / (idle_iters * NQUEUES as u64);
    let idle_ratio = scan_per_iter as f64 / idle_per_iter.max(1) as f64;
    // Slowloris: trickled headers top the shards up to full capacity,
    // then die to the read-header timer while the idle mass is
    // untouched.
    let mut peak_live = 0usize;
    for s in shards.iter_mut() {
        let live0 = s.ev.live();
        for i in 0..loris_per_shard {
            // Burst flows completed their request and are idle again;
            // open *new* conns beyond the filled range for the trickle.
            let flow = s.flows.flow(cap_per_shard + i);
            s.send(flow, b"GET /index.ht");
        }
        assert_eq!(s.ev.live(), live0 + loris_per_shard, "trickles accepted");
        assert_eq!(s.ev.live(), cap_per_shard, "shard momentarily full");
        peak_live += s.ev.live();
        let header_ticks = EventCoreConfig::new(0, NQUEUES).header_ticks;
        s.meter.charge((header_ticks + 2) << TICK_SHIFT);
        s.tick();
        assert_eq!(s.ev.live(), live0, "slowloris reaped, idle mass kept");
    }
    assert_eq!(locks(&k), l0, "idle/slowloris loops took a pm/mem lock");
    let snap = sink.snapshot();
    assert!(
        snap.counters.httpd.timeouts_header >= (loris_per_shard * NQUEUES) as u64,
        "header timeouts recorded"
    );
    k.audit_incremental()
        .unwrap_or_else(|e| panic!("slowloris incremental audit: {e}"));
    let mut hist = LatencyHist::default();
    for s in &shards {
        hist.merge(s.ev.latency());
    }
    rows.push(ScenarioRow {
        name: "slowloris/idle",
        live: peak_live,
        requests: 0,
        hist: LatencyHist::default(),
        note: format!("idle {idle_per_iter} cyc/iter vs scan {scan_per_iter} ({idle_ratio:.0}x)"),
    });
    wall.push(format!("slowloris/idle {:.2}s", t.elapsed().as_secs_f64()));
    let _ = hist;

    // -- Scenario 3: incast ----------------------------------------------
    // Fresh shards over the same arena frames, against a starved pool:
    // thousands of simultaneous 16 KiB responses must park and resume
    // without dropping anything or unbalancing the pool ledger.
    let t = Instant::now();
    drop(shards);
    let mut shards: Vec<Shard> = (0..NQUEUES)
        .map(|q| {
            let mut s = Shard::build(q, shard_frames(q), INCAST_POOL_SLOTS);
            s.ev.attach_trace(sink.clone());
            s
        })
        .collect();
    let incast_per_shard = 4096.min(cap_per_shard / 2).max(1);
    let l0 = locks(&k);
    let served = drive_requests(&mut shards, incast_per_shard, 0, |_, _| "/obj-16k");
    assert_eq!(locks(&k), l0, "incast loop took a pm/mem lock");
    assert_eq!(served, (incast_per_shard * NQUEUES) as u64);
    let snap = sink.snapshot();
    assert!(snap.counters.httpd.parked > 0, "incast forced parking");
    assert_eq!(
        snap.counters.httpd.parked, snap.counters.httpd.unparked,
        "every parked conn resumed"
    );
    for s in &shards {
        assert_eq!(s.pool.in_flight(), 0, "pool ledger balanced after incast");
        s.ev.wf().unwrap_or_else(|e| panic!("incast wf: {e}"));
    }
    k.audit_incremental()
        .unwrap_or_else(|e| panic!("incast incremental audit: {e}"));
    k.audit_total_wf()
        .unwrap_or_else(|e| panic!("incast epoch full audit: {e}"));
    let mut hist = LatencyHist::default();
    for s in &shards {
        hist.merge(s.ev.latency());
    }
    rows.push(ScenarioRow {
        name: "incast",
        live: shards.iter().map(|s| s.ev.live()).sum(),
        requests: served,
        hist,
        note: format!(
            "{} parked / {} unparked",
            snap.counters.httpd.parked, snap.counters.httpd.unparked,
        ),
    });
    wall.push(format!("incast {:.2}s", t.elapsed().as_secs_f64()));

    // -- Scenario 4: long-tail object mix --------------------------------
    let t = Instant::now();
    drop(shards);
    let mut shards: Vec<Shard> = (0..NQUEUES)
        .map(|q| {
            let mut s = Shard::build(q, shard_frames(q), POOL_SLOTS);
            s.ev.attach_trace(sink.clone());
            s.fill_idle(cap_per_shard / 2);
            s
        })
        .collect();
    let tail_per_shard = 25_000.min(cap_per_shard / 2).max(1);
    let l0 = locks(&k);
    let served = drive_requests(&mut shards, tail_per_shard, 0, |_, rng| {
        // 60% tiny, 30% small, 9% medium, 1% huge.
        match rng.below(100) {
            0..=59 => "/obj-128",
            60..=89 => "/obj-2k",
            90..=98 => "/obj-16k",
            _ => "/obj-256k",
        }
    });
    assert_eq!(served, (tail_per_shard * NQUEUES) as u64);
    assert_eq!(locks(&k), l0, "long-tail loop took a pm/mem lock");
    let mut hist = LatencyHist::default();
    for s in &shards {
        hist.merge(s.ev.latency());
    }
    k.audit_incremental()
        .unwrap_or_else(|e| panic!("long-tail incremental audit: {e}"));
    rows.push(ScenarioRow {
        name: "long-tail",
        live: shards.iter().map(|s| s.ev.live()).sum(),
        requests: served,
        hist,
        note: "128B..256KiB mix".to_string(),
    });
    wall.push(format!("long-tail {:.2}s", t.elapsed().as_secs_f64()));

    // -- Steady-state lock discipline ------------------------------------
    let locks_after = locks(&k);

    // -- Teardown: arena back out of the closure -------------------------
    drop(shards);
    munmap_chunked(&mut k, ARENA_VA, total_pages, MMAP_CHUNK);
    k.audit_total_wf()
        .unwrap_or_else(|e| panic!("teardown full audit: {e}"));
    k.with_kernel(|k| {
        assert!(
            k.mem.alloc.mapped_pages().is_empty(),
            "arena frames leaked past teardown"
        );
    });

    // -- Report ----------------------------------------------------------
    println!();
    print!(
        "{}",
        render_table(
            "Million-connection httpd scenarios (latency in us on the c220g5)",
            &["Scenario", "Live", "Requests", "p50", "p99", "p999", "Notes"],
            &report_rows(&rows),
        )
    );
    let wall = format!("scenario wall time: {}", wall.join(", "));
    print!("{}", Tag::Host.lines(&wall));
    println!();
    let snap = sink.snapshot();
    println!(
        "httpd counters: accepts {} closes {} served {} timeouts(k/h/d) {}/{}/{} cascades {} parked {} unparked {} malformed {}",
        snap.counters.httpd.accepts,
        snap.counters.httpd.closes,
        snap.counters.httpd.served,
        snap.counters.httpd.timeouts_keepalive,
        snap.counters.httpd.timeouts_header,
        snap.counters.httpd.timeouts_drain,
        snap.counters.httpd.wheel_cascades,
        snap.counters.httpd.parked,
        snap.counters.httpd.unparked,
        snap.counters.httpd.malformed,
    );
    println!(
        "ready-batch sizes: count {} mean {} p50 {} p99 {} max {}",
        snap.httpd_ready_hist.count(),
        snap.httpd_ready_hist.mean(),
        snap.httpd_ready_hist.p50(),
        snap.httpd_ready_hist.percentile(99.0),
        snap.httpd_ready_hist.max(),
    );
    println!(
        "idle iteration: {idle_per_iter} cycles vs O(live) scan {scan_per_iter} cycles \
         ({idle_ratio:.0}x cheaper; scan visit = {EV_SCAN_VISIT_COST} cyc/conn)"
    );
    println!(
        "domain locks across the run: pm {} -> {}, mem {} -> {} (all from the audits; \
         every steady-state loop asserted lock-free)",
        locks_before.0, locks_after.0, locks_before.1, locks_after.1
    );

    // -- Acceptance -------------------------------------------------------
    assert_eq!(
        rows[1].live, live_target,
        "idle scenario holds every slot live"
    );
    assert!(
        idle_ratio >= 10.0,
        "idle iteration must be >= 10x cheaper than the O(live) scan, got {idle_ratio:.1}x"
    );
    for r in &rows {
        if r.requests > 0 {
            assert!(r.hist.percentile(99.9) > 0, "{}: p999 recorded", r.name);
        }
    }
    println!();
    println!(
        "PASS: {} live conns on {NQUEUES} steered CPUs; idle iteration {idle_ratio:.0}x \
         cheaper than O(live) scan; audits green; arena closure clean.",
        live_target
    );
}
