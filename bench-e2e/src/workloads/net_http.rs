//! `net-http`: bursts of HTTP requests against the event-driven httpd.
//!
//! Two RSS shards of `EventHttpd`, each over a `ConnTable` arena mapped
//! from a sharded kernel during set-up (100 000 live keep-alive
//! connections per shard, 3158 arena pages in all — larger than L2), with
//! its own 4096-slot packet pool and steered ixgbe TX queue. The client
//! injects *bursts* through `EventHttpd::ingest` — 1, 32 or 512 requests
//! at 20/60/20% of bursts — and ticks the shard until the burst is served.
//! 80% of requests ride existing connections (walked with a stride coprime
//! to the fill, so no connection is hit twice in a burst), 20% open a new
//! flow and send `Connection: close`, which keeps the live count exactly
//! stationary. Objects: 128 B, 2 KiB, 16 KiB, 256 KiB at 50/30/15/5%; 2%
//! of requests are split across two frames; 0.5% are malformed (a new
//! flow, closed by the parser). The shard with the smaller modeled clock
//! takes the next burst.
//!
//! Op = one request; its latency runs from the burst's first ingest to the
//! end of the tick in which `served()` covers it (a malformed request: to
//! the end of the first tick, by when its connection is closed).
//!
//! Why it exists: `apps` (`event`, `conn`, `timer`) and `drivers`
//! (`tx_batch_zc`, the packet pool, parking under incast) do all the
//! steady-state work while `kernel`, `pm` and `mem` do none (gated: no pm
//! or mem lock acquisition in the timed phase) — the prediction for any
//! kernel-side change is "no movement here". Arena mapping lands in
//! `setup_s`.

use atmo_apps::event::HTTP_PAYLOAD_OFFSET;
use atmo_apps::{ConnTable, EventCoreConfig, EventHttpd, CONN_SLOTS_PER_PAGE};
use atmo_drivers::{
    queue_for_seq, write_udp64, DriverCosts, IxgbeDevice, IxgbeDriver, PktBuf, PktPool,
    RSS_FLOW_PERIOD,
};
use atmo_hw::CycleMeter;
use atmo_kernel::{Kernel, KernelConfig, SmpKernel, SyscallArgs};
use atmo_spec::harness::Invariant;
use atmo_trace::{TraceHandle, TraceSink, DEFAULT_RING_CAPACITY};

use crate::harness::{Ctx, Gates, Workload};
use crate::metrics::{Extras, FREQ_HZ};
use crate::probe::Counts;
use crate::rng::{Deck, Rng};
use crate::span::Name;

const NQUEUES: usize = 2;
/// Live keep-alive connections per shard.
const FILL: usize = 100_000;
/// Stride of the walk over existing connections; coprime to [`FILL`].
const STRIDE: usize = 61_813;
/// Fewer slots than a 512-request burst's responses need (about 4600), so
/// big bursts park connections and TX completions resume them.
const POOL_SLOTS: usize = 4096;
const ARENA_VA: usize = 0x4000_0000;
const PAGE: usize = 0x1000;
/// Arena mmap chunk, small enough never to promote to a superpage (the
/// frame lookup needs 4 KiB mappings).
const MMAP_CHUNK: usize = 256;
const MAX_BURST: usize = 512;
/// Ticks a burst may take before the driver gives it up as stalled.
const MAX_TICKS: usize = 100_000;

const OBJECTS: [(&str, usize); 4] = [
    ("/obj-128", 128),
    ("/obj-2k", 2048),
    ("/obj-16k", 16 * 1024),
    ("/obj-256k", 256 * 1024),
];

const EXISTING: u16 = 0;
const NEW_FLOW: u16 = 1;
const PLAIN: u16 = 0;
const SPLIT: u16 = 1;
const MALFORMED: u16 = 2;

struct Shard {
    ev: EventHttpd,
    drv: IxgbeDriver,
    pool: PktPool,
    meter: CycleMeter,
    /// The 4096-residue classes RSS steers to this shard's queue.
    residues: Vec<u64>,
    cursor: usize,
    next_new: usize,
    rng: Rng,
    burst_deck: Deck,
    object_deck: Deck,
    flow_deck: Deck,
    shape_deck: Deck,
    bufs: Vec<PktBuf>,
    sent: u64,
    malformed: u64,
}

pub struct NetHttp {
    k: SmpKernel,
    sink: TraceHandle,
    shards: Vec<Shard>,
    /// Request bytes by `[object][close]`, and the malformed request.
    requests: Vec<[Vec<u8>; 2]>,
    malformed_request: Vec<u8>,
    ops_per_slice: usize,
    x: Extras,
}

impl Shard {
    /// The `k`-th distinct flow that steers to this shard.
    fn flow(&self, k: usize) -> u64 {
        let n = self.residues.len();
        self.residues[k % n] + (k / n) as u64 * RSS_FLOW_PERIOD
    }

    /// Client side, uncharged: one request frame into a pool slot.
    fn frame(&mut self, flow: u64, payload: &[u8]) {
        let mut buf = self
            .pool
            .try_acquire()
            .expect("the pool is idle between bursts");
        let slot = self.pool.slot_mut(&buf);
        write_udp64(slot, flow);
        slot[HTTP_PAYLOAD_OFFSET..HTTP_PAYLOAD_OFFSET + payload.len()].copy_from_slice(payload);
        buf.set_len(HTTP_PAYLOAD_OFFSET + payload.len());
        self.bufs.push(buf);
    }
}

impl NetHttp {
    /// One burst of at most `room` requests on shard `s`; returns its size.
    fn burst(&mut self, s: usize, room: usize, ctx: &mut Ctx) -> usize {
        let shard = &mut self.shards[s];
        let n = (shard.burst_deck.deal(&mut shard.rng) as usize).min(room);
        let t0 = shard.meter.now();
        ctx.tr.begin_op(t0);
        let mut malformed = 0u64;
        for _ in 0..n {
            let object = shard.object_deck.deal(&mut shard.rng) as usize;
            let new_flow = shard.flow_deck.deal(&mut shard.rng) == NEW_FLOW;
            let shape = shard.shape_deck.deal(&mut shard.rng);
            let fresh = new_flow || shape == MALFORMED;
            let flow = if fresh {
                shard.next_new += 1;
                shard.flow(shard.next_new - 1)
            } else {
                shard.cursor = (shard.cursor + STRIDE) % FILL;
                shard.flow(shard.cursor)
            };
            if shape == MALFORMED {
                malformed += 1;
                shard.frame(flow, &self.malformed_request);
                continue;
            }
            let request = &self.requests[object][usize::from(fresh)];
            if shape == SPLIT {
                let cut = shard.rng.between(4, request.len() - 4);
                shard.frame(flow, &request[..cut]);
                shard.frame(flow, &request[cut..]);
            } else {
                shard.frame(flow, request);
            }
        }
        shard.sent += n as u64;
        shard.malformed += malformed;
        self.x.pktpool_in_flight_peak = self
            .x
            .pktpool_in_flight_peak
            .max(shard.pool.in_flight() as u64);

        let frames = shard.bufs.len() as u64;
        ctx.tr.begin(Name::AppsIngest, 0, shard.meter.now());
        shard
            .ev
            .ingest(&mut shard.meter, &mut shard.pool, &mut shard.bufs);
        ctx.tr.end_with(shard.meter.now(), frames);

        // Tick the burst to completion.
        let target = shard.sent - shard.malformed;
        let mut served = shard.ev.served();
        let mut pending_malformed = malformed as u32;
        let mut ticks = 0;
        loop {
            ctx.tr.begin(Name::AppsTick, 0, shard.meter.now());
            shard
                .ev
                .tick(&mut shard.meter, &mut shard.drv, &mut shard.pool);
            ctx.tr.end(shard.meter.now());
            let latency = shard.meter.now() - t0;
            let now_served = shard.ev.served();
            ctx.lat
                .record_n(latency, (now_served - served) as u32 + pending_malformed);
            pending_malformed = 0;
            served = now_served;
            ticks += 1;
            let drained = shard.ev.ready_len() == 0 && shard.ev.parked_len() == 0;
            if (served >= target && drained) || ticks == MAX_TICKS {
                break;
            }
        }
        if served != target {
            // Stalled or over-served: the missing requests are failures
            // (and still owe their latency samples).
            let missing = target.abs_diff(served);
            ctx.failed += missing;
            if target > served {
                ctx.lat
                    .record_n(shard.meter.now() - t0, (target - served) as u32);
                shard.sent -= target - served;
            }
        }
        ctx.tr.end_op(shard.meter.now(), n as u64);
        n
    }
}

fn body(len: usize) -> Vec<u8> {
    (0..len).map(|i| b'a' + (i % 26) as u8).collect()
}

impl Workload for NetHttp {
    const NAME: &'static str = "net-http";
    const OPS_PER_SLICE_PER_SECOND: usize = 10_000;

    fn setup(seed: u64, ops_per_slice: usize) -> Self {
        // Room for the fill plus every connection a burst can open at once.
        let pages_per_shard = (FILL + 2 * MAX_BURST).div_ceil(CONN_SLOTS_PER_PAGE);
        let total_pages = pages_per_shard * NQUEUES;
        let k = SmpKernel::new(Kernel::boot(KernelConfig {
            mem_mib: ((total_pages * PAGE) >> 20) + 32,
            ncpus: NQUEUES,
            root_quota: total_pages + 4096,
        }));
        let mut left = total_pages;
        let mut va = ARENA_VA;
        while left > 0 {
            let len = MMAP_CHUNK.min(left);
            let r = k.syscall(
                0,
                SyscallArgs::Mmap {
                    va_base: va,
                    len,
                    writable: true,
                },
            );
            assert!(r.is_ok(), "arena mmap at {va:#x}: {r:?}");
            va += len * PAGE;
            left -= len;
        }
        // Set-up only: the stop-the-world bridge, to learn which frames
        // back the arena.
        let frames = k.with_kernel(|k| super::mapped_frames(k, ARENA_VA, total_pages));

        let sink = TraceSink::new(NQUEUES, DEFAULT_RING_CAPACITY);
        let shards = (0..NQUEUES)
            .map(|q| {
                let table = ConnTable::from_frames(
                    frames[q * pages_per_shard..(q + 1) * pages_per_shard].to_vec(),
                    q,
                    NQUEUES,
                );
                // A realistic keepalive (about a minute of modeled time):
                // the default would reap the idle mass mid-run.
                let mut cfg = EventCoreConfig::new(q, NQUEUES);
                cfg.keepalive_ticks = 16_000_000;
                let mut ev = EventHttpd::new(cfg, table);
                ev.attach_trace(sink.clone());
                for (path, len) in OBJECTS {
                    ev.add_page(path, &body(len));
                }
                let mut drv = IxgbeDriver::new(
                    IxgbeDevice::steered(FREQ_HZ as u64, NQUEUES, q),
                    DriverCosts::atmosphere(),
                );
                drv.attach_trace(sink.clone());
                let mut pool = PktPool::anonymous(POOL_SLOTS);
                pool.attach_trace(sink.clone());
                let mut shard = Shard {
                    ev,
                    drv,
                    pool,
                    meter: CycleMeter::new(),
                    residues: (0..RSS_FLOW_PERIOD)
                        .filter(|&r| queue_for_seq(r, NQUEUES) == q)
                        .collect(),
                    cursor: 0,
                    next_new: FILL,
                    rng: Rng::new(seed, q as u64),
                    burst_deck: Deck::new(&[(1, 2), (32, 6), (MAX_BURST as u16, 2)]),
                    object_deck: Deck::new(&[(0, 10), (1, 6), (2, 3), (3, 1)]),
                    flow_deck: Deck::new(&[(EXISTING, 4), (NEW_FLOW, 1)]),
                    shape_deck: Deck::new(&[(PLAIN, 195), (SPLIT, 4), (MALFORMED, 1)]),
                    bufs: Vec::with_capacity(2 * MAX_BURST),
                    sent: 0,
                    malformed: 0,
                };
                shard.cursor = shard.rng.below(FILL);
                for i in 0..FILL {
                    let flow = shard.flow(i);
                    shard
                        .ev
                        .accept(&mut shard.meter, flow)
                        .expect("the arena is sized for the fill");
                }
                shard
            })
            .collect();

        let requests = OBJECTS
            .iter()
            .map(|(path, _)| {
                [
                    format!("GET {path} HTTP/1.1\r\nHost: b\r\n\r\n").into_bytes(),
                    format!("GET {path} HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n")
                        .into_bytes(),
                ]
            })
            .collect();
        NetHttp {
            k,
            sink,
            shards,
            requests,
            malformed_request: b"GET /obj-128 HTTQ/1.1\r\nHost: b\r\n\r\n".to_vec(),
            ops_per_slice,
            x: Extras::default(),
        }
    }

    fn run_slice(&mut self, ctx: &mut Ctx) {
        let mut done = 0;
        while done < self.ops_per_slice {
            let s = usize::from(self.shards[1].meter.now() < self.shards[0].meter.now());
            done += self.burst(s, self.ops_per_slice - done, ctx);
        }
    }

    fn clocks(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.meter.now()).collect()
    }

    fn counts(&self) -> Counts {
        Counts::of_snapshot(&self.k.trace_snapshot())
            .plus(&Counts::of_snapshot(&self.sink.snapshot()))
            .with_caches((0..NQUEUES).map(|c| self.k.cache_stats(c)))
            .with_obligations()
    }

    fn extras(&mut self, probe: bool) -> Extras {
        if probe {
            self.x.snapshot_us = crate::probe::probe_snapshot_us(|| self.sink.snapshot());
        }
        self.x.clone()
    }

    fn finish(&mut self, _ctx: &mut Ctx, d: &Counts, gates: &mut Gates) {
        gates.check(
            "http.kernel_untouched",
            d.lock_pm_acq == 0 && d.lock_mem_acq == 0 && d.syscalls == 0,
            || {
                format!(
                    "pm {} mem {} lock acquisitions, {} syscalls in the timed phase",
                    d.lock_pm_acq, d.lock_mem_acq, d.syscalls
                )
            },
        );
        gates.check("http.zero_copy", d.net_fallback_copies == 0, || {
            format!("{} fallback copies", d.net_fallback_copies)
        });
        let (sent, malformed): (u64, u64) = self
            .shards
            .iter()
            .fold((0, 0), |(s, m), sh| (s + sh.sent, m + sh.malformed));
        let served: u64 = self.shards.iter().map(|s| s.ev.served()).sum();
        gates.check("http.served", served == sent - malformed, || {
            format!("served {served}, sent {sent}, malformed {malformed}")
        });
        let c = Counts::of_snapshot(&self.sink.snapshot());
        gates.check("http.malformed", c.httpd_malformed == malformed, || {
            format!("parser saw {}, injected {malformed}", c.httpd_malformed)
        });
        gates.check("http.no_timeouts", c.httpd_timeouts == 0, || {
            format!("{} connections timed out", c.httpd_timeouts)
        });
        for (q, s) in self.shards.iter().enumerate() {
            gates.check("http.live_is_stationary", s.ev.live() == FILL, || {
                format!("shard {q}: {} live", s.ev.live())
            });
            gates.check(
                "http.pool_ledger",
                s.pool.in_flight() == 0 && s.pool.acquired() == s.pool.released(),
                || {
                    format!(
                        "shard {q}: acquired {} released {} in flight {}",
                        s.pool.acquired(),
                        s.pool.released(),
                        s.pool.in_flight()
                    )
                },
            );
            gates.verif("http.event_core_wf", s.ev.wf());
        }
        gates.verif("trace_wf", atmo_trace::trace_wf(&self.sink));
        gates.verif("audit_total_wf", self.k.audit_total_wf());
    }
}
