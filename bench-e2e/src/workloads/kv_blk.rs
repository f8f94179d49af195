//! `kv-blk`: the whole request path, NIC → steering → app → block → TX.
//!
//! One modeled CPU serves queue 0 of a 2-queue steered ixgbe NIC:
//! `rx_batch_zc` (≤ 32 frames) → every frame's flow checked against
//! `RssSteer` → the benchmark, as the uncharged client, overwrites each
//! slot's payload with a seeded KV request (zipf 0.99 over 8192 keys,
//! 16 B keys, 32 B values; get 50 / set 45 / delete 5) → `KvRequest::decode`
//! and `LogKv` (65 536-slot table, 64 KiB segments, `kv_app_cost` charged
//! per request) → group commit: the batch's WAL bytes — and after a
//! compaction the rewritten log — go out as 4 KiB `BlkBuf`s from an
//! IOMMU-pinned 64-slot `BlkPool`, one `BlkSubmitBatch` plus blocking
//! `BlkReapBatch`es per 64 blocks on a flat kernel's queue pair → replies
//! through `tx_batch_zc`.
//!
//! Op = one KV request; its latency is its batch's modeled cycles. The
//! worker meter is the CPU's clock: the cycles each block syscall charges
//! to the kernel's meter (the blocking reap's device wait included) are
//! charged to it as well, so frames keep arriving on the NIC while the CPU
//! waits for the disk.
//!
//! Why it exists: the only workload where every layer is on one request's
//! path and the only one on the block datapath (`kernel::blk`, `mem::dma`,
//! `drivers::blkpool`). Gets never reach `blk` while sets do, so
//! read/write trade-offs show inside one run; segment GC is the background
//! work whose spikes only `model.p999_cycles` reveals, while
//! `model.p50_cycles` follows the device's write latency.

use atmo_apps::kvstore::kv_app_cost;
use atmo_apps::{KvRequest, LogKv};
use atmo_drivers::{
    seq_of, BlkBuf, BlkPool, DriverCosts, IxgbeDevice, IxgbeDriver, PktBuf, PktPool, RssSteer,
    BLK_SLOT_SIZE,
};
use atmo_hw::CycleMeter;
use atmo_kernel::refine::recovery_refines;
use atmo_kernel::{BlkOp, Kernel, KernelConfig, SyscallArgs, BLK_DEVICE_ID};
use atmo_mem::DmaWindow;
use atmo_spec::harness::Invariant;
use atmo_spec::AbstractKv;
use atmo_trace::{TraceHandle, TraceSink, DEFAULT_RING_CAPACITY};

use crate::harness::{sys_flat, Ctx, Gates, Workload};
use crate::metrics::{Extras, FREQ_HZ};
use crate::probe::Counts;
use crate::rng::{Deck, Rng, Zipf};
use crate::span::Name;

const NQUEUES: usize = 2;
const QUEUE: usize = 0;
const BATCH: usize = 32;
/// Small enough that the log compacts about every 512 batches: the
/// batches a compaction delays are then some 0.2% of ops, which
/// `model.p999_cycles` sees (with 32 768 keys they would be 0.05%).
const KEYS: usize = 8192;
const KEY_LEN: usize = 16;
const VALUE_LEN: usize = 32;
const TABLE_SLOTS: usize = 65_536;
const SEGMENT_BYTES: usize = 64 * 1024;
const PKT_SLOTS: usize = 256;
const BLK_SLOTS: usize = 64;
const PAYLOAD: usize = 50;
const WINDOW_VA: usize = 0x4000_0000;
const WINDOW_IOVA: usize = 0x10_0000;
const PAGE: usize = 0x1000;

const GET: u16 = 0;
const SET: u16 = 1;
const DELETE: u16 = 2;

pub struct KvBlk {
    k: Kernel,
    sink: TraceHandle,
    drv: IxgbeDriver,
    pkt_pool: PktPool,
    blk_pool: BlkPool,
    meter: CycleMeter,
    steer: RssSteer,
    kv: LogKv,
    /// Value of every key, by key index.
    shadow: Vec<Option<[u8; VALUE_LEN]>>,
    zipf: Zipf,
    deck: Deck,
    rng: Rng,
    bufs: Vec<PktBuf>,
    /// What each frame of the current batch asked for: `(op, key index)`.
    asked: Vec<(u16, usize)>,
    held: Vec<Option<BlkBuf>>,
    next_lba: u64,
    values_written: u64,
    ops_per_slice: usize,
    x: Extras,
}

fn key_of(idx: usize) -> [u8; KEY_LEN] {
    let mut k = [0u8; KEY_LEN];
    k[..8].copy_from_slice(&(idx as u64).to_le_bytes());
    k[8..].copy_from_slice(
        &(idx as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .to_le_bytes(),
    );
    k
}

fn value_of(n: u64) -> [u8; VALUE_LEN] {
    let mut v = [0u8; VALUE_LEN];
    for (i, chunk) in v.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(
            &n.wrapping_add(i as u64)
                .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                .to_le_bytes(),
        );
    }
    v
}

impl KvBlk {
    fn clock(&self) -> u64 {
        self.meter.now()
    }

    /// One block syscall; its kernel-meter cycles pass on the CPU's clock.
    fn blk_call(&mut self, ctx: &mut Ctx, args: SyscallArgs) -> Option<[u64; 4]> {
        let before = self.k.cycles(0);
        let r = sys_flat(&mut self.k, &mut ctx.tr, 0, args);
        self.meter.charge(self.k.cycles(0) - before);
        r.result.ok()
    }

    /// Client side, uncharged: overwrites every received frame's payload
    /// with the next seeded request.
    fn write_requests(&mut self, ctx: &mut Ctx) {
        self.asked.clear();
        for buf in self.bufs.iter_mut() {
            let seq = seq_of(self.pkt_pool.data(buf));
            self.x.steer_checked += 1;
            if seq.map(|s| self.steer.queue_of_seq(s)) != Some(QUEUE) {
                self.x.steer_missed += 1;
                ctx.failed += 1;
            }
            let op = self.deck.deal(&mut self.rng);
            // Scatter the popular ranks over the key space.
            let idx = self.zipf.draw(&mut self.rng) * 40_503 % KEYS;
            let slot = self.pkt_pool.slot_mut(buf);
            let wire = &mut slot[PAYLOAD..];
            wire[0] = op as u8;
            wire[1] = KEY_LEN as u8;
            wire[3..3 + KEY_LEN].copy_from_slice(&key_of(idx));
            let mut len = 3 + KEY_LEN;
            if op == SET {
                self.values_written += 1;
                wire[2] = VALUE_LEN as u8;
                wire[len..len + VALUE_LEN].copy_from_slice(&value_of(self.values_written));
                len += VALUE_LEN;
            } else {
                wire[2] = 0;
            }
            buf.set_len(PAYLOAD + len);
            self.asked.push((op, idx));
        }
    }

    /// The app: decode and serve every request of the batch, each answer
    /// checked against the shadow.
    fn serve(&mut self, ctx: &mut Ctx) {
        for (buf, &(op, idx)) in self.bufs.iter().zip(&self.asked) {
            self.meter
                .charge(kv_app_cost(TABLE_SLOTS, KEY_LEN + VALUE_LEN));
            let request = KvRequest::decode(&self.pkt_pool.data(buf)[PAYLOAD..]);
            let ok = match request {
                Some(KvRequest::Get(k)) if op == GET => {
                    self.kv.get(&k) == self.shadow[idx].as_ref().map(|v| &v[..])
                }
                Some(KvRequest::Set(k, v)) if op == SET => {
                    self.x.kv_user_bytes += (k.len() + v.len()) as u64;
                    self.shadow[idx] = v.as_slice().try_into().ok();
                    self.kv.set(&k, &v)
                }
                Some(KvRequest::Delete(k)) if op == DELETE => {
                    let existed = self.shadow[idx].take().is_some();
                    if existed {
                        self.x.kv_user_bytes += k.len() as u64;
                    }
                    self.kv.delete(&k) == existed
                }
                _ => false,
            };
            ctx.expect(ok);
        }
    }

    /// Group commit: `bytes` of log go to the block device, 4 KiB at a
    /// time, at most one pool's worth in flight.
    fn commit(&mut self, ctx: &mut Ctx, bytes: usize) {
        self.x.kv_log_bytes += bytes as u64;
        let mut left = bytes;
        while left > 0 {
            ctx.tr.begin(Name::DriversPool, 0, self.clock());
            let mut ops = Vec::with_capacity(BLK_SLOTS);
            while left > 0 {
                let Some(mut buf) = self.blk_pool.try_acquire() else {
                    break;
                };
                let len = left.min(BLK_SLOT_SIZE);
                buf.set_len(len);
                left -= len;
                self.next_lba += 1;
                ops.push(BlkOp {
                    cookie: buf.slot() as u64,
                    iova: self.blk_pool.iova_of(&buf),
                    lba: self.next_lba,
                    write: true,
                });
                let slot = buf.slot();
                self.held[slot] = Some(buf);
            }
            ctx.tr.end_with(self.clock(), ops.len() as u64);
            let mut in_flight = ops.len();
            let r = self.blk_call(ctx, SyscallArgs::BlkSubmitBatch { queue: 0, ops });
            ctx.expect(r.map(|v| v[0] as usize) == Some(in_flight));
            while in_flight > 0 {
                let r = self.blk_call(
                    ctx,
                    SyscallArgs::BlkReapBatch {
                        queue: 0,
                        max: BLK_SLOTS,
                        wait: true,
                    },
                );
                let cookies = self.k.mem.blk.queues[0].drain_reaped();
                if r.map(|v| v[0] as usize) != Some(cookies.len()) || cookies.is_empty() {
                    ctx.failed += 1;
                    return;
                }
                for cookie in cookies {
                    match self.held[cookie as usize].take() {
                        Some(buf) => self.blk_pool.release(buf),
                        None => ctx.failed += 1,
                    }
                    in_flight -= 1;
                }
            }
        }
    }

    /// One receive batch of at most `want` requests; returns its size.
    fn batch(&mut self, ctx: &mut Ctx, want: usize) -> usize {
        let t0 = self.clock();
        ctx.tr.begin_op(t0);

        ctx.tr.begin(Name::DriversRxBatchZc, 0, self.clock());
        let n = self
            .drv
            .rx_batch_zc(&mut self.meter, &mut self.pkt_pool, &mut self.bufs, want);
        ctx.tr.end_with(self.clock(), n as u64);
        self.x.pktpool_in_flight_peak = self
            .x
            .pktpool_in_flight_peak
            .max(self.pkt_pool.in_flight() as u64);

        self.write_requests(ctx);

        let (log_before, compactions_before) = (self.kv.log_bytes(), self.kv.compactions());
        ctx.tr.begin(Name::AppsKvServe, 0, self.clock());
        self.serve(ctx);
        ctx.tr.end_with(self.clock(), n as u64);

        // A compaction rewrote the whole log; otherwise only the tail grew.
        let log_after = self.kv.log_bytes();
        let to_commit = if self.kv.compactions() != compactions_before {
            log_after
        } else {
            log_after - log_before
        };
        self.commit(ctx, to_commit);

        ctx.tr.begin(Name::DriversTxBatchZc, 0, self.clock());
        let sent = self
            .drv
            .tx_batch_zc(&mut self.meter, &mut self.pkt_pool, &mut self.bufs);
        ctx.tr.end_with(self.clock(), sent as u64);
        ctx.expect(sent == n);

        let now = self.clock();
        ctx.lat.record_n(now - t0, n as u32);
        ctx.tr.end_op(now, n as u64);
        n
    }
}

impl Workload for KvBlk {
    const NAME: &'static str = "kv-blk";
    const OPS_PER_SLICE_PER_SECOND: usize = 64_000;

    fn setup(seed: u64, ops_per_slice: usize) -> Self {
        let mut k = Kernel::boot(KernelConfig {
            mem_mib: 64,
            ncpus: 1,
            root_quota: 2048,
        });
        // The DMA window: mapped, pinned through the IOMMU for the block
        // device, then unmapped (the pin alone keeps the frames live).
        let mut ok = |args: SyscallArgs| {
            let r = k.syscall(0, args.clone());
            assert!(r.is_ok(), "{args:?}: {r:?}");
            r.val0()
        };
        ok(SyscallArgs::Mmap {
            va_base: WINDOW_VA,
            len: BLK_SLOTS,
            writable: true,
        });
        let domain = ok(SyscallArgs::IommuCreateDomain) as u32;
        ok(SyscallArgs::IommuAttach {
            domain,
            device: BLK_DEVICE_ID,
        });
        for i in 0..BLK_SLOTS {
            ok(SyscallArgs::IommuMap {
                domain,
                iova: WINDOW_IOVA + i * PAGE,
                va: WINDOW_VA + i * PAGE,
            });
        }
        let frames = super::mapped_frames(&k, WINDOW_VA, BLK_SLOTS);
        let r = k.syscall(
            0,
            SyscallArgs::Munmap {
                va_base: WINDOW_VA,
                len: BLK_SLOTS,
            },
        );
        assert!(r.is_ok(), "window munmap: {r:?}");

        let sink = TraceSink::new(1, DEFAULT_RING_CAPACITY);
        let mut drv = IxgbeDriver::new(
            IxgbeDevice::steered(FREQ_HZ as u64, NQUEUES, QUEUE),
            DriverCosts::atmosphere(),
        );
        drv.attach_trace(sink.clone());
        let mut pkt_pool = PktPool::anonymous(PKT_SLOTS);
        pkt_pool.attach_trace(sink.clone());
        let mut blk_pool = BlkPool::from_window(DmaWindow::new(WINDOW_IOVA, frames));
        blk_pool.attach_trace(sink.clone());

        // Key fill: every key present, so gets hit from the first op.
        let mut kv = LogKv::new(TABLE_SLOTS, SEGMENT_BYTES);
        let mut shadow = vec![None; KEYS];
        for (idx, slot) in shadow.iter_mut().enumerate() {
            let v = value_of(u64::MAX - idx as u64);
            assert!(kv.set(&key_of(idx), &v), "fill");
            *slot = Some(v);
        }
        KvBlk {
            k,
            sink,
            drv,
            pkt_pool,
            blk_pool,
            meter: CycleMeter::new(),
            steer: RssSteer::new(NQUEUES),
            kv,
            shadow,
            zipf: Zipf::new(KEYS, 0.99),
            deck: Deck::new(&[(GET, 10), (SET, 9), (DELETE, 1)]),
            rng: Rng::new(seed, 0),
            bufs: Vec::with_capacity(BATCH),
            asked: Vec::with_capacity(BATCH),
            held: (0..BLK_SLOTS).map(|_| None).collect(),
            next_lba: 0,
            values_written: 0,
            ops_per_slice,
            x: Extras::default(),
        }
    }

    fn run_slice(&mut self, ctx: &mut Ctx) {
        let mut done = 0;
        while done < self.ops_per_slice {
            done += self.batch(ctx, BATCH.min(self.ops_per_slice - done));
        }
    }

    fn clocks(&self) -> Vec<u64> {
        vec![self.clock()]
    }

    fn counts(&self) -> Counts {
        Counts::of_snapshot(&self.k.trace_snapshot())
            .plus(&Counts::of_snapshot(&self.sink.snapshot()))
            .with_obligations()
    }

    fn extras(&mut self, probe: bool) -> Extras {
        self.x.kv_records = self.kv.records();
        self.x.kv_live = self.kv.len() as u64;
        self.x.kv_compactions = self.kv.compactions();
        if probe {
            self.x.snapshot_us = crate::probe::probe_snapshot_us(|| self.k.trace_snapshot());
            self.x.view_wf_us = crate::probe::probe_view_wf(&self.k);
        }
        self.x.clone()
    }

    fn finish(&mut self, _ctx: &mut Ctx, d: &Counts, gates: &mut Gates) {
        gates.check(
            "kv.zero_copy",
            d.net_fallback_copies == 0 && d.blk_fallback_copies == 0,
            || {
                format!(
                    "{} net, {} blk fallback copies",
                    d.net_fallback_copies, d.blk_fallback_copies
                )
            },
        );
        gates.check(
            "kv.every_io_reaped",
            d.blk_submit_ios == d.blk_reap_ios && d.blk_submit_ios > 0,
            || format!("{} submitted, {} reaped", d.blk_submit_ios, d.blk_reap_ios),
        );
        gates.check(
            "kv.pool_ledgers",
            self.pkt_pool.in_flight() == 0
                && self.pkt_pool.acquired() == self.pkt_pool.released()
                && self.blk_pool.in_flight() == 0
                && self.blk_pool.acquired() == self.blk_pool.released(),
            || {
                format!(
                    "pkt {}/{}/{} blk {}/{}/{} (acquired/released/in flight)",
                    self.pkt_pool.acquired(),
                    self.pkt_pool.released(),
                    self.pkt_pool.in_flight(),
                    self.blk_pool.acquired(),
                    self.blk_pool.released(),
                    self.blk_pool.in_flight()
                )
            },
        );
        // The store against the shadow, and crash recovery of its log
        // against the shadow as the committed abstract map.
        let expect: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = self
            .shadow
            .iter()
            .enumerate()
            .filter_map(|(idx, v)| v.map(|v| (key_of(idx).to_vec(), v.to_vec())))
            .collect();
        let got: std::collections::BTreeMap<Vec<u8>, Vec<u8>> =
            self.kv.entries().into_iter().collect();
        gates.check("kv.entries_match_shadow", got == expect, || {
            format!("{} entries, shadow has {}", got.len(), expect.len())
        });
        let committed = AbstractKv::from_entries(&expect.into_iter().collect::<Vec<_>>());
        let (recovered, _) = LogKv::recover(&self.kv.log_image(), TABLE_SLOTS, SEGMENT_BYTES);
        gates.verif(
            "kv.recovery_refines",
            recovery_refines(&committed, &recovered.entries()),
        );
        gates.verif("trace_wf", atmo_trace::trace_wf(&self.sink));
        gates.verif("kernel_wf", self.k.wf());
    }
}
