//! The Intel 82599 (ixgbe) 10 GbE NIC model and polling driver (§6.5.1).
//!
//! The device model exposes descriptor-ring semantics with the physical
//! ceiling of the medium: 64-byte frames on 10 GbE arrive at most at
//! ~14.88 Mpps theoretical; the paper measures **14.2 Mpps** line rate
//! with pktgen, which is the ceiling this model enforces. RX packets
//! become available as device time advances; a driver that polls faster
//! than line rate waits for the next frame, so measured throughput is
//! `min(CPU rate, line rate)` — exactly the behaviour behind Figure 4.

use atmo_hw::cycles::CycleMeter;
use atmo_trace::{DeviceKind, KernelEvent, NetOutcome, TraceHandle, TraceShare};

use crate::pkt::{Packet, PktGen};
use crate::ring::SpscRing;
use crate::slotpool::{PktBuf, PktPool};
use crate::steer::RssSteer;
use crate::DriverCosts;

/// RX descriptor-ring depth (the 82599 default configuration).
const RX_RING_DEPTH: usize = 512;

/// Line rate for 64-byte frames as measured in the paper (packets/s).
pub const IXGBE_LINE_RATE_64B_PPS: f64 = 14_200_000.0;

/// The NIC device model.
#[derive(Debug)]
pub struct IxgbeDevice {
    freq_hz: f64,
    pps: f64,
    rx_consumed: u64,
    tx_sent: u64,
    gen: PktGen,
}

impl IxgbeDevice {
    /// A NIC on a machine running at `freq_hz`, receiving 64-byte frames
    /// at line rate (a pktgen peer saturates the link, §6.5.1).
    pub fn new(freq_hz: u64) -> Self {
        IxgbeDevice {
            freq_hz: freq_hz as f64,
            pps: IXGBE_LINE_RATE_64B_PPS,
            rx_consumed: 0,
            tx_sent: 0,
            gen: PktGen::new(),
        }
    }

    /// One RSS queue of a NIC shared by `nqueues` run-to-completion
    /// workers: this queue sees exactly its hash share of line rate, and
    /// every frame it delivers steers to `queue` (receive-side scaling
    /// partitions the flow space across queues).
    pub fn steered(freq_hz: u64, nqueues: usize, queue: usize) -> Self {
        let share = RssSteer::new(nqueues).share(queue);
        IxgbeDevice {
            freq_hz: freq_hz as f64,
            pps: IXGBE_LINE_RATE_64B_PPS * share,
            rx_consumed: 0,
            tx_sent: 0,
            gen: PktGen::steered(nqueues, queue),
        }
    }

    /// Frames that have arrived by cycle `now` and not yet been consumed.
    pub fn rx_available(&self, now: u64) -> u64 {
        let arrived = (now as f64 * self.pps / self.freq_hz) as u64;
        arrived.saturating_sub(self.rx_consumed)
    }

    /// Cycles from `now` until at least one frame is available.
    pub fn cycles_until_rx(&self, now: u64) -> u64 {
        if self.rx_available(now) > 0 {
            return 0;
        }
        let needed = self.rx_consumed + 1;
        let t = (needed as f64 * self.freq_hz / self.pps).ceil() as u64;
        t.saturating_sub(now)
    }

    /// Takes up to `max` received frames at time `now`.
    pub fn rx_take(&mut self, now: u64, max: usize) -> Vec<Packet> {
        let n = self.rx_available(now).min(max as u64);
        self.rx_consumed += n;
        (0..n).map(|_| self.gen.next_packet()).collect()
    }

    /// Zero-copy receive: takes up to `max` frames at time `now`, each
    /// written by the NIC *directly into a pool slot* (the RX descriptor
    /// names the slot — no allocation, no payload copy). Handles are
    /// appended to `out`. Stops early when the pool runs dry: unconsumed
    /// frames stay on the wire-side backlog, so exhaustion is
    /// backpressure rather than drop or panic.
    pub fn rx_take_zc(
        &mut self,
        now: u64,
        max: usize,
        pool: &mut PktPool,
        out: &mut Vec<PktBuf>,
    ) -> usize {
        let avail = self.rx_available(now).min(max as u64) as usize;
        let mut taken = 0;
        for _ in 0..avail {
            let Some(mut buf) = pool.try_acquire() else {
                break;
            };
            let len = self.gen.fill_next(pool.slot_mut(&buf));
            buf.set_len(len);
            out.push(buf);
            taken += 1;
        }
        self.rx_consumed += taken as u64;
        taken
    }

    /// Submits frames for transmission (the TX path is not the bottleneck
    /// for 64-byte echo workloads; the model accepts at line rate).
    pub fn tx_submit(&mut self, frames: usize) {
        self.tx_sent += frames as u64;
    }

    /// Frames transmitted so far.
    pub fn tx_count(&self) -> u64 {
        self.tx_sent
    }

    /// Frames received (consumed by the driver) so far.
    pub fn rx_count(&self) -> u64 {
        self.rx_consumed
    }
}

/// The polling ixgbe driver.
#[derive(Debug)]
pub struct IxgbeDriver {
    /// The device being driven.
    pub device: IxgbeDevice,
    costs: DriverCosts,
    /// RX descriptor staging ring: the device deposits received frames
    /// here; the poll loop drains it into the caller's buffer.
    rx_ring: SpscRing<Packet>,
    /// Batch-event sink (always-equal share: tracing does not change
    /// driver state).
    trace: TraceShare,
}

impl IxgbeDriver {
    /// Binds a driver to a device.
    pub fn new(device: IxgbeDevice, costs: DriverCosts) -> Self {
        IxgbeDriver {
            device,
            costs,
            rx_ring: SpscRing::new(RX_RING_DEPTH),
            trace: TraceShare::detached(),
        }
    }

    /// Routes rx/tx batch events into `sink`.
    pub fn attach_trace(&mut self, sink: TraceHandle) {
        self.trace.attach(sink);
    }

    /// Polls until up to `batch` frames are received, charging descriptor
    /// and doorbell costs (and idle-wait cycles when ahead of line rate).
    pub fn rx_batch(&mut self, meter: &mut CycleMeter, batch: usize) -> Vec<Packet> {
        let mut pkts = Vec::with_capacity(batch);
        self.rx_batch_into(meter, &mut pkts, batch);
        pkts
    }

    /// [`rx_batch`](Self::rx_batch) into a caller-provided buffer:
    /// received frames are appended to `out` (which keeps its capacity),
    /// so a steady-state poll loop that clears and reuses one `Vec` is
    /// allocation-free. Returns the number of frames received.
    pub fn rx_batch_into(
        &mut self,
        meter: &mut CycleMeter,
        out: &mut Vec<Packet>,
        batch: usize,
    ) -> usize {
        // Busy-poll until at least one frame is there.
        let wait = self.device.cycles_until_rx(meter.now());
        if wait > 0 {
            meter.charge(wait);
        }
        // The device writes frames into the descriptor ring; the driver
        // drains the ring into the caller's buffer.
        let room = self.rx_ring.capacity() - self.rx_ring.len();
        for pkt in self.device.rx_take(meter.now(), batch.min(room)) {
            self.rx_ring
                .enqueue(pkt)
                .unwrap_or_else(|_| unreachable!("bounded by ring room"));
        }
        let n = self.rx_ring.dequeue_into(out, batch);
        meter.charge(self.costs.rx_desc * n as u64 + self.costs.doorbell);
        self.trace.emit(KernelEvent::DriverRx {
            device: DeviceKind::Ixgbe,
            batch: n as u64,
        });
        n
    }

    /// Zero-copy receive batch: busy-polls for the next frame, then
    /// takes up to `batch` frames straight into pool slots
    /// ([`IxgbeDevice::rx_take_zc`]), appending the handles to `out`.
    ///
    /// Costs per non-empty batch: `rx_desc_zc` per frame (strictly below
    /// the cloning path's `rx_desc` — the descriptor only names a slot),
    /// plus one amortized `refill_batch` (re-posting freed slots to the
    /// ring in one pass) and one doorbell. A batch that comes back empty
    /// (pool exhausted before the first frame) charges nothing beyond
    /// the wait and processes no descriptors — pure backpressure.
    pub fn rx_batch_zc(
        &mut self,
        meter: &mut CycleMeter,
        pool: &mut PktPool,
        out: &mut Vec<PktBuf>,
        batch: usize,
    ) -> usize {
        let wait = self.device.cycles_until_rx(meter.now());
        if wait > 0 {
            meter.charge(wait);
        }
        let n = self.device.rx_take_zc(meter.now(), batch, pool, out);
        if n == 0 {
            return 0;
        }
        meter.charge(
            self.costs.rx_desc_zc * n as u64 + self.costs.refill_batch + self.costs.doorbell,
        );
        self.trace.emit(KernelEvent::DriverRx {
            device: DeviceKind::Ixgbe,
            batch: n as u64,
        });
        self.trace.net(NetOutcome::RxBatch, n as u64);
        n
    }

    /// Zero-copy transmit batch: the TX descriptors name the slots, the
    /// device consumes the frames, and every handle is released back to
    /// the pool (completion reclaims the slot). Drains `bufs` in place
    /// so the caller's buffer keeps its capacity. Returns the number of
    /// frames sent.
    pub fn tx_batch_zc(
        &mut self,
        meter: &mut CycleMeter,
        pool: &mut PktPool,
        bufs: &mut Vec<PktBuf>,
    ) -> usize {
        let n = bufs.len();
        if n == 0 {
            return 0;
        }
        meter.charge(self.costs.tx_desc_zc * n as u64 + self.costs.doorbell);
        self.device.tx_submit(n);
        for buf in bufs.drain(..) {
            pool.release(buf);
        }
        self.trace.emit(KernelEvent::DriverTx {
            device: DeviceKind::Ixgbe,
            batch: n as u64,
        });
        self.trace.net(NetOutcome::TxBatch, n as u64);
        n
    }

    /// Transmits a batch, charging descriptor and doorbell costs.
    pub fn tx_batch(&mut self, meter: &mut CycleMeter, pkts: Vec<Packet>) {
        let n = pkts.len();
        meter.charge(self.costs.tx_desc * n as u64 + self.costs.doorbell);
        self.device.tx_submit(n);
        self.trace.emit(KernelEvent::DriverTx {
            device: DeviceKind::Ixgbe,
            batch: n as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_hw::cycles::CpuProfile;

    const FREQ: u64 = 2_200_000_000;

    #[test]
    fn rx_respects_line_rate() {
        let dev = IxgbeDevice::new(FREQ);
        // After one second of device time, ~14.2M frames have arrived.
        let one_sec = FREQ;
        let avail = dev.rx_available(one_sec);
        assert!((avail as f64 - 14_200_000.0).abs() < 10.0, "{avail}");
        assert_eq!(dev.rx_available(0), 0);
    }

    #[test]
    fn cycles_until_rx_is_inter_frame_gap() {
        let dev = IxgbeDevice::new(FREQ);
        let gap = dev.cycles_until_rx(0);
        // 2.2 GHz / 14.2 Mpps ≈ 155 cycles per frame.
        assert!((150..=160).contains(&gap), "{gap}");
    }

    #[test]
    fn driver_waits_when_faster_than_line_rate() {
        let mut drv = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
        let mut meter = CycleMeter::new();
        let pkts = drv.rx_batch(&mut meter, 32);
        assert!(!pkts.is_empty());
        assert!(meter.now() > 0, "waiting charged cycles");
    }

    #[test]
    fn linked_echo_reaches_line_rate_at_batch_32() {
        // The atmo-driver configuration of Figure 4: driver + app in one
        // process, batch 32 → line rate.
        let mut drv = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
        let mut meter = CycleMeter::new();
        let mut done = 0u64;
        let target = 200_000;
        while done < target {
            let pkts = drv.rx_batch(&mut meter, 32);
            done += pkts.len() as u64;
            meter.charge(30 * pkts.len() as u64); // trivial echo app
            drv.tx_batch(&mut meter, pkts);
        }
        let mpps = CpuProfile::c220g5().throughput(done, meter.now()) / 1e6;
        assert!((14.0..14.3).contains(&mpps), "{mpps} Mpps");
    }

    #[test]
    fn rx_batch_into_reuses_buffer_without_reallocating() {
        let mut drv = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
        let mut meter = CycleMeter::new();
        let mut buf: Vec<Packet> = Vec::with_capacity(32);
        let cap0 = buf.capacity();
        let mut total = 0;
        for _ in 0..100 {
            buf.clear();
            total += drv.rx_batch_into(&mut meter, &mut buf, 32);
            assert!(buf.len() <= 32);
            assert_eq!(buf.capacity(), cap0, "steady-state RX must not allocate");
        }
        assert!(total > 0);
        assert_eq!(drv.device.rx_count(), total as u64);
    }

    #[test]
    fn rx_batch_into_matches_rx_batch_costs() {
        // Both entry points charge identical descriptor/doorbell costs.
        let mut a = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
        let mut b = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
        let mut ma = CycleMeter::new();
        let mut mb = CycleMeter::new();
        for _ in 0..50 {
            let pkts = a.rx_batch(&mut ma, 16);
            let mut buf = Vec::new();
            let n = b.rx_batch_into(&mut mb, &mut buf, 16);
            assert_eq!(pkts.len(), n);
        }
        assert_eq!(ma.now(), mb.now());
    }

    #[test]
    fn zc_echo_reaches_line_rate_at_batch_32() {
        // The zero-copy datapath at batch 32 is CPU-cheap enough that the
        // echo is line-rate bound, matching Figure 4's ceiling.
        let mut drv = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
        let mut pool = PktPool::anonymous(1024);
        let mut meter = CycleMeter::new();
        let mut bufs: Vec<PktBuf> = Vec::with_capacity(32);
        let mut done = 0u64;
        let target = 200_000;
        while done < target {
            let n = drv.rx_batch_zc(&mut meter, &mut pool, &mut bufs, 32);
            done += n as u64;
            meter.charge(30 * n as u64); // trivial echo app
            drv.tx_batch_zc(&mut meter, &mut pool, &mut bufs);
        }
        let mpps = CpuProfile::c220g5().throughput(done, meter.now()) / 1e6;
        assert!((14.0..14.3).contains(&mpps), "{mpps} Mpps");
        assert_eq!(pool.exhausted(), 0);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn zc_batch_is_strictly_cheaper_than_cloning_per_packet() {
        // Same frames, same batch size: the zero-copy path must charge
        // strictly fewer descriptor cycles than the cloning path.
        let costs = DriverCosts::atmosphere();
        let mut a = IxgbeDriver::new(IxgbeDevice::new(FREQ), costs);
        let mut b = IxgbeDriver::new(IxgbeDevice::new(FREQ), costs);
        let mut pool = PktPool::anonymous(64);
        let mut ma = CycleMeter::new();
        let mut mb = CycleMeter::new();
        // Deep wire-side backlog so every batch is full and wait is zero:
        // the deltas below measure pure datapath work.
        ma.charge(10_000_000);
        mb.charge(10_000_000);
        let (a0, b0) = (ma.now(), mb.now());
        let mut bufs = Vec::with_capacity(32);
        let mut clone_pkts = 0u64;
        let mut zc_pkts = 0u64;
        for _ in 0..200 {
            let pkts = a.rx_batch(&mut ma, 32);
            clone_pkts += pkts.len() as u64;
            a.tx_batch(&mut ma, pkts);
            let n = b.rx_batch_zc(&mut mb, &mut pool, &mut bufs, 32);
            zc_pkts += n as u64;
            b.tx_batch_zc(&mut mb, &mut pool, &mut bufs);
        }
        assert_eq!(clone_pkts, 200 * 32);
        assert_eq!(zc_pkts, 200 * 32);
        let clone_cycles = (ma.now() - a0) as f64 / clone_pkts as f64;
        let zc_cycles = (mb.now() - b0) as f64 / zc_pkts as f64;
        assert!(
            zc_cycles < clone_cycles,
            "zc {zc_cycles} cycles/pkt !< cloning {clone_cycles}"
        );
    }

    #[test]
    fn zc_steady_state_is_allocation_free() {
        let mut drv = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
        let mut pool = PktPool::anonymous(64);
        let mut meter = CycleMeter::new();
        let mut bufs: Vec<PktBuf> = Vec::with_capacity(32);
        let cap0 = bufs.capacity();
        let mut total = 0;
        for _ in 0..100 {
            total += drv.rx_batch_zc(&mut meter, &mut pool, &mut bufs, 32);
            assert!(bufs.len() <= 32);
            drv.tx_batch_zc(&mut meter, &mut pool, &mut bufs);
            assert_eq!(
                bufs.capacity(),
                cap0,
                "steady-state zc RX must not allocate"
            );
        }
        assert!(total > 0);
        assert_eq!(pool.exhausted(), 0, "a 2-batch pool never runs dry");
        assert_eq!(pool.acquired(), total as u64);
        assert_eq!(pool.released(), total as u64);
    }

    #[test]
    fn zc_pool_exhaustion_is_backpressure_then_resumes() {
        // A pool smaller than the batch: the driver takes what fits, the
        // rest stays on the wire. Releasing the handles lets RX resume —
        // no frame is dropped from the consumed count, nothing panics.
        let mut drv = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
        let mut pool = PktPool::anonymous(8);
        let mut meter = CycleMeter::new();
        meter.charge(1_000_000); // plenty of frames queued on the wire
        let mut held = Vec::new();
        let n = drv.rx_batch_zc(&mut meter, &mut pool, &mut held, 32);
        assert_eq!(n, 8, "partial batch: pool capacity, not batch size");
        assert_eq!(pool.in_flight(), 8);
        // Pool dry: the next poll is pure backpressure.
        let mut more = Vec::new();
        let n2 = drv.rx_batch_zc(&mut meter, &mut pool, &mut more, 32);
        assert_eq!(n2, 0);
        assert!(pool.exhausted() > 0);
        // App finishes with the held frames; RX resumes.
        drv.tx_batch_zc(&mut meter, &mut pool, &mut held);
        let n3 = drv.rx_batch_zc(&mut meter, &mut pool, &mut more, 32);
        assert_eq!(n3, 8);
        drv.tx_batch_zc(&mut meter, &mut pool, &mut more);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn steered_queues_partition_line_rate() {
        // Four RSS queues: their per-queue arrival rates sum to the full
        // line rate, and each queue only ever sees its own flows.
        let nq = 4;
        let one_sec = FREQ;
        let mut total = 0u64;
        for q in 0..nq {
            let mut dev = IxgbeDevice::steered(FREQ, nq, q);
            let avail = dev.rx_available(one_sec);
            total += avail;
            let mut pool = PktPool::anonymous(32);
            let mut bufs = Vec::new();
            dev.rx_take_zc(one_sec, 16, &mut pool, &mut bufs);
            let steer = RssSteer::new(nq);
            for b in bufs.drain(..) {
                let key =
                    crate::pkt::flow_key_of(pool.data(&b)).expect("generated frames always parse");
                assert_eq!(steer.queue_of_key(&key), q, "frame on the wrong queue");
                pool.release(b);
            }
        }
        let line = IXGBE_LINE_RATE_64B_PPS as u64;
        assert!(
            total.abs_diff(line) < 16,
            "queue shares must sum to line rate: {total} vs {line}"
        );
    }

    #[test]
    fn traced_zc_pass_reconciles_events_and_counters() {
        use atmo_trace::TraceSink;

        let sink = TraceSink::new(1, 4096);
        let mut drv = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
        drv.attach_trace(sink.clone());
        let mut pool = PktPool::anonymous(64);
        pool.attach_trace(sink.clone());
        let mut meter = CycleMeter::new();
        let mut bufs = Vec::with_capacity(32);
        let mut total = 0u64;
        for _ in 0..10 {
            total += drv.rx_batch_zc(&mut meter, &mut pool, &mut bufs, 32) as u64;
            drv.tx_batch_zc(&mut meter, &mut pool, &mut bufs);
        }
        atmo_trace::trace_wf(&sink).expect("net ledger balances");
        let snap = sink.snapshot();
        assert_eq!(snap.counters.net.pool_acquired, total);
        assert_eq!(snap.counters.net.pool_released, total);
        assert_eq!(snap.counters.net.rx_zc_frames, total);
        assert_eq!(snap.counters.net.tx_zc_frames, total);
        assert_eq!(snap.counters.net.rx_zc_batches, 10);
        assert_eq!(snap.counters.net.tx_zc_batches, 10);
        assert_eq!(snap.net_in_flight, 0);
    }

    #[test]
    fn tx_counts_frames() {
        let mut drv = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
        let mut meter = CycleMeter::new();
        meter.charge(1_000_000);
        let pkts = drv.rx_batch(&mut meter, 8);
        let n = pkts.len() as u64;
        drv.tx_batch(&mut meter, pkts);
        assert_eq!(drv.device.tx_count(), n);
    }
}
