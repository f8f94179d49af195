//! The NVMe SSD model (Intel P3700-class) and polling driver (§6.5.2).
//!
//! The device model captures the two regimes visible in Figure 5:
//!
//! * at queue depth 1, throughput is **latency-bound** — reads complete
//!   after the flash read latency (~76 µs), so everyone (fio, SPDK,
//!   Atmosphere) lands near 13 K IOPS;
//! * at queue depth 32, throughput is bound by the device's internal
//!   service rate (≈450 K IOPS 4 KiB reads, 256 K IOPS writes to the
//!   write cache) — unless the host software costs more per I/O than the
//!   device's service time, which is what limits fio/Linux to 141 K.
//!
//! Completion model per I/O: `complete = max(submit + latency,
//! prev_complete_of_same_kind + service)`.

use std::collections::VecDeque;

use atmo_hw::cycles::CycleMeter;
use atmo_trace::{BlkOutcome, DeviceKind, KernelEvent, TraceHandle, TraceShare};

use crate::slotpool::{BlkBuf, BlkPool};
use crate::DriverCosts;

/// Kind of block I/O.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoKind {
    /// 4 KiB sequential read.
    Read,
    /// 4 KiB sequential write.
    Write,
}

/// Device timing parameters, in cycles of the host clock (the kernel's
/// `BlkTiming` is the same type).
pub use atmo_hw::NvmeTiming as NvmeSpec;

/// The NVMe device model: submission queue + completion times.
#[derive(Debug)]
pub struct NvmeDevice {
    spec: NvmeSpec,
    inflight: VecDeque<u64>, // completion times, ascending
    last_read_complete: u64,
    last_write_complete: u64,
    completed: u64,
}

impl NvmeDevice {
    /// A device with the given timing spec.
    pub fn new(spec: NvmeSpec) -> Self {
        NvmeDevice {
            spec,
            inflight: VecDeque::new(),
            last_read_complete: 0,
            last_write_complete: 0,
            completed: 0,
        }
    }

    /// Submits one I/O at time `now`.
    pub fn submit(&mut self, now: u64, kind: IoKind) {
        self.submit_with_penalty(now, kind, 0);
    }

    /// Submits one I/O whose device service is inflated by `penalty`
    /// cycles (models per-I/O doorbell/flush interaction — the source of
    /// the Atmosphere write overhead of §6.5.2).
    pub fn submit_with_penalty(&mut self, now: u64, kind: IoKind, penalty: u64) {
        let (lat, service, last) = match kind {
            IoKind::Read => (
                self.spec.read_latency,
                self.spec.read_service,
                &mut self.last_read_complete,
            ),
            IoKind::Write => (
                self.spec.write_latency,
                self.spec.write_service,
                &mut self.last_write_complete,
            ),
        };
        let complete = (now + lat).max(*last + service + penalty);
        *last = complete;
        // Completions are in submission order per kind; merge keeps the
        // queue sorted because both per-kind chains are monotone.
        let pos = self
            .inflight
            .iter()
            .position(|&c| c > complete)
            .unwrap_or(self.inflight.len());
        self.inflight.insert(pos, complete);
    }

    /// Reaps completions that have finished by `now`.
    pub fn poll(&mut self, now: u64) -> u64 {
        let mut n = 0;
        while let Some(&c) = self.inflight.front() {
            if c <= now {
                self.inflight.pop_front();
                n += 1;
            } else {
                break;
            }
        }
        self.completed += n;
        n
    }

    /// Cycles from `now` until the next completion (0 when one is ready,
    /// `None` when nothing is in flight).
    pub fn cycles_until_completion(&self, now: u64) -> Option<u64> {
        self.inflight.front().map(|&c| c.saturating_sub(now))
    }

    /// I/Os completed in total.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// I/Os currently in flight.
    pub fn queue_depth(&self) -> usize {
        self.inflight.len()
    }
}

/// The polling NVMe driver.
#[derive(Debug)]
pub struct NvmeDriver {
    /// The device being driven.
    pub device: NvmeDevice,
    costs: DriverCosts,
    /// Batch-event sink (always-equal share: tracing does not change
    /// driver state).
    trace: TraceShare,
}

impl NvmeDriver {
    /// Binds a driver to a device.
    pub fn new(device: NvmeDevice, costs: DriverCosts) -> Self {
        NvmeDriver {
            device,
            costs,
            trace: TraceShare::detached(),
        }
    }

    /// Routes submit/completion batch events into `sink`.
    pub fn attach_trace(&mut self, sink: TraceHandle) {
        self.trace.attach(sink);
    }

    /// Per-I/O CPU cost (submission + completion processing).
    pub fn io_cpu_cost(&self, _kind: IoKind) -> u64 {
        self.costs.nvme_io
    }

    /// Submits `n` I/Os of `kind`, charging per-I/O CPU cost. Writes pay
    /// the per-write doorbell penalty at the device (§6.5.2's 10% write
    /// overhead).
    pub fn submit_batch(&mut self, meter: &mut CycleMeter, kind: IoKind, n: usize) {
        for _ in 0..n {
            meter.charge(self.io_cpu_cost(kind));
            let penalty = match kind {
                IoKind::Read => 0,
                IoKind::Write => self.costs.nvme_write_extra,
            };
            self.device.submit_with_penalty(meter.now(), kind, penalty);
        }
        self.trace.emit(KernelEvent::DriverTx {
            device: DeviceKind::Nvme,
            batch: n as u64,
        });
    }

    /// Polls until at least one completion arrives (waiting if needed);
    /// returns the number reaped.
    pub fn wait_completions(&mut self, meter: &mut CycleMeter) -> u64 {
        if let Some(wait) = self.device.cycles_until_completion(meter.now()) {
            meter.charge(wait);
        }
        let n = self.device.poll(meter.now());
        self.trace.emit(KernelEvent::DriverRx {
            device: DeviceKind::Nvme,
            batch: n,
        });
        n
    }
}

/// The zero-copy NVMe queue pair: an io_uring-shaped submission /
/// completion ring over the device model that moves [`BlkBuf`] handles
/// instead of copying payloads.
///
/// Submission transfers the handle's slot permission to the DMA engine
/// (the SQ entry carries the slot's pinned IOVA); reaping a completion
/// transfers it back. Per-I/O host work is therefore a descriptor write
/// ([`DriverCosts::sq_desc_zc`]) and a descriptor read
/// ([`DriverCosts::cq_desc_zc`]) — strictly cheaper than the per-I/O
/// copying path's [`DriverCosts::nvme_io`] — with one doorbell per
/// batch in each direction.
///
/// Handles come back in submission order: the device model's per-kind
/// completion chains are monotone, so for single-kind workloads (what
/// the closed loops drive) FIFO order matches completion order.
#[derive(Debug)]
pub struct NvmeZcQueue {
    /// The device being driven.
    pub device: NvmeDevice,
    costs: DriverCosts,
    /// Handles whose slots the device currently owns, submission order.
    pending: VecDeque<BlkBuf>,
    trace: TraceShare,
}

impl NvmeZcQueue {
    /// Binds a zero-copy queue pair to a device.
    pub fn new(device: NvmeDevice, costs: DriverCosts) -> Self {
        NvmeZcQueue {
            device,
            costs,
            pending: VecDeque::new(),
            trace: TraceShare::detached(),
        }
    }

    /// Routes submit/reap batch events into `sink`.
    pub fn attach_trace(&mut self, sink: TraceHandle) {
        self.trace.attach(sink);
    }

    /// Handles currently owned by the device.
    pub fn queue_depth(&self) -> usize {
        self.pending.len()
    }

    /// Submits a batch of filled buffers as `kind` I/Os, transferring
    /// the handles to the device. Charges one zero-copy SQ descriptor
    /// per I/O plus a single doorbell for the whole batch; writes pay
    /// the per-write device penalty (§6.5.2's 10% write overhead).
    pub fn submit_batch_zc(&mut self, meter: &mut CycleMeter, kind: IoKind, bufs: Vec<BlkBuf>) {
        let n = bufs.len();
        if n == 0 {
            return;
        }
        for buf in bufs {
            meter.charge(self.costs.sq_desc_zc);
            let penalty = match kind {
                IoKind::Read => 0,
                IoKind::Write => self.costs.nvme_write_extra,
            };
            self.device.submit_with_penalty(meter.now(), kind, penalty);
            self.pending.push_back(buf);
        }
        meter.charge(self.costs.doorbell);
        self.trace.emit(KernelEvent::DriverTx {
            device: DeviceKind::Nvme,
            batch: n as u64,
        });
        self.trace.blk(BlkOutcome::SubmitBatch, n as u64);
    }

    /// Reaps every completion that has finished by now, pushing the
    /// returned handles into `out`; charges one zero-copy CQ descriptor
    /// per completion plus a single CQ-head doorbell when any arrived.
    pub fn reap_batch_zc(&mut self, meter: &mut CycleMeter, out: &mut Vec<BlkBuf>) -> u64 {
        let n = self.device.poll(meter.now());
        if n == 0 {
            return 0;
        }
        for _ in 0..n {
            meter.charge(self.costs.cq_desc_zc);
            out.push(
                self.pending
                    .pop_front()
                    .expect("completion without a submission"),
            );
        }
        meter.charge(self.costs.doorbell);
        self.trace.emit(KernelEvent::DriverRx {
            device: DeviceKind::Nvme,
            batch: n,
        });
        self.trace.blk(BlkOutcome::ReapBatch, n);
        n
    }

    /// Waits (advancing the meter) until at least one completion is
    /// ready, then reaps; returns the number reaped (0 only when nothing
    /// is in flight).
    pub fn wait_reap_zc(&mut self, meter: &mut CycleMeter, out: &mut Vec<BlkBuf>) -> u64 {
        if let Some(wait) = self.device.cycles_until_completion(meter.now()) {
            meter.charge(wait);
        }
        self.reap_batch_zc(meter, out)
    }
}

/// Runs a closed-loop sequential workload on the zero-copy queue at
/// queue depth `batch`, completing `total` I/Os: acquire → fill-in-place
/// → submit (handles move to the device) → reap (handles move back) →
/// release. Returns IOPS given the host frequency.
pub fn run_closed_loop_zc(
    queue: &mut NvmeZcQueue,
    pool: &mut BlkPool,
    meter: &mut CycleMeter,
    kind: IoKind,
    batch: usize,
    total: u64,
) -> f64 {
    let start = meter.now();
    let mut completed = 0u64;
    let first: Vec<BlkBuf> = (0..batch)
        .map(|_| pool.try_acquire().expect("pool sized below queue depth"))
        .collect();
    queue.submit_batch_zc(meter, kind, first);
    let mut reaped = Vec::with_capacity(batch);
    while completed < total {
        let done = queue.wait_reap_zc(meter, &mut reaped);
        completed += done;
        if done > 0 {
            // Resubmit the same slots: the payload is refilled in place,
            // no allocation and no copy on the steady-state path.
            let resubmit = std::mem::take(&mut reaped);
            queue.submit_batch_zc(meter, kind, resubmit);
        }
    }
    // Drain the tail so every handle returns to the pool.
    while queue.queue_depth() > 0 {
        queue.wait_reap_zc(meter, &mut reaped);
    }
    for buf in reaped {
        pool.release(buf);
    }
    let cycles = meter.since(start);
    completed as f64 * 2_200_000_000.0 / cycles as f64
}

/// Runs a closed-loop sequential workload at queue depth `batch`,
/// completing `total` I/Os; returns IOPS given the host frequency.
pub fn run_closed_loop(
    driver: &mut NvmeDriver,
    meter: &mut CycleMeter,
    kind: IoKind,
    batch: usize,
    total: u64,
    extra_cpu_per_io: u64,
) -> f64 {
    let start = meter.now();
    let mut completed = 0u64;
    driver.submit_batch(meter, kind, batch);
    while completed < total {
        meter.charge(extra_cpu_per_io / 4); // polling loop body
        let done = driver.wait_completions(meter);
        completed += done;
        if done > 0 {
            meter.charge(extra_cpu_per_io * done);
            driver.submit_batch(meter, kind, done as usize);
        }
    }
    let cycles = meter.since(start);
    completed as f64 * 2_200_000_000.0 / cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_spec::harness::Invariant;

    const FREQ: u64 = 2_200_000_000;

    fn driver() -> NvmeDriver {
        NvmeDriver::new(
            NvmeDevice::new(NvmeSpec::p3700(FREQ)),
            DriverCosts::atmosphere(),
        )
    }

    #[test]
    fn qd1_reads_are_latency_bound() {
        let mut d = driver();
        let mut m = CycleMeter::new();
        let iops = run_closed_loop(&mut d, &mut m, IoKind::Read, 1, 2_000, 0);
        // ≈ 1 / 76 µs ≈ 13 K IOPS (§6.5.2: fio 13K, Atmosphere similar).
        assert!((12_000.0..14_000.0).contains(&iops), "{iops}");
    }

    #[test]
    fn qd32_reads_reach_device_peak() {
        let mut d = driver();
        let mut m = CycleMeter::new();
        let iops = run_closed_loop(&mut d, &mut m, IoKind::Read, 32, 50_000, 0);
        // "Maximum device read performance" ≈ 450 K IOPS.
        assert!((400_000.0..460_000.0).contains(&iops), "{iops}");
    }

    #[test]
    fn atmo_writes_show_ten_percent_overhead() {
        let mut d = driver();
        let mut m = CycleMeter::new();
        let iops = run_closed_loop(&mut d, &mut m, IoKind::Write, 32, 50_000, 0);
        // Device peak is 256 K; the per-write extra keeps Atmosphere near
        // the paper's 232 K (10% below).
        assert!((215_000.0..245_000.0).contains(&iops), "{iops}");
    }

    #[test]
    fn completions_obey_latency() {
        let mut dev = NvmeDevice::new(NvmeSpec::p3700(FREQ));
        dev.submit(0, IoKind::Read);
        assert_eq!(dev.poll(1000), 0, "nothing completes before latency");
        let lat = NvmeSpec::p3700(FREQ).read_latency;
        assert_eq!(dev.poll(lat), 1);
        assert_eq!(dev.completed(), 1);
    }

    #[test]
    fn service_rate_spaces_completions() {
        let mut dev = NvmeDevice::new(NvmeSpec::p3700(FREQ));
        let spec = NvmeSpec::p3700(FREQ);
        for _ in 0..3 {
            dev.submit(0, IoKind::Read);
        }
        // First at latency; the rest spaced by the service time.
        assert_eq!(dev.poll(spec.read_latency), 1);
        assert_eq!(dev.poll(spec.read_latency + spec.read_service), 1);
        assert_eq!(dev.poll(spec.read_latency + 2 * spec.read_service), 1);
    }

    #[test]
    fn zc_queue_matches_the_device_regimes() {
        let costs = DriverCosts::atmosphere();
        let mut q = NvmeZcQueue::new(NvmeDevice::new(NvmeSpec::p3700(FREQ)), costs);
        let mut pool = BlkPool::anonymous(64);
        let mut m = CycleMeter::new();
        let qd1 = run_closed_loop_zc(&mut q, &mut pool, &mut m, IoKind::Read, 1, 2_000);
        assert!((12_000.0..14_000.0).contains(&qd1), "{qd1}");
        let mut q = NvmeZcQueue::new(NvmeDevice::new(NvmeSpec::p3700(FREQ)), costs);
        let qd32 = run_closed_loop_zc(&mut q, &mut pool, &mut m, IoKind::Read, 32, 50_000);
        assert!((400_000.0..460_000.0).contains(&qd32), "{qd32}");
        assert_eq!(pool.in_flight(), 0, "every handle came back");
        assert!(pool.is_wf());
    }

    #[test]
    fn zc_per_io_host_cost_beats_the_copying_path() {
        let costs = DriverCosts::atmosphere();
        // Steady state at QD32: one SQ + one CQ descriptor per I/O plus
        // two doorbells amortized over the batch, vs the copying path's
        // per-I/O submission+completion processing alone.
        let zc = costs.sq_desc_zc + costs.cq_desc_zc + 2 * costs.doorbell / 32;
        assert!(zc < costs.nvme_io, "{zc} >= {}", costs.nvme_io);
    }

    #[test]
    fn zc_queue_hands_back_the_submitted_handles() {
        let mut q = NvmeZcQueue::new(
            NvmeDevice::new(NvmeSpec::p3700(FREQ)),
            DriverCosts::atmosphere(),
        );
        let mut pool = BlkPool::anonymous(4);
        let mut m = CycleMeter::new();
        let mut bufs = Vec::new();
        for i in 0..3u8 {
            let mut b = pool.try_acquire().unwrap();
            pool.slot_mut(&b)[0] = i;
            b.set_len(1);
            bufs.push(b);
        }
        let slots: Vec<usize> = bufs.iter().map(|b| b.slot()).collect();
        q.submit_batch_zc(&mut m, IoKind::Write, bufs);
        assert_eq!(q.queue_depth(), 3);
        let mut back = Vec::new();
        while q.queue_depth() > 0 {
            q.wait_reap_zc(&mut m, &mut back);
        }
        assert_eq!(back.iter().map(|b| b.slot()).collect::<Vec<_>>(), slots);
        for (i, b) in back.into_iter().enumerate() {
            assert_eq!(pool.data(&b), &[i as u8], "payload untouched in place");
            pool.release(b);
        }
        assert!(pool.is_wf());
    }

    #[test]
    fn queue_depth_tracks_inflight() {
        let mut dev = NvmeDevice::new(NvmeSpec::p3700(FREQ));
        dev.submit(0, IoKind::Write);
        dev.submit(0, IoKind::Write);
        assert_eq!(dev.queue_depth(), 2);
        let _ = dev.poll(u64::MAX >> 1);
        assert_eq!(dev.queue_depth(), 0);
    }
}
