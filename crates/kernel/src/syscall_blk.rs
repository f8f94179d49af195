//! The block-datapath system calls: `BlkSubmitBatch` / `BlkReapBatch`.
//!
//! These are the io_uring-shaped kernel half of the zero-copy block
//! subsystem. The caller fills DMA-pinned buffers in place, posts a
//! batch of submission entries naming them by IOVA, and later harvests
//! completion cookies — the kernel never copies payload bytes, it only
//! validates and accounts:
//!
//! * every entry's IOVA must name a 4 KiB page (else `Invalid`) and
//!   translate through the IOMMU domain the queue's device is attached
//!   to (the same tables `IommuMap` filled when the pool was pinned) — a
//!   stale or foreign address is refused with `Denied` *before any entry
//!   is accepted*, preserving the noop-on-error discipline the audit
//!   enforces;
//! * per-I/O host work is one submission-queue entry
//!   ([`atmo_hw::cycles::CostModel::blk_sqe`]) or completion-queue
//!   entry (`blk_cqe`), with the doorbell charged once per batch —
//!   strictly cheaper than a per-I/O copying path;
//! * a blocking reap with nothing ready parks the caller until the next
//!   device completion and charges the IPC fast-path cost for the
//!   wakeup — the PR 3 direct-handoff machinery reused as the
//!   completion-notification path (counted as `blk.wakeups`).

use atmo_hw::addr::PageVa4K;
use atmo_pm::types::ThrdPtr;
use atmo_trace::{BlkOutcome, DeviceKind, KernelEvent};

use crate::blk::{BlkOp, BLK_SQ_CAPACITY};
use crate::syscall::{ExecCtx, SyscallError, SyscallReturn};

/// Internal result alias for the block handlers.
type Ret = SyscallReturn;

fn ok(vals: [u64; 4]) -> Ret {
    SyscallReturn { result: Ok(vals) }
}

fn err(e: SyscallError) -> Ret {
    SyscallReturn { result: Err(e) }
}

impl ExecCtx<'_> {
    /// `blk_submit_batch`: validates and posts `ops` on queue pair
    /// `queue`, ringing the doorbell once. Returns
    /// `[accepted, in_flight, 0, 0]`.
    ///
    /// Error paths change nothing: every entry is checked (queue exists,
    /// capacity, distinct cookies, IOVA a 4 KiB page that translates for
    /// the queue's device under a domain the caller is authorized on)
    /// before the first entry is accepted.
    pub(crate) fn sys_blk_submit(&mut self, t: ThrdPtr, queue: usize, ops: &[BlkOp]) -> Ret {
        let costs = self.costs;
        self.charge(costs.syscall_validate);
        let cntr = self.pm.thrd(t).owning_cntr;
        let m = self.mem.domain();
        let Some(q) = m.blk.queues.get(queue) else {
            return err(SyscallError::NotFound);
        };
        if ops.is_empty() {
            return err(SyscallError::Invalid);
        }
        if q.in_flight() + q.done_pending() + ops.len() > BLK_SQ_CAPACITY {
            return err(SyscallError::Capacity);
        }
        let mut cookies: Vec<u64> = ops.iter().map(|op| op.cookie).collect();
        cookies.sort_unstable();
        cookies.dedup();
        if cookies.len() != ops.len() || ops.iter().any(|op| q.cookie_pending(op.cookie)) {
            return err(SyscallError::Invalid);
        }
        let dev = q.device();
        // The queue's device must sit in an IOMMU domain the caller may
        // drive, and every buffer must be pinned there: DMA stays inside
        // the caller's own granted memory (§3's isolation rule).
        let Some(domain) = m.vm.iommu.domain_of(dev) else {
            return err(SyscallError::WrongState);
        };
        if !m.iommu_authorized(domain, cntr) {
            return err(SyscallError::Denied);
        }
        for op in ops {
            let Some(iova) = PageVa4K::new(op.iova) else {
                return err(SyscallError::Invalid);
            };
            if m.vm.iommu.translate(dev, iova.va()).is_none() {
                return err(SyscallError::Denied);
            }
        }
        // Validated: accept the whole batch.
        self.meter
            .charge(ops.len() as u64 * costs.blk_sqe + costs.blk_doorbell);
        let now = self.meter.now();
        let q = m.blk.queues.get_mut(queue).expect("checked above");
        for op in ops {
            q.submit(now, op);
        }
        self.trace.emit(KernelEvent::DriverTx {
            device: DeviceKind::Nvme,
            batch: ops.len() as u64,
        });
        self.trace.count(BlkOutcome::SubmitBatch, ops.len() as u64);
        ok([ops.len() as u64, q.in_flight() as u64, 0, 0])
    }

    /// `blk_reap_batch`: harvests up to `max` finished completions from
    /// queue pair `queue` into the caller's completion ring (readable
    /// host-side through `BlkQueuePair::drain_reaped`). Returns
    /// `[reaped, in_flight, still_done, 0]`.
    ///
    /// With `wait` set and nothing ready, the caller sleeps until the
    /// next device completion; the wakeup is delivered through the IPC
    /// fast path and charged accordingly. A reap on a queue with nothing
    /// in flight *and* nothing done is `WrongState` (there is no
    /// completion to ever arrive), checked before any mutation.
    pub(crate) fn sys_blk_reap(&mut self, queue: usize, max: usize, wait: bool) -> Ret {
        let costs = self.costs;
        self.charge(costs.syscall_validate);
        let m = self.mem.domain();
        let Some(q) = m.blk.queues.get(queue) else {
            return err(SyscallError::NotFound);
        };
        if max == 0 {
            return err(SyscallError::Invalid);
        }
        if q.in_flight() == 0 && q.done_pending() == 0 {
            return err(SyscallError::WrongState);
        }
        let q = m.blk.queues.get_mut(queue).expect("checked above");
        q.poll(self.meter.now());
        if q.done_pending() == 0 {
            if !wait {
                return ok([0, q.in_flight() as u64, 0, 0]);
            }
            // Park until the next completion: the device's interrupt
            // wakes the caller through the direct-handoff fast path.
            let sleep = q
                .cycles_until_completion(self.meter.now())
                .expect("in_flight > 0");
            self.meter.charge(sleep + costs.ipc_fastpath);
            self.trace.count(BlkOutcome::Wakeup, 1);
            q.poll(self.meter.now());
        }
        let n = q.take_done(max);
        self.meter
            .charge(n as u64 * costs.blk_cqe + costs.blk_doorbell);
        self.trace.emit(KernelEvent::DriverRx {
            device: DeviceKind::Nvme,
            batch: n as u64,
        });
        self.trace.count(BlkOutcome::ReapBatch, n as u64);
        ok([n as u64, q.in_flight() as u64, q.done_pending() as u64, 0])
    }
}
