//! The kernel-side block datapath: io_uring-shaped submission /
//! completion queue pairs over the NVMe device model.
//!
//! User space drives block I/O through two system calls —
//! `BlkSubmitBatch` posts a batch of submission entries (each naming a
//! DMA-pinned buffer by its IOVA) and rings the doorbell once;
//! `BlkReapBatch` harvests finished completions, optionally sleeping
//! until the next one via the IPC fast-path wakeup. The kernel never
//! touches payload bytes: it validates each entry's IOVA against the
//! IOMMU tables (a DMA outside the caller's pinned window is refused
//! before any state changes) and tracks cookies, so the datapath stays
//! zero-copy end to end.
//!
//! The timing model ([`BlkTiming`]) is the same P3700-class completion
//! model the driver crate's `NvmeSpec` uses — `complete = max(submit +
//! latency, prev_complete_of_same_kind + service)` — and the same type:
//! both names re-export `atmo_hw::NvmeTiming`.

use std::collections::VecDeque;

use atmo_ptable::DeviceId;
use atmo_spec::harness::{check, Invariant, VerifResult};

/// Submission-queue capacity per queue pair (in-flight ceiling).
pub const BLK_SQ_CAPACITY: usize = 64;

/// PCI-style device id of the modeled NVMe controller — the device a
/// pinned pool's IOMMU domain attaches to.
pub const BLK_DEVICE_ID: DeviceId = 7;

/// Extra device-side service cycles per write (the per-write doorbell
/// interaction of §6.5.2's 10% write overhead); mirrors the driver
/// crate's `nvme_write_extra`.
pub const BLK_WRITE_PENALTY: u64 = 900;

/// One submission-queue entry: a 4 KiB transfer between the pinned
/// buffer at `iova` and logical block `lba`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlkOp {
    /// Caller-chosen completion cookie (returned by `BlkReapBatch`).
    pub cookie: u64,
    /// Device-visible address of the buffer: a 4 KiB page address (the
    /// transfer covers the whole page; `BlkSubmitBatch` refuses any other
    /// with `Invalid`) that translates through the queue device's domain.
    pub iova: usize,
    /// Target logical block address.
    pub lba: u64,
    /// `true` for a write, `false` for a read.
    pub write: bool,
}

/// Device timing parameters of the P3700 completion model (the driver
/// crate's `NvmeSpec` is the same type).
pub use atmo_hw::NvmeTiming as BlkTiming;

/// One submission/completion queue pair: in-flight entries ordered by
/// completion time, finished cookies awaiting reap, and the reaped
/// cookies staged for the caller's completion ring.
#[derive(Debug)]
pub struct BlkQueuePair {
    timing: BlkTiming,
    device: DeviceId,
    /// `(complete_at, cookie)`, ascending by completion time.
    inflight: Vec<(u64, u64)>,
    /// Completed cookies not yet reaped, completion order.
    done: VecDeque<u64>,
    /// Cookies the last reap delivered — the modeled user-visible CQ
    /// ring memory (a syscall return carries only scalars, so the host
    /// harness reads the ring through [`BlkQueuePair::drain_reaped`]).
    reaped_cookies: VecDeque<u64>,
    last_read_complete: u64,
    last_write_complete: u64,
    submitted: u64,
    reaped: u64,
}

impl BlkQueuePair {
    /// A fresh queue pair for `device` with the given timing.
    pub fn new(timing: BlkTiming, device: DeviceId) -> Self {
        BlkQueuePair {
            timing,
            device,
            inflight: Vec::new(),
            done: VecDeque::new(),
            reaped_cookies: VecDeque::new(),
            last_read_complete: 0,
            last_write_complete: 0,
            submitted: 0,
            reaped: 0,
        }
    }

    /// The device this queue pair is bound to.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Entries the device currently owns.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Completions finished but not yet reaped.
    pub fn done_pending(&self) -> usize {
        self.done.len()
    }

    /// Entries submitted in total.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Cookies reaped in total.
    pub fn reaped(&self) -> u64 {
        self.reaped
    }

    /// `true` when `cookie` is already pending (in flight or awaiting
    /// reap) — duplicate cookies would make completions ambiguous.
    pub fn cookie_pending(&self, cookie: u64) -> bool {
        self.inflight.iter().any(|&(_, c)| c == cookie) || self.done.contains(&cookie)
    }

    /// Submits one entry at time `now`, computing its completion time
    /// under the per-kind latency/service model.
    pub fn submit(&mut self, now: u64, op: &BlkOp) {
        let (lat, service, penalty, last) = if op.write {
            (
                self.timing.write_latency,
                self.timing.write_service,
                BLK_WRITE_PENALTY,
                &mut self.last_write_complete,
            )
        } else {
            (
                self.timing.read_latency,
                self.timing.read_service,
                0,
                &mut self.last_read_complete,
            )
        };
        let complete = (now + lat).max(*last + service + penalty);
        *last = complete;
        let pos = self
            .inflight
            .iter()
            .position(|&(c, _)| c > complete)
            .unwrap_or(self.inflight.len());
        self.inflight.insert(pos, (complete, op.cookie));
        self.submitted += 1;
    }

    /// Moves every entry finished by `now` to the done queue; returns
    /// how many completed.
    pub fn poll(&mut self, now: u64) -> usize {
        let mut n = 0;
        while let Some(&(c, cookie)) = self.inflight.first() {
            if c <= now {
                self.inflight.remove(0);
                self.done.push_back(cookie);
                n += 1;
            } else {
                break;
            }
        }
        n
    }

    /// Cycles from `now` until the next in-flight completion (0 when one
    /// is ready, `None` when nothing is in flight).
    pub fn cycles_until_completion(&self, now: u64) -> Option<u64> {
        self.inflight.first().map(|&(c, _)| c.saturating_sub(now))
    }

    /// Reaps up to `max` finished cookies into the user-visible CQ ring,
    /// returning how many moved.
    pub fn take_done(&mut self, max: usize) -> usize {
        let n = max.min(self.done.len());
        for _ in 0..n {
            let cookie = self.done.pop_front().expect("counted above");
            self.reaped_cookies.push_back(cookie);
        }
        self.reaped += n as u64;
        n
    }

    /// Drains the user-visible CQ ring (what the caller would read from
    /// its mapped completion-queue memory after `BlkReapBatch` returns).
    pub fn drain_reaped(&mut self) -> Vec<u64> {
        self.reaped_cookies.drain(..).collect()
    }
}

impl Invariant for BlkQueuePair {
    /// Queue-pair well-formedness: in-flight entries are ordered by
    /// completion time, capacity is respected, pending cookies are
    /// distinct, and the ledger balances —
    /// `submitted == reaped + in_flight + done`.
    fn wf(&self) -> VerifResult {
        check(
            self.inflight.windows(2).all(|w| w[0].0 <= w[1].0),
            "blk_queue",
            "in-flight entries out of completion order",
        )?;
        check(
            self.inflight.len() <= BLK_SQ_CAPACITY,
            "blk_queue",
            "in-flight entries exceed the SQ capacity",
        )?;
        let mut cookies: Vec<u64> = self
            .inflight
            .iter()
            .map(|&(_, c)| c)
            .chain(self.done.iter().copied())
            .collect();
        let total = cookies.len();
        cookies.sort_unstable();
        cookies.dedup();
        check(
            cookies.len() == total,
            "blk_queue",
            "duplicate pending cookie",
        )?;
        check(
            self.submitted == self.reaped + (self.inflight.len() + self.done.len()) as u64,
            "blk_queue",
            format_args!(
                "ledger imbalance: {} submitted != {} reaped + {} in flight + {} done",
                self.submitted,
                self.reaped,
                self.inflight.len(),
                self.done.len()
            ),
        )
    }
}

/// The kernel's block-queue state, one entry per queue pair; lives in
/// the mem domain so both the unified and sharded kernels reach it
/// through the same `MemAccess` plumbing the other mem syscalls use.
#[derive(Debug)]
pub struct BlkState {
    /// Queue pairs, indexed by the `queue` syscall argument.
    pub queues: Vec<BlkQueuePair>,
}

impl BlkState {
    /// Boot state: one queue pair bound to the modeled NVMe controller
    /// ([`BLK_DEVICE_ID`]) with P3700 timing at the machine frequency.
    pub fn new(freq_hz: u64) -> Self {
        BlkState {
            queues: vec![BlkQueuePair::new(BlkTiming::p3700(freq_hz), BLK_DEVICE_ID)],
        }
    }
}

impl Invariant for BlkState {
    fn wf(&self) -> VerifResult {
        for q in &self.queues {
            q.wf()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FREQ: u64 = 2_200_000_000;

    fn op(cookie: u64, write: bool) -> BlkOp {
        BlkOp {
            cookie,
            iova: 0x10_0000,
            lba: cookie,
            write,
        }
    }

    #[test]
    fn completions_obey_latency_then_service_rate() {
        let t = BlkTiming::p3700(FREQ);
        let mut q = BlkQueuePair::new(t, BLK_DEVICE_ID);
        for c in 0..3 {
            q.submit(0, &op(c, false));
        }
        assert!(q.is_wf());
        assert_eq!(q.poll(t.read_latency - 1), 0, "nothing before latency");
        assert_eq!(q.poll(t.read_latency), 1);
        assert_eq!(q.poll(t.read_latency + t.read_service), 1);
        assert_eq!(q.poll(t.read_latency + 2 * t.read_service), 1);
        assert_eq!(q.take_done(8), 3);
        assert_eq!(q.drain_reaped(), vec![0, 1, 2], "completion order");
        assert!(q.is_wf());
    }

    #[test]
    fn writes_pay_the_per_write_penalty() {
        let t = BlkTiming::p3700(FREQ);
        let mut q = BlkQueuePair::new(t, BLK_DEVICE_ID);
        q.submit(0, &op(1, true));
        q.submit(0, &op(2, true));
        // Per-kind chain: each write completes no earlier than the
        // previous one plus service time plus the per-write penalty.
        let first = t.write_latency.max(t.write_service + BLK_WRITE_PENALTY);
        let second = t
            .write_latency
            .max(first + t.write_service + BLK_WRITE_PENALTY);
        assert_eq!(q.poll(first - 1), 0);
        assert_eq!(q.poll(first), 1);
        assert_eq!(q.poll(second - 1), 0);
        assert_eq!(q.poll(second), 1);
    }

    #[test]
    fn cycles_until_completion_tracks_the_head() {
        let t = BlkTiming::p3700(FREQ);
        let mut q = BlkQueuePair::new(t, BLK_DEVICE_ID);
        assert_eq!(q.cycles_until_completion(0), None);
        q.submit(0, &op(9, false));
        assert_eq!(q.cycles_until_completion(0), Some(t.read_latency));
        assert_eq!(q.cycles_until_completion(t.read_latency + 5), Some(0));
    }

    #[test]
    fn duplicate_cookies_are_detectable() {
        let t = BlkTiming::p3700(FREQ);
        let mut q = BlkQueuePair::new(t, BLK_DEVICE_ID);
        q.submit(0, &op(7, false));
        assert!(q.cookie_pending(7));
        assert!(!q.cookie_pending(8));
    }

    #[test]
    fn boot_state_is_wf() {
        let s = BlkState::new(FREQ);
        assert!(s.is_wf());
        assert_eq!(s.queues.len(), 1);
        assert_eq!(s.queues[0].device(), BLK_DEVICE_ID);
    }
}
