//! The grant-pinned DMA block-buffer pool: a contiguous page-backed
//! arena of fixed 4 KiB slots whose handles flow through the NVMe
//! submit/complete rings by *permission transfer* — zero copies, zero
//! per-I/O allocation.
//!
//! This is the packet-pool ownership story ([`crate::pool`]) applied to
//! the block datapath, with two differences forced by the device:
//!
//! * a slot is exactly one 4 KiB frame ([`BLK_SLOT_SIZE`]), because NVMe
//!   transfers whole logical blocks and the IOMMU maps whole pages — one
//!   slot per pinned frame keeps `slot index == frame index`;
//! * a kernel-backed pool carries a [`DmaWindow`] recording the IOVA
//!   range its frames were pinned at, so [`BlkPool::iova_of`] turns a
//!   handle into the device address a submission-queue entry carries
//!   without re-walking the IOMMU tables.
//!
//! A [`BlkBuf`] is an affine token (no `Clone`) granting exclusive
//! access to one slot; submitting it to the device transfers the
//! permission to the DMA engine, reaping the completion transfers it
//! back. The pool ledger (`acquired == released + in_flight`) is folded
//! into the pool's `wf()` and — via `blk.pool_*` counters — into the
//! global `trace_wf` leak-freedom equation.
//!
//! Exhaustion is *backpressure*, not failure: [`BlkPool::try_acquire`]
//! returns `None` (counted as `blk.pool_exhausted`) and the submitter
//! stops issuing I/Os until completions release slots.

use std::sync::atomic::{AtomicU32, Ordering};

use atmo_mem::{DmaWindow, PagePtr};
use atmo_spec::harness::{check, Invariant, VerifResult};
use atmo_trace::{BlkOutcome, TraceHandle, TraceShare};

/// Fixed slot size: one NVMe logical block / one pinned 4 KiB frame.
pub const BLK_SLOT_SIZE: usize = 4096;

/// Distinguishes pools so a handle can never be released into (or read
/// through) a pool it does not belong to.
static NEXT_BLK_POOL_ID: AtomicU32 = AtomicU32::new(1);

/// An affine handle to one pool slot: the permission to read and write
/// that slot's 4 KiB. Deliberately not `Clone` — moving the handle into
/// the submission ring is the zero-copy transfer; the only ways to
/// retire it are [`BlkPool::release`] and [`BlkPool::copy_out`]'s
/// explicit fallback.
#[derive(Debug, PartialEq, Eq)]
pub struct BlkBuf {
    pool: u32,
    slot: u32,
    len: u16,
}

impl BlkBuf {
    /// Payload length currently stored in the slot.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when no payload has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records the payload length after an in-place fill.
    ///
    /// # Panics
    ///
    /// Panics when `len` exceeds [`BLK_SLOT_SIZE`].
    pub fn set_len(&mut self, len: usize) {
        assert!(
            len <= BLK_SLOT_SIZE,
            "payload of {len} bytes overflows slot"
        );
        self.len = len as u16;
    }

    /// Slot index within the pool.
    pub fn slot(&self) -> usize {
        self.slot as usize
    }
}

/// The block-buffer pool: arena + free-slot stack + acquire/release
/// ledger, optionally bound to the [`DmaWindow`] its frames are pinned
/// at. See the module docs for the ownership story.
#[derive(Debug)]
pub struct BlkPool {
    id: u32,
    arena: Vec<u8>,
    /// LIFO stack of free slot indices (hot slots stay cache-warm).
    free: Vec<u32>,
    nslots: usize,
    /// The pinned device-visible window backing the pool (`None` for
    /// anonymous pools): frame `i` backs slot `i`.
    window: Option<DmaWindow>,
    acquired: u64,
    released: u64,
    exhausted: u64,
    trace: TraceShare,
}

impl BlkPool {
    fn build(nslots: usize, window: Option<DmaWindow>) -> Self {
        assert!(nslots > 0, "pool needs at least one slot");
        BlkPool {
            id: NEXT_BLK_POOL_ID.fetch_add(1, Ordering::Relaxed),
            arena: vec![0u8; nslots * BLK_SLOT_SIZE],
            free: (0..nslots as u32).rev().collect(),
            nslots,
            window,
            acquired: 0,
            released: 0,
            exhausted: 0,
            trace: TraceShare::detached(),
        }
    }

    /// An anonymous pool of `nslots` slots with no pinned backing frames
    /// (driver-level tests and benches).
    pub fn anonymous(nslots: usize) -> Self {
        BlkPool::build(nslots, None)
    }

    /// A pool whose slots are the frames of a pinned DMA window, one
    /// slot per frame. The caller established the window through the
    /// kernel's `IommuMap` grant path (keeping the frames inside
    /// `page_closure()`) and reclaims it with [`BlkPool::into_window`]
    /// at teardown for the `IommuUnmap` loop.
    ///
    /// # Panics
    ///
    /// Panics when the window is empty.
    pub fn from_window(window: DmaWindow) -> Self {
        let nslots = window.frames().len();
        BlkPool::build(nslots, Some(window))
    }

    /// Routes pool events (`blk.pool_*`) into `sink`.
    pub fn attach_trace(&mut self, sink: TraceHandle) {
        self.trace.attach(sink);
    }

    /// Total slots.
    pub fn nslots(&self) -> usize {
        self.nslots
    }

    /// Backing frames (empty for anonymous pools).
    pub fn frames(&self) -> &[PagePtr] {
        self.window.as_ref().map_or(&[], |w| w.frames())
    }

    /// Slots currently held by outstanding [`BlkBuf`]s.
    pub fn in_flight(&self) -> usize {
        self.nslots - self.free.len()
    }

    /// Slots handed out so far.
    pub fn acquired(&self) -> u64 {
        self.acquired
    }

    /// Slots returned so far.
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Acquire attempts that found the pool empty.
    pub fn exhausted(&self) -> u64 {
        self.exhausted
    }

    /// Takes a free slot, or `None` under exhaustion (backpressure: the
    /// submitter retries after completions release slots).
    pub fn try_acquire(&mut self) -> Option<BlkBuf> {
        match self.free.pop() {
            Some(slot) => {
                self.acquired += 1;
                self.trace.blk(BlkOutcome::PoolAcquire, 1);
                Some(BlkBuf {
                    pool: self.id,
                    slot,
                    len: 0,
                })
            }
            None => {
                self.exhausted += 1;
                self.trace.blk(BlkOutcome::PoolExhausted, 1);
                None
            }
        }
    }

    /// Returns a slot to the pool, consuming the handle. This is the
    /// only discard path — a stage that abandons an I/O releases its
    /// handle rather than letting it fall on the floor.
    ///
    /// # Panics
    ///
    /// Panics (verification failure) when the handle belongs to a
    /// different pool.
    pub fn release(&mut self, buf: BlkBuf) {
        assert_eq!(buf.pool, self.id, "BlkBuf released into a foreign pool");
        debug_assert!(
            !self.free.contains(&buf.slot),
            "slot {} already free",
            buf.slot
        );
        self.free.push(buf.slot);
        self.released += 1;
        self.trace.blk(BlkOutcome::PoolRelease, 1);
    }

    /// The device address of the handle's slot — what the submission
    /// queue entry carries as its data pointer.
    ///
    /// # Panics
    ///
    /// Panics when the pool is anonymous (no pinned window: the slot has
    /// no device-visible address) or the handle is foreign.
    pub fn iova_of(&self, buf: &BlkBuf) -> usize {
        assert_eq!(buf.pool, self.id, "BlkBuf from a foreign pool");
        self.window
            .as_ref()
            .expect("anonymous pool has no device-visible addresses")
            .iova_of(buf.slot as usize * BLK_SLOT_SIZE)
    }

    /// The full slot as a writable view (for in-place fills; set the
    /// resulting length with [`BlkBuf::set_len`]).
    pub fn slot_mut(&mut self, buf: &BlkBuf) -> &mut [u8] {
        assert_eq!(buf.pool, self.id, "BlkBuf from a foreign pool");
        let start = buf.slot as usize * BLK_SLOT_SIZE;
        &mut self.arena[start..start + BLK_SLOT_SIZE]
    }

    /// The payload bytes the handle currently holds.
    pub fn data(&self, buf: &BlkBuf) -> &[u8] {
        assert_eq!(buf.pool, self.id, "BlkBuf from a foreign pool");
        let start = buf.slot as usize * BLK_SLOT_SIZE;
        &self.arena[start..start + buf.len as usize]
    }

    /// The payload bytes as a mutable view (in-place record rewrite).
    pub fn data_mut(&mut self, buf: &BlkBuf) -> &mut [u8] {
        assert_eq!(buf.pool, self.id, "BlkBuf from a foreign pool");
        let start = buf.slot as usize * BLK_SLOT_SIZE;
        &mut self.arena[start..start + buf.len as usize]
    }

    /// The explicit non-zero-copy fallback: clones the payload into an
    /// owned buffer (counted as `blk.fallback_copies`) for consumers
    /// that still want ownership, releasing the slot.
    pub fn copy_out(&mut self, buf: BlkBuf) -> Vec<u8> {
        let bytes = self.data(&buf).to_vec();
        self.trace.blk(BlkOutcome::Fallback, 1);
        self.release(buf);
        bytes
    }

    /// Tears the pool down, returning the pinned window so the caller
    /// can walk its IOVAs through `IommuUnmap` and free the frames.
    ///
    /// # Panics
    ///
    /// Panics (verification failure) when handles are still in flight —
    /// unpinning the frames under a live handle would let the device DMA
    /// into freed memory.
    pub fn into_window(self) -> Option<DmaWindow> {
        assert_eq!(self.in_flight(), 0, "pool torn down with handles in flight");
        self.window
    }
}

impl Invariant for BlkPool {
    /// Pool well-formedness:
    ///
    /// 1. the arena covers exactly `nslots` slots;
    /// 2. the pinned window (when present) carves to exactly `nslots`
    ///    frames and is itself well-formed;
    /// 3. every free-stack entry is a distinct valid slot;
    /// 4. the ledger balances: `acquired == released + in_flight` (a
    ///    slot is either free, or held by exactly one outstanding
    ///    handle — the same leak-freedom equation `trace_wf` re-checks
    ///    globally from the `blk.pool_*` counters).
    fn wf(&self) -> VerifResult {
        check(
            self.arena.len() == self.nslots * BLK_SLOT_SIZE,
            "blk_pool",
            "arena size disagrees with slot count",
        )?;
        if let Some(w) = &self.window {
            check(
                w.frames().len() == self.nslots,
                "blk_pool",
                "pinned window disagrees with slot count",
            )?;
            w.wf()?;
        }
        check(
            self.free.len() <= self.nslots,
            "blk_pool",
            "free stack larger than the pool",
        )?;
        let mut seen = vec![false; self.nslots];
        for &s in &self.free {
            check(
                (s as usize) < self.nslots,
                "blk_pool",
                format_args!("free slot {s} out of range"),
            )?;
            check(
                !seen[s as usize],
                "blk_pool",
                format_args!("slot {s} on the free stack twice"),
            )?;
            seen[s as usize] = true;
        }
        check(
            self.acquired == self.released + self.in_flight() as u64,
            "blk_pool",
            format_args!(
                "ledger imbalance: {} acquired != {} released + {} in flight",
                self.acquired,
                self.released,
                self.in_flight()
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_trace::{trace_wf, TraceSink};

    #[test]
    fn acquire_fill_release_roundtrip() {
        let mut pool = BlkPool::anonymous(4);
        assert!(pool.is_wf());
        let mut buf = pool.try_acquire().unwrap();
        pool.slot_mut(&buf)[..4].copy_from_slice(b"atmo");
        buf.set_len(4);
        assert_eq!(pool.data(&buf), b"atmo");
        assert_eq!(pool.in_flight(), 1);
        assert!(pool.is_wf());
        pool.release(buf);
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.acquired(), 1);
        assert_eq!(pool.released(), 1);
        assert!(pool.is_wf());
    }

    #[test]
    fn exhaustion_is_backpressure_not_panic() {
        let mut pool = BlkPool::anonymous(2);
        let a = pool.try_acquire().unwrap();
        let b = pool.try_acquire().unwrap();
        assert!(pool.try_acquire().is_none(), "empty pool yields None");
        assert_eq!(pool.exhausted(), 1);
        assert!(pool.is_wf());
        pool.release(a);
        assert!(pool.try_acquire().is_some());
        pool.release(b);
        assert!(pool.is_wf());
    }

    #[test]
    #[should_panic(expected = "foreign pool")]
    fn cross_pool_release_is_a_verification_failure() {
        let mut a = BlkPool::anonymous(2);
        let mut b = BlkPool::anonymous(2);
        let buf = a.try_acquire().unwrap();
        b.release(buf);
    }

    #[test]
    #[should_panic(expected = "handles in flight")]
    fn teardown_with_live_handles_is_a_verification_failure() {
        let mut pool = BlkPool::anonymous(2);
        let _live = pool.try_acquire().unwrap();
        let _ = pool.into_window();
    }

    #[test]
    fn pinned_pool_translates_slots_to_device_addresses() {
        let window = DmaWindow::new(0x10_0000, vec![0x8000, 0x9000, 0xa000]);
        let mut pool = BlkPool::from_window(window);
        assert_eq!(pool.nslots(), 3);
        assert_eq!(pool.frames(), &[0x8000, 0x9000, 0xa000]);
        assert!(pool.is_wf());
        // LIFO: slot 0 comes off the stack first.
        let a = pool.try_acquire().unwrap();
        let b = pool.try_acquire().unwrap();
        assert_eq!(pool.iova_of(&a), 0x10_0000);
        assert_eq!(pool.iova_of(&b), 0x10_1000);
        pool.release(a);
        pool.release(b);
        let w = pool.into_window().unwrap();
        assert_eq!(w.into_frames(), vec![0x8000, 0x9000, 0xa000]);
    }

    #[test]
    #[should_panic(expected = "no device-visible addresses")]
    fn anonymous_pool_has_no_iova() {
        let mut pool = BlkPool::anonymous(1);
        let buf = pool.try_acquire().unwrap();
        let _ = pool.iova_of(&buf);
    }

    #[test]
    fn copy_out_counts_the_fallback_and_frees_the_slot() {
        let sink = TraceSink::new(1, 16);
        let mut pool = BlkPool::anonymous(2);
        pool.attach_trace(sink.clone());
        let mut buf = pool.try_acquire().unwrap();
        pool.slot_mut(&buf)[..3].copy_from_slice(b"kv!");
        buf.set_len(3);
        let bytes = pool.copy_out(buf);
        assert_eq!(bytes, b"kv!");
        assert_eq!(pool.in_flight(), 0);
        let snap = sink.snapshot();
        assert_eq!(snap.counters.blk.fallback_copies, 1);
        assert_eq!(snap.counters.blk.pool_acquired, 1);
        assert_eq!(snap.counters.blk.pool_released, 1);
        assert_eq!(snap.blk_in_flight, 0);
        assert!(trace_wf(&sink).is_ok(), "{:?}", trace_wf(&sink));
    }

    #[test]
    fn traced_pool_balances_the_sink_ledger() {
        let sink = TraceSink::new(1, 16);
        let mut pool = BlkPool::anonymous(8);
        pool.attach_trace(sink.clone());
        let bufs: Vec<BlkBuf> = (0..5).map(|_| pool.try_acquire().unwrap()).collect();
        assert_eq!(sink.blk_in_flight(), 5);
        assert!(trace_wf(&sink).is_ok(), "in-flight handles balance");
        for b in bufs {
            pool.release(b);
        }
        assert_eq!(sink.blk_in_flight(), 0);
        assert!(trace_wf(&sink).is_ok());
        assert!(pool.is_wf());
    }
}
