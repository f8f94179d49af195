//! The grant-backed packet-buffer pool: a contiguous page-backed arena
//! of fixed 2 KiB slots whose handles move through rings, IPC grants and
//! app logic by *permission transfer* — zero copies, zero per-packet
//! allocation.
//!
//! This is the paper's pointer-centric buffer management applied to the
//! network datapath: like `PagePermission` → (`PPtr`, `PointsTo`) in
//! `atmo-mem`, a [`PktBuf`] is an affine token (no `Clone`) granting
//! exclusive access to one slot of one pool. Handing the handle to the
//! next pipeline stage transfers the permission; the bytes never move.
//! The pool's backing pages come from the kernel allocator as `Mapped`
//! frames ([`PktPool::from_frames`]) and are DMA-pinned through the
//! IOMMU, so they stay inside `page_closure()` and the kernel's
//! leak-freedom audit covers the pool for its whole lifetime. Anonymous
//! (frame-less) pools exist for driver-level unit tests.
//!
//! Exhaustion is *backpressure*, not failure: [`PktPool::try_acquire`]
//! returns `None` (counted as `net.pool_exhausted`) and the RX path
//! simply stops taking frames until TX releases slots.

use std::sync::atomic::{AtomicU32, Ordering};

use atmo_mem::PagePtr;
use atmo_spec::harness::{check, Invariant, VerifResult};
use atmo_trace::{NetOutcome, TraceHandle, TraceShare};

use crate::pkt::Packet;

/// Fixed slot size: one 64-byte frame up to a 1500-MTU frame plus
/// headroom fits; two slots per 4 KiB page.
pub const PKT_SLOT_SIZE: usize = 2048;

/// Buffer slots carved from each backing 4 KiB page.
pub const SLOTS_PER_PAGE: usize = 4096 / PKT_SLOT_SIZE;

/// Distinguishes pools so a handle can never be released into (or read
/// through) a pool it does not belong to.
static NEXT_POOL_ID: AtomicU32 = AtomicU32::new(1);

/// An affine handle to one pool slot: the permission to read and write
/// that slot's bytes. Deliberately not `Clone` — moving the handle is
/// the zero-copy transfer; the only ways to retire it are
/// [`PktPool::release`] (slot returns to the free stack) and
/// [`PktPool::copy_out`]'s explicit fallback.
#[derive(Debug, PartialEq, Eq)]
pub struct PktBuf {
    pool: u32,
    slot: u32,
    len: u16,
}

impl PktBuf {
    /// Frame length currently stored in the slot.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when no frame has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records the frame length after an in-place fill.
    ///
    /// # Panics
    ///
    /// Panics when `len` exceeds [`PKT_SLOT_SIZE`].
    pub fn set_len(&mut self, len: usize) {
        assert!(len <= PKT_SLOT_SIZE, "frame of {len} bytes overflows slot");
        self.len = len as u16;
    }

    /// Slot index within the pool.
    pub fn slot(&self) -> usize {
        self.slot as usize
    }
}

/// The packet-buffer pool: arena + free-slot stack + acquire/release
/// ledger. See the module docs for the ownership story.
#[derive(Debug)]
pub struct PktPool {
    id: u32,
    arena: Vec<u8>,
    /// LIFO stack of free slot indices (hot slots stay cache-warm).
    free: Vec<u32>,
    nslots: usize,
    /// Backing 4 KiB frames ([`PagePtr`]s held `Mapped` by the kernel
    /// allocator and pinned via the IOMMU); empty for anonymous pools.
    frames: Vec<PagePtr>,
    acquired: u64,
    released: u64,
    exhausted: u64,
    trace: TraceShare,
}

impl PktPool {
    fn build(nslots: usize, frames: Vec<PagePtr>) -> Self {
        assert!(nslots > 0, "pool needs at least one slot");
        PktPool {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            arena: vec![0u8; nslots * PKT_SLOT_SIZE],
            free: (0..nslots as u32).rev().collect(),
            nslots,
            frames,
            acquired: 0,
            released: 0,
            exhausted: 0,
            trace: TraceShare::detached(),
        }
    }

    /// An anonymous pool of `nslots` slots with no kernel-accounted
    /// backing frames (driver-level tests and benches).
    pub fn anonymous(nslots: usize) -> Self {
        PktPool::build(nslots, Vec::new())
    }

    /// A pool carved from kernel-allocated `Mapped` frames, two slots
    /// per page. The caller keeps the frames alive in `page_closure()`
    /// (typically by DMA-pinning them through the IOMMU) and reclaims
    /// them with [`PktPool::into_frames`] at teardown.
    ///
    /// # Panics
    ///
    /// Panics when `frames` is empty.
    pub fn from_frames(frames: Vec<PagePtr>) -> Self {
        let nslots = frames.len() * SLOTS_PER_PAGE;
        PktPool::build(nslots, frames)
    }

    /// Routes pool events (`net.pool_*`) into `sink`.
    pub fn attach_trace(&mut self, sink: TraceHandle) {
        self.trace.attach(sink);
    }

    /// Total slots.
    pub fn nslots(&self) -> usize {
        self.nslots
    }

    /// Backing frames (empty for anonymous pools).
    pub fn frames(&self) -> &[PagePtr] {
        &self.frames
    }

    /// Slots currently held by outstanding [`PktBuf`]s.
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
    /// caller retries after the TX side releases slots).
    pub fn try_acquire(&mut self) -> Option<PktBuf> {
        match self.free.pop() {
            Some(slot) => {
                self.acquired += 1;
                self.trace.net(NetOutcome::PoolAcquire, 1);
                Some(PktBuf {
                    pool: self.id,
                    slot,
                    len: 0,
                })
            }
            None => {
                self.exhausted += 1;
                self.trace.net(NetOutcome::PoolExhausted, 1);
                None
            }
        }
    }

    /// Returns a slot to the pool, consuming the handle. This is the
    /// only discard path — a pipeline stage that drops a frame releases
    /// its handle rather than letting it fall on the floor.
    ///
    /// # Panics
    ///
    /// Panics (verification failure) when the handle belongs to a
    /// different pool.
    pub fn release(&mut self, buf: PktBuf) {
        assert_eq!(buf.pool, self.id, "PktBuf released into a foreign pool");
        debug_assert!(
            !self.free.contains(&buf.slot),
            "slot {} already free",
            buf.slot
        );
        self.free.push(buf.slot);
        self.released += 1;
        self.trace.net(NetOutcome::PoolRelease, 1);
    }

    /// The full slot as a writable view (for in-place frame fills; set
    /// the resulting length with [`PktBuf::set_len`]).
    pub fn slot_mut(&mut self, buf: &PktBuf) -> &mut [u8] {
        assert_eq!(buf.pool, self.id, "PktBuf from a foreign pool");
        let start = buf.slot as usize * PKT_SLOT_SIZE;
        &mut self.arena[start..start + PKT_SLOT_SIZE]
    }

    /// The frame bytes the handle currently holds.
    pub fn data(&self, buf: &PktBuf) -> &[u8] {
        assert_eq!(buf.pool, self.id, "PktBuf from a foreign pool");
        let start = buf.slot as usize * PKT_SLOT_SIZE;
        &self.arena[start..start + buf.len as usize]
    }

    /// The frame bytes as a mutable view (in-place header rewrite on the
    /// app stage).
    pub fn data_mut(&mut self, buf: &PktBuf) -> &mut [u8] {
        assert_eq!(buf.pool, self.id, "PktBuf from a foreign pool");
        let start = buf.slot as usize * PKT_SLOT_SIZE;
        &mut self.arena[start..start + buf.len as usize]
    }

    /// The explicit non-zero-copy fallback: clones the frame into an
    /// owned [`Packet`] (counted as `net.fallback_copies`) for consumers
    /// that still want ownership, releasing the slot.
    pub fn copy_out(&mut self, buf: PktBuf) -> Packet {
        let pkt = Packet {
            data: self.data(&buf).to_vec(),
        };
        self.trace.net(NetOutcome::Fallback, 1);
        self.release(buf);
        pkt
    }

    /// Tears the pool down, returning the backing frames so the caller
    /// can unpin and free them.
    ///
    /// # Panics
    ///
    /// Panics (verification failure) when handles are still in flight —
    /// freeing the frames under a live handle would dangle it.
    pub fn into_frames(self) -> Vec<PagePtr> {
        assert_eq!(self.in_flight(), 0, "pool torn down with handles in flight");
        self.frames
    }
}

impl Invariant for PktPool {
    /// Pool well-formedness:
    ///
    /// 1. the arena covers exactly `nslots` slots;
    /// 2. backing frames (when present) carve to exactly `nslots`;
    /// 3. every free-stack entry is a distinct valid slot;
    /// 4. the ledger balances: `acquired == released + in_flight` (a
    ///    slot is either free, or held by exactly one outstanding
    ///    handle — the pool-level leak-freedom equation `trace_wf`
    ///    re-checks globally from the counters).
    fn wf(&self) -> VerifResult {
        check(
            self.arena.len() == self.nslots * PKT_SLOT_SIZE,
            "pkt_pool",
            "arena size disagrees with slot count",
        )?;
        check(
            self.frames.is_empty() || self.frames.len() * SLOTS_PER_PAGE == self.nslots,
            "pkt_pool",
            "backing frames disagree with slot count",
        )?;
        check(
            self.free.len() <= self.nslots,
            "pkt_pool",
            "free stack larger than the pool",
        )?;
        let mut seen = vec![false; self.nslots];
        for &s in &self.free {
            check(
                (s as usize) < self.nslots,
                "pkt_pool",
                format_args!("free slot {s} out of range"),
            )?;
            check(
                !seen[s as usize],
                "pkt_pool",
                format_args!("slot {s} on the free stack twice"),
            )?;
            seen[s as usize] = true;
        }
        check(
            self.acquired == self.released + self.in_flight() as u64,
            "pkt_pool",
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
    use crate::pkt::{self, UDP64_LEN};
    use atmo_trace::{trace_wf, TraceSink};

    #[test]
    fn acquire_fill_release_roundtrip() {
        let mut pool = PktPool::anonymous(4);
        assert!(pool.is_wf());
        let mut buf = pool.try_acquire().unwrap();
        let len = pkt::write_udp64(pool.slot_mut(&buf), 9);
        buf.set_len(len);
        assert_eq!(buf.len(), UDP64_LEN);
        assert_eq!(pool.data(&buf), &Packet::udp64(9).data[..]);
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
        let mut pool = PktPool::anonymous(2);
        let a = pool.try_acquire().unwrap();
        let b = pool.try_acquire().unwrap();
        assert!(pool.try_acquire().is_none(), "empty pool yields None");
        assert!(pool.try_acquire().is_none());
        assert_eq!(pool.exhausted(), 2);
        assert!(pool.is_wf());
        // Releasing makes the slot immediately reusable.
        pool.release(a);
        assert!(pool.try_acquire().is_some());
        pool.release(b);
        assert!(pool.is_wf());
    }

    #[test]
    #[should_panic(expected = "foreign pool")]
    fn cross_pool_release_is_a_verification_failure() {
        let mut a = PktPool::anonymous(2);
        let mut b = PktPool::anonymous(2);
        let buf = a.try_acquire().unwrap();
        b.release(buf);
    }

    #[test]
    #[should_panic(expected = "handles in flight")]
    fn teardown_with_live_handles_is_a_verification_failure() {
        let mut pool = PktPool::anonymous(2);
        let _live = pool.try_acquire().unwrap();
        let _ = pool.into_frames();
    }

    #[test]
    fn copy_out_counts_the_fallback_and_frees_the_slot() {
        let sink = TraceSink::new(1, 16);
        let mut pool = PktPool::anonymous(2);
        pool.attach_trace(sink.clone());
        let mut buf = pool.try_acquire().unwrap();
        let len = pkt::write_udp64(pool.slot_mut(&buf), 3);
        buf.set_len(len);
        let pkt = pool.copy_out(buf);
        assert_eq!(pkt, Packet::udp64(3));
        assert_eq!(pool.in_flight(), 0);
        let snap = sink.snapshot();
        assert_eq!(snap.counters.net.fallback_copies, 1);
        assert_eq!(snap.counters.net.pool_acquired, 1);
        assert_eq!(snap.counters.net.pool_released, 1);
        assert_eq!(snap.net_in_flight, 0);
        assert!(trace_wf(&sink).is_ok(), "{:?}", trace_wf(&sink));
    }

    #[test]
    fn traced_pool_balances_the_sink_ledger() {
        let sink = TraceSink::new(1, 16);
        let mut pool = PktPool::anonymous(8);
        pool.attach_trace(sink.clone());
        let bufs: Vec<PktBuf> = (0..5).map(|_| pool.try_acquire().unwrap()).collect();
        assert_eq!(sink.net_in_flight(), 5);
        assert!(trace_wf(&sink).is_ok(), "in-flight handles balance");
        for b in bufs {
            pool.release(b);
        }
        assert_eq!(sink.net_in_flight(), 0);
        assert!(trace_wf(&sink).is_ok());
        assert!(pool.is_wf());
    }
}
