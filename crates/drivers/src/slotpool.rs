//! The grant-pinned DMA slot pool: a contiguous page-backed arena of
//! fixed-size slots whose handles move through rings, IPC grants, app
//! logic and the device queues by *permission transfer* — zero copies,
//! zero per-packet or per-I/O allocation.
//!
//! This is the paper's pointer-centric buffer management applied to the
//! datapaths: like `PagePermission` → (`PPtr`, `PointsTo`) in
//! `atmo-mem`, a [`SlotBuf`] is an affine token (no `Clone`) granting
//! exclusive access to one slot of one pool. Handing the handle to the
//! next pipeline stage — or submitting it to the device — transfers the
//! permission; the bytes never move.
//!
//! One pool type serves both datapaths; the [`SlotKind`] parameter fixes
//! what differs, so a handle of one kind cannot even be offered to a
//! pool of the other:
//!
//! * [`Net`] ([`PktPool`]/[`PktBuf`]): 2 KiB slots — a 1500-MTU frame
//!   plus headroom — two per backing frame, counted as `net.pool_*`;
//! * [`Blk`] ([`BlkPool`]/[`BlkBuf`]): 4 KiB slots — NVMe transfers
//!   whole logical blocks and the IOMMU maps whole pages, so one slot
//!   per pinned frame keeps `slot index == frame index` — counted as
//!   `blk.pool_*`.
//!
//! A kernel-backed pool carries the [`DmaWindow`] its frames were pinned
//! at ([`SlotPool::from_window`]): the frames come from the kernel
//! allocator as `Mapped` pages DMA-pinned through the IOMMU grant path,
//! so they stay inside `page_closure()` and the kernel's leak-freedom
//! audit covers the pool for its whole lifetime, and
//! [`SlotPool::iova_of`] turns a handle into the device address a
//! descriptor carries without re-walking the IOMMU tables. Anonymous
//! (window-less) pools exist for driver-level tests and benches.
//!
//! The pool ledger (`acquired == released + in_flight`) is folded into
//! the pool's `wf()` and — via the kind's `pool_*` counters — into the
//! global `trace_wf` leak-freedom equation. Exhaustion is
//! *backpressure*, not failure: [`SlotPool::try_acquire`] returns `None`
//! (counted as `pool_exhausted`) and the producer stops taking work
//! until the consumer side releases slots.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, Ordering};

use atmo_mem::{DmaWindow, DMA_FRAME_BYTES};
use atmo_spec::harness::{check, Invariant, VerifResult};
use atmo_trace::{BlkOutcome, NetOutcome, Outcome, TraceHandle, TraceShare};

/// Fixed packet slot size: one 64-byte frame up to a 1500-MTU frame
/// plus headroom fits; two slots per 4 KiB page.
pub const PKT_SLOT_SIZE: usize = Net::SLOT_SIZE;

/// Packet slots carved from each backing 4 KiB page.
pub const SLOTS_PER_PAGE: usize = DMA_FRAME_BYTES / PKT_SLOT_SIZE;

/// Fixed block slot size: one NVMe logical block / one pinned 4 KiB
/// frame.
pub const BLK_SLOT_SIZE: usize = Blk::SLOT_SIZE;

/// The packet-buffer pool of the zero-copy network datapath.
pub type PktPool = SlotPool<Net>;
/// An affine handle to one [`PktPool`] slot.
pub type PktBuf = SlotBuf<Net>;
/// The block-buffer pool of the zero-copy block datapath.
pub type BlkPool = SlotPool<Blk>;
/// An affine handle to one [`BlkPool`] slot.
pub type BlkBuf = SlotBuf<Blk>;

/// Distinguishes pools so a handle can never be released into (or read
/// through) a pool it does not belong to.
static NEXT_POOL_ID: AtomicU32 = AtomicU32::new(1);

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Net {}
    impl Sealed for super::Blk {}
}

/// What a pool's slots carry: the slot size and the trace counter
/// family its ledger lands in. Sealed — [`Net`] and [`Blk`] are the two
/// datapaths.
pub trait SlotKind: sealed::Sealed {
    /// Bytes per slot; divides [`DMA_FRAME_BYTES`].
    const SLOT_SIZE: usize;
    /// Component tag of the pool's `wf()` failures.
    const WF_TAG: &'static str;
    /// The kind's trace outcome family, and in it: a slot handed out, a
    /// slot returned, an acquire that found the pool empty, and a slot
    /// copied out into an owned buffer.
    type Outcome: Into<Outcome>;
    const ACQUIRE: Self::Outcome;
    const RELEASE: Self::Outcome;
    const EXHAUSTED: Self::Outcome;
    const FALLBACK: Self::Outcome;
}

/// Network packet slots (2 KiB, `net.pool_*`).
#[derive(Debug, PartialEq, Eq)]
pub enum Net {}

/// Block I/O slots (4 KiB, `blk.pool_*`).
#[derive(Debug, PartialEq, Eq)]
pub enum Blk {}

impl SlotKind for Net {
    const SLOT_SIZE: usize = 2048;
    const WF_TAG: &'static str = "pkt_pool";
    type Outcome = NetOutcome;
    const ACQUIRE: NetOutcome = NetOutcome::PoolAcquire;
    const RELEASE: NetOutcome = NetOutcome::PoolRelease;
    const EXHAUSTED: NetOutcome = NetOutcome::PoolExhausted;
    const FALLBACK: NetOutcome = NetOutcome::Fallback;
}

impl SlotKind for Blk {
    const SLOT_SIZE: usize = 4096;
    const WF_TAG: &'static str = "blk_pool";
    type Outcome = BlkOutcome;
    const ACQUIRE: BlkOutcome = BlkOutcome::PoolAcquire;
    const RELEASE: BlkOutcome = BlkOutcome::PoolRelease;
    const EXHAUSTED: BlkOutcome = BlkOutcome::PoolExhausted;
    const FALLBACK: BlkOutcome = BlkOutcome::Fallback;
}

/// An affine handle to one pool slot: the permission to read and write
/// that slot's bytes. Deliberately not `Clone` — moving the handle is
/// the zero-copy transfer; the only ways to retire it are
/// [`SlotPool::release`] (slot returns to the free stack) and
/// [`SlotPool::copy_out`]'s explicit fallback.
#[derive(Debug, PartialEq, Eq)]
pub struct SlotBuf<K: SlotKind> {
    pool: u32,
    slot: u32,
    len: u16,
    kind: PhantomData<K>,
}

impl<K: SlotKind> SlotBuf<K> {
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
    /// Panics when `len` exceeds the kind's slot size.
    pub fn set_len(&mut self, len: usize) {
        assert!(len <= K::SLOT_SIZE, "payload of {len} bytes overflows slot");
        self.len = len as u16;
    }

    /// Slot index within the pool.
    pub fn slot(&self) -> usize {
        self.slot as usize
    }
}

/// The slot pool: arena + free-slot stack + acquire/release ledger,
/// optionally bound to the [`DmaWindow`] its frames are pinned at. See
/// the module docs for the ownership story.
#[derive(Debug)]
pub struct SlotPool<K: SlotKind> {
    id: u32,
    arena: Vec<u8>,
    /// LIFO stack of free slot indices (hot slots stay cache-warm).
    free: Vec<u32>,
    nslots: usize,
    /// The pinned device-visible window backing the pool (`None` for
    /// anonymous pools): frame `i` backs slots
    /// `i * slots_per_frame .. (i + 1) * slots_per_frame`.
    window: Option<DmaWindow>,
    acquired: u64,
    released: u64,
    exhausted: u64,
    trace: TraceShare,
    kind: PhantomData<K>,
}

impl<K: SlotKind> SlotPool<K> {
    /// Slots carved from each backing 4 KiB frame.
    const SLOTS_PER_FRAME: usize = DMA_FRAME_BYTES / K::SLOT_SIZE;

    fn build(nslots: usize, window: Option<DmaWindow>) -> Self {
        assert!(nslots > 0, "pool needs at least one slot");
        SlotPool {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            arena: vec![0u8; nslots * K::SLOT_SIZE],
            free: (0..nslots as u32).rev().collect(),
            nslots,
            window,
            acquired: 0,
            released: 0,
            exhausted: 0,
            trace: TraceShare::detached(),
            kind: PhantomData,
        }
    }

    /// An anonymous pool of `nslots` slots with no pinned backing frames
    /// (driver-level tests and benches).
    pub fn anonymous(nslots: usize) -> Self {
        Self::build(nslots, None)
    }

    /// A pool whose slots are carved from the frames of a pinned DMA
    /// window. The caller established the window through the kernel's
    /// `IommuMap` grant path (keeping the frames inside
    /// `page_closure()`) and reclaims it with [`SlotPool::into_window`]
    /// at teardown for the `IommuUnmap` loop.
    ///
    /// # Panics
    ///
    /// Panics when the window is empty.
    pub fn from_window(window: DmaWindow) -> Self {
        let nslots = window.frames().len() * Self::SLOTS_PER_FRAME;
        Self::build(nslots, Some(window))
    }

    /// Routes pool events (the kind's `pool_*` counters) into `sink`.
    pub fn attach_trace(&mut self, sink: TraceHandle) {
        self.trace.attach(sink);
    }

    /// Total slots.
    pub fn nslots(&self) -> usize {
        self.nslots
    }

    /// Slots currently held by outstanding [`SlotBuf`]s.
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
    /// caller retries after the consumer side releases slots).
    pub fn try_acquire(&mut self) -> Option<SlotBuf<K>> {
        match self.free.pop() {
            Some(slot) => {
                self.acquired += 1;
                self.trace.count(K::ACQUIRE, 1);
                Some(SlotBuf {
                    pool: self.id,
                    slot,
                    len: 0,
                    kind: PhantomData,
                })
            }
            None => {
                self.exhausted += 1;
                self.trace.count(K::EXHAUSTED, 1);
                None
            }
        }
    }

    /// Returns a slot to the pool, consuming the handle. This is the
    /// only discard path — a pipeline stage that drops a frame or
    /// abandons an I/O releases its handle rather than letting it fall
    /// on the floor.
    ///
    /// # Panics
    ///
    /// Panics (verification failure) when the handle belongs to a
    /// different pool.
    pub fn release(&mut self, buf: SlotBuf<K>) {
        assert_eq!(buf.pool, self.id, "handle released into a foreign pool");
        debug_assert!(
            !self.free.contains(&buf.slot),
            "slot {} already free",
            buf.slot
        );
        self.free.push(buf.slot);
        self.released += 1;
        self.trace.count(K::RELEASE, 1);
    }

    /// The device address of the handle's slot — what a descriptor
    /// carries as its data pointer.
    ///
    /// # Panics
    ///
    /// Panics when the pool is anonymous (no pinned window: the slot has
    /// no device-visible address) or the handle is foreign.
    pub fn iova_of(&self, buf: &SlotBuf<K>) -> usize {
        assert_eq!(buf.pool, self.id, "handle from a foreign pool");
        self.window
            .as_ref()
            .expect("anonymous pool has no device-visible addresses")
            .iova_of(buf.slot as usize * K::SLOT_SIZE)
    }

    /// The full slot as a writable view (for in-place fills; set the
    /// resulting length with [`SlotBuf::set_len`]).
    pub fn slot_mut(&mut self, buf: &SlotBuf<K>) -> &mut [u8] {
        assert_eq!(buf.pool, self.id, "handle from a foreign pool");
        let start = buf.slot as usize * K::SLOT_SIZE;
        &mut self.arena[start..start + K::SLOT_SIZE]
    }

    /// The payload bytes the handle currently holds.
    pub fn data(&self, buf: &SlotBuf<K>) -> &[u8] {
        assert_eq!(buf.pool, self.id, "handle from a foreign pool");
        let start = buf.slot as usize * K::SLOT_SIZE;
        &self.arena[start..start + buf.len as usize]
    }

    /// The payload bytes as a mutable view (in-place header or record
    /// rewrite on the app stage).
    pub fn data_mut(&mut self, buf: &SlotBuf<K>) -> &mut [u8] {
        assert_eq!(buf.pool, self.id, "handle from a foreign pool");
        let start = buf.slot as usize * K::SLOT_SIZE;
        &mut self.arena[start..start + buf.len as usize]
    }

    /// The explicit non-zero-copy fallback: clones the payload into an
    /// owned buffer (counted as `fallback_copies`) for consumers that
    /// still want ownership, releasing the slot.
    pub fn copy_out(&mut self, buf: SlotBuf<K>) -> Vec<u8> {
        let bytes = self.data(&buf).to_vec();
        self.trace.count(K::FALLBACK, 1);
        self.release(buf);
        bytes
    }

    /// Tears the pool down, returning the pinned window so the caller
    /// can walk its IOVAs through `IommuUnmap` and free the frames.
    ///
    /// # Panics
    ///
    /// Panics (verification failure) when handles are still in flight —
    /// unpinning the frames under a live handle would dangle it and let
    /// the device DMA into freed memory.
    pub fn into_window(self) -> Option<DmaWindow> {
        assert_eq!(self.in_flight(), 0, "pool torn down with handles in flight");
        self.window
    }
}

impl<K: SlotKind> Invariant for SlotPool<K> {
    /// Pool well-formedness:
    ///
    /// 1. the arena covers exactly `nslots` slots;
    /// 2. the pinned window (when present) carves to exactly `nslots`
    ///    slots and is itself well-formed;
    /// 3. every free-stack entry is a distinct valid slot;
    /// 4. the ledger balances: `acquired == released + in_flight` (a
    ///    slot is either free, or held by exactly one outstanding
    ///    handle — the pool-level leak-freedom equation `trace_wf`
    ///    re-checks globally from the kind's `pool_*` counters).
    fn wf(&self) -> VerifResult {
        check(
            self.arena.len() == self.nslots * K::SLOT_SIZE,
            K::WF_TAG,
            "arena size disagrees with slot count",
        )?;
        if let Some(w) = &self.window {
            check(
                w.frames().len() * Self::SLOTS_PER_FRAME == self.nslots,
                K::WF_TAG,
                "pinned window disagrees with slot count",
            )?;
            w.wf()?;
        }
        check(
            self.free.len() <= self.nslots,
            K::WF_TAG,
            "free stack larger than the pool",
        )?;
        let mut seen = vec![false; self.nslots];
        for &s in &self.free {
            check(
                (s as usize) < self.nslots,
                K::WF_TAG,
                format_args!("free slot {s} out of range"),
            )?;
            check(
                !seen[s as usize],
                K::WF_TAG,
                format_args!("slot {s} on the free stack twice"),
            )?;
            seen[s as usize] = true;
        }
        check(
            self.acquired == self.released + self.in_flight() as u64,
            K::WF_TAG,
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
    use crate::pkt::{self, Packet, UDP64_LEN};
    use atmo_trace::{trace_wf, TraceSink};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The message `f` panics with.
    fn panic_of(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
        *payload.downcast::<String>().expect("a formatted message")
    }

    /// The cases every kind of pool shares, run once per kind; `family`
    /// is the kind's counter family (`net` or `blk`).
    fn shared_cases<K: SlotKind>(family: &str) {
        // Acquire, fill, release: the roundtrip.
        let mut pool = SlotPool::<K>::anonymous(4);
        assert!(pool.is_wf());
        let mut buf = pool.try_acquire().unwrap();
        assert!(buf.is_empty());
        pool.slot_mut(&buf)[..4].copy_from_slice(b"atmo");
        buf.set_len(4);
        assert_eq!(pool.data(&buf), b"atmo");
        pool.data_mut(&buf)[0] = b'A';
        assert_eq!(pool.data(&buf), b"Atmo");
        assert_eq!(pool.in_flight(), 1);
        assert!(pool.is_wf());
        pool.release(buf);
        assert_eq!(pool.in_flight(), 0);
        assert_eq!((pool.acquired(), pool.released()), (1, 1));
        assert!(pool.is_wf());

        // Exhaustion is backpressure, not a panic.
        let mut pool = SlotPool::<K>::anonymous(2);
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

        // A traced pool balances the sink's ledger; `trace_wf` holds the
        // in-flight gauge to `acquired - released`.
        let sink = TraceSink::new(1, 16);
        let counts = || {
            let flat = sink.snapshot().counters.flat();
            ["pool_acquired", "pool_released", "fallback_copies"].map(|counter| {
                let name = format!("{family}.{counter}");
                flat.iter().find(|(n, _)| *n == name).expect("counter").1
            })
        };
        let mut pool = SlotPool::<K>::anonymous(8);
        pool.attach_trace(sink.clone());
        let bufs: Vec<SlotBuf<K>> = (0..5).map(|_| pool.try_acquire().unwrap()).collect();
        assert_eq!(counts(), [5, 0, 0]);
        assert!(trace_wf(&sink).is_ok(), "in-flight handles balance");
        for b in bufs {
            pool.release(b);
        }
        assert_eq!(counts(), [5, 5, 0]);

        // `copy_out` counts the fallback and frees the slot.
        let mut buf = pool.try_acquire().unwrap();
        pool.slot_mut(&buf)[..3].copy_from_slice(b"kv!");
        buf.set_len(3);
        assert_eq!(pool.copy_out(buf), b"kv!");
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(counts(), [6, 6, 1]);
        assert!(trace_wf(&sink).is_ok(), "{:?}", trace_wf(&sink));
        assert!(pool.is_wf());

        // Verification failures: a handle released into another pool of
        // its kind, and a pool torn down over a live handle.
        let mut other = SlotPool::<K>::anonymous(2);
        let stray = pool.try_acquire().unwrap();
        assert!(panic_of(|| other.release(stray)).contains("foreign pool"));
        assert!(panic_of(|| drop(pool.into_window())).contains("handles in flight"));
    }

    #[test]
    fn both_kinds_pass_the_shared_cases() {
        shared_cases::<Net>("net");
        shared_cases::<Blk>("blk");
    }

    #[test]
    fn udp_frame_fills_a_packet_slot_in_place() {
        let mut pool = PktPool::anonymous(4);
        let mut buf = pool.try_acquire().unwrap();
        let len = pkt::write_udp64(pool.slot_mut(&buf), 9);
        buf.set_len(len);
        assert_eq!(buf.len(), UDP64_LEN);
        assert_eq!(pool.data(&buf), &Packet::udp64(9).data[..]);
        pool.release(buf);
    }

    /// A pool over a pinned three-frame window hands out slots 0, 1, 2
    /// (LIFO: slot 0 comes off the stack first) at `iovas`.
    fn pinned_case<K: SlotKind>(iovas: [usize; 3]) {
        let frames = vec![0x8000, 0x9000, 0xa000];
        let mut pool = SlotPool::<K>::from_window(DmaWindow::new(iovas[0], frames.clone()));
        assert_eq!(pool.nslots() * K::SLOT_SIZE, 3 * DMA_FRAME_BYTES);
        assert!(pool.is_wf());
        let bufs: Vec<SlotBuf<K>> = (0..3).map(|_| pool.try_acquire().unwrap()).collect();
        assert_eq!(
            bufs.iter().map(|b| pool.iova_of(b)).collect::<Vec<_>>(),
            iovas
        );
        for b in bufs {
            pool.release(b);
        }
        assert_eq!(pool.into_window().unwrap().into_frames(), frames);
    }

    #[test]
    fn pinned_pools_translate_slots_to_device_addresses() {
        let base = 0x10_0000;
        // One block slot per frame; two packet slots per frame.
        pinned_case::<Blk>([base, base + 4096, base + 2 * 4096]);
        pinned_case::<Net>([base, base + 2048, base + 4096]);
        assert_eq!(SLOTS_PER_PAGE, 2);
    }

    #[test]
    #[should_panic(expected = "no device-visible addresses")]
    fn anonymous_pool_has_no_iova() {
        let mut pool = BlkPool::anonymous(1);
        let buf = pool.try_acquire().unwrap();
        let _ = pool.iova_of(&buf);
    }
}
