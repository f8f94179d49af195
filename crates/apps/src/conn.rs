//! Per-CPU sharded connection tables for the event-driven httpd.
//!
//! One [`ConnTable`] per steered CPU, holding slab-allocated [`Conn`]
//! slots in a page-backed arena. The sharding key is the same
//! 4096-residue flow partition as `RssSteer` ([`queue_for_seq`]), so a
//! connection is only ever touched by the CPU its flow steers to — the
//! shards are disjoint by construction and the event core takes no
//! cross-CPU lock (the benches assert this through the PR 2 per-domain
//! lock counters). Opening a flow that steers elsewhere is a
//! verification failure, not a slow path.
//!
//! Identity is generation-tagged: a [`ConnId`] names (slot, generation)
//! and every access checks the generation, so an id retained across a
//! close can never alias the slot's next tenant — the same affine-
//! handle discipline as `PktBuf`, in index form because connection ids
//! also live in timer wheels and ready rings.
//!
//! The arena is carved from kernel-`Mapped` frames
//! ([`ConnTable::from_frames`], [`CONN_SLOTS_PER_PAGE`] slots per 4 KiB
//! page) kept alive in `page_closure()`, so the leak-freedom audit
//! covers connection memory exactly as it covers packet pools.

use atmo_drivers::queue_for_seq;
use atmo_mem::PagePtr;
use atmo_spec::harness::{check, Invariant, VerifResult};
use atmo_trace::{HttpdOutcome, TraceHandle, TraceShare};

/// Modeled size of one connection slot; [`Conn`] must fit.
pub const CONN_SLOT_SIZE: usize = 64;

/// Connection slots carved from each backing 4 KiB page.
pub const CONN_SLOTS_PER_PAGE: usize = 4096 / CONN_SLOT_SIZE;

/// Null slot marker inside [`FlowMap`].
const NO_SLOT: u32 = u32::MAX;

/// A generation-tagged connection id: stale ids (from before the slot
/// was recycled) fail every lookup instead of aliasing the new tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConnId {
    pub slot: u32,
    pub gen: u32,
}

/// Per-connection state: flow identity, incremental parser registers,
/// response-streaming cursor and timer bookkeeping. Everything the
/// event core needs between events lives here, in one slot of the
/// page-backed arena — no per-connection heap allocation.
#[derive(Clone, Copy, Debug, Default)]
#[repr(C)]
pub struct Conn {
    /// Steering flow key (the packet sequence residue class).
    pub flow: u64,
    /// Cycle timestamp when the current request completed parsing.
    pub req_start: u64,
    /// FNV-1a hash of the request path, folded byte-by-byte.
    pub path_hash: u64,
    /// Response bytes already handed to TX.
    pub tx_sent: u32,
    /// Total response length (header + body) being streamed.
    pub resp_len: u32,
    /// Generation tag; bumped on close so stale [`ConnId`]s miss.
    pub gen: u32,
    /// Index of the resolved site entry being served.
    pub resp_idx: u16,
    /// Bytes accumulated in the current request-line token (overflow
    /// check for oversized method/path lines).
    pub line_len: u16,
    /// Connection lifecycle state (`event::C_*`).
    pub state: u8,
    /// Incremental parser DFA state (`event::P_*`).
    pub pstate: u8,
    /// Progress index into the literal the DFA is matching.
    pub hdr_match: u8,
    /// Sliding match progress for the `close` connection token.
    pub val_match: u8,
    /// Flag bits (`event::F_*`): keep-alive, ready, parked, …
    pub flags: u8,
    /// Timer kind currently armed for this conn (`event::T_*`).
    pub timer_kind: u8,
    /// Slot is live (open connection).
    pub active: bool,
}

const _: () = assert!(
    std::mem::size_of::<Conn>() <= CONN_SLOT_SIZE,
    "Conn must fit one arena slot"
);

/// Open-addressing flow → slot map (linear probing, backward-shift
/// deletion). Preallocated at twice the table capacity so the load
/// factor never exceeds 0.5 and probes stay short even at a million
/// live connections; no allocation after construction.
#[derive(Debug)]
struct FlowMap {
    /// `(flow, slot)`; `slot == NO_SLOT` marks an empty bucket.
    entries: Vec<(u64, u32)>,
    mask: usize,
    len: usize,
}

impl FlowMap {
    fn new(capacity: usize) -> Self {
        let want = (capacity.max(1) * 2).next_power_of_two();
        FlowMap {
            entries: vec![(0, NO_SLOT); want],
            mask: want - 1,
            len: 0,
        }
    }

    fn home(&self, flow: u64) -> usize {
        (crate::fnv1a(&flow.to_le_bytes()) as usize) & self.mask
    }

    fn probe_dist(&self, home: usize, pos: usize) -> usize {
        (pos + self.entries.len() - home) & self.mask
    }

    fn insert(&mut self, flow: u64, slot: u32) {
        debug_assert!(self.len < self.entries.len(), "flow map overfull");
        let mut i = self.home(flow);
        loop {
            if self.entries[i].1 == NO_SLOT {
                self.entries[i] = (flow, slot);
                self.len += 1;
                return;
            }
            debug_assert_ne!(self.entries[i].0, flow, "duplicate flow insert");
            i = (i + 1) & self.mask;
        }
    }

    fn get(&self, flow: u64) -> Option<u32> {
        let mut i = self.home(flow);
        loop {
            let (f, s) = self.entries[i];
            if s == NO_SLOT {
                return None;
            }
            if f == flow {
                return Some(s);
            }
            i = (i + 1) & self.mask;
        }
    }

    fn remove(&mut self, flow: u64) -> bool {
        let mut i = self.home(flow);
        loop {
            let (f, s) = self.entries[i];
            if s == NO_SLOT {
                return false;
            }
            if f == flow {
                break;
            }
            i = (i + 1) & self.mask;
        }
        // Backward-shift: walk the rest of the cluster; any entry whose
        // probe path crosses the hole fills it (opening a new hole at
        // its old position), entries already at or past their home stay
        // put. Only an empty bucket ends the cluster — stopping at the
        // first home-positioned entry would strand entries behind it
        // whose probe chains pass through the hole.
        let mut free = i;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let (nf, ns) = self.entries[j];
            if ns == NO_SLOT {
                break;
            }
            let home = self.home(nf);
            if self.probe_dist(home, free) < self.probe_dist(home, j) {
                self.entries[free] = (nf, ns);
                free = j;
            }
        }
        self.entries[free] = (0, NO_SLOT);
        self.len -= 1;
        true
    }
}

/// One CPU's shard of the connection table. See the module docs for the
/// sharding, generation and closure-accounting story.
#[derive(Debug)]
pub struct ConnTable {
    queue: usize,
    nqueues: usize,
    slots: Vec<Conn>,
    /// LIFO stack of free slot indices.
    free: Vec<u32>,
    /// Backing 4 KiB frames held `Mapped` in `page_closure()`; empty
    /// for anonymous (unit-test) tables.
    frames: Vec<PagePtr>,
    map: FlowMap,
    live: usize,
    opened: u64,
    closed: u64,
    trace: TraceShare,
}

impl ConnTable {
    fn build(capacity: usize, queue: usize, nqueues: usize, frames: Vec<PagePtr>) -> Self {
        assert!(capacity > 0, "connection table needs at least one slot");
        assert!(queue < nqueues, "shard queue out of range");
        ConnTable {
            queue,
            nqueues,
            slots: vec![Conn::default(); capacity],
            free: (0..capacity as u32).rev().collect(),
            frames,
            map: FlowMap::new(capacity),
            live: 0,
            opened: 0,
            closed: 0,
            trace: TraceShare::detached(),
        }
    }

    /// An anonymous shard with no kernel-accounted backing frames
    /// (unit tests).
    pub fn anonymous(capacity: usize, queue: usize, nqueues: usize) -> Self {
        ConnTable::build(capacity, queue, nqueues, Vec::new())
    }

    /// A shard carved from kernel-allocated `Mapped` frames,
    /// [`CONN_SLOTS_PER_PAGE`] slots per page. The caller keeps the
    /// frames mapped so the arena stays inside `page_closure()`.
    pub fn from_frames(frames: Vec<PagePtr>, queue: usize, nqueues: usize) -> Self {
        let capacity = frames.len() * CONN_SLOTS_PER_PAGE;
        ConnTable::build(capacity, queue, nqueues, frames)
    }

    /// Routes `httpd.*` accounting (accepts/closes) into `sink`.
    pub fn attach_trace(&mut self, sink: TraceHandle) {
        self.trace.attach(sink);
    }

    /// This shard's steering queue.
    pub fn queue(&self) -> usize {
        self.queue
    }

    /// Total slots in the arena.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Live connections.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Connections ever opened.
    pub fn opened(&self) -> u64 {
        self.opened
    }

    /// Connections closed.
    pub fn closed(&self) -> u64 {
        self.closed
    }

    /// Backing frames (for closure cross-checks).
    pub fn frames(&self) -> &[PagePtr] {
        &self.frames
    }

    /// Opens a connection for `flow`. Returns `None` when the arena is
    /// full — backpressure, never an allocation.
    ///
    /// # Panics
    ///
    /// Panics when `flow` does not steer to this shard's queue: a
    /// cross-shard open would break the no-cross-CPU-locks guarantee,
    /// so it is treated as a verification failure.
    pub fn open(&mut self, flow: u64) -> Option<ConnId> {
        assert_eq!(
            queue_for_seq(flow, self.nqueues),
            self.queue,
            "flow {flow} steers off-shard: sharding invariant violated"
        );
        debug_assert!(self.map.get(flow).is_none(), "flow already open");
        let slot = self.free.pop()?;
        let gen = self.slots[slot as usize].gen;
        let c = &mut self.slots[slot as usize];
        *c = Conn {
            flow,
            gen,
            active: true,
            ..Conn::default()
        };
        self.map.insert(flow, slot);
        self.live += 1;
        self.opened += 1;
        self.trace.count(HttpdOutcome::Accept, 1);
        Some(ConnId { slot, gen })
    }

    /// Closes `id`, recycling its slot under a bumped generation.
    /// Stale ids return `false`.
    pub fn close(&mut self, id: ConnId) -> bool {
        let Some(c) = self.slots.get_mut(id.slot as usize) else {
            return false;
        };
        if !c.active || c.gen != id.gen {
            return false;
        }
        let flow = c.flow;
        c.active = false;
        c.gen = c.gen.wrapping_add(1);
        let removed = self.map.remove(flow);
        debug_assert!(removed, "live conn missing from flow map");
        self.free.push(id.slot);
        self.live -= 1;
        self.closed += 1;
        self.trace.count(HttpdOutcome::Close, 1);
        true
    }

    /// The connection behind `id`, unless the id is stale.
    pub fn get(&self, id: ConnId) -> Option<&Conn> {
        self.slots
            .get(id.slot as usize)
            .filter(|c| c.active && c.gen == id.gen)
    }

    /// Mutable access behind `id`, unless the id is stale.
    pub fn get_mut(&mut self, id: ConnId) -> Option<&mut Conn> {
        self.slots
            .get_mut(id.slot as usize)
            .filter(|c| c.active && c.gen == id.gen)
    }

    /// The live connection slot for `flow`, with its current generation.
    pub fn lookup(&self, flow: u64) -> Option<ConnId> {
        let slot = self.map.get(flow)?;
        Some(ConnId {
            slot,
            gen: self.slots[slot as usize].gen,
        })
    }

    /// Direct slot access for ids already validated this event (the
    /// ready-ring drain re-validates once, then streams).
    pub fn slot_mut(&mut self, slot: u32) -> &mut Conn {
        &mut self.slots[slot as usize]
    }

    /// Read-only slot access (wf audits walk every slot, free or live).
    pub fn slot(&self, slot: u32) -> &Conn {
        &self.slots[slot as usize]
    }

    /// Tears the arena down, returning the backing frames for unmap.
    ///
    /// # Panics
    ///
    /// Panics while connections are live — retiring frames under live
    /// state would break closure accounting.
    pub fn into_frames(self) -> Vec<PagePtr> {
        assert!(
            self.live == 0,
            "into_frames with {} live connections",
            self.live
        );
        self.frames
    }
}

impl Invariant for ConnTable {
    /// Shard well-formedness:
    ///
    /// 1. page-backed arenas size exactly to their frames
    ///    (`capacity == frames × CONN_SLOTS_PER_PAGE`);
    /// 2. the free stack holds distinct, in-range, inactive slots and
    ///    `live == capacity − free`;
    /// 3. the flow map indexes exactly the live slots (both
    ///    directions), and `opened == closed + live` — the ledger that
    ///    makes connection leaks arithmetically visible;
    /// 4. every live flow steers to this shard's queue — the disjoint
    ///    partition that makes cross-CPU locking unnecessary.
    fn wf(&self) -> VerifResult {
        if !self.frames.is_empty() {
            check(
                self.slots.len() == self.frames.len() * CONN_SLOTS_PER_PAGE,
                "conn_table",
                format_args!(
                    "{} slots not carved from {} frames",
                    self.slots.len(),
                    self.frames.len()
                ),
            )?;
        }
        let mut seen = vec![false; self.slots.len()];
        for &s in &self.free {
            check(
                (s as usize) < self.slots.len(),
                "conn_table",
                format_args!("free slot {s} out of range"),
            )?;
            check(
                !std::mem::replace(&mut seen[s as usize], true),
                "conn_table",
                format_args!("slot {s} on the free stack twice"),
            )?;
            check(
                !self.slots[s as usize].active,
                "conn_table",
                format_args!("free slot {s} is active"),
            )?;
        }
        check(
            self.live == self.slots.len() - self.free.len(),
            "conn_table",
            format_args!(
                "live {} != capacity {} - free {}",
                self.live,
                self.slots.len(),
                self.free.len()
            ),
        )?;
        check(
            self.map.len == self.live,
            "conn_table",
            format_args!("flow map holds {} but live = {}", self.map.len, self.live),
        )?;
        for (slot, c) in self.slots.iter().enumerate() {
            if !c.active {
                continue;
            }
            check(
                self.map.get(c.flow) == Some(slot as u32),
                "conn_table",
                format_args!("live slot {slot} flow {} not mapped back", c.flow),
            )?;
            check(
                queue_for_seq(c.flow, self.nqueues) == self.queue,
                "conn_table",
                format_args!(
                    "flow {} lives on shard {} but steers to {}",
                    c.flow,
                    self.queue,
                    queue_for_seq(c.flow, self.nqueues)
                ),
            )?;
        }
        check(
            self.opened == self.closed + self.live as u64,
            "conn_table",
            format_args!(
                "ledger broken: opened {} != closed {} + live {}",
                self.opened, self.closed, self.live
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_spec::rng::XorShift64Star;

    /// The `k`-th flow (in sequence order) that steers to `queue` —
    /// steering is hash-based, so membership comes from asking
    /// [`queue_for_seq`], not from arithmetic on residue ranges.
    fn flow_for(queue: usize, nqueues: usize, k: u64) -> u64 {
        let mut found = 0;
        for seq in 0..u64::MAX {
            if queue_for_seq(seq, nqueues) == queue {
                if found == k {
                    return seq;
                }
                found += 1;
            }
        }
        unreachable!("flow space exhausted")
    }

    #[test]
    fn open_lookup_close_roundtrip() {
        let mut t = ConnTable::anonymous(8, 1, 4);
        let flow = flow_for(1, 4, 0);
        let id = t.open(flow).unwrap();
        assert_eq!(t.live(), 1);
        assert_eq!(t.lookup(flow), Some(id));
        assert_eq!(t.get(id).unwrap().flow, flow);
        assert!(t.wf().is_ok());
        assert!(t.close(id));
        assert_eq!(t.live(), 0);
        assert_eq!(t.lookup(flow), None);
        assert!(t.wf().is_ok());
    }

    #[test]
    fn stale_generation_misses() {
        let mut t = ConnTable::anonymous(1, 0, 1);
        let id = t.open(7).unwrap();
        assert!(t.close(id));
        let id2 = t.open(7).unwrap();
        assert_eq!(id.slot, id2.slot, "slot recycled");
        assert_ne!(id.gen, id2.gen, "generation bumped");
        assert!(t.get(id).is_none(), "stale id must miss");
        assert!(!t.close(id), "stale close is a no-op");
        assert!(t.get(id2).is_some());
        assert!(t.wf().is_ok());
    }

    #[test]
    fn exhaustion_is_backpressure() {
        let mut t = ConnTable::anonymous(2, 0, 1);
        let a = t.open(1).unwrap();
        let _b = t.open(2).unwrap();
        assert!(t.open(3).is_none(), "full table refuses, never allocates");
        assert!(t.close(a));
        assert!(t.open(3).is_some(), "freed slot is reusable");
        assert!(t.wf().is_ok());
    }

    #[test]
    #[should_panic(expected = "steers off-shard")]
    fn cross_shard_open_panics() {
        let mut t = ConnTable::anonymous(4, 0, 4);
        let foreign = (0..).find(|&s| queue_for_seq(s, 4) != 0).unwrap();
        t.open(foreign).unwrap();
    }

    #[test]
    fn capacity_follows_frames() {
        let frames: Vec<PagePtr> = Vec::new();
        drop(frames);
        let t = ConnTable::anonymous(CONN_SLOTS_PER_PAGE * 3, 0, 1);
        assert_eq!(t.capacity(), 192);
        assert_eq!(CONN_SLOTS_PER_PAGE, 64, "64-byte slots, 64 per page");
    }

    #[test]
    fn property_random_churn_matches_model() {
        let mut rng = XorShift64Star::new(0xC0FF_EE11);
        let nqueues = 4;
        let queue = 2;
        let mut t = ConnTable::anonymous(128, queue, nqueues);
        let mut model: std::collections::BTreeMap<u64, ConnId> = Default::default();
        for step in 0..4000 {
            if rng.chance(1, 2) {
                let flow = flow_for(queue, nqueues, rng.below(400) as u64);
                if model.contains_key(&flow) {
                    continue;
                }
                match t.open(flow) {
                    Some(id) => {
                        model.insert(flow, id);
                    }
                    None => assert_eq!(t.live(), 128, "refusal only when full"),
                }
            } else if let Some(&flow) = model.keys().nth(rng.below(model.len().max(1))) {
                let id = model.remove(&flow).unwrap();
                assert!(t.close(id), "model id must close");
            }
            if step % 512 == 0 {
                t.wf().unwrap_or_else(|e| panic!("step {step}: {e}"));
                for (&flow, &id) in &model {
                    assert_eq!(t.lookup(flow), Some(id));
                }
            }
        }
        assert_eq!(t.live(), model.len());
        assert!(t.wf().is_ok());
        for (_, id) in std::mem::take(&mut model) {
            assert!(t.close(id));
        }
        assert_eq!(t.live(), 0);
        assert_eq!(t.opened(), t.closed());
        assert!(t.into_frames().is_empty());
    }
}
