//! The event-driven httpd core: per-CPU connection shards, hierarchical
//! timer wheels, and an epoll-style readiness surface over the
//! zero-copy datapath.
//!
//! The run-to-completion [`crate::Httpd`] walks *every* open connection
//! per poll, so serving cost is O(live). This core inverts that: work
//! arrives as *events* — `rx_batch_zc` frames, timer expiries, TX-drain
//! completions — each event enqueues the affected connection on a
//! per-CPU ready ring, and one loop iteration costs O(ready + expired)
//! regardless of how many connections are merely open. A million idle
//! keepalive connections cost exactly zero cycles per tick.
//!
//! Structure per steered CPU (one [`EventHttpd`] per RSS queue, no
//! cross-CPU state, no domain locks — asserted by the PR 2 per-domain
//! lock counters in the benches):
//!
//! * a [`ConnTable`] shard keyed by the same 4096-residue flow
//!   partition as `RssSteer`;
//! * a [`TimerWheel`] whose ids are the shard's slot indices (exactly
//!   one timer per connection: keepalive, read-header, or write-drain);
//! * a ready ring of generation-tagged [`ConnId`]s with a per-conn
//!   dedup flag, drained under a budget each tick;
//! * the incremental HTTP parser: a byte-at-a-time DFA whose entire
//!   state lives in [`Conn`] registers, so a request split across any
//!   number of `PktBuf`s parses without reassembly buffers;
//! * a [`StaticSite`] whose response heads are serialized once at
//!   `add_page` time — the steady-state loop allocates nothing.
//!
//! Backpressure: packet-pool exhaustion *parks* the connection (state
//! preserved, counted, drain timer still armed) instead of dropping
//! anything; TX completions unpark in FIFO order. The pool ledger
//! (`acquired == released + in_flight`) stays balanced throughout.

use std::collections::VecDeque;

use atmo_drivers::{seq_of, IxgbeDriver, PktBuf, PktPool, PKT_SLOT_SIZE};
use atmo_hw::CycleMeter;
use atmo_spec::harness::{check, Invariant, VerifResult};
use atmo_trace::{HttpdOutcome, LatencyHist, TraceHandle, TraceShare};

use crate::conn::{Conn, ConnId, ConnTable};
use crate::httpd::{HttpResponse, MAX_HEAD_LEN, MAX_REQUEST_LINE};
use crate::timer::TimerWheel;
use crate::{fnv1a, fnv1a_fold, FNV1A_OFFSET};

/// log2 of modeled cycles per wheel tick: 8192 cycles ≈ 3.7 µs at the
/// c220g5's 2.2 GHz.
pub const TICK_SHIFT: u32 = 13;

/// Modeled cycles per wheel tick.
pub const TICK_CYCLES: u64 = 1 << TICK_SHIFT;

/// Byte offset of the HTTP payload inside a request frame (after the
/// udp64 header and the 8-byte flow sequence number).
pub const HTTP_PAYLOAD_OFFSET: usize = 50;

// Modeled per-event costs (cycles on the c220g5 profile). The loop
// charges per *event*, never per live connection — that is the whole
// point.
/// One event-loop dispatch iteration (ring bookkeeping, budget check).
pub const EV_DISPATCH_COST: u64 = 60;
/// Accepting one connection (slot init, flow-map insert, timer arm).
pub const EV_ACCEPT_COST: u64 = 150;
/// Per received frame (descriptor lookup, flow hash, table lookup).
pub const EV_RX_FRAME_COST: u64 = 80;
/// Per parsed request byte (the DFA step).
pub const EV_PARSE_BYTE_COST: u64 = 1;
/// One timer arm/cancel/re-arm (O(1) wheel link operation).
pub const EV_TIMER_OP_COST: u64 = 30;
/// One node moved (or fired) by a wheel cascade.
pub const EV_CASCADE_NODE_COST: u64 = 12;
/// Per response segment: descriptor setup before the byte copy.
pub const EV_SEG_BASE_COST: u64 = 40;
/// Copying one 64-byte cache line into an outgoing slot (matches
/// `CostModel::c220g5().copy_cacheline`).
pub const EV_COPY_CACHELINE_COST: u64 = 14;
/// Visiting one connection in the O(live) scan *baseline* (state load +
/// deadline compare); what the wheel-driven core avoids paying.
pub const EV_SCAN_VISIT_COST: u64 = 6;

// Connection lifecycle states (Conn::state; 0 = free slot).
/// Waiting for (more) request bytes.
pub const C_READING: u8 = 1;
/// Streaming a response into TX segments.
pub const C_SENDING: u8 = 2;
/// Parked on pool exhaustion; resumed by a TX completion.
pub const C_PARKED: u8 = 3;

// Parser DFA states (Conn::pstate).
const P_METHOD: u8 = 0;
const P_PATH: u8 = 1;
const P_VERSION: u8 = 2;
const P_VER_TAIL: u8 = 3;
const P_HDR_START: u8 = 4;
const P_HDR_SKIP: u8 = 5;
const P_CONN_VAL: u8 = 6;
const P_FINAL_LF: u8 = 7;
/// Unsupported method: drain the header, then answer 400.
const P_SKIP_TO_END: u8 = 8;

// Flag bits (Conn::flags).
/// Connection is on the ready ring (dedup).
pub const F_READY: u8 = 1;
/// Client sent `Connection: close`.
pub const F_CONN_CLOSE: u8 = 2;
/// Request line was not a GET; answer 400 and close.
pub const F_BADREQ: u8 = 4;
/// Connection is parked on backpressure.
pub const F_PARKED: u8 = 8;

// Timer kinds (Conn::timer_kind; 0 = none armed).
/// Idle keepalive timeout.
pub const T_KEEPALIVE: u8 = 1;
/// Read-header timeout (slowloris defense).
pub const T_HEADER: u8 = 2;
/// Write-drain timeout (stuck TX / parked too long).
pub const T_DRAIN: u8 = 3;

const METHOD_LIT: &[u8] = b"GET ";
const VERSION_LIT: &[u8] = b"HTTP/1.";
const CONNECTION_LIT: &[u8] = b"connection:";
const CLOSE_LIT: &[u8] = b"close";
const HDR_END_LIT: &[u8] = b"\r\n\r\n";

/// Builtin site-entry indices.
const SITE_400: u16 = 0;
const SITE_404: u16 = 1;

/// Event-core tuning for one shard.
#[derive(Clone, Copy, Debug)]
pub struct EventCoreConfig {
    /// This shard's RSS queue.
    pub queue: usize,
    /// Steered queues in the deployment.
    pub nqueues: usize,
    /// Ready-ring entries drained per tick (latency/throughput knob).
    pub ready_budget: usize,
    /// Idle keepalive timeout, in wheel ticks.
    pub keepalive_ticks: u64,
    /// Read-header timeout, in wheel ticks.
    pub header_ticks: u64,
    /// Write-drain timeout, in wheel ticks.
    pub drain_ticks: u64,
}

impl EventCoreConfig {
    /// Defaults for one shard of a `nqueues`-way deployment: 1024
    /// ready entries per tick, ~18 ms keepalive, ~1.9 ms header, ~3.7
    /// ms drain (in 8192-cycle ticks at 2.2 GHz).
    pub fn new(queue: usize, nqueues: usize) -> Self {
        EventCoreConfig {
            queue,
            nqueues,
            ready_budget: 1024,
            keepalive_ticks: 5000,
            header_ticks: 500,
            drain_ticks: 1000,
        }
    }
}

/// One static page with its response head serialized once, at
/// registration time — the steady-state loop copies bytes, never
/// formats them.
#[derive(Clone, Debug)]
struct SiteEntry {
    head: Vec<u8>,
    body: Vec<u8>,
}

/// The static site: entries plus a sorted hash index. Entry 0 is the
/// builtin 400, entry 1 the builtin 404; pages follow.
#[derive(Clone, Debug, Default)]
pub struct StaticSite {
    entries: Vec<SiteEntry>,
    /// `(path_hash, entry index)`, sorted by hash for binary search.
    by_hash: Vec<(u64, u16)>,
}

impl StaticSite {
    fn entry(status: u16, body: &[u8]) -> SiteEntry {
        let mut head = [0u8; MAX_HEAD_LEN];
        let n = HttpResponse::write_head(status, body.len(), &mut head);
        SiteEntry {
            head: head[..n].to_vec(),
            body: body.to_vec(),
        }
    }

    fn builtin() -> Self {
        StaticSite {
            entries: vec![
                StaticSite::entry(400, b"bad request"),
                StaticSite::entry(404, b"not found"),
            ],
            by_hash: Vec::new(),
        }
    }

    /// Registers a page; its 200 head (status line + Content-Length) is
    /// serialized here, once.
    ///
    /// # Panics
    ///
    /// Panics when the path's FNV-1a hash collides with a registered
    /// page (the event core resolves by hash only) or when the entry
    /// table is full.
    fn add_page(&mut self, path: &str, body: &[u8]) -> u16 {
        let hash = fnv1a(path.as_bytes());
        assert!(
            self.by_hash.binary_search_by_key(&hash, |e| e.0).is_err(),
            "path hash collision for {path}"
        );
        let idx = u16::try_from(self.entries.len()).expect("site entry table full");
        self.entries.push(StaticSite::entry(200, body));
        let at = self.by_hash.partition_point(|e| e.0 < hash);
        self.by_hash.insert(at, (hash, idx));
        idx
    }

    fn resolve(&self, path_hash: u64) -> Option<u16> {
        self.by_hash
            .binary_search_by_key(&path_hash, |e| e.0)
            .ok()
            .map(|i| self.by_hash[i].1)
    }

    fn total_len(&self, idx: u16) -> u32 {
        let e = &self.entries[idx as usize];
        (e.head.len() + e.body.len()) as u32
    }

    /// Copies `dst.len()` response bytes starting at logical `offset`
    /// (head bytes first, then body bytes) into `dst`.
    fn fill(&self, idx: u16, offset: u32, dst: &mut [u8]) {
        let e = &self.entries[idx as usize];
        let mut at = offset as usize;
        let mut out = 0usize;
        while out < dst.len() {
            let (src, base) = if at < e.head.len() {
                (&e.head[..], 0)
            } else {
                (&e.body[..], e.head.len())
            };
            let take = (src.len() - (at - base)).min(dst.len() - out);
            dst[out..out + take].copy_from_slice(&src[at - base..at - base + take]);
            at += take;
            out += take;
        }
    }
}

/// Fixed-capacity FIFO ring of generation-tagged connection ids. A
/// connection appears at most once live (the [`F_READY`] flag dedups);
/// ids that went stale between enqueue and drain are skipped by the
/// generation check. Capacity is sized at construction so pushes never
/// allocate — overflow is a verification failure, not a resize.
#[derive(Debug)]
struct ReadyRing {
    buf: Vec<ConnId>,
    mask: usize,
    head: usize,
    tail: usize,
}

impl ReadyRing {
    fn new(capacity: usize) -> Self {
        let want = capacity.max(2).next_power_of_two();
        ReadyRing {
            buf: vec![ConnId { slot: 0, gen: 0 }; want],
            mask: want - 1,
            head: 0,
            tail: 0,
        }
    }

    fn len(&self) -> usize {
        self.head - self.tail
    }

    fn push(&mut self, id: ConnId) {
        assert!(self.len() <= self.mask, "ready ring overflow");
        self.buf[self.head & self.mask] = id;
        self.head += 1;
    }

    fn pop(&mut self) -> Option<ConnId> {
        if self.head == self.tail {
            return None;
        }
        let id = self.buf[self.tail & self.mask];
        self.tail += 1;
        Some(id)
    }
}

/// One CPU's event-driven httpd shard. See the module docs.
#[derive(Debug)]
pub struct EventHttpd {
    cfg: EventCoreConfig,
    table: ConnTable,
    wheel: TimerWheel,
    site: StaticSite,
    ready: ReadyRing,
    parked: VecDeque<ConnId>,
    txq: Vec<PktBuf>,
    expired: Vec<(u32, u8)>,
    rx_scratch: Vec<PktBuf>,
    latency: LatencyHist,
    served: u64,
    trace: TraceShare,
}

impl EventHttpd {
    /// A shard over `table` (whose queue/nqueues must match `cfg`).
    /// Every buffer — wheel slab, ready ring, parked queue, TX queue,
    /// expiry scratch — is allocated here; the event loop allocates
    /// nothing afterwards.
    pub fn new(cfg: EventCoreConfig, table: ConnTable) -> Self {
        assert_eq!(cfg.queue, table.queue(), "config/table queue mismatch");
        let capacity = table.capacity();
        EventHttpd {
            cfg,
            wheel: TimerWheel::new(capacity),
            site: StaticSite::builtin(),
            // Twice the table capacity: at most one live entry per slot
            // plus one stale entry per recycled slot awaiting drain.
            ready: ReadyRing::new(capacity * 2),
            parked: VecDeque::with_capacity(capacity),
            txq: Vec::with_capacity(4096),
            expired: Vec::with_capacity(4096),
            rx_scratch: Vec::with_capacity(512),
            latency: LatencyHist::default(),
            served: 0,
            trace: TraceShare::detached(),
            table,
        }
    }

    /// Routes `httpd.*` accounting into `sink` (shard and table).
    pub fn attach_trace(&mut self, sink: TraceHandle) {
        self.trace.attach(sink.clone());
        self.table.attach_trace(sink);
    }

    /// Registers a static page (response head serialized now).
    pub fn add_page(&mut self, path: &str, body: &[u8]) {
        self.site.add_page(path, body);
    }

    /// Requests fully served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Live connections on this shard.
    pub fn live(&self) -> usize {
        self.table.live()
    }

    /// Request latency distribution (parse-complete → last TX segment
    /// queued), in modeled cycles.
    pub fn latency(&self) -> &LatencyHist {
        &self.latency
    }

    /// The connection shard.
    pub fn table(&self) -> &ConnTable {
        &self.table
    }

    /// The timer wheel.
    pub fn wheel(&self) -> &TimerWheel {
        &self.wheel
    }

    /// Ready entries currently queued.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Connections currently parked on backpressure.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Accepts a connection for `flow` (idle, keepalive timer armed).
    /// `None` means the shard is full — backpressure, no allocation.
    pub fn accept(&mut self, meter: &mut CycleMeter, flow: u64) -> Option<ConnId> {
        let id = self.table.open(flow)?;
        let c = self.table.slot_mut(id.slot);
        c.state = C_READING;
        c.path_hash = FNV1A_OFFSET;
        meter.charge(EV_ACCEPT_COST + EV_TIMER_OP_COST);
        self.arm(
            meter.now() >> TICK_SHIFT,
            id.slot,
            T_KEEPALIVE,
            self.cfg.keepalive_ticks,
        );
        Some(id)
    }

    /// Feeds received frames into the shard: resolves each frame's flow
    /// to its connection (auto-accepting unknown flows), advances the
    /// incremental parser over the payload in place (zero-copy: the
    /// bytes are read straight out of the pool slot), and releases the
    /// buffer. Unknown flows that cannot be accepted (shard full) are
    /// dropped — backpressure, the ledger stays balanced because the
    /// buffer is still released.
    pub fn ingest(&mut self, meter: &mut CycleMeter, pool: &mut PktPool, bufs: &mut Vec<PktBuf>) {
        for buf in bufs.drain(..) {
            meter.charge(EV_RX_FRAME_COST);
            let id = {
                let frame = pool.data(&buf);
                seq_of(frame).and_then(|flow| match self.table.lookup(flow) {
                    Some(id) => Some(id),
                    None => self.accept(meter, flow),
                })
            };
            if let Some(id) = id {
                if buf.len() > HTTP_PAYLOAD_OFFSET {
                    let frame = pool.data(&buf);
                    let payload = &frame[HTTP_PAYLOAD_OFFSET..buf.len()];
                    meter.charge(EV_PARSE_BYTE_COST * payload.len() as u64);
                    self.feed(meter, id, payload);
                }
            }
            pool.release(buf);
        }
    }

    /// Pulls one zero-copy RX batch from `drv` and ingests it — the
    /// readiness surface fed directly by `rx_batch_zc` arrivals.
    pub fn ingest_rx(
        &mut self,
        meter: &mut CycleMeter,
        drv: &mut IxgbeDriver,
        pool: &mut PktPool,
        batch: usize,
    ) -> usize {
        let mut scratch = std::mem::take(&mut self.rx_scratch);
        let n = drv.rx_batch_zc(meter, pool, &mut scratch, batch);
        self.ingest(meter, pool, &mut scratch);
        self.rx_scratch = scratch;
        n
    }

    /// One event-loop iteration: advance the wheel to the meter's tick
    /// (expiries close timed-out connections), drain up to
    /// `ready_budget` ready connections (streaming response segments
    /// zero-copy into pool slots), flush TX, and unpark as many parked
    /// connections as TX freed slots for. Cost is O(ready + expired) —
    /// idle connections are never visited. Returns ready entries
    /// drained.
    pub fn tick(
        &mut self,
        meter: &mut CycleMeter,
        drv: &mut IxgbeDriver,
        pool: &mut PktPool,
    ) -> usize {
        meter.charge(EV_DISPATCH_COST);
        // Timer expiries.
        let pre_cascades = self.wheel.cascades();
        let mut expired = std::mem::take(&mut self.expired);
        expired.clear();
        self.wheel.advance(meter.now() >> TICK_SHIFT, &mut expired);
        let cascaded = self.wheel.cascades() - pre_cascades;
        if cascaded > 0 {
            meter.charge(EV_CASCADE_NODE_COST * cascaded);
            self.trace.httpd(HttpdOutcome::WheelCascade, cascaded);
        }
        for &(slot, kind) in &expired {
            meter.charge(EV_TIMER_OP_COST);
            self.handle_timeout(slot, kind);
        }
        self.expired = expired;
        // Ready drain, under budget.
        let mut drained = 0usize;
        while drained < self.cfg.ready_budget {
            let Some(id) = self.ready.pop() else { break };
            let Some(c) = self.table.get_mut(id) else {
                // Closed between enqueue and drain; the generation
                // check skips it for free.
                continue;
            };
            c.flags &= !F_READY;
            drained += 1;
            self.serve(meter, id, pool);
        }
        // TX flush; completions release pool slots and unpark.
        let freed = drv.tx_batch_zc(meter, pool, &mut self.txq);
        if freed > 0 {
            self.unpark(meter, freed);
        }
        self.trace.httpd(HttpdOutcome::ReadyBatch, drained as u64);
        drained
    }

    /// The O(live) comparison baseline: what a poll-everything server
    /// pays per iteration at this shard's occupancy. Charges one visit
    /// per live connection and returns the live count; used by the
    /// benches to demonstrate the O(ready) claim, never by the loop.
    pub fn scan_step_baseline(&self, meter: &mut CycleMeter) -> usize {
        let live = self.table.live();
        meter.charge(EV_SCAN_VISIT_COST * live as u64);
        live
    }

    /// Arms `slot`'s timer `ticks` from the *meter's* current tick (not
    /// the wheel's, which only advances inside [`EventHttpd::tick`] and
    /// may lag arbitrarily while work is charged between iterations —
    /// arming relative to stale wheel time would make deadlines fire
    /// early on the next advance).
    fn arm(&mut self, now_tick: u64, slot: u32, kind: u8, ticks: u64) {
        let deadline = now_tick.max(self.wheel.now()) + ticks.max(1);
        self.wheel.arm(slot, kind, deadline);
        self.table.slot_mut(slot).timer_kind = kind;
    }

    fn enqueue_ready(&mut self, id: ConnId) {
        let c = self.table.slot_mut(id.slot);
        if c.flags & F_READY != 0 {
            return;
        }
        c.flags |= F_READY;
        self.ready.push(id);
    }

    fn handle_timeout(&mut self, slot: u32, kind: u8) {
        let c = self.table.slot_mut(slot);
        debug_assert!(c.active, "expired timer on a free slot");
        debug_assert_eq!(c.timer_kind, kind, "timer kind drifted");
        let id = ConnId { slot, gen: c.gen };
        c.timer_kind = 0;
        let outcome = match kind {
            T_KEEPALIVE => HttpdOutcome::TimeoutKeepalive,
            T_HEADER => HttpdOutcome::TimeoutHeader,
            _ => HttpdOutcome::TimeoutDrain,
        };
        self.trace.httpd(outcome, 1);
        // The wheel already retired this timer; close without cancel.
        self.table.close(id);
    }

    fn close_conn(&mut self, id: ConnId) {
        if self.table.slot_mut(id.slot).timer_kind != 0 {
            self.wheel.cancel(id.slot);
            self.table.slot_mut(id.slot).timer_kind = 0;
        }
        self.table.close(id);
    }

    /// Advances the incremental parser over `bytes`. All parser state
    /// lives in the connection's registers, so a request may be split
    /// across any number of frames at any byte boundary.
    fn feed(&mut self, meter: &mut CycleMeter, id: ConnId, bytes: &[u8]) {
        let Some(c) = self.table.get_mut(id) else {
            return;
        };
        if c.state != C_READING {
            // Bytes racing a response in flight (or a parked conn) are
            // dropped; one request per connection at a time.
            return;
        }
        // First bytes of a new request: the idle keepalive timer is
        // replaced by the (much shorter) read-header timer, so a client
        // trickling its header — slowloris — dies quickly.
        if c.timer_kind == T_KEEPALIVE {
            meter.charge(EV_TIMER_OP_COST);
            self.arm(
                meter.now() >> TICK_SHIFT,
                id.slot,
                T_HEADER,
                self.cfg.header_ticks,
            );
        }
        let mut outcome = FeedOutcome::Incomplete;
        {
            let c = self.table.slot_mut(id.slot);
            for &b in bytes {
                match step(c, b) {
                    FeedOutcome::Incomplete => {}
                    done => {
                        outcome = done;
                        break;
                    }
                }
            }
        }
        match outcome {
            FeedOutcome::Incomplete => {}
            FeedOutcome::Malformed => {
                self.trace.httpd(HttpdOutcome::Malformed, 1);
                meter.charge(EV_TIMER_OP_COST);
                self.close_conn(id);
            }
            FeedOutcome::Complete => self.finish_request(meter, id),
        }
    }

    /// A complete request: resolve the page by path hash, set up the
    /// response stream, and mark the connection ready. Bytes after the
    /// header in the same frame are dropped (one in-flight request per
    /// connection; the run-to-completion `Httpd` still covers pipelined
    /// streams).
    fn finish_request(&mut self, meter: &mut CycleMeter, id: ConnId) {
        let (resp_idx, resp_len) = {
            let c = self.table.slot_mut(id.slot);
            let idx = if c.flags & F_BADREQ != 0 {
                SITE_400
            } else {
                self.site.resolve(c.path_hash).unwrap_or(SITE_404)
            };
            (idx, self.site.total_len(idx))
        };
        let c = self.table.slot_mut(id.slot);
        c.resp_idx = resp_idx;
        c.resp_len = resp_len;
        c.tx_sent = 0;
        c.req_start = meter.now();
        c.state = C_SENDING;
        // Header timer retires; the write-drain timer bounds TX.
        meter.charge(2 * EV_TIMER_OP_COST);
        self.arm(
            meter.now() >> TICK_SHIFT,
            id.slot,
            T_DRAIN,
            self.cfg.drain_ticks,
        );
        self.enqueue_ready(id);
    }

    /// Streams the connection's pending response bytes into pool slots
    /// (≤ one slot per segment), parking on exhaustion. On completion
    /// the connection either returns to idle keepalive or closes.
    fn serve(&mut self, meter: &mut CycleMeter, id: ConnId, pool: &mut PktPool) {
        let mut progressed = false;
        loop {
            let (resp_idx, tx_sent, resp_len) = {
                let c = self.table.slot_mut(id.slot);
                debug_assert_eq!(c.state, C_SENDING);
                (c.resp_idx, c.tx_sent, c.resp_len)
            };
            if tx_sent >= resp_len {
                break;
            }
            let seg = (resp_len - tx_sent).min(PKT_SLOT_SIZE as u32) as usize;
            let Some(mut buf) = pool.try_acquire() else {
                // Backpressure: park. Connection state is preserved
                // exactly. The drain timer bounds *stall* time, not
                // total transfer time: if this call queued segments,
                // the connection made TX progress and the clock resets;
                // a conn parked with no progress keeps its old deadline
                // so a stuck pool still bounds its lifetime.
                if progressed {
                    meter.charge(EV_TIMER_OP_COST);
                    self.arm(
                        meter.now() >> TICK_SHIFT,
                        id.slot,
                        T_DRAIN,
                        self.cfg.drain_ticks,
                    );
                }
                let c = self.table.slot_mut(id.slot);
                c.state = C_PARKED;
                c.flags |= F_PARKED;
                self.parked.push_back(id);
                self.trace.httpd(HttpdOutcome::Parked, 1);
                return;
            };
            {
                let dst = pool.slot_mut(&buf);
                self.site.fill(resp_idx, tx_sent, &mut dst[..seg]);
            }
            buf.set_len(seg);
            meter.charge(EV_SEG_BASE_COST + EV_COPY_CACHELINE_COST * (seg as u64).div_ceil(64));
            self.txq.push(buf);
            self.table.slot_mut(id.slot).tx_sent = tx_sent + seg as u32;
            progressed = true;
        }
        // Response fully queued.
        self.served += 1;
        self.trace.httpd(HttpdOutcome::Served, 1);
        let done = {
            let c = self.table.slot_mut(id.slot);
            self.latency.record(meter.since(c.req_start));
            c.flags & (F_CONN_CLOSE | F_BADREQ) != 0
        };
        meter.charge(EV_TIMER_OP_COST);
        if done {
            self.close_conn(id);
        } else {
            let c = self.table.slot_mut(id.slot);
            c.state = C_READING;
            c.pstate = P_METHOD;
            c.hdr_match = 0;
            c.val_match = 0;
            c.line_len = 0;
            c.path_hash = FNV1A_OFFSET;
            c.flags &= F_READY; // keep only the ready dedup bit
            self.arm(
                meter.now() >> TICK_SHIFT,
                id.slot,
                T_KEEPALIVE,
                self.cfg.keepalive_ticks,
            );
        }
    }

    /// Resumes up to `n` parked connections after TX freed pool slots,
    /// in FIFO park order.
    fn unpark(&mut self, meter: &mut CycleMeter, n: usize) {
        for _ in 0..n {
            let Some(id) = self.parked.pop_front() else {
                return;
            };
            let Some(c) = self.table.get_mut(id) else {
                continue; // closed (e.g. drain timeout) while parked
            };
            if c.state != C_PARKED {
                continue;
            }
            c.state = C_SENDING;
            c.flags &= !F_PARKED;
            meter.charge(EV_DISPATCH_COST);
            self.trace.httpd(HttpdOutcome::Unparked, 1);
            self.enqueue_ready(id);
        }
    }
}

impl Invariant for EventHttpd {
    /// Event-core well-formedness: the shard and wheel invariants hold;
    /// every armed timer belongs to a live connection whose
    /// `timer_kind` agrees; ready/parked queue lengths are bounded by
    /// their stale-entry budgets; and every live connection is in a
    /// declared lifecycle state with a coherent parser register file.
    fn wf(&self) -> VerifResult {
        self.table.wf()?;
        self.wheel.wf()?;
        check(
            self.wheel.armed() <= self.table.live(),
            "event_core",
            format_args!(
                "{} armed timers exceed {} live connections",
                self.wheel.armed(),
                self.table.live()
            ),
        )?;
        for slot in 0..self.table.capacity() as u32 {
            let armed = self.wheel.is_armed(slot);
            let c = self.table.slot(slot);
            if c.active {
                check(
                    (c.timer_kind != 0) == armed,
                    "event_core",
                    format_args!(
                        "slot {slot}: timer_kind {} but wheel armed = {armed}",
                        c.timer_kind
                    ),
                )?;
                check(
                    matches!(c.state, C_READING | C_SENDING | C_PARKED),
                    "event_core",
                    format_args!("slot {slot}: live conn in state {}", c.state),
                )?;
                check(
                    (c.flags & F_PARKED != 0) == (c.state == C_PARKED),
                    "event_core",
                    format_args!("slot {slot}: parked flag/state disagree"),
                )?;
            } else {
                check(
                    !armed,
                    "event_core",
                    format_args!("slot {slot}: free slot has an armed timer"),
                )?;
            }
        }
        check(
            self.ready.len() <= 2 * self.table.capacity(),
            "event_core",
            "ready ring exceeds its stale-entry budget",
        )
    }
}

/// What one DFA step concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FeedOutcome {
    Incomplete,
    Complete,
    Malformed,
}

/// One byte through the request parser. The register file is entirely
/// inside [`Conn`]; no buffers, no allocation, O(1) per byte.
fn step(c: &mut Conn, b: u8) -> FeedOutcome {
    use FeedOutcome::*;
    if c.pstate <= P_VER_TAIL {
        c.line_len += 1;
        if c.line_len as usize > MAX_REQUEST_LINE {
            return Malformed;
        }
    }
    match c.pstate {
        P_METHOD => {
            if b == METHOD_LIT[c.hdr_match as usize] {
                c.hdr_match += 1;
                if c.hdr_match as usize == METHOD_LIT.len() {
                    c.pstate = P_PATH;
                    c.hdr_match = 0;
                }
            } else {
                // Not a GET: drain the header, then answer 400.
                c.flags |= F_BADREQ;
                c.pstate = P_SKIP_TO_END;
                c.val_match = 0;
            }
            Incomplete
        }
        P_PATH => match b {
            b' ' => {
                if c.line_len <= 5 {
                    return Malformed; // empty path
                }
                c.pstate = P_VERSION;
                c.hdr_match = 0;
                Incomplete
            }
            b'\r' | b'\n' => Malformed, // request line ended early
            _ => {
                c.path_hash = fnv1a_fold(c.path_hash, &[b]);
                Incomplete
            }
        },
        P_VERSION => {
            if b == VERSION_LIT[c.hdr_match as usize] {
                c.hdr_match += 1;
                if c.hdr_match as usize == VERSION_LIT.len() {
                    c.pstate = P_VER_TAIL;
                    c.hdr_match = 0;
                }
                Incomplete
            } else {
                Malformed // not HTTP/1.x
            }
        }
        P_VER_TAIL => match b {
            b'\r' => {
                c.pstate = P_FINAL_LF;
                c.hdr_match = 1; // resume into header-line start after LF
                Incomplete
            }
            b'\n' => Malformed,
            _ => Incomplete,
        },
        P_HDR_START => {
            if c.hdr_match == 0 && b == b'\r' {
                c.pstate = P_FINAL_LF;
                c.hdr_match = 0; // terminal blank line
                return Incomplete;
            }
            if b.to_ascii_lowercase() == CONNECTION_LIT[c.hdr_match as usize] {
                c.hdr_match += 1;
                if c.hdr_match as usize == CONNECTION_LIT.len() {
                    c.pstate = P_CONN_VAL;
                    c.val_match = 0;
                }
            } else if b == b'\n' {
                c.pstate = P_HDR_START;
                c.hdr_match = 0;
            } else {
                c.pstate = P_HDR_SKIP;
            }
            Incomplete
        }
        P_HDR_SKIP => {
            if b == b'\n' {
                c.pstate = P_HDR_START;
                c.hdr_match = 0;
            }
            Incomplete
        }
        P_CONN_VAL => {
            if b == b'\n' {
                c.pstate = P_HDR_START;
                c.hdr_match = 0;
                return Incomplete;
            }
            let lb = b.to_ascii_lowercase();
            if lb == CLOSE_LIT[c.val_match as usize] {
                c.val_match += 1;
                if c.val_match as usize == CLOSE_LIT.len() {
                    c.flags |= F_CONN_CLOSE;
                    c.pstate = P_HDR_SKIP;
                }
            } else {
                c.val_match = if lb == CLOSE_LIT[0] { 1 } else { 0 };
            }
            Incomplete
        }
        P_FINAL_LF => {
            if b != b'\n' {
                return Malformed;
            }
            if c.hdr_match == 0 {
                // Blank line: request complete.
                Complete
            } else {
                // End of the request line: header block begins.
                c.pstate = P_HDR_START;
                c.hdr_match = 0;
                Incomplete
            }
        }
        P_SKIP_TO_END => {
            // Bad method: scan for the header terminator, then 400.
            if b == HDR_END_LIT[c.val_match as usize] {
                c.val_match += 1;
                if c.val_match as usize == HDR_END_LIT.len() {
                    return Complete;
                }
            } else {
                c.val_match = if b == b'\r' { 1 } else { 0 };
            }
            Incomplete
        }
        _ => Malformed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_drivers::{write_udp64, DriverCosts, IxgbeDevice};

    const FREQ: u64 = 2_200_000_000;

    fn rig(capacity: usize, pool_slots: usize) -> (EventHttpd, IxgbeDriver, PktPool, CycleMeter) {
        let table = ConnTable::anonymous(capacity, 0, 1);
        let mut ev = EventHttpd::new(EventCoreConfig::new(0, 1), table);
        ev.add_page("/index.html", b"hello, event world");
        let drv = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
        let pool = PktPool::anonymous(pool_slots);
        (ev, drv, pool, CycleMeter::new())
    }

    /// Builds a request frame: udp64 framing carrying `http` at the
    /// payload offset, exactly how the benches drive the core.
    fn req_frame(pool: &mut PktPool, flow: u64, http: &[u8]) -> PktBuf {
        let mut buf = pool.try_acquire().expect("pool slot for request");
        let frame = pool.slot_mut(&buf);
        write_udp64(frame, flow);
        frame[HTTP_PAYLOAD_OFFSET..HTTP_PAYLOAD_OFFSET + http.len()].copy_from_slice(http);
        buf.set_len(HTTP_PAYLOAD_OFFSET + http.len());
        buf
    }

    fn send(
        ev: &mut EventHttpd,
        meter: &mut CycleMeter,
        pool: &mut PktPool,
        flow: u64,
        http: &[u8],
    ) {
        let mut bufs = vec![req_frame(pool, flow, http)];
        ev.ingest(meter, pool, &mut bufs);
    }

    #[test]
    fn end_to_end_request_keepalive() {
        let (mut ev, mut drv, mut pool, mut meter) = rig(64, 64);
        send(
            &mut ev,
            &mut meter,
            &mut pool,
            7,
            b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n",
        );
        assert_eq!(ev.live(), 1, "auto-accepted on first frame");
        assert_eq!(ev.ready_len(), 1, "parse completion marks ready");
        let drained = ev.tick(&mut meter, &mut drv, &mut pool);
        assert_eq!(drained, 1);
        assert_eq!(ev.served(), 1);
        assert_eq!(ev.latency().count(), 1);
        assert_eq!(ev.live(), 1, "keep-alive: back to idle, still open");
        assert_eq!(pool.in_flight(), 0, "TX completions released all slots");
        ev.wf().unwrap();
    }

    #[test]
    fn request_split_across_frames_completes_once() {
        let (mut ev, mut drv, mut pool, mut meter) = rig(8, 32);
        let req: &[u8] = b"GET /index.html HTTP/1.1\r\nAccept: */*\r\n\r\n";
        // One byte per frame: the DFA's registers carry all state.
        for chunk in req.chunks(1) {
            send(&mut ev, &mut meter, &mut pool, 3, chunk);
        }
        assert_eq!(ev.ready_len(), 1, "completed exactly once");
        ev.tick(&mut meter, &mut drv, &mut pool);
        assert_eq!(ev.served(), 1);
        ev.wf().unwrap();
    }

    #[test]
    fn unknown_path_is_served_404_and_close_header_closes() {
        let (mut ev, mut drv, mut pool, mut meter) = rig(8, 32);
        send(
            &mut ev,
            &mut meter,
            &mut pool,
            1,
            b"GET /missing HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        ev.tick(&mut meter, &mut drv, &mut pool);
        assert_eq!(ev.served(), 1, "404 is a served response");
        assert_eq!(ev.live(), 0, "Connection: close tears down");
        assert_eq!(ev.wheel().armed(), 0, "no timer survives the close");
        ev.wf().unwrap();
    }

    #[test]
    fn bad_method_answers_400_then_closes() {
        let (mut ev, mut drv, mut pool, mut meter) = rig(8, 32);
        send(
            &mut ev,
            &mut meter,
            &mut pool,
            2,
            b"POST /index.html HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        );
        ev.tick(&mut meter, &mut drv, &mut pool);
        assert_eq!(ev.served(), 1, "400 is a served response");
        assert_eq!(ev.live(), 0);
        ev.wf().unwrap();
    }

    #[test]
    fn malformed_version_closes_without_response() {
        let (mut ev, mut drv, mut pool, mut meter) = rig(8, 32);
        send(&mut ev, &mut meter, &mut pool, 4, b"GET /x SPDY/3\r\n");
        assert_eq!(ev.live(), 0, "malformed closes immediately");
        ev.tick(&mut meter, &mut drv, &mut pool);
        assert_eq!(ev.served(), 0);
        ev.wf().unwrap();
    }

    #[test]
    fn keepalive_timeout_reaps_idle_connections() {
        let (mut ev, mut drv, mut pool, mut meter) = rig(8, 32);
        for flow in 0..5 {
            ev.accept(&mut meter, flow).unwrap();
        }
        assert_eq!(ev.live(), 5);
        let cfg_ticks = EventCoreConfig::new(0, 1).keepalive_ticks;
        meter.charge((cfg_ticks + 2) << TICK_SHIFT);
        ev.tick(&mut meter, &mut drv, &mut pool);
        assert_eq!(ev.live(), 0, "all idle conns reaped");
        assert_eq!(ev.wheel().armed(), 0);
        ev.wf().unwrap();
    }

    #[test]
    fn slowloris_trickle_hits_header_timeout() {
        let (mut ev, mut drv, mut pool, mut meter) = rig(8, 32);
        send(&mut ev, &mut meter, &mut pool, 6, b"GET /ind");
        assert_eq!(ev.live(), 1);
        // Past the header deadline, far short of the keepalive one.
        let cfg = EventCoreConfig::new(0, 1);
        meter.charge((cfg.header_ticks + 2) << TICK_SHIFT);
        ev.tick(&mut meter, &mut drv, &mut pool);
        assert_eq!(ev.live(), 0, "trickling header died fast");
        assert!(meter.now() >> TICK_SHIFT < cfg.keepalive_ticks);
        ev.wf().unwrap();
    }

    #[test]
    fn pool_exhaustion_parks_then_tx_unparks() {
        let table = ConnTable::anonymous(8, 0, 1);
        let mut ev = EventHttpd::new(EventCoreConfig::new(0, 1), table);
        // ~9 KiB response: 5 segments against a 2-slot pool.
        let body = vec![b'z'; 9 * 1024];
        ev.add_page("/big", &body);
        let mut drv = IxgbeDriver::new(IxgbeDevice::new(FREQ), DriverCosts::atmosphere());
        let mut pool = PktPool::anonymous(2);
        let mut meter = CycleMeter::new();
        send(
            &mut ev,
            &mut meter,
            &mut pool,
            9,
            b"GET /big HTTP/1.1\r\n\r\n",
        );
        let mut parked_seen = 0;
        for _ in 0..8 {
            ev.tick(&mut meter, &mut drv, &mut pool);
            parked_seen += ev.parked_len();
            if ev.served() == 1 {
                break;
            }
        }
        assert_eq!(ev.served(), 1, "response completed despite exhaustion");
        assert!(parked_seen > 0 || ev.served() == 1);
        assert_eq!(ev.parked_len(), 0, "nothing left parked");
        assert_eq!(pool.in_flight(), 0, "ledger balanced after drain");
        ev.wf().unwrap();
    }

    #[test]
    fn line_rate_rx_feed_auto_accepts_and_header_timeout_churns() {
        // rx_batch_zc delivers 64-byte udp64 frames whose payload is
        // zeros — never a valid GET, so each flow parks in the 400 drain
        // state until the header timer reaps it. This exercises the
        // readiness surface straight off the zero-copy RX path.
        let table = ConnTable::anonymous(256, 0, 1);
        let mut ev = EventHttpd::new(EventCoreConfig::new(0, 1), table);
        let mut drv = IxgbeDriver::new(IxgbeDevice::steered(FREQ, 1, 0), DriverCosts::atmosphere());
        let mut pool = PktPool::anonymous(64);
        let mut meter = CycleMeter::new();
        let n = ev.ingest_rx(&mut meter, &mut drv, &mut pool, 32);
        assert!(n > 0, "line-rate source delivers");
        assert!(ev.live() > 0, "unknown flows auto-accept");
        assert_eq!(pool.in_flight(), 0, "ingest releases every frame");
        let cfg = EventCoreConfig::new(0, 1);
        meter.charge((cfg.header_ticks + 2) << TICK_SHIFT);
        ev.tick(&mut meter, &mut drv, &mut pool);
        assert_eq!(ev.live(), 0, "junk flows reaped by header timeout");
        ev.wf().unwrap();
    }

    #[test]
    fn connection_table_full_drops_frames_but_keeps_ledger() {
        let (mut ev, mut drv, mut pool, mut meter) = rig(2, 32);
        for flow in 0..4 {
            send(
                &mut ev,
                &mut meter,
                &mut pool,
                flow,
                b"GET /index.html HTTP/1.1\r\n\r\n",
            );
        }
        assert_eq!(ev.live(), 2, "table capacity caps accepts");
        assert_eq!(pool.in_flight(), 0, "dropped frames still released");
        ev.tick(&mut meter, &mut drv, &mut pool);
        assert_eq!(ev.served(), 2);
        ev.wf().unwrap();
    }

    #[test]
    fn scan_baseline_charges_per_live_connection() {
        let (mut ev, _drv, _pool, mut meter) = rig(64, 8);
        for flow in 0..50 {
            ev.accept(&mut meter, flow).unwrap();
        }
        let before = meter.now();
        let visited = ev.scan_step_baseline(&mut meter);
        assert_eq!(visited, 50);
        assert_eq!(meter.now() - before, 50 * EV_SCAN_VISIT_COST);
    }

    #[test]
    fn served_connection_handles_followup_request() {
        let (mut ev, mut drv, mut pool, mut meter) = rig(8, 32);
        for round in 1..=3u64 {
            send(
                &mut ev,
                &mut meter,
                &mut pool,
                5,
                b"GET /index.html HTTP/1.1\r\n\r\n",
            );
            ev.tick(&mut meter, &mut drv, &mut pool);
            assert_eq!(ev.served(), round, "keep-alive conn serves again");
        }
        assert_eq!(ev.live(), 1);
        ev.wf().unwrap();
    }
}
