//! The shared trace sink: per-CPU event counts, histograms and counters
//! behind one handle, with the `trace_wf` well-formedness audit.
//!
//! Recording takes no lock. Each OS thread that records into a sink owns
//! one recorder: a block of single-writer cells per CPU, registered with
//! the sink on the thread's first event and found after that through a
//! thread-local keyed by the sink's unique id. Only the owner writes its
//! cells, so a bump is a relaxed load and store. The thread-local is one
//! `Copy` entry — the last sink recorded into and the recorder's index
//! there — so it owns nothing and needs no destructor; a thread that
//! switches sinks finds its recorder by scanning that sink's owners.
//! Each recorder carries a sequence count that is odd while its owner is
//! mid-event; readers (`snapshot`, `trace_wf`) sum the recorders per CPU
//! and retry a recorder whose count moved under them, so they see every
//! event whole. Two threads recording on one CPU write two recorders,
//! and the sum stays exact.
//!
//! CPU attribution for deep-call-graph emissions uses a thread-local set
//! at syscall entry: each OS thread drives exactly one simulated CPU at
//! a time. Only the audit ledger keeps a lock, one per CPU, taken only
//! while audit recording is on and counted into `locks.trace`; it is a
//! leaf that never acquires anything else.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{fence, AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, TryLockError};

use atmo_spec::harness::{check_eqn, Invariant, InvariantViolation, VerifResult};
use atmo_spec::lock_recovering;

use crate::audit::AuditDelta;
use crate::counters::{
    cells, AuditOutcome, BlkOutcome, Counters, FastpathOutcome, HttpdOutcome, NetOutcome,
    NrOutcome, Outcome, SchedOutcome, Tally,
};
use crate::event::{
    EventKind, KernelEvent, ReturnClass, SyscallKind, NUM_EVENT_KINDS, NUM_SYSCALL_KINDS,
};
use crate::hist::{HistCells, LatencyHist};
use crate::ring::EventRing;
use crate::snapshot::{CpuSummary, Snapshot, SyscallSummary};

/// Which kernel lock domain an acquisition belongs to, for the
/// per-domain lock counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockDomain {
    /// Process-manager domain (scheduler, endpoints, containers).
    Pm,
    /// Memory domain (allocator, page tables, grants, IOMMU).
    Mem,
}

/// Per-kind syscall statistics on one CPU.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyscallStats {
    /// Dispatcher entries.
    pub enters: u64,
    /// Dispatcher returns.
    pub exits: u64,
    /// Returns in the success class.
    pub ok: u64,
    /// Returns in an error class.
    pub errs: u64,
    /// Latency distribution of completed calls (modeled cycles).
    pub hist: LatencyHist,
}

/// [`SyscallStats`] in recorder cells.
#[derive(Default)]
struct SyscallCells {
    enters: Tally,
    exits: Tally,
    ok: Tally,
    errs: Tally,
    hist: HistCells,
}

/// One CPU's trace: what the snapshot and `trace_wf`'s per-CPU
/// equations read. A recorder holds one per CPU in cells
/// ([`CpuCells`]); readers load each and sum them per CPU.
struct CpuTrace {
    /// Events pushed onto the CPU's ring (its head).
    pushed: u64,
    /// Events pushed, by [`EventKind`].
    kinds: [u64; NUM_EVENT_KINDS],
    /// Per-syscall-kind statistics.
    syscalls: [SyscallStats; NUM_SYSCALL_KINDS],
    counters: Counters,
    /// Modeled cycles this CPU's syscalls waited to enter the pm and
    /// mem domains (meter catch-up to the lock's published model time —
    /// the DES analogue of spinning on a contended lock).
    lock_wait_pm: LatencyHist,
    lock_wait_mem: LatencyHist,
    /// List heads and nodes each pick on this CPU touched.
    sched_pick: LatencyHist,
    /// Ledger entries folded per incremental audit run on this CPU.
    audit_touched: LatencyHist,
    /// Ready-set sizes per httpd event-loop iteration on this CPU.
    httpd_ready: LatencyHist,
}

impl Default for CpuTrace {
    fn default() -> Self {
        CpuTrace {
            pushed: 0,
            kinds: [0; NUM_EVENT_KINDS],
            syscalls: std::array::from_fn(|_| SyscallStats::default()),
            counters: Counters::default(),
            lock_wait_pm: LatencyHist::new(),
            lock_wait_mem: LatencyHist::new(),
            sched_pick: LatencyHist::new(),
            audit_touched: LatencyHist::new(),
            httpd_ready: LatencyHist::new(),
        }
    }
}

impl CpuTrace {
    /// Adds `other`'s counts: sums, except for maxima and histogram
    /// extremes.
    fn merge(&mut self, other: &CpuTrace) {
        self.pushed += other.pushed;
        for (m, k) in self.kinds.iter_mut().zip(other.kinds) {
            *m += k;
        }
        for (m, s) in self.syscalls.iter_mut().zip(&other.syscalls) {
            m.enters += s.enters;
            m.exits += s.exits;
            m.ok += s.ok;
            m.errs += s.errs;
            m.hist.merge(&s.hist);
        }
        self.counters.merge(&other.counters);
        self.lock_wait_pm.merge(&other.lock_wait_pm);
        self.lock_wait_mem.merge(&other.lock_wait_mem);
        self.sched_pick.merge(&other.sched_pick);
        self.audit_touched.merge(&other.audit_touched);
        self.httpd_ready.merge(&other.httpd_ready);
    }
}

/// One recorder's [`CpuTrace`] for one CPU, in cells only the recorder's
/// thread writes.
struct CpuCells {
    pushed: Tally,
    kinds: [Tally; NUM_EVENT_KINDS],
    syscalls: [SyscallCells; NUM_SYSCALL_KINDS],
    counters: cells::Counters,
    lock_wait_pm: HistCells,
    lock_wait_mem: HistCells,
    sched_pick: HistCells,
    audit_touched: HistCells,
    httpd_ready: HistCells,
}

impl Default for CpuCells {
    fn default() -> Self {
        CpuCells {
            pushed: Tally::default(),
            kinds: Default::default(),
            syscalls: std::array::from_fn(|_| SyscallCells::default()),
            counters: cells::Counters::default(),
            lock_wait_pm: HistCells::default(),
            lock_wait_mem: HistCells::default(),
            sched_pick: HistCells::default(),
            audit_touched: HistCells::default(),
            httpd_ready: HistCells::default(),
        }
    }
}

impl CpuCells {
    /// The cells' current values.
    fn load(&self) -> CpuTrace {
        CpuTrace {
            pushed: self.pushed.load(),
            kinds: std::array::from_fn(|k| self.kinds[k].load()),
            syscalls: std::array::from_fn(|k| {
                let s = &self.syscalls[k];
                SyscallStats {
                    enters: s.enters.load(),
                    exits: s.exits.load(),
                    ok: s.ok.load(),
                    errs: s.errs.load(),
                    hist: s.hist.load(),
                }
            }),
            counters: self.counters.load(),
            lock_wait_pm: self.lock_wait_pm.load(),
            lock_wait_mem: self.lock_wait_mem.load(),
            sched_pick: self.sched_pick.load(),
            audit_touched: self.audit_touched.load(),
            httpd_ready: self.httpd_ready.load(),
        }
    }
}

/// One OS thread's recorder in one sink: a cell block per CPU that only
/// that thread writes.
struct Recorder {
    /// The owning thread's [`thread_token`].
    owner: u64,
    /// Even between events, odd while the owner is mid-event.
    seq: AtomicU64,
    cpus: Box<[CpuCells]>,
}

impl Recorder {
    fn new(owner: u64, ncpus: usize) -> Self {
        Recorder {
            owner,
            seq: AtomicU64::new(0),
            cpus: (0..ncpus).map(|_| CpuCells::default()).collect(),
        }
    }

    /// Runs `f` on `cpu`'s cells as one event, with the sequence count
    /// odd throughout (owner only). `f` only bumps cells and cannot
    /// panic, so no event is left open for readers to wait on.
    fn event(&self, cpu: usize, f: impl FnOnce(&CpuCells)) {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq + 1, Ordering::Relaxed);
        // Orders the odd count before the event's writes: a reader that
        // loads any of them then finds the count moved.
        fence(Ordering::Release);
        f(&self.cpus[cpu]);
        self.seq.store(seq + 2, Ordering::Release);
    }

    /// `cpu`'s cells as of a point between two events, retrying each
    /// read that overlapped an event.
    fn read(&self, cpu: usize) -> CpuTrace {
        loop {
            match self.try_read(cpu) {
                Some(trace) => return trace,
                None => std::thread::yield_now(),
            }
        }
    }

    /// One attempt at [`read`](Self::read): `None` when an event was in
    /// progress at any point of it.
    fn try_read(&self, cpu: usize) -> Option<CpuTrace> {
        // Pairs with the closing `Release` store: every write of the
        // events before `seq` is visible to the loads below.
        let seq = self.seq.load(Ordering::Acquire);
        if !seq.is_multiple_of(2) {
            return None;
        }
        let trace = self.cpus[cpu].load();
        // Pairs with `event`'s `Release` fence: if a load above saw a
        // later event's write, the check below sees its odd count.
        fence(Ordering::Acquire);
        (self.seq.load(Ordering::Relaxed) == seq).then_some(trace)
    }
}

/// A slot pool whose in-flight gauge the sink keeps.
#[derive(Clone, Copy)]
enum Pool {
    Net,
    Blk,
}

/// What counting an outcome does besides bumping its counters.
#[derive(Clone, Copy)]
enum Effect {
    None,
    /// Moves the pool's in-flight gauge by the signed slot count and,
    /// when auditing, lands the matching handle ledger entry, so pool
    /// users need no extra instrumentation.
    Held(Pool, i64),
    /// Lands an audit-ledger entry when auditing.
    Ledger(AuditDelta),
    /// Lands `n` in one of the CPU's histograms, as one sample per
    /// counted outcome, so the histogram's sample count balances the
    /// outcome's counter.
    Sample(fn(&CpuCells) -> &HistCells),
}

impl Effect {
    /// Every per-outcome side effect, declared in one place.
    fn of(outcome: Outcome, n: u64) -> Effect {
        let held = n as i64;
        match outcome {
            Outcome::NetOutcome(NetOutcome::PoolAcquire) => Effect::Held(Pool::Net, held),
            Outcome::NetOutcome(NetOutcome::PoolRelease) => Effect::Held(Pool::Net, -held),
            Outcome::BlkOutcome(BlkOutcome::PoolAcquire) => Effect::Held(Pool::Blk, held),
            Outcome::BlkOutcome(BlkOutcome::PoolRelease) => Effect::Held(Pool::Blk, -held),
            // The incremental auditor balances the ledger's sum against
            // the logs' published tails.
            Outcome::NrOutcome(NrOutcome::Append) => Effect::Ledger(AuditDelta::NrAppended(n)),
            Outcome::HttpdOutcome(HttpdOutcome::ReadyBatch) => Effect::Sample(|c| &c.httpd_ready),
            Outcome::SchedOutcome(SchedOutcome::Pick) => Effect::Sample(|c| &c.sched_pick),
            Outcome::AuditOutcome(AuditOutcome::Incremental) => {
                Effect::Sample(|c| &c.audit_touched)
            }
            _ => Effect::None,
        }
    }
}

/// Sources of [`TraceSink`] ids and thread tokens; neither is ever
/// reused, and neither is 0.
static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// CPU attributed to subsystem emissions on this OS thread: set at
    /// syscall entry. Thread-local (not sink-global) so concurrent
    /// syscalls on different CPUs attribute correctly without a lock.
    static CURRENT_CPU: Cell<usize> = const { Cell::new(0) };
    /// `(sink id, recorder index)` of the sink this thread last recorded
    /// into; `(0, 0)` before its first event.
    static LAST: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
    /// This thread's token, the owner of its recorders (0 until needed).
    static TOKEN: Cell<u64> = const { Cell::new(0) };
}

/// This thread's token, drawn on first use.
fn thread_token() -> u64 {
    if TOKEN.get() == 0 {
        TOKEN.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
    }
    TOKEN.get()
}

/// Recorder slots in chunks: chunk `c` holds `2^c` slots, allocated with
/// its first registration, so the table grows without moving a recorder.
type Chunk = OnceLock<Box<[OnceLock<Recorder>]>>;

/// The trace sink for one kernel instance.
///
/// Cheap to share ([`TraceHandle`] = `Arc<TraceSink>`); interior
/// mutability keeps subsystem signatures unchanged.
pub struct TraceSink {
    /// Keys this sink in each thread's `LAST`.
    id: u64,
    ncpus: usize,
    /// An empty ring of each CPU's capacity; a snapshot counts a CPU's
    /// pushes onto a copy.
    ring: EventRing,
    /// Every recorder of this sink, one per OS thread that recorded into
    /// it, by registration index. Neither recording nor reading locks
    /// them; only a thread's first event claims a slot.
    chunks: [Chunk; usize::BITS as usize],
    /// Slots claimed so far. A claimed slot is published (its
    /// `OnceLock` set) just after; readers skip one not yet published,
    /// which holds no event.
    registered: AtomicUsize,
    /// Each CPU's pending audit-ledger entries, in recording order
    /// (drained by the incremental auditor; empty whenever recording is
    /// off). Lives outside the recorders: ledger entries must never be
    /// dropped or double-counted by the per-kind reconciliation, and
    /// the auditor drains them in order.
    ledgers: Box<[Mutex<Vec<AuditDelta>>]>,
    /// Merged counter values at the previous `trace_wf` audit
    /// (monotonicity low-water mark).
    low_water: Mutex<Counters>,
    /// Packet-pool slots currently in flight (acquired − released). A
    /// gauge, not a counter: it moves both ways, so it lives outside the
    /// monotone [`Counters`] block. Kept sink-global (not per CPU)
    /// because a `PktBuf` may be released on a different CPU than it was
    /// acquired on; `trace_wf` balances it against the *merged* pool
    /// counters. An atomic moved with `Relaxed` ordering — a statistic
    /// that publishes no other data — so moving it takes no lock.
    net_in_flight: AtomicI64,
    /// Block-pool slots currently in flight (acquired − released); same
    /// gauge discipline as `net_in_flight`, for `BlkBuf` handles.
    blk_in_flight: AtomicI64,
    /// Whether mutations should emit [`AuditDelta`]s into the per-CPU
    /// ledgers. Off by default so kernels that never audit incrementally
    /// pay one relaxed atomic load per choke point and store nothing.
    audit_recording: AtomicBool,
}

/// A shared reference to a kernel's trace sink.
pub type TraceHandle = Arc<TraceSink>;

impl TraceSink {
    /// A sink with one ring of `ring_capacity` slots per CPU. Each
    /// thread's recorder is allocated at its first event, never
    /// afterwards.
    pub fn new(ncpus: usize, ring_capacity: usize) -> TraceHandle {
        let ncpus = ncpus.max(1);
        Arc::new(TraceSink {
            id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
            ncpus,
            ring: EventRing::new(ring_capacity),
            chunks: std::array::from_fn(|_| OnceLock::new()),
            registered: AtomicUsize::new(0),
            ledgers: (0..ncpus).map(|_| Mutex::new(Vec::new())).collect(),
            low_water: Mutex::new(Counters::default()),
            net_in_flight: AtomicI64::new(0),
            blk_in_flight: AtomicI64::new(0),
            audit_recording: AtomicBool::new(false),
        })
    }

    /// Records one event on `cpu` (clamped) into this thread's recorder.
    fn record(&self, cpu: usize, f: impl FnOnce(&CpuCells)) {
        let cpu = cpu.min(self.ncpus - 1);
        let (sink, i) = LAST.get();
        let i = if sink == self.id { i } else { self.own_index() };
        self.recorder(i).expect("claimed slot").event(cpu, f)
    }

    /// This thread's recorder index: found among the owners, or claimed
    /// at its first event.
    #[cold]
    fn own_index(&self) -> usize {
        let me = thread_token();
        let n = self.registered.load(Ordering::Acquire);
        let i = (0..n)
            .find(|&i| self.recorder(i).is_some_and(|r| r.owner == me))
            .unwrap_or_else(|| {
                let i = self.registered.fetch_add(1, Ordering::AcqRel);
                let (c, at) = chunk_of(i);
                let chunk = self.chunks[c]
                    .get_or_init(|| (0..1usize << c).map(|_| OnceLock::new()).collect());
                let fresh = chunk[at].set(Recorder::new(me, self.ncpus));
                assert!(fresh.is_ok(), "slot {i} claimed twice");
                i
            });
        LAST.set((self.id, i));
        i
    }

    /// Recorder `i`, once its owner has published it.
    fn recorder(&self, i: usize) -> Option<&Recorder> {
        let (c, at) = chunk_of(i);
        self.chunks[c].get()?[at].get()
    }

    /// `cpu`'s trace, summed over the recorders.
    fn cpu_trace(&self, cpu: usize) -> CpuTrace {
        let mut sum = CpuTrace::default();
        for i in 0..self.registered.load(Ordering::Acquire) {
            if let Some(r) = self.recorder(i) {
                sum.merge(&r.read(cpu));
            }
        }
        sum
    }

    /// Number of per-CPU rings.
    pub fn ncpus(&self) -> usize {
        self.ncpus
    }

    /// Attributes subsequent [`emit`](Self::emit) calls from this OS
    /// thread to `cpu` (called at syscall entry).
    pub fn set_cpu(&self, cpu: usize) {
        CURRENT_CPU.set(cpu);
    }

    /// Emits `ev` on the CPU attributed to this OS thread.
    pub fn emit(&self, ev: KernelEvent) {
        self.record(CURRENT_CPU.get(), |c| apply(c, ev));
    }

    /// Records a dispatcher entry for `kind` on `cpu` (also attributes
    /// subsequent emissions from this OS thread to `cpu`).
    pub fn syscall_enter(&self, cpu: usize, kind: SyscallKind) {
        CURRENT_CPU.set(cpu);
        self.record(cpu, |c| apply(c, KernelEvent::SyscallEnter { kind }));
    }

    /// Records a dispatcher return: the exit event plus the latency
    /// histogram update.
    pub fn syscall_exit(&self, cpu: usize, kind: SyscallKind, class: ReturnClass, cycles: u64) {
        self.record(cpu, |c| {
            apply(
                c,
                KernelEvent::SyscallExit {
                    kind,
                    class,
                    cycles,
                },
            )
        });
    }

    /// Records a domain-lock acquisition observed by a [`DomainLock`]
    /// in the kernel crate, attributed to `cpu`. `modeled` is
    /// `(wait, hold)` in modeled cycles when the acquirer entered the
    /// domain on its meter: how far its clock jumped to the lock's
    /// published model time (zero waits are recorded too — uncontended
    /// acquisitions belong in the distribution) and how long it then
    /// held the domain.
    ///
    /// [`DomainLock`]: https://docs.rs/atmo-kernel
    pub fn lock_event(
        &self,
        cpu: usize,
        domain: LockDomain,
        contended: bool,
        modeled: Option<(u64, u64)>,
    ) {
        self.record(cpu, |c| {
            let (lc, waits) = match domain {
                LockDomain::Pm => (&c.counters.locks.pm, &c.lock_wait_pm),
                LockDomain::Mem => (&c.counters.locks.mem, &c.lock_wait_mem),
            };
            lc.acquisitions.add(1);
            lc.contended.add(contended as u64);
            if let Some((wait, hold)) = modeled {
                lc.hold_max_cycles.raise(hold);
                waits.record(wait);
            }
        });
    }

    /// Counts `n` observations of `outcome` on the CPU attributed to this
    /// OS thread: adds its bumps to the CPU's counters and applies its
    /// `Effect`, as one event. Counter-only, no ring event. An `n` of
    /// zero counts nothing, except for an outcome that lands a histogram
    /// sample: an empty event-loop iteration or a zero-entry audit is
    /// itself a sample.
    pub fn count(&self, outcome: impl Into<Outcome>, n: u64) {
        let outcome = outcome.into();
        let effect = Effect::of(outcome, n);
        if n == 0 && !matches!(effect, Effect::Sample(_)) {
            return;
        }
        let entry = match effect {
            Effect::Held(pool, held) => {
                let (gauge, entry) = match pool {
                    Pool::Net => (&self.net_in_flight, AuditDelta::HandleNet(held)),
                    Pool::Blk => (&self.blk_in_flight, AuditDelta::HandleBlk(held)),
                };
                gauge.fetch_add(held, Ordering::Relaxed);
                Some(entry)
            }
            Effect::Ledger(entry) => Some(entry),
            _ => None,
        }
        .filter(|_| self.audit_recording());
        let cpu = CURRENT_CPU.get();
        if let Some(entry) = entry {
            self.ledger_push(cpu, entry);
        }
        self.record(cpu, |c| {
            if let Effect::Sample(hist) = effect {
                hist(c).record(n);
            }
            c.counters.count(outcome, n);
        });
    }

    /// Counts one IPC fastpath outcome (see [`count`](Self::count)).
    pub fn fastpath_event(&self, outcome: FastpathOutcome) {
        self.count(outcome, 1);
    }

    /// Packet-pool slots currently in flight (acquired − released across
    /// all CPUs).
    pub fn net_in_flight(&self) -> i64 {
        self.net_in_flight.load(Ordering::Relaxed)
    }

    /// Block-pool slots currently in flight (acquired − released across
    /// all CPUs).
    pub fn blk_in_flight(&self) -> i64 {
        self.blk_in_flight.load(Ordering::Relaxed)
    }

    /// Turns audit-delta recording on or off. Turning it off leaves any
    /// pending ledger entries in place; the auditor discards them before
    /// rebaselining.
    pub fn set_audit_recording(&self, on: bool) {
        self.audit_recording.store(on, Ordering::Relaxed);
    }

    /// `true` when mutations are recording audit deltas.
    pub fn audit_recording(&self) -> bool {
        self.audit_recording.load(Ordering::Relaxed)
    }

    /// Appends one audit delta to the ledger of the CPU attributed to
    /// this OS thread. No-op unless recording is enabled.
    pub fn audit_delta(&self, d: AuditDelta) {
        if self.audit_recording() {
            self.ledger_push(CURRENT_CPU.get(), d);
        }
    }

    /// Pushes `d` onto `cpu`'s ledger and counts the acquisition into
    /// `cpu`'s `locks.trace`: the ledger lock is the one lock recording
    /// still takes, and only while auditing.
    fn ledger_push(&self, cpu: usize, d: AuditDelta) {
        let ledger = &self.ledgers[cpu.min(self.ncpus - 1)];
        let (mut entries, contended) = match ledger.try_lock() {
            Ok(entries) => (entries, false),
            Err(TryLockError::Poisoned(e)) => (e.into_inner(), false),
            Err(TryLockError::WouldBlock) => (lock_recovering(ledger), true),
        };
        entries.push(d);
        drop(entries);
        self.record(cpu, |c| {
            let lc = &c.counters.locks.trace;
            lc.acquisitions.add(1);
            lc.contended.add(contended as u64);
        });
    }

    /// Moves every pending ledger entry (all CPUs) into `into`,
    /// preserving per-CPU order. The caller's buffer keeps its capacity
    /// across audits, so steady-state folding allocates nothing.
    pub fn drain_audit_ledgers(&self, into: &mut Vec<AuditDelta>) {
        for ledger in self.ledgers.iter() {
            into.append(&mut lock_recovering(ledger));
        }
    }

    /// Pending ledger entries across all CPUs (diagnostic).
    pub fn audit_ledger_len(&self) -> usize {
        self.ledgers.iter().map(|l| lock_recovering(l).len()).sum()
    }

    /// Builds the merged snapshot: per-CPU ring summaries, merged
    /// per-kind syscall statistics and the merged subsystem counters.
    ///
    /// Each CPU of each recorder is read between two of its events, so
    /// each per-CPU summary is internally coherent; the cross-CPU merge
    /// is exact whenever the sink is quiescent (all snapshot call sites —
    /// audits, reports, `TraceSnapshot` syscalls under the pm lock —
    /// satisfy this for the counters they assert on).
    pub fn snapshot(&self) -> Snapshot {
        let mut all = CpuTrace::default();
        let mut per_cpu = Vec::with_capacity(self.ncpus);
        let mut total_dropped = 0u64;
        for cpu in 0..self.ncpus {
            let c = self.cpu_trace(cpu);
            all.merge(&c);
            let mut ring = self.ring;
            ring.push_n(c.pushed);
            total_dropped += ring.dropped();
            per_cpu.push(CpuSummary {
                cpu,
                head: ring.head(),
                tail: ring.tail(),
                dropped: ring.dropped(),
                kinds: c.kinds,
                per_kind_enters: c.syscalls.iter().map(|s| s.enters).collect(),
                per_kind_exits: c.syscalls.iter().map(|s| s.exits).collect(),
            });
        }
        let syscalls = SyscallKind::ALL
            .iter()
            .map(|&kind| {
                let s = &all.syscalls[kind.index()];
                SyscallSummary {
                    kind,
                    enters: s.enters,
                    exits: s.exits,
                    ok: s.ok,
                    errs: s.errs,
                    mean_cycles: s.hist.mean(),
                    p50_cycles: s.hist.p50(),
                    p90_cycles: s.hist.p90(),
                    p99_cycles: s.hist.p99(),
                    max_cycles: s.hist.max(),
                }
            })
            .collect();
        let counters = all.counters;
        let httpd_conns_live = counters.httpd.accepts as i64 - counters.httpd.closes as i64;
        Snapshot {
            per_cpu,
            syscalls,
            kinds: all.kinds,
            counters,
            net_in_flight: self.net_in_flight(),
            blk_in_flight: self.blk_in_flight(),
            audit_touched_hist: all.audit_touched,
            lock_wait_pm_hist: all.lock_wait_pm,
            lock_wait_mem_hist: all.lock_wait_mem,
            httpd_conns_live,
            httpd_ready_hist: all.httpd_ready,
            sched_pick_hist: all.sched_pick,
            total_events: all.pushed,
            total_dropped,
        }
    }
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("ncpus", &self.ncpus)
            .finish()
    }
}

/// The chunk holding recorder slot `i`, and the slot's place in it.
fn chunk_of(i: usize) -> (usize, usize) {
    let c = (usize::BITS - 1 - (i + 1).leading_zeros()) as usize;
    (c, i + 1 - (1 << c))
}

/// Counts `ev` into `c`. Always inlined, so a caller that names the
/// event kind, like `syscall_enter`, keeps only that kind's bumps.
#[inline(always)]
fn apply(c: &CpuCells, ev: KernelEvent) {
    let counters = &c.counters;
    match ev {
        KernelEvent::ContextSwitch { .. } => counters.pm.context_switches.add(1),
        KernelEvent::EndpointSend { rendezvous, .. } => {
            counters.pm.ipc_sends.add(1);
            if rendezvous {
                counters.pm.rendezvous.add(1);
            }
        }
        KernelEvent::EndpointRecv { rendezvous, .. } => {
            counters.pm.ipc_recvs.add(1);
            if rendezvous {
                counters.pm.rendezvous.add(1);
            }
        }
        KernelEvent::PageAlloc { frames, .. } => {
            counters.mem.allocs.add(1);
            counters.mem.frames_allocated.add(frames);
        }
        KernelEvent::PageFree { frames, .. } => {
            counters.mem.frees.add(1);
            counters.mem.frames_freed.add(frames);
        }
        KernelEvent::PtMap { frames, .. } => {
            counters.ptable.maps.add(1);
            counters.ptable.frames_mapped.add(frames);
        }
        KernelEvent::PtUnmap { frames, .. } => {
            counters.ptable.unmaps.add(1);
            counters.ptable.frames_unmapped.add(frames);
        }
        KernelEvent::DriverRx { batch, .. } => {
            counters.drivers.rx_batches.add(1);
            counters.drivers.rx_items.add(batch);
        }
        KernelEvent::DriverTx { batch, .. } => {
            counters.drivers.tx_batches.add(1);
            counters.drivers.tx_items.add(batch);
        }
        KernelEvent::SyscallEnter { .. } | KernelEvent::SyscallExit { .. } => {}
    }
    c.pushed.add(1);
    c.kinds[ev.kind().index()].add(1);
    match ev {
        KernelEvent::SyscallEnter { kind } => c.syscalls[kind.index()].enters.add(1),
        KernelEvent::SyscallExit {
            kind,
            class,
            cycles,
        } => {
            let s = &c.syscalls[kind.index()];
            s.exits.add(1);
            if class.is_ok() {
                s.ok.add(1);
            } else {
                s.errs.add(1);
            }
            s.hist.record(cycles);
        }
        _ => {}
    }
}

/// How an equation's two sides relate.
#[derive(Clone, Copy)]
enum Rel {
    Eq,
    Le,
    Ge,
}

/// One named balance of [`trace_wf`]: `lhs rel rhs` over a view `V`,
/// which is one CPU, one syscall kind of one CPU, or the merged sink.
/// Each side keeps its source text for the failure report.
struct Equation<V> {
    name: &'static str,
    lhs: (&'static str, fn(&V) -> i128),
    rel: Rel,
    rhs: (&'static str, fn(&V) -> i128),
}

macro_rules! equation {
    ($name:literal: |$v:ident| $lhs:expr, $rel:ident, $rhs:literal) => {
        Equation {
            name: $name,
            lhs: (stringify!($lhs), |$v| ($lhs) as i128),
            rel: Rel::$rel,
            rhs: (stringify!($rhs), |_| $rhs),
        }
    };
    ($name:literal: |$v:ident| $lhs:expr, $rel:ident, $rhs:expr) => {
        Equation {
            name: $name,
            lhs: (stringify!($lhs), |$v| ($lhs) as i128),
            rel: Rel::$rel,
            rhs: (stringify!($rhs), |$v| ($rhs) as i128),
        }
    };
}

impl<V> Equation<V> {
    fn check(&self, view: &V, at: impl fmt::Display) -> VerifResult {
        let (lhs, rhs) = ((self.lhs.1)(view), (self.rhs.1)(view));
        let (holds, rel) = match self.rel {
            Rel::Eq => (lhs == rhs, "=="),
            Rel::Le => (lhs <= rhs, "<="),
            Rel::Ge => (lhs >= rhs, ">="),
        };
        check_eqn(
            holds,
            "trace",
            "trace",
            self.name,
            format_args!(
                "{at}: {} {rel} {} fails at {lhs} vs {rhs}",
                self.lhs.0, self.rhs.0
            ),
        )
    }
}

/// Per CPU: every pushed event is counted by kind, and each counter
/// that an event kind bumps equals that kind's count. Counters and
/// events move in one recorder event, so these hold per CPU.
const CPU_EQUATIONS: [Equation<CpuTrace>; 13] = [
    equation!("ring-events-counted": |s| s.kinds.iter().sum::<u64>(), Eq, s.pushed),
    equation!("context-switch-events":
        |s| s.counters.pm.context_switches, Eq, s.kinds[EventKind::ContextSwitch as usize]),
    equation!("ipc-send-events":
        |s| s.counters.pm.ipc_sends, Eq, s.kinds[EventKind::EndpointSend as usize]),
    equation!("ipc-recv-events":
        |s| s.counters.pm.ipc_recvs, Eq, s.kinds[EventKind::EndpointRecv as usize]),
    equation!("page-alloc-events":
        |s| s.counters.mem.allocs, Eq, s.kinds[EventKind::PageAlloc as usize]),
    equation!("page-free-events":
        |s| s.counters.mem.frees, Eq, s.kinds[EventKind::PageFree as usize]),
    equation!("pt-map-events":
        |s| s.counters.ptable.maps, Eq, s.kinds[EventKind::PtMap as usize]),
    equation!("pt-unmap-events":
        |s| s.counters.ptable.unmaps, Eq, s.kinds[EventKind::PtUnmap as usize]),
    equation!("driver-rx-events":
        |s| s.counters.drivers.rx_batches, Eq, s.kinds[EventKind::DriverRx as usize]),
    equation!("driver-tx-events":
        |s| s.counters.drivers.tx_batches, Eq, s.kinds[EventKind::DriverTx as usize]),
    equation!("rendezvous-per-ipc":
        |s| s.counters.pm.rendezvous, Le, s.counters.pm.ipc_sends + s.counters.pm.ipc_recvs),
    // Every fastpath hit is a rendezvous delivery, with the same
    // EndpointSend/EndpointRecv pair as the slow path.
    equation!("fastpath-hit-rendezvous":
        |s| s.counters.pm.fastpath.hits, Le, s.counters.pm.rendezvous),
    // A batched flush only drains invalidations the same mem critical
    // section queued.
    equation!("shootdown-flushed-deferred":
        |s| s.counters.vm.tlb_shootdowns_flushed, Le, s.counters.vm.tlb_shootdowns_deferred),
];

/// Per CPU and syscall kind: one latency sample per exit, every exit
/// ok or an error, and at most one call in flight.
const KIND_EQUATIONS: [Equation<SyscallStats>; 4] = [
    equation!("syscall-exit-sampled": |k| k.hist.count(), Eq, k.exits),
    equation!("syscall-exit-classed": |k| k.ok + k.errs, Eq, k.exits),
    equation!("syscall-exit-entered": |k| k.exits, Le, k.enters),
    equation!("syscall-one-in-flight": |k| k.enters, Le, k.exits + 1),
];

/// What [`MERGED_EQUATIONS`] read: every CPU's trace summed, beside the
/// sink-global pool gauges and the number of replicas (one per CPU).
struct MergedView {
    all: CpuTrace,
    net_in_flight: i64,
    blk_in_flight: i64,
    replicas: u64,
}

/// On the merged view: balances whose sides may move on different CPUs.
/// A pool slot may be released, and an op replayed, on a CPU other than
/// the one that acquired or appended it.
const MERGED_EQUATIONS: [Equation<MergedView>; 21] = [
    equation!("net-gauge-nonnegative": |m| m.net_in_flight, Ge, 0),
    equation!("net-pool-ledger":
        |m| m.all.counters.net.pool_acquired,
        Eq, m.all.counters.net.pool_released as i64 + m.net_in_flight),
    equation!("blk-gauge-nonnegative": |m| m.blk_in_flight, Ge, 0),
    equation!("blk-pool-ledger":
        |m| m.all.counters.blk.pool_acquired,
        Eq, m.all.counters.blk.pool_released as i64 + m.blk_in_flight),
    equation!("blk-reaped-submitted":
        |m| m.all.counters.blk.reap_ios, Le, m.all.counters.blk.submit_ios),
    // Only non-empty flat-combining flushes count.
    equation!("nr-combine-appended":
        |m| m.all.counters.nr.combine_batches, Le, m.all.counters.nr.appended),
    // Once per replica, plus once by the auditor's shadow fold.
    equation!("nr-replay-bound":
        |m| m.all.counters.nr.replayed, Le, m.all.counters.nr.appended * (m.replicas + 1)),
    // Each recorded wait annotates one acquisition.
    equation!("pm-lock-waits":
        |m| m.all.lock_wait_pm.count(), Le, m.all.counters.locks.pm.acquisitions),
    equation!("mem-lock-waits":
        |m| m.all.lock_wait_mem.count(), Le, m.all.counters.locks.mem.acquisitions),
    equation!("httpd-close-accepted":
        |m| m.all.counters.httpd.closes, Le, m.all.counters.httpd.accepts),
    equation!("httpd-timeout-closed":
        |m| m.all.counters.httpd.timeouts_keepalive
            + m.all.counters.httpd.timeouts_header
            + m.all.counters.httpd.timeouts_drain,
        Le, m.all.counters.httpd.closes),
    equation!("httpd-unpark-parked":
        |m| m.all.counters.httpd.unparked, Le, m.all.counters.httpd.parked),
    equation!("httpd-poll-sampled":
        |m| m.all.httpd_ready.count(), Eq, m.all.counters.httpd.polls),
    equation!("sched-unpark-parked":
        |m| m.all.counters.sched.unparked, Le, m.all.counters.sched.parked),
    equation!("sched-unthrottle-throttled":
        |m| m.all.counters.sched.unthrottles, Le, m.all.counters.sched.throttles),
    equation!("sched-pick-sampled":
        |m| m.all.sched_pick.count(), Eq, m.all.counters.sched.picks),
    // A full audit first folds the pending ledger, which counts as an
    // incremental audit.
    equation!("audit-incremental-full":
        |m| m.all.counters.audit.incremental, Ge, m.all.counters.audit.full),
    equation!("audit-incremental-sampled":
        |m| m.all.audit_touched.count(), Eq, m.all.counters.audit.incremental),
    equation!("audit-touched-sum":
        |m| m.all.audit_touched.total_cycles(), Eq, m.all.counters.audit.touched_entries),
    equation!("syscall-enter-events":
        |m| m.all.kinds[EventKind::SyscallEnter as usize],
        Eq, m.all.syscalls.iter().map(|k| k.enters).sum::<u64>()),
    equation!("syscall-exit-events":
        |m| m.all.kinds[EventKind::SyscallExit as usize],
        Eq, m.all.syscalls.iter().map(|k| k.exits).sum::<u64>()),
];

/// The trace subsystem's well-formedness invariant (conjoined into the
/// kernel's `total_wf`): every per-CPU histogram is coherent, every
/// equation of `CPU_EQUATIONS`, `KIND_EQUATIONS` and
/// `MERGED_EQUATIONS` holds, and no merged counter has decreased since
/// the previous audit (low-water mark, raised on every check).
pub fn trace_wf(sink: &TraceSink) -> VerifResult {
    let merged = sink.check_equations(&mut |verdict| verdict)?;
    let mut low = lock_recovering(&sink.low_water);
    merged.monotone_since(&low)?;
    *low = merged;
    Ok(())
}

impl TraceSink {
    /// Checks the histograms and every equation, handing each
    /// verdict to `judge`: returning it stops at the first failure,
    /// swallowing it goes on. Returns the merged counters.
    fn check_equations(
        &self,
        judge: &mut dyn FnMut(VerifResult) -> VerifResult,
    ) -> Result<Counters, InvariantViolation> {
        let (net_in_flight, blk_in_flight) = (self.net_in_flight(), self.blk_in_flight());
        let mut all = CpuTrace::default();
        for cpu in 0..self.ncpus {
            let s = &self.cpu_trace(cpu);
            for hist in [
                &s.lock_wait_pm,
                &s.lock_wait_mem,
                &s.sched_pick,
                &s.audit_touched,
                &s.httpd_ready,
            ] {
                judge(hist.wf())?;
            }
            for eq in &CPU_EQUATIONS {
                judge(eq.check(s, format_args!("cpu {cpu}")))?;
            }
            for (kind, k) in SyscallKind::ALL.iter().zip(&s.syscalls) {
                judge(k.hist.wf())?;
                for eq in &KIND_EQUATIONS {
                    judge(eq.check(k, format_args!("cpu {cpu} {}", kind.name())))?;
                }
            }
            all.merge(s);
        }
        let merged = MergedView {
            all,
            net_in_flight,
            blk_in_flight,
            replicas: self.ncpus as u64,
        };
        for eq in &MERGED_EQUATIONS {
            judge(eq.check(&merged, "merged"))?;
        }
        Ok(merged.all.counters)
    }
}

impl Invariant for TraceSink {
    fn wf(&self) -> VerifResult {
        trace_wf(self)
    }
}

/// An optional trace handle a subsystem can hold without disturbing its
/// derived `Clone`/`PartialEq`/`Eq`: two shares always compare equal, so
/// attaching a tracer never changes a subsystem's abstract state.
#[derive(Clone, Default)]
pub struct TraceShare(Option<TraceHandle>);

impl TraceShare {
    /// A share of `sink`.
    pub fn new(sink: TraceHandle) -> Self {
        TraceShare(Some(sink))
    }

    /// A share with no sink attached (emissions are dropped).
    pub fn detached() -> Self {
        TraceShare(None)
    }

    /// Attaches `sink`; subsequent emissions land in it.
    pub fn attach(&mut self, sink: TraceHandle) {
        self.0 = Some(sink);
    }

    /// Emits on the attributed CPU (no-op when detached).
    pub fn emit(&self, ev: KernelEvent) {
        if let Some(sink) = &self.0 {
            sink.emit(ev);
        }
    }

    /// Counts `n` observations of `outcome` (no-op when detached; see
    /// [`TraceSink::count`]).
    pub fn count(&self, outcome: impl Into<Outcome>, n: u64) {
        if let Some(sink) = &self.0 {
            sink.count(outcome, n);
        }
    }

    /// Appends one audit-ledger delta (no-op when detached or when
    /// recording is off).
    pub fn audit(&self, d: AuditDelta) {
        if let Some(sink) = &self.0 {
            sink.audit_delta(d);
        }
    }

    /// The underlying handle, when attached.
    pub fn handle(&self) -> Option<&TraceHandle> {
        self.0.as_ref()
    }
}

impl fmt::Debug for TraceShare {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "TraceShare(attached)"
        } else {
            "TraceShare(detached)"
        })
    }
}

impl PartialEq for TraceShare {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for TraceShare {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{LockCounters, VmOutcome};

    /// A well-formed sink whose pools, ledgers, histograms and bounded
    /// counters move on both CPUs.
    fn busy() -> TraceHandle {
        let sink = TraceSink::new(2, 8);
        for cpu in 0..2 {
            sink.syscall_enter(cpu, SyscallKind::Call);
            // The rendezvous the fastpath hit below performs.
            sink.emit(KernelEvent::EndpointSend {
                endpoint: 1,
                rendezvous: true,
            });
            sink.lock_event(cpu, LockDomain::Pm, false, Some((3, 9)));
            sink.lock_event(cpu, LockDomain::Mem, true, Some((5, 9)));
            let outcomes: [(Outcome, u64); 22] = [
                (FastpathOutcome::Hit.into(), 1),
                (VmOutcome::ShootdownDeferred.into(), 8),
                (VmOutcome::ShootdownFlushed.into(), 8),
                (NetOutcome::PoolAcquire.into(), 4),
                (NetOutcome::PoolRelease.into(), 2),
                (BlkOutcome::PoolAcquire.into(), 4),
                (BlkOutcome::SubmitBatch.into(), 4),
                (BlkOutcome::ReapBatch.into(), 2),
                (BlkOutcome::PoolRelease.into(), 2),
                (NrOutcome::Append.into(), 3),
                (NrOutcome::CombineBatch.into(), 1),
                (NrOutcome::Replay.into(), 3),
                (HttpdOutcome::Accept.into(), 2),
                (HttpdOutcome::TimeoutKeepalive.into(), 1),
                (HttpdOutcome::Close.into(), 1),
                (HttpdOutcome::Parked.into(), 1),
                (HttpdOutcome::ReadyBatch.into(), 2),
                (SchedOutcome::Pick.into(), 3),
                (SchedOutcome::Park.into(), 1),
                (SchedOutcome::Throttle.into(), 1),
                (AuditOutcome::Incremental.into(), 2),
                (AuditOutcome::Full.into(), 1),
            ];
            for (outcome, n) in outcomes {
                sink.count(outcome, n);
            }
            sink.syscall_exit(cpu, SyscallKind::Call, ReturnClass::Ok, 100);
        }
        sink
    }

    /// Raises `field`, one CPU's part of the merged `lhs`, to one past
    /// the merged `rhs`.
    fn exceed(field: &Tally, lhs: u64, rhs: u64) {
        field.add(rhs + 1 - lhs);
    }

    /// Moves a pool gauge to −1 while keeping its ledger balanced.
    fn negative_gauge(gauge: &AtomicI64, released: &Tally) {
        let by = gauge.load(Ordering::Relaxed) + 1;
        gauge.fetch_sub(by, Ordering::Relaxed);
        released.add(by as u64);
    }

    /// One seeded corruption per [`trace_wf`] equation, of CPU 1's cells
    /// (given the merged counters from before) or of a gauge. An equation
    /// with no entry here fails the test below.
    type Mutant = (&'static str, fn(&TraceSink, &CpuCells, &Counters));
    const TRACE_MUTANTS: &[Mutant] = &[
        ("ring-events-counted", |_, s, _| s.pushed.add(1)),
        ("context-switch-events", |_, s, _| {
            s.counters.pm.context_switches.add(1)
        }),
        ("ipc-send-events", |_, s, _| s.counters.pm.ipc_sends.add(1)),
        ("ipc-recv-events", |_, s, _| s.counters.pm.ipc_recvs.add(1)),
        ("page-alloc-events", |_, s, _| s.counters.mem.allocs.add(1)),
        ("page-free-events", |_, s, _| s.counters.mem.frees.add(1)),
        ("pt-map-events", |_, s, _| s.counters.ptable.maps.add(1)),
        ("pt-unmap-events", |_, s, _| s.counters.ptable.unmaps.add(1)),
        ("driver-rx-events", |_, s, _| {
            s.counters.drivers.rx_batches.add(1)
        }),
        ("driver-tx-events", |_, s, _| {
            s.counters.drivers.tx_batches.add(1)
        }),
        ("rendezvous-per-ipc", |_, s, _| {
            let pm = &s.counters.pm;
            pm.rendezvous
                .set(pm.ipc_sends.load() + pm.ipc_recvs.load() + 1);
        }),
        ("fastpath-hit-rendezvous", |_, s, _| {
            let pm = &s.counters.pm;
            pm.fastpath.hits.set(pm.rendezvous.load() + 1)
        }),
        ("shootdown-flushed-deferred", |_, s, _| {
            let vm = &s.counters.vm;
            vm.tlb_shootdowns_flushed
                .set(vm.tlb_shootdowns_deferred.load() + 1)
        }),
        ("syscall-exit-sampled", |_, s, _| {
            s.syscalls[SyscallKind::Call as usize].hist.record(1)
        }),
        ("syscall-exit-classed", |_, s, _| {
            s.syscalls[SyscallKind::Call as usize].ok.add(1)
        }),
        ("syscall-exit-entered", |_, s, _| {
            let (kind, class) = (SyscallKind::Yield, ReturnClass::Ok);
            apply(
                s,
                KernelEvent::SyscallExit {
                    kind,
                    class,
                    cycles: 5,
                },
            );
        }),
        ("syscall-one-in-flight", |_, s, _| {
            apply(
                s,
                KernelEvent::SyscallEnter {
                    kind: SyscallKind::Yield,
                },
            );
            apply(
                s,
                KernelEvent::SyscallEnter {
                    kind: SyscallKind::Yield,
                },
            );
        }),
        ("net-gauge-nonnegative", |sink, s, _| {
            negative_gauge(&sink.net_in_flight, &s.counters.net.pool_released)
        }),
        ("net-pool-ledger", |_, s, _| {
            s.counters.net.pool_released.add(1)
        }),
        ("blk-gauge-nonnegative", |sink, s, _| {
            negative_gauge(&sink.blk_in_flight, &s.counters.blk.pool_released)
        }),
        ("blk-pool-ledger", |_, s, _| {
            s.counters.blk.pool_released.add(1)
        }),
        ("blk-reaped-submitted", |_, s, c| {
            exceed(&s.counters.blk.reap_ios, c.blk.reap_ios, c.blk.submit_ios)
        }),
        ("nr-combine-appended", |_, s, c| {
            exceed(
                &s.counters.nr.combine_batches,
                c.nr.combine_batches,
                c.nr.appended,
            )
        }),
        ("nr-replay-bound", |_, s, c| {
            exceed(&s.counters.nr.replayed, c.nr.replayed, c.nr.appended * 3)
        }),
        ("pm-lock-waits", |_, s, c| {
            (0..=c.locks.pm.acquisitions).for_each(|_| s.lock_wait_pm.record(0))
        }),
        ("mem-lock-waits", |_, s, c| {
            (0..=c.locks.mem.acquisitions).for_each(|_| s.lock_wait_mem.record(0))
        }),
        ("httpd-close-accepted", |_, s, c| {
            exceed(&s.counters.httpd.closes, c.httpd.closes, c.httpd.accepts)
        }),
        ("httpd-timeout-closed", |_, s, c| {
            let h = &c.httpd;
            let timeouts = h.timeouts_keepalive + h.timeouts_header + h.timeouts_drain;
            exceed(&s.counters.httpd.timeouts_drain, timeouts, h.closes)
        }),
        ("httpd-unpark-parked", |_, s, c| {
            exceed(&s.counters.httpd.unparked, c.httpd.unparked, c.httpd.parked)
        }),
        ("httpd-poll-sampled", |_, s, _| {
            s.counters.httpd.polls.add(1)
        }),
        ("sched-unpark-parked", |_, s, c| {
            exceed(&s.counters.sched.unparked, c.sched.unparked, c.sched.parked)
        }),
        ("sched-unthrottle-throttled", |_, s, c| {
            exceed(
                &s.counters.sched.unthrottles,
                c.sched.unthrottles,
                c.sched.throttles,
            )
        }),
        ("sched-pick-sampled", |_, s, _| {
            s.counters.sched.picks.add(1)
        }),
        ("audit-incremental-full", |_, s, c| {
            exceed(&s.counters.audit.full, c.audit.full, c.audit.incremental)
        }),
        ("audit-incremental-sampled", |_, s, _| {
            s.counters.audit.incremental.add(1)
        }),
        ("audit-touched-sum", |_, s, _| {
            s.counters.audit.touched_entries.add(1)
        }),
        ("syscall-enter-events", |_, s, _| {
            s.pushed.add(1);
            s.kinds[EventKind::SyscallEnter as usize].add(1);
        }),
        ("syscall-exit-events", |_, s, _| {
            s.pushed.add(1);
            s.kinds[EventKind::SyscallExit as usize].add(1);
        }),
    ];

    /// Every equation that fails on `sink`, not just the first.
    fn refuted(sink: &TraceSink) -> Vec<Option<&'static str>> {
        let mut names = Vec::new();
        let collect = &mut |verdict: VerifResult| {
            names.extend(verdict.err().map(|e| e.equation));
            Ok(())
        };
        sink.check_equations(collect)
            .expect("collecting never stops");
        names.dedup();
        names
    }

    #[test]
    fn every_trace_equation_is_refuted_by_its_mutant() {
        assert_eq!(refuted(&busy()), [], "the baseline is well-formed");
        let cpu = CPU_EQUATIONS.iter().map(|e| e.name);
        let kind = KIND_EQUATIONS.iter().map(|e| e.name);
        let names: Vec<_> = cpu
            .chain(kind)
            .chain(MERGED_EQUATIONS.iter().map(|e| e.name))
            .collect();
        for &name in &names {
            let (_, mutate) = TRACE_MUTANTS
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("equation {name} has no mutant"));
            let sink = busy();
            let merged = sink.snapshot().counters;
            sink.record(1, |cells| mutate(&sink, cells, &merged));
            assert_eq!(
                refuted(&sink),
                [Some(name)],
                "only {name} refutes its mutant"
            );
            assert_eq!(trace_wf(&sink).unwrap_err().equation, Some(name));
        }
        assert_eq!(
            names.len(),
            TRACE_MUTANTS.len(),
            "a mutant names no equation"
        );
    }

    #[test]
    fn emissions_are_counted_and_wf_holds() {
        let sink = TraceSink::new(2, 8);
        sink.syscall_enter(1, SyscallKind::Mmap);
        sink.emit(KernelEvent::PageAlloc {
            frames: 1,
            closure_delta: 1,
        });
        sink.emit(KernelEvent::PtMap {
            va: 0x1000,
            frames: 1,
        });
        sink.syscall_exit(1, SyscallKind::Mmap, ReturnClass::Ok, 1234);
        assert!(trace_wf(&sink).is_ok(), "{:?}", trace_wf(&sink));
        let snap = sink.snapshot();
        assert_eq!(snap.exits(SyscallKind::Mmap), 1);
        assert_eq!(snap.counters.mem.allocs, 1);
        assert_eq!(snap.counters.ptable.maps, 1);
        assert_eq!(snap.per_cpu[1].head, 4, "all events on the set CPU");
        assert_eq!(snap.per_cpu[0].head, 0);
    }

    #[test]
    fn wf_detects_counter_regression() {
        let sink = TraceSink::new(1, 8);
        sink.emit(KernelEvent::ContextSwitch {
            cpu: 0,
            from: None,
            to: Some(1),
        });
        assert!(trace_wf(&sink).is_ok());
        // Forge a regression on the CPU: counter no longer matches the
        // CPU's own event count.
        sink.record(0, |c| c.counters.pm.context_switches.set(0));
        assert!(trace_wf(&sink).is_err());
    }

    #[test]
    fn shares_compare_equal_regardless_of_attachment() {
        let a = TraceShare::detached();
        let b = TraceShare::new(TraceSink::new(1, 4));
        assert_eq!(a, b);
        b.emit(KernelEvent::DriverRx {
            device: crate::event::DeviceKind::Ixgbe,
            batch: 32,
        });
        assert_eq!(b.handle().unwrap().snapshot().counters.drivers.rx_items, 32);
    }

    #[test]
    fn ring_overflow_keeps_wf() {
        let sink = TraceSink::new(1, 4);
        sink.set_cpu(0);
        for i in 0..64 {
            sink.emit(KernelEvent::PtMap { va: i, frames: 1 });
        }
        assert!(trace_wf(&sink).is_ok());
        let snap = sink.snapshot();
        assert_eq!(snap.total_events, 64);
        assert_eq!(snap.total_dropped, 60);
        assert_eq!(snap.counters.ptable.maps, 64, "counters survive overwrite");
    }

    #[test]
    fn lock_events_accumulate_per_domain() {
        let sink = TraceSink::new(2, 8);
        sink.lock_event(0, LockDomain::Pm, false, Some((0, 100)));
        sink.lock_event(0, LockDomain::Pm, true, Some((0, 700)));
        sink.lock_event(1, LockDomain::Mem, false, None);
        let snap = sink.snapshot();
        assert_eq!(snap.counters.locks.pm.acquisitions, 2);
        assert_eq!(snap.counters.locks.pm.contended, 1);
        assert_eq!(snap.counters.locks.pm.hold_max_cycles, 700);
        assert_eq!(snap.counters.locks.mem.acquisitions, 1);
        assert_eq!(
            snap.counters.locks.mem.hold_max_cycles, 0,
            "no modeled hold"
        );
        assert_eq!(snap.lock_wait_mem_hist.count(), 0, "and no modeled wait");
        assert_eq!(
            snap.counters.locks.trace,
            LockCounters::default(),
            "recording takes no lock"
        );
        assert!(trace_wf(&sink).is_ok());
    }

    #[test]
    fn fastpath_events_accumulate_without_ring_entries() {
        let sink = TraceSink::new(1, 8);
        sink.set_cpu(0);
        // A hit performs a rendezvous delivery: the same event pair the
        // slow path emits, plus the counter-only outcome.
        sink.emit(KernelEvent::EndpointSend {
            endpoint: 0x1000,
            rendezvous: true,
        });
        sink.emit(KernelEvent::EndpointRecv {
            endpoint: 0x1000,
            rendezvous: false,
        });
        sink.fastpath_event(FastpathOutcome::Hit);
        sink.fastpath_event(FastpathOutcome::CrossCpu);
        sink.fastpath_event(FastpathOutcome::SlotCacheHit);
        let snap = sink.snapshot();
        assert_eq!(snap.counters.pm.fastpath.hits, 1);
        assert_eq!(snap.counters.pm.fastpath.fallback_cross_cpu, 1);
        assert_eq!(snap.counters.pm.fastpath.slot_cache_hits, 1);
        assert_eq!(snap.counters.pm.fastpath.fallbacks(), 1);
        assert_eq!(snap.total_events, 2, "outcomes never enter the ring");
        assert!(trace_wf(&sink).is_ok(), "{:?}", trace_wf(&sink));
    }

    #[test]
    fn net_events_accumulate_and_balance_the_pool_ledger() {
        let sink = TraceSink::new(2, 16);
        sink.set_cpu(0);
        sink.count(NetOutcome::PoolAcquire, 32);
        sink.count(NetOutcome::RxBatch, 32);
        sink.count(NetOutcome::SteerHit, 32);
        // The batch is transmitted — and released — on the other CPU:
        // the ledger must still balance on the merged view.
        sink.set_cpu(1);
        sink.count(NetOutcome::TxBatch, 32);
        sink.count(NetOutcome::PoolRelease, 24);
        assert_eq!(sink.net_in_flight(), 8);
        assert!(trace_wf(&sink).is_ok(), "{:?}", trace_wf(&sink));
        let snap = sink.snapshot();
        assert_eq!(snap.counters.net.pool_acquired, 32);
        assert_eq!(snap.counters.net.pool_released, 24);
        assert_eq!(snap.net_in_flight, 8);
        assert_eq!(snap.counters.net.rx_zc_batches, 1);
        assert_eq!(snap.counters.net.rx_zc_frames, 32);
        assert_eq!(snap.counters.net.tx_zc_frames, 32);
        assert_eq!(snap.counters.net.steer_hits, 32);
        assert_eq!(snap.total_events, 0, "outcomes never enter the ring");
        sink.count(NetOutcome::PoolRelease, 8);
        assert_eq!(sink.net_in_flight(), 0);
        assert!(trace_wf(&sink).is_ok());
    }

    #[test]
    fn blk_events_accumulate_and_balance_the_pool_ledger() {
        let sink = TraceSink::new(2, 16);
        sink.set_cpu(0);
        sink.count(BlkOutcome::PoolAcquire, 32);
        sink.count(BlkOutcome::SubmitBatch, 32);
        // Completions are reaped — and buffers released — on the other
        // CPU: the ledger must still balance on the merged view.
        sink.set_cpu(1);
        sink.count(BlkOutcome::ReapBatch, 32);
        sink.count(BlkOutcome::Wakeup, 1);
        sink.count(BlkOutcome::PoolRelease, 24);
        assert_eq!(sink.blk_in_flight(), 8);
        assert!(trace_wf(&sink).is_ok(), "{:?}", trace_wf(&sink));
        let snap = sink.snapshot();
        assert_eq!(snap.counters.blk.pool_acquired, 32);
        assert_eq!(snap.counters.blk.pool_released, 24);
        assert_eq!(snap.blk_in_flight, 8);
        assert_eq!(snap.counters.blk.submit_batches, 1);
        assert_eq!(snap.counters.blk.submit_ios, 32);
        assert_eq!(snap.counters.blk.reap_batches, 1);
        assert_eq!(snap.counters.blk.reap_ios, 32);
        assert_eq!(snap.counters.blk.wakeups, 1);
        assert_eq!(snap.total_events, 0, "outcomes never enter the ring");
        sink.count(BlkOutcome::PoolRelease, 8);
        assert_eq!(sink.blk_in_flight(), 0);
        assert!(trace_wf(&sink).is_ok());
    }

    #[test]
    fn nr_events_accumulate_and_ledger_appends_when_recording() {
        let sink = TraceSink::new(2, 8);
        sink.set_cpu(0);
        sink.count(NrOutcome::Append, 3);
        sink.count(NrOutcome::CombineBatch, 1);
        sink.count(NrOutcome::Replay, 3);
        sink.set_cpu(1);
        sink.count(NrOutcome::Replay, 3);
        sink.count(NrOutcome::ReadLocal, 10);
        sink.count(NrOutcome::FallbackLocked, 2);
        assert!(trace_wf(&sink).is_ok(), "{:?}", trace_wf(&sink));
        let snap = sink.snapshot();
        assert_eq!(snap.counters.nr.appended, 3);
        assert_eq!(snap.counters.nr.combine_batches, 1);
        assert_eq!(snap.counters.nr.replayed, 6);
        assert_eq!(snap.counters.nr.read_local, 10);
        assert_eq!(snap.counters.nr.fallback_locked, 2);
        assert_eq!(snap.total_events, 0, "outcomes never enter the ring");
        assert_eq!(sink.audit_ledger_len(), 0, "no ledger while recording off");
        sink.set_audit_recording(true);
        sink.count(NrOutcome::Append, 2);
        sink.count(NrOutcome::ReadLocal, 1);
        assert_eq!(sink.audit_ledger_len(), 1, "only appends enter the ledger");
        let locks = sink.snapshot().counters.locks.trace;
        assert_eq!(locks.acquisitions, 1, "the ledger lock is counted");
        let mut drained = Vec::new();
        sink.drain_audit_ledgers(&mut drained);
        assert_eq!(drained, vec![AuditDelta::NrAppended(2)]);
    }

    #[test]
    fn sched_events_accumulate_and_picks_balance_the_histogram() {
        let sink = TraceSink::new(2, 8);
        sink.set_cpu(0);
        sink.count(SchedOutcome::Enqueue, 3);
        sink.count(SchedOutcome::Pick, 120);
        sink.count(SchedOutcome::Park, 2);
        sink.count(SchedOutcome::Throttle, 1);
        sink.set_cpu(1);
        sink.count(SchedOutcome::Pick, 80);
        sink.count(SchedOutcome::Unpark, 2);
        sink.count(SchedOutcome::Unthrottle, 1);
        sink.count(SchedOutcome::Refill, 1);
        sink.count(SchedOutcome::InheritHandoff, 4);
        assert!(trace_wf(&sink).is_ok(), "{:?}", trace_wf(&sink));
        let snap = sink.snapshot();
        assert_eq!(snap.counters.sched.picks, 2);
        assert_eq!(snap.counters.sched.enqueues, 3);
        assert_eq!(snap.counters.sched.parked, 2);
        assert_eq!(snap.counters.sched.unparked, 2);
        assert_eq!(snap.counters.sched.inherited_handoffs, 4);
        assert_eq!(snap.sched_pick_hist.count(), 2);
        assert_eq!(snap.total_events, 0, "outcomes never enter the ring");
    }

    #[test]
    fn wf_rejects_unpark_without_park_and_forged_pick_samples() {
        let sink = TraceSink::new(1, 8);
        sink.set_cpu(0);
        sink.count(SchedOutcome::Unpark, 1);
        assert!(trace_wf(&sink).is_err(), "unpark without a park must fail");
        let sink = TraceSink::new(1, 8);
        sink.set_cpu(0);
        sink.count(SchedOutcome::Pick, 50);
        assert!(trace_wf(&sink).is_ok());
        sink.record(0, |c| c.counters.sched.picks.add(1));
        assert!(
            trace_wf(&sink).is_err(),
            "a pick without a histogram sample must fail wf"
        );
    }

    #[test]
    fn wf_rejects_more_combine_batches_than_appends() {
        let sink = TraceSink::new(1, 8);
        sink.set_cpu(0);
        sink.count(NrOutcome::Append, 1);
        sink.count(NrOutcome::CombineBatch, 1);
        assert!(trace_wf(&sink).is_ok());
        sink.count(NrOutcome::CombineBatch, 1);
        assert!(
            trace_wf(&sink).is_err(),
            "a combine batch with no appended op must fail wf"
        );
    }

    #[test]
    fn lock_waits_land_in_per_domain_histograms() {
        let sink = TraceSink::new(2, 8);
        sink.lock_event(0, LockDomain::Pm, false, Some((0, 10)));
        sink.lock_event(0, LockDomain::Mem, false, Some((4200, 10)));
        sink.lock_event(1, LockDomain::Mem, false, Some((7, 10)));
        assert!(trace_wf(&sink).is_ok(), "{:?}", trace_wf(&sink));
        let snap = sink.snapshot();
        assert_eq!(snap.lock_wait_pm_hist.count(), 1);
        assert_eq!(snap.lock_wait_pm_hist.max(), 0, "zero waits are recorded");
        assert_eq!(snap.lock_wait_mem_hist.count(), 2, "CPUs merge");
        assert_eq!(snap.lock_wait_mem_hist.max(), 4200);
        assert!(snap.render().contains("lock.wait_cycles.mem"));
    }

    #[test]
    fn wf_rejects_more_waits_than_acquisitions() {
        let sink = TraceSink::new(1, 8);
        sink.record(0, |c| c.lock_wait_pm.record(100));
        assert!(
            trace_wf(&sink).is_err(),
            "a wait sample with no acquisition must fail wf"
        );
    }

    #[test]
    fn wf_rejects_blk_reaps_exceeding_submissions() {
        let sink = TraceSink::new(1, 8);
        sink.set_cpu(0);
        sink.count(BlkOutcome::SubmitBatch, 4);
        sink.count(BlkOutcome::ReapBatch, 4);
        assert!(trace_wf(&sink).is_ok());
        sink.count(BlkOutcome::ReapBatch, 1);
        assert!(
            trace_wf(&sink).is_err(),
            "reaping more I/Os than were submitted must fail wf"
        );
    }

    #[test]
    fn wf_rejects_unbalanced_blk_pool_ledger() {
        let sink = TraceSink::new(1, 8);
        sink.set_cpu(0);
        sink.count(BlkOutcome::PoolAcquire, 4);
        assert!(trace_wf(&sink).is_ok(), "in-flight slots are accounted");
        sink.record(0, |c| c.counters.blk.pool_released.add(1));
        assert!(trace_wf(&sink).is_err(), "ledger imbalance must fail wf");
    }

    #[test]
    fn wf_rejects_unbalanced_pool_ledger() {
        let sink = TraceSink::new(1, 8);
        sink.set_cpu(0);
        sink.count(NetOutcome::PoolAcquire, 4);
        assert!(trace_wf(&sink).is_ok(), "in-flight slots are accounted");
        // Forge a leak: the counter says released but the gauge did not
        // move (a slot dropped on the floor without a release event).
        sink.record(0, |c| c.counters.net.pool_released.add(1));
        assert!(trace_wf(&sink).is_err(), "ledger imbalance must fail wf");
    }

    #[test]
    fn wf_rejects_hits_exceeding_rendezvous() {
        let sink = TraceSink::new(1, 8);
        sink.set_cpu(0);
        sink.fastpath_event(FastpathOutcome::Hit);
        assert!(trace_wf(&sink).is_err(), "hit without rendezvous delivery");
    }

    #[test]
    fn attribution_is_per_os_thread() {
        // Two OS threads attribute to different CPUs concurrently; with
        // a thread-local current CPU neither steals the other's events.
        let sink = TraceSink::new(2, 64);
        let s0 = Arc::clone(&sink);
        let s1 = Arc::clone(&sink);
        let t0 = std::thread::spawn(move || {
            s0.set_cpu(0);
            for i in 0..100 {
                s0.emit(KernelEvent::PtMap { va: i, frames: 1 });
            }
        });
        let t1 = std::thread::spawn(move || {
            s1.set_cpu(1);
            for i in 0..100 {
                s1.emit(KernelEvent::PtUnmap { va: i, frames: 1 });
            }
        });
        t0.join().unwrap();
        t1.join().unwrap();
        let snap = sink.snapshot();
        assert_eq!(snap.per_cpu[0].kinds[EventKind::PtMap.index()], 100);
        assert_eq!(snap.per_cpu[0].kinds[EventKind::PtUnmap.index()], 0);
        assert_eq!(snap.per_cpu[1].kinds[EventKind::PtUnmap.index()], 100);
        assert!(trace_wf(&sink).is_ok());
    }

    #[test]
    fn two_threads_on_one_cpu_record_exactly_while_reads_see_events_whole() {
        // Both writers record on CPU 0, each into its own recorder, while
        // a third thread audits and snapshots in a loop. A torn read — an
        // event half seen — would break a per-CPU equation.
        const N: u64 = 20_000;
        let sink = TraceSink::new(2, 64);
        let start = Arc::new(std::sync::Barrier::new(3));
        let writers: Vec<_> = [SyscallKind::Call, SyscallKind::Yield]
            .into_iter()
            .map(|kind| {
                let (sink, start) = (Arc::clone(&sink), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..N {
                        sink.syscall_enter(0, kind);
                        sink.emit(KernelEvent::EndpointSend {
                            endpoint: 1,
                            rendezvous: true,
                        });
                        sink.fastpath_event(FastpathOutcome::Hit);
                        sink.lock_event(0, LockDomain::Pm, false, Some((i % 7, i % 11)));
                        sink.count(SchedOutcome::Pick, i % 5);
                        sink.syscall_exit(0, kind, ReturnClass::Ok, 100 + i);
                    }
                })
            })
            .collect();
        let done = Arc::new(AtomicBool::new(false));
        let reader = {
            let (sink, done) = (Arc::clone(&sink), Arc::clone(&done));
            std::thread::spawn(move || {
                start.wait();
                while !done.load(Ordering::Acquire) {
                    trace_wf(&sink).unwrap_or_else(|e| panic!("torn read: {e}"));
                    let snap = sink.snapshot();
                    assert_eq!(snap.per_cpu[0].head, snap.kinds.iter().sum::<u64>());
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Release);
        reader.join().unwrap();
        assert!(trace_wf(&sink).is_ok(), "{:?}", trace_wf(&sink));
        let snap = sink.snapshot();
        assert_eq!(snap.exits(SyscallKind::Call), N);
        assert_eq!(snap.exits(SyscallKind::Yield), N);
        assert_eq!(snap.per_cpu[0].head, 3 * 2 * N, "enter, send, exit");
        assert_eq!(snap.per_cpu[1].head, 0);
        assert_eq!(snap.counters.pm.ipc_sends, 2 * N);
        assert_eq!(snap.counters.pm.fastpath.hits, 2 * N);
        assert_eq!(snap.counters.locks.pm.acquisitions, 2 * N);
        assert_eq!(snap.counters.locks.pm.hold_max_cycles, 10);
        assert_eq!(snap.lock_wait_pm_hist.count(), 2 * N);
        assert_eq!(snap.counters.sched.picks, 2 * N);
        assert_eq!(
            snap.sched_pick_hist.total_cycles(),
            2 * (0..N).map(|i| i % 5).sum::<u64>()
        );
        assert_eq!(snap.counters.locks.trace, LockCounters::default());
    }

    #[test]
    fn a_half_written_event_is_never_read() {
        let sink = TraceSink::new(1, 8);
        let (mid_tx, mid_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let writer = {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || {
                sink.record(0, |c| {
                    c.pushed.add(1);
                    mid_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                    c.kinds[EventKind::PtMap.index()].add(1);
                    c.counters.ptable.maps.add(1);
                })
            })
        };
        mid_rx.recv().unwrap();
        let recorder = sink.recorder(0).expect("the writer registered");
        assert!(recorder.try_read(0).is_none(), "read mid-event");
        go_tx.send(()).unwrap();
        writer.join().unwrap();
        assert_eq!(recorder.try_read(0).map(|t| t.pushed), Some(1));
        assert!(trace_wf(&sink).is_ok(), "{:?}", trace_wf(&sink));
    }

    #[test]
    fn recorder_slots_fill_chunk_by_chunk() {
        let places: Vec<_> = (0..7).map(chunk_of).collect();
        assert_eq!(
            places,
            [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (2, 3)]
        );
        // Each thread that records claims one slot, found again on its
        // next event whatever sink it recorded into in between.
        let sink = TraceSink::new(1, 4);
        let threads: Vec<_> = (0..5)
            .map(|_| {
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || {
                    for _ in 0..3 {
                        sink.emit(KernelEvent::PtMap { va: 0, frames: 1 });
                        TraceSink::new(1, 4).emit(KernelEvent::PtMap { va: 0, frames: 1 });
                    }
                })
            })
            .collect();
        threads.into_iter().for_each(|t| t.join().unwrap());
        assert_eq!(sink.registered.load(Ordering::Relaxed), 5);
        assert_eq!(sink.snapshot().per_cpu[0].head, 15);
    }
}
