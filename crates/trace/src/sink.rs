//! The shared trace sink: per-CPU rings + histograms + counters behind
//! one handle, with the `trace_wf` well-formedness audit.
//!
//! The sink is itself sharded per CPU: each simulated CPU owns a
//! `PerCpuTrace` shard (ring + per-kind stats + its own [`Counters`]
//! block) behind its own mutex, so concurrent syscalls on distinct CPUs
//! never contend on trace emission. CPU attribution for deep-call-graph
//! emissions uses a thread-local set at syscall entry, which is correct
//! even without the big lock: each OS thread drives exactly one
//! simulated CPU at a time. Trace-shard locks are the *last* locks in
//! the kernel's total lock order and never acquire anything else, so
//! they cannot participate in a deadlock cycle.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

use atmo_spec::harness::{check_eqn, Invariant, InvariantViolation, VerifResult};
use atmo_spec::lock_recovering;

use crate::audit::AuditDelta;
use crate::counters::{
    AuditOutcome, BlkOutcome, Counters, FastpathOutcome, HttpdOutcome, NetOutcome, NrOutcome,
    Outcome, SchedOutcome,
};
use crate::event::{
    EventKind, KernelEvent, ReturnClass, SyscallKind, NUM_EVENT_KINDS, NUM_SYSCALL_KINDS,
};
use crate::hist::LatencyHist;
use crate::ring::EventRing;
use crate::snapshot::{CpuSummary, Snapshot, SyscallSummary};

/// Which kernel lock domain an acquisition belongs to, for the
/// per-domain lock counters (the trace shards count their own
/// acquisitions).
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

/// One CPU's trace shard.
#[derive(Clone, Debug)]
struct PerCpuTrace {
    ring: EventRing,
    /// Events pushed, by [`EventKind`] (monotone; unlike the ring, never
    /// loses history to overwrite).
    kinds: [u64; NUM_EVENT_KINDS],
    /// Per-syscall-kind statistics.
    syscalls: Vec<SyscallStats>,
    /// This shard's counter block; the snapshot merges all shards.
    counters: Counters,
    /// This shard's pending audit-ledger entries (drained by the
    /// incremental auditor; empty whenever recording is off). Lives
    /// outside the event ring: ledger entries must never be dropped to
    /// overwrite or double-counted by the per-kind reconciliation.
    ledger: Vec<AuditDelta>,
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

impl PerCpuTrace {
    fn new(ring_capacity: usize) -> Self {
        PerCpuTrace {
            ring: EventRing::new(ring_capacity),
            kinds: [0; NUM_EVENT_KINDS],
            syscalls: vec![SyscallStats::default(); NUM_SYSCALL_KINDS],
            counters: Counters::default(),
            ledger: Vec::new(),
            lock_wait_pm: LatencyHist::new(),
            lock_wait_mem: LatencyHist::new(),
            sched_pick: LatencyHist::new(),
            audit_touched: LatencyHist::new(),
            httpd_ready: LatencyHist::new(),
        }
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
    /// Lands `n` in one of the shard's histograms, as one sample per
    /// counted outcome, so the histogram's sample count balances the
    /// outcome's counter.
    Sample(fn(&mut PerCpuTrace) -> &mut LatencyHist),
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
            Outcome::HttpdOutcome(HttpdOutcome::ReadyBatch) => {
                Effect::Sample(|s| &mut s.httpd_ready)
            }
            Outcome::SchedOutcome(SchedOutcome::Pick) => Effect::Sample(|s| &mut s.sched_pick),
            Outcome::AuditOutcome(AuditOutcome::Incremental) => {
                Effect::Sample(|s| &mut s.audit_touched)
            }
            _ => Effect::None,
        }
    }
}

thread_local! {
    /// CPU attributed to subsystem emissions on this OS thread: set at
    /// syscall entry. Thread-local (not sink-global) so concurrent
    /// syscalls on different CPUs attribute correctly without a lock.
    static CURRENT_CPU: Cell<usize> = const { Cell::new(0) };
}

/// The trace sink for one kernel instance, sharded per CPU.
///
/// Cheap to share ([`TraceHandle`] = `Arc<TraceSink>`); interior
/// mutability keeps subsystem signatures unchanged.
pub struct TraceSink {
    shards: Vec<Mutex<PerCpuTrace>>,
    /// Merged counter values at the previous `trace_wf` audit
    /// (monotonicity low-water mark).
    low_water: Mutex<Counters>,
    /// Packet-pool slots currently in flight (acquired − released). A
    /// gauge, not a counter: it moves both ways, so it lives outside the
    /// monotone [`Counters`] block. Kept sink-global (not per shard)
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
    /// A sink with one ring per CPU, each retaining `ring_capacity`
    /// events. All storage is allocated here, never afterwards.
    pub fn new(ncpus: usize, ring_capacity: usize) -> TraceHandle {
        Arc::new(TraceSink {
            shards: (0..ncpus.max(1))
                .map(|_| Mutex::new(PerCpuTrace::new(ring_capacity)))
                .collect(),
            low_water: Mutex::new(Counters::default()),
            net_in_flight: AtomicI64::new(0),
            blk_in_flight: AtomicI64::new(0),
            audit_recording: AtomicBool::new(false),
        })
    }

    /// Runs `f` under `cpu`'s shard lock, counting the acquisition into
    /// that shard's `locks.trace` counters. A shard lock serializes no
    /// modeled time, so it has no hold to report.
    fn with_shard<R>(&self, cpu: usize, f: impl FnOnce(&mut PerCpuTrace) -> R) -> R {
        let (mut shard, contended) = self.lock_shard(cpu);
        let lc = &mut shard.counters.locks.trace;
        lc.acquisitions += 1;
        lc.contended += contended as u64;
        f(&mut shard)
    }

    /// Acquires `cpu`'s shard (clamped), reporting whether the fast
    /// try-lock path lost to another holder.
    fn lock_shard(&self, cpu: usize) -> (MutexGuard<'_, PerCpuTrace>, bool) {
        let mutex = &self.shards[cpu.min(self.shards.len() - 1)];
        match mutex.try_lock() {
            Ok(g) => (g, false),
            Err(TryLockError::Poisoned(e)) => (e.into_inner(), false),
            Err(TryLockError::WouldBlock) => (lock_recovering(mutex), true),
        }
    }

    /// Number of per-CPU rings.
    pub fn ncpus(&self) -> usize {
        self.shards.len()
    }

    /// Attributes subsequent [`emit`](Self::emit) calls from this OS
    /// thread to `cpu` (called at syscall entry).
    pub fn set_cpu(&self, cpu: usize) {
        CURRENT_CPU.set(cpu);
    }

    /// Emits `ev` on the CPU attributed to this OS thread.
    pub fn emit(&self, ev: KernelEvent) {
        self.with_shard(CURRENT_CPU.get(), |shard| apply(shard, ev));
    }

    /// Records a dispatcher entry for `kind` on `cpu` (also attributes
    /// subsequent emissions from this OS thread to `cpu`).
    pub fn syscall_enter(&self, cpu: usize, kind: SyscallKind) {
        CURRENT_CPU.set(cpu);
        self.with_shard(cpu, |shard| {
            apply(shard, KernelEvent::SyscallEnter { kind })
        });
    }

    /// Records a dispatcher return: the exit event plus the latency
    /// histogram update.
    pub fn syscall_exit(&self, cpu: usize, kind: SyscallKind, class: ReturnClass, cycles: u64) {
        self.with_shard(cpu, |shard| {
            apply(
                shard,
                KernelEvent::SyscallExit {
                    kind,
                    class,
                    cycles,
                },
            )
        });
    }

    /// Records a domain-lock acquisition observed by a [`DomainLock`]
    /// in the kernel crate, attributed to `cpu`'s shard. `modeled` is
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
        self.with_shard(cpu, |shard| {
            let (lc, waits) = match domain {
                LockDomain::Pm => (&mut shard.counters.locks.pm, &mut shard.lock_wait_pm),
                LockDomain::Mem => (&mut shard.counters.locks.mem, &mut shard.lock_wait_mem),
            };
            lc.acquisitions += 1;
            lc.contended += contended as u64;
            if let Some((wait, hold)) = modeled {
                lc.hold_max_cycles = lc.hold_max_cycles.max(hold);
                waits.record(wait);
            }
        });
    }

    /// Counts `n` observations of `outcome` on the CPU attributed to this
    /// OS thread: adds its bumps to the shard's counters and applies its
    /// `Effect`, all under one shard lock. Counter-only, no ring event.
    /// An `n` of zero counts nothing, except for an outcome that lands a
    /// histogram sample: an empty event-loop iteration or a zero-entry
    /// audit is itself a sample.
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
        self.with_shard(CURRENT_CPU.get(), |shard| {
            if let Some(entry) = entry {
                shard.ledger.push(entry);
            }
            if let Effect::Sample(hist) = effect {
                hist(shard).record(n);
            }
            shard.counters.count(outcome, n);
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
        if !self.audit_recording() {
            return;
        }
        self.with_shard(CURRENT_CPU.get(), |shard| shard.ledger.push(d));
    }

    /// Moves every pending ledger entry (all CPUs) into `into`,
    /// preserving per-shard order. The caller's buffer keeps its
    /// capacity across audits, so steady-state folding allocates
    /// nothing.
    pub fn drain_audit_ledgers(&self, into: &mut Vec<AuditDelta>) {
        for mutex in self.shards.iter() {
            let mut shard = lock_recovering(mutex);
            into.append(&mut shard.ledger);
        }
    }

    /// Pending ledger entries across all CPUs (diagnostic).
    pub fn audit_ledger_len(&self) -> usize {
        self.shards
            .iter()
            .map(|m| lock_recovering(m).ledger.len())
            .sum()
    }

    /// Builds the merged snapshot: per-CPU ring summaries, merged
    /// per-kind syscall statistics and the merged subsystem counters.
    ///
    /// Shards are read one at a time, so each per-CPU summary is
    /// internally coherent; the cross-CPU merge is exact whenever the
    /// sink is quiescent (all snapshot call sites — audits, reports,
    /// `TraceSnapshot` syscalls under the pm lock — satisfy this for
    /// the counters they assert on).
    pub fn snapshot(&self) -> Snapshot {
        let mut per_cpu = Vec::with_capacity(self.shards.len());
        let mut merged_kinds = [0u64; NUM_EVENT_KINDS];
        let mut merged: Vec<SyscallStats> = vec![SyscallStats::default(); NUM_SYSCALL_KINDS];
        let mut counters = Counters::default();
        let mut lock_wait_pm_hist = LatencyHist::new();
        let mut lock_wait_mem_hist = LatencyHist::new();
        let mut sched_pick_hist = LatencyHist::new();
        let mut audit_touched_hist = LatencyHist::new();
        let mut httpd_ready_hist = LatencyHist::new();
        let mut total_events = 0u64;
        let mut total_dropped = 0u64;
        for (cpu, mutex) in self.shards.iter().enumerate() {
            let c = lock_recovering(mutex);
            lock_wait_pm_hist.merge(&c.lock_wait_pm);
            lock_wait_mem_hist.merge(&c.lock_wait_mem);
            sched_pick_hist.merge(&c.sched_pick);
            audit_touched_hist.merge(&c.audit_touched);
            httpd_ready_hist.merge(&c.httpd_ready);
            for (m, k) in merged_kinds.iter_mut().zip(c.kinds.iter()) {
                *m += k;
            }
            for (m, s) in merged.iter_mut().zip(c.syscalls.iter()) {
                m.enters += s.enters;
                m.exits += s.exits;
                m.ok += s.ok;
                m.errs += s.errs;
                m.hist.merge(&s.hist);
            }
            counters.merge(&c.counters);
            total_events += c.ring.head();
            total_dropped += c.ring.dropped();
            per_cpu.push(CpuSummary {
                cpu,
                head: c.ring.head(),
                tail: c.ring.tail(),
                dropped: c.ring.dropped(),
                kinds: c.kinds,
                per_kind_enters: c.syscalls.iter().map(|s| s.enters).collect(),
                per_kind_exits: c.syscalls.iter().map(|s| s.exits).collect(),
            });
        }
        let syscalls = SyscallKind::ALL
            .iter()
            .map(|&kind| {
                let s = &merged[kind.index()];
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
        let httpd_conns_live = counters.httpd.accepts as i64 - counters.httpd.closes as i64;
        Snapshot {
            per_cpu,
            syscalls,
            kinds: merged_kinds,
            counters,
            net_in_flight: self.net_in_flight(),
            blk_in_flight: self.blk_in_flight(),
            audit_touched_hist,
            lock_wait_pm_hist,
            lock_wait_mem_hist,
            httpd_conns_live,
            httpd_ready_hist,
            sched_pick_hist,
            total_events,
            total_dropped,
        }
    }
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("ncpus", &self.shards.len())
            .finish()
    }
}

fn apply(shard: &mut PerCpuTrace, ev: KernelEvent) {
    let counters = &mut shard.counters;
    match ev {
        KernelEvent::ContextSwitch { .. } => counters.pm.context_switches += 1,
        KernelEvent::EndpointSend { rendezvous, .. } => {
            counters.pm.ipc_sends += 1;
            if rendezvous {
                counters.pm.rendezvous += 1;
            }
        }
        KernelEvent::EndpointRecv { rendezvous, .. } => {
            counters.pm.ipc_recvs += 1;
            if rendezvous {
                counters.pm.rendezvous += 1;
            }
        }
        KernelEvent::PageAlloc { frames, .. } => {
            counters.mem.allocs += 1;
            counters.mem.frames_allocated += frames;
        }
        KernelEvent::PageFree { frames, .. } => {
            counters.mem.frees += 1;
            counters.mem.frames_freed += frames;
        }
        KernelEvent::PtMap { frames, .. } => {
            counters.ptable.maps += 1;
            counters.ptable.frames_mapped += frames;
        }
        KernelEvent::PtUnmap { frames, .. } => {
            counters.ptable.unmaps += 1;
            counters.ptable.frames_unmapped += frames;
        }
        KernelEvent::DriverRx { batch, .. } => {
            counters.drivers.rx_batches += 1;
            counters.drivers.rx_items += batch;
        }
        KernelEvent::DriverTx { batch, .. } => {
            counters.drivers.tx_batches += 1;
            counters.drivers.tx_items += batch;
        }
        KernelEvent::SyscallEnter { .. } | KernelEvent::SyscallExit { .. } => {}
    }
    shard.ring.push(ev);
    shard.kinds[ev.kind().index()] += 1;
    match ev {
        KernelEvent::SyscallEnter { kind } => shard.syscalls[kind.index()].enters += 1,
        KernelEvent::SyscallExit {
            kind,
            class,
            cycles,
        } => {
            let s = &mut shard.syscalls[kind.index()];
            s.exits += 1;
            if class.is_ok() {
                s.ok += 1;
            } else {
                s.errs += 1;
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
/// which is one shard, one syscall kind of one shard, or the merged sink.
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

/// Per shard: every pushed event is counted by kind, and each counter
/// that an event kind bumps equals that kind's count. Counters and
/// events move under the same shard lock, so these hold per shard.
const SHARD_EQUATIONS: [Equation<PerCpuTrace>; 13] = [
    equation!("ring-events-counted": |s| s.kinds.iter().sum::<u64>(), Eq, s.ring.head()),
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

/// Per shard and syscall kind: one latency sample per exit, every exit
/// ok or an error, and at most one call in flight.
const KIND_EQUATIONS: [Equation<SyscallStats>; 4] = [
    equation!("syscall-exit-sampled": |k| k.hist.count(), Eq, k.exits),
    equation!("syscall-exit-classed": |k| k.ok + k.errs, Eq, k.exits),
    equation!("syscall-exit-entered": |k| k.exits, Le, k.enters),
    equation!("syscall-one-in-flight": |k| k.enters, Le, k.exits + 1),
];

/// The merged sink, as [`MERGED_EQUATIONS`] read it.
#[derive(Default)]
struct Merged {
    c: Counters,
    kinds: [u64; NUM_EVENT_KINDS],
    enters: u64,
    exits: u64,
    net_in_flight: i64,
    blk_in_flight: i64,
    /// One replica per CPU shard.
    replicas: u64,
    /// Samples across the shards' histograms, and the touched-entry sum.
    pm_waits: u64,
    mem_waits: u64,
    picks: u64,
    polls: u64,
    audits: u64,
    touched: u64,
}

/// On the merged view: balances whose sides may move on different CPUs.
/// A pool slot may be released, and an op replayed, on a CPU other than
/// the one that acquired or appended it.
const MERGED_EQUATIONS: [Equation<Merged>; 21] = [
    equation!("net-gauge-nonnegative": |m| m.net_in_flight, Ge, 0),
    equation!("net-pool-ledger":
        |m| m.c.net.pool_acquired, Eq, m.c.net.pool_released as i64 + m.net_in_flight),
    equation!("blk-gauge-nonnegative": |m| m.blk_in_flight, Ge, 0),
    equation!("blk-pool-ledger":
        |m| m.c.blk.pool_acquired, Eq, m.c.blk.pool_released as i64 + m.blk_in_flight),
    equation!("blk-reaped-submitted": |m| m.c.blk.reap_ios, Le, m.c.blk.submit_ios),
    // Only non-empty flat-combining flushes count.
    equation!("nr-combine-appended": |m| m.c.nr.combine_batches, Le, m.c.nr.appended),
    // Once per replica, plus once by the auditor's shadow fold.
    equation!("nr-replay-bound":
        |m| m.c.nr.replayed, Le, m.c.nr.appended * (m.replicas + 1)),
    // Each recorded wait annotates one acquisition.
    equation!("pm-lock-waits": |m| m.pm_waits, Le, m.c.locks.pm.acquisitions),
    equation!("mem-lock-waits": |m| m.mem_waits, Le, m.c.locks.mem.acquisitions),
    equation!("httpd-close-accepted": |m| m.c.httpd.closes, Le, m.c.httpd.accepts),
    equation!("httpd-timeout-closed":
        |m| m.c.httpd.timeouts_keepalive + m.c.httpd.timeouts_header + m.c.httpd.timeouts_drain,
        Le, m.c.httpd.closes),
    equation!("httpd-unpark-parked": |m| m.c.httpd.unparked, Le, m.c.httpd.parked),
    equation!("httpd-poll-sampled": |m| m.polls, Eq, m.c.httpd.polls),
    equation!("sched-unpark-parked": |m| m.c.sched.unparked, Le, m.c.sched.parked),
    equation!("sched-unthrottle-throttled": |m| m.c.sched.unthrottles, Le, m.c.sched.throttles),
    equation!("sched-pick-sampled": |m| m.picks, Eq, m.c.sched.picks),
    // A full audit first folds the pending ledger, which counts as an
    // incremental audit.
    equation!("audit-incremental-full": |m| m.c.audit.incremental, Ge, m.c.audit.full),
    equation!("audit-incremental-sampled": |m| m.audits, Eq, m.c.audit.incremental),
    equation!("audit-touched-sum": |m| m.touched, Eq, m.c.audit.touched_entries),
    equation!("syscall-enter-events": |m| m.kinds[EventKind::SyscallEnter as usize], Eq, m.enters),
    equation!("syscall-exit-events": |m| m.kinds[EventKind::SyscallExit as usize], Eq, m.exits),
];

/// The trace subsystem's well-formedness invariant (conjoined into the
/// kernel's `total_wf`): every per-CPU ring and histogram is coherent,
/// every equation of `SHARD_EQUATIONS`, `KIND_EQUATIONS` and
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
    /// Checks the rings, the histograms and every equation, handing each
    /// verdict to `judge`: returning it stops at the first failure,
    /// swallowing it goes on. Returns the merged counters.
    fn check_equations(
        &self,
        judge: &mut dyn FnMut(VerifResult) -> VerifResult,
    ) -> Result<Counters, InvariantViolation> {
        let mut m = Merged {
            net_in_flight: self.net_in_flight(),
            blk_in_flight: self.blk_in_flight(),
            replicas: self.shards.len() as u64,
            ..Merged::default()
        };
        for (cpu, mutex) in self.shards.iter().enumerate() {
            let s = lock_recovering(mutex);
            judge(s.ring.wf())?;
            for hist in [
                &s.lock_wait_pm,
                &s.lock_wait_mem,
                &s.sched_pick,
                &s.audit_touched,
                &s.httpd_ready,
            ] {
                judge(hist.wf())?;
            }
            for eq in &SHARD_EQUATIONS {
                judge(eq.check(&*s, format_args!("cpu {cpu}")))?;
            }
            for (kind, k) in SyscallKind::ALL.iter().zip(&s.syscalls) {
                judge(k.hist.wf())?;
                for eq in &KIND_EQUATIONS {
                    judge(eq.check(k, format_args!("cpu {cpu} {}", kind.name())))?;
                }
                m.enters += k.enters;
                m.exits += k.exits;
            }
            for (total, k) in m.kinds.iter_mut().zip(s.kinds) {
                *total += k;
            }
            m.pm_waits += s.lock_wait_pm.count();
            m.mem_waits += s.lock_wait_mem.count();
            m.picks += s.sched_pick.count();
            m.polls += s.httpd_ready.count();
            m.audits += s.audit_touched.count();
            m.touched += s.audit_touched.total_cycles();
            m.c.merge(&s.counters);
        }
        for eq in &MERGED_EQUATIONS {
            judge(eq.check(&m, "merged"))?;
        }
        Ok(m.c)
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
    use crate::counters::VmOutcome;

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

    /// Raises `field`, one shard's part of the merged `lhs`, to one past
    /// the merged `rhs`.
    fn exceed(field: &mut u64, lhs: u64, rhs: u64) {
        *field += rhs + 1 - lhs;
    }

    /// Moves a pool gauge to −1 while keeping its ledger balanced.
    fn negative_gauge(gauge: &AtomicI64, released: &mut u64) {
        let by = gauge.load(Ordering::Relaxed) + 1;
        gauge.fetch_sub(by, Ordering::Relaxed);
        *released += by as u64;
    }

    /// One seeded corruption per [`trace_wf`] equation, of CPU 1's shard
    /// (given the merged counters from before) or of a gauge. An equation
    /// with no entry here fails the test below.
    type Mutant = (&'static str, fn(&TraceSink, &mut PerCpuTrace, &Counters));
    const TRACE_MUTANTS: &[Mutant] = &[
        ("ring-events-counted", |_, s, _| {
            s.ring.push(KernelEvent::PtMap { va: 0, frames: 1 })
        }),
        ("context-switch-events", |_, s, _| {
            s.counters.pm.context_switches += 1
        }),
        ("ipc-send-events", |_, s, _| s.counters.pm.ipc_sends += 1),
        ("ipc-recv-events", |_, s, _| s.counters.pm.ipc_recvs += 1),
        ("page-alloc-events", |_, s, _| s.counters.mem.allocs += 1),
        ("page-free-events", |_, s, _| s.counters.mem.frees += 1),
        ("pt-map-events", |_, s, _| s.counters.ptable.maps += 1),
        ("pt-unmap-events", |_, s, _| s.counters.ptable.unmaps += 1),
        ("driver-rx-events", |_, s, _| {
            s.counters.drivers.rx_batches += 1
        }),
        ("driver-tx-events", |_, s, _| {
            s.counters.drivers.tx_batches += 1
        }),
        ("rendezvous-per-ipc", |_, s, _| {
            let pm = &mut s.counters.pm;
            pm.rendezvous = pm.ipc_sends + pm.ipc_recvs + 1;
        }),
        ("fastpath-hit-rendezvous", |_, s, _| {
            s.counters.pm.fastpath.hits = s.counters.pm.rendezvous + 1
        }),
        ("shootdown-flushed-deferred", |_, s, _| {
            s.counters.vm.tlb_shootdowns_flushed = s.counters.vm.tlb_shootdowns_deferred + 1
        }),
        ("syscall-exit-sampled", |_, s, _| {
            s.syscalls[SyscallKind::Call as usize].hist.record(1)
        }),
        ("syscall-exit-classed", |_, s, _| {
            s.syscalls[SyscallKind::Call as usize].ok += 1
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
            negative_gauge(&sink.net_in_flight, &mut s.counters.net.pool_released)
        }),
        ("net-pool-ledger", |_, s, _| {
            s.counters.net.pool_released += 1
        }),
        ("blk-gauge-nonnegative", |sink, s, _| {
            negative_gauge(&sink.blk_in_flight, &mut s.counters.blk.pool_released)
        }),
        ("blk-pool-ledger", |_, s, _| {
            s.counters.blk.pool_released += 1
        }),
        ("blk-reaped-submitted", |_, s, c| {
            exceed(
                &mut s.counters.blk.reap_ios,
                c.blk.reap_ios,
                c.blk.submit_ios,
            )
        }),
        ("nr-combine-appended", |_, s, c| {
            exceed(
                &mut s.counters.nr.combine_batches,
                c.nr.combine_batches,
                c.nr.appended,
            )
        }),
        ("nr-replay-bound", |_, s, c| {
            exceed(
                &mut s.counters.nr.replayed,
                c.nr.replayed,
                c.nr.appended * 3,
            )
        }),
        ("pm-lock-waits", |_, s, c| {
            (0..=c.locks.pm.acquisitions).for_each(|_| s.lock_wait_pm.record(0))
        }),
        ("mem-lock-waits", |_, s, c| {
            (0..=c.locks.mem.acquisitions).for_each(|_| s.lock_wait_mem.record(0))
        }),
        ("httpd-close-accepted", |_, s, c| {
            exceed(
                &mut s.counters.httpd.closes,
                c.httpd.closes,
                c.httpd.accepts,
            )
        }),
        ("httpd-timeout-closed", |_, s, c| {
            let h = &c.httpd;
            let timeouts = h.timeouts_keepalive + h.timeouts_header + h.timeouts_drain;
            exceed(&mut s.counters.httpd.timeouts_drain, timeouts, h.closes)
        }),
        ("httpd-unpark-parked", |_, s, c| {
            exceed(
                &mut s.counters.httpd.unparked,
                c.httpd.unparked,
                c.httpd.parked,
            )
        }),
        ("httpd-poll-sampled", |_, s, _| s.counters.httpd.polls += 1),
        ("sched-unpark-parked", |_, s, c| {
            exceed(
                &mut s.counters.sched.unparked,
                c.sched.unparked,
                c.sched.parked,
            )
        }),
        ("sched-unthrottle-throttled", |_, s, c| {
            exceed(
                &mut s.counters.sched.unthrottles,
                c.sched.unthrottles,
                c.sched.throttles,
            )
        }),
        ("sched-pick-sampled", |_, s, _| s.counters.sched.picks += 1),
        ("audit-incremental-full", |_, s, c| {
            exceed(
                &mut s.counters.audit.full,
                c.audit.full,
                c.audit.incremental,
            )
        }),
        ("audit-incremental-sampled", |_, s, _| {
            s.counters.audit.incremental += 1
        }),
        ("audit-touched-sum", |_, s, _| {
            s.counters.audit.touched_entries += 1
        }),
        ("syscall-enter-events", |_, s, _| {
            s.ring.push(KernelEvent::SyscallEnter {
                kind: SyscallKind::Call,
            });
            s.kinds[EventKind::SyscallEnter as usize] += 1;
        }),
        ("syscall-exit-events", |_, s, _| {
            let (kind, class) = (SyscallKind::Call, ReturnClass::Ok);
            s.ring.push(KernelEvent::SyscallExit {
                kind,
                class,
                cycles: 1,
            });
            s.kinds[EventKind::SyscallExit as usize] += 1;
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
        let shard = SHARD_EQUATIONS.iter().map(|e| e.name);
        let kind = KIND_EQUATIONS.iter().map(|e| e.name);
        let names: Vec<_> = shard
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
            mutate(&sink, &mut lock_recovering(&sink.shards[1]), &merged);
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
        // Forge a regression on the shard: counter no longer matches the
        // shard's own event count.
        lock_recovering(&sink.shards[0])
            .counters
            .pm
            .context_switches = 0;
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
        assert!(
            snap.counters.locks.trace.acquisitions >= 3,
            "shard locks self-instrument"
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
        lock_recovering(&sink.shards[0]).counters.sched.picks += 1;
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
        assert_eq!(snap.lock_wait_mem_hist.count(), 2, "shards merge");
        assert_eq!(snap.lock_wait_mem_hist.max(), 4200);
        assert!(snap.render().contains("lock.wait_cycles.mem"));
    }

    #[test]
    fn wf_rejects_more_waits_than_acquisitions() {
        let sink = TraceSink::new(1, 8);
        lock_recovering(&sink.shards[0]).lock_wait_pm.record(100);
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
        lock_recovering(&sink.shards[0]).counters.blk.pool_released += 1;
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
        lock_recovering(&sink.shards[0]).counters.net.pool_released += 1;
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
}
