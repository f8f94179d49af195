//! The shared trace sink: per-CPU rings + histograms + counters behind
//! one handle, with the `trace_wf` well-formedness audit.
//!
//! The sink is itself sharded per CPU: each simulated CPU owns a
//! [`PerCpuTrace`] shard (ring + per-kind stats + its own [`Counters`]
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

use atmo_spec::harness::{check, Invariant, VerifResult};
use atmo_spec::lock_recovering;

use crate::audit::AuditDelta;
use crate::counters::{
    BlkCounters, Counters, FastpathCounters, HttpdCounters, NetCounters, NrCounters, SchedCounters,
    VmCounters,
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

impl LockDomain {
    /// Stable lower-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            LockDomain::Pm => "pm",
            LockDomain::Mem => "mem",
        }
    }
}

/// Outcome of one IPC fastpath attempt (or slot-cache probe), counted
/// into [`FastpathCounters`] without a ring event — like lock
/// acquisitions, these annotate operations that already have their own
/// `EndpointSend`/`EndpointRecv` events, so pairing them with ring
/// entries would double-count under the exact reconciliation audit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FastpathOutcome {
    /// Direct handoff performed.
    Hit,
    /// Endpoint idle or queued on the sending side.
    WrongSide,
    /// Endpoint queue full.
    QueueFull,
    /// Partner homed on a different CPU.
    CrossCpu,
    /// Payload carries a capability grant (needs the mem domain).
    CapTransfer,
    /// Consecutive-handoff budget exhausted; yielded to the run queue.
    Budget,
    /// Descriptor-slot cache hit (validation skipped).
    SlotCacheHit,
    /// Descriptor-slot cache miss (full table lookup).
    SlotCacheMiss,
}

impl FastpathOutcome {
    fn count_into(self, fp: &mut FastpathCounters) {
        match self {
            FastpathOutcome::Hit => fp.hits += 1,
            FastpathOutcome::WrongSide => fp.fallback_wrong_side += 1,
            FastpathOutcome::QueueFull => fp.fallback_queue_full += 1,
            FastpathOutcome::CrossCpu => fp.fallback_cross_cpu += 1,
            FastpathOutcome::CapTransfer => fp.fallback_cap_transfer += 1,
            FastpathOutcome::Budget => fp.fallback_budget += 1,
            FastpathOutcome::SlotCacheHit => fp.slot_cache_hits += 1,
            FastpathOutcome::SlotCacheMiss => fp.slot_cache_misses += 1,
        }
    }
}

/// One batched-VM-datapath observation. Like [`FastpathOutcome`] these
/// are counter-only annotations: the ring events for the underlying
/// allocator/page-table work are already emitted by those subsystems, so
/// an extra ring entry would break the exact per-kind reconciliation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmOutcome {
    /// Batched leaf fills that hit the walk cache (count = fills).
    MapBatchHit,
    /// A 512-page run was promoted to one 2 MiB entry.
    SuperpagePromotion,
    /// A promoted entry was split back to 512 4 KiB entries.
    SuperpageDemotion,
    /// Page invalidations queued for a deferred shootdown (count =
    /// pages).
    ShootdownDeferred,
    /// Page invalidations broadcast by a batched flush (count = pages).
    ShootdownFlushed,
}

impl VmOutcome {
    fn count_into(self, vm: &mut VmCounters, n: u64) {
        match self {
            VmOutcome::MapBatchHit => vm.map_batch_hits += n,
            VmOutcome::SuperpagePromotion => vm.superpage_promotions += n,
            VmOutcome::SuperpageDemotion => vm.superpage_demotions += n,
            VmOutcome::ShootdownDeferred => vm.tlb_shootdowns_deferred += n,
            VmOutcome::ShootdownFlushed => vm.tlb_shootdowns_flushed += n,
        }
    }
}

/// One zero-copy-network-datapath observation. Like [`VmOutcome`] these
/// are counter-only annotations: the batched RX/TX work already emits
/// `DriverRx`/`DriverTx` ring events, so an extra ring entry would break
/// the exact per-kind reconciliation. `PoolAcquire`/`PoolRelease`
/// additionally move the sink's in-flight gauge, which `trace_wf` checks
/// against the merged counters (`acquired == released + in_flight`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetOutcome {
    /// Pool slots handed out (count = slots).
    PoolAcquire,
    /// Pool slots returned (count = slots).
    PoolRelease,
    /// Acquire attempts that found the pool empty (count = attempts).
    PoolExhausted,
    /// One zero-copy receive batch (count = frames).
    RxBatch,
    /// One zero-copy transmit batch (count = frames).
    TxBatch,
    /// Frames steered to the local queue's CPU (count = frames).
    SteerHit,
    /// Frames delivered to the wrong queue for their flow (count =
    /// frames).
    SteerMiss,
    /// Frames copied out of the pool into owned buffers (count =
    /// frames).
    Fallback,
}

impl NetOutcome {
    fn count_into(self, net: &mut NetCounters, n: u64) {
        match self {
            NetOutcome::PoolAcquire => net.pool_acquired += n,
            NetOutcome::PoolRelease => net.pool_released += n,
            NetOutcome::PoolExhausted => net.pool_exhausted += n,
            NetOutcome::RxBatch => {
                net.rx_zc_batches += 1;
                net.rx_zc_frames += n;
            }
            NetOutcome::TxBatch => {
                net.tx_zc_batches += 1;
                net.tx_zc_frames += n;
            }
            NetOutcome::SteerHit => net.steer_hits += n,
            NetOutcome::SteerMiss => net.steer_misses += n,
            NetOutcome::Fallback => net.fallback_copies += n,
        }
    }
}

/// One zero-copy-block-datapath observation. Like [`NetOutcome`] these
/// are counter-only annotations: batched SQ/CQ work already emits
/// `DriverTx`/`DriverRx` ring events (device = NVMe), so an extra ring
/// entry would break the exact per-kind reconciliation.
/// `PoolAcquire`/`PoolRelease` additionally move the sink's blk
/// in-flight gauge, which `trace_wf` checks against the merged counters
/// (`acquired == released + in_flight`), alongside the global
/// `reap_ios <= submit_ios` completion bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlkOutcome {
    /// Pool slots handed out (count = slots).
    PoolAcquire,
    /// Pool slots returned (count = slots).
    PoolRelease,
    /// Acquire attempts that found the pool empty (count = attempts).
    PoolExhausted,
    /// One batched SQ doorbell ring (count = I/O commands).
    SubmitBatch,
    /// One batched CQ reap pass (count = completions).
    ReapBatch,
    /// Parked reapers woken by a completion over the direct-handoff
    /// fast path (count = wakeups).
    Wakeup,
    /// Blocks copied out of the pool into owned buffers (count =
    /// blocks).
    Fallback,
}

impl BlkOutcome {
    fn count_into(self, blk: &mut BlkCounters, n: u64) {
        match self {
            BlkOutcome::PoolAcquire => blk.pool_acquired += n,
            BlkOutcome::PoolRelease => blk.pool_released += n,
            BlkOutcome::PoolExhausted => blk.pool_exhausted += n,
            BlkOutcome::SubmitBatch => {
                blk.submit_batches += 1;
                blk.submit_ios += n;
            }
            BlkOutcome::ReapBatch => {
                blk.reap_batches += 1;
                blk.reap_ios += n;
            }
            BlkOutcome::Wakeup => blk.wakeups += n,
            BlkOutcome::Fallback => blk.fallback_copies += n,
        }
    }
}

/// One event-driven-httpd observation. Like [`NetOutcome`] these are
/// counter-only annotations: the connection shards, timer wheels and
/// ready rings are app-level structures whose datapath work already
/// rides the driver's `DriverRx`/`DriverTx` ring events, so an extra
/// ring entry would break the exact per-kind reconciliation.
/// `ReadyBatch` additionally lands the ready-set size in the sink's
/// ready-batch histogram — with `n == 0` allowed, because an empty
/// event-loop iteration is itself a sample (it is what makes idle cost
/// O(ready), and `trace_wf` balances the histogram's sample count
/// against `httpd.polls`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HttpdOutcome {
    /// Connections opened (count = connections).
    Accept,
    /// Connections closed (count = connections).
    Close,
    /// Requests fully served (count = requests).
    Served,
    /// Keepalive-timer closes (count = connections).
    TimeoutKeepalive,
    /// Read-header-timer closes — slowloris (count = connections).
    TimeoutHeader,
    /// Write-drain-timer closes (count = connections).
    TimeoutDrain,
    /// Timer-wheel nodes moved or fired by cascades (count = nodes).
    WheelCascade,
    /// Connections parked on pool exhaustion (count = connections).
    Parked,
    /// Parked connections resumed (count = connections).
    Unparked,
    /// Requests rejected by the parser (count = requests).
    Malformed,
    /// One event-loop iteration (count = ready entries drained; zero
    /// is meaningful and recorded).
    ReadyBatch,
}

impl HttpdOutcome {
    fn count_into(self, httpd: &mut HttpdCounters, n: u64) {
        match self {
            HttpdOutcome::Accept => httpd.accepts += n,
            HttpdOutcome::Close => httpd.closes += n,
            HttpdOutcome::Served => httpd.served += n,
            HttpdOutcome::TimeoutKeepalive => httpd.timeouts_keepalive += n,
            HttpdOutcome::TimeoutHeader => httpd.timeouts_header += n,
            HttpdOutcome::TimeoutDrain => httpd.timeouts_drain += n,
            HttpdOutcome::WheelCascade => httpd.wheel_cascades += n,
            HttpdOutcome::Parked => httpd.parked += n,
            HttpdOutcome::Unparked => httpd.unparked += n,
            HttpdOutcome::Malformed => httpd.malformed += n,
            HttpdOutcome::ReadyBatch => httpd.polls += 1,
        }
    }
}

/// One multi-tenant-scheduler observation. Like [`FastpathOutcome`]
/// these are counter-only annotations: run-queue picks already emit
/// their own `ContextSwitch` ring events when `current` changes, so an
/// extra ring entry would break the exact per-kind reconciliation.
/// Picks themselves go through [`TraceSink::sched_pick`], which
/// additionally lands the list head and nodes the pick touched
/// in the pick-steps histogram — the O(1) claim as an exact count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedOutcome {
    /// Threads enqueued onto a run queue (count = threads).
    Enqueue,
    /// Threads removed from the run queues (count = threads).
    Remove,
    /// Threads parked off the run queues — container throttled
    /// (count = threads).
    Park,
    /// Parked threads re-enqueued after a refill (count = threads).
    Unpark,
    /// Container accounts throttled on budget exhaustion (count =
    /// accounts).
    Throttle,
    /// Container accounts unthrottled by the refill wheel (count =
    /// accounts).
    Unthrottle,
    /// Budget refills performed by the timer wheel (count = refills).
    Refill,
    /// IPC direct handoffs that inherited the client's budget account
    /// (count = handoffs).
    InheritHandoff,
}

impl SchedOutcome {
    fn count_into(self, sched: &mut SchedCounters, n: u64) {
        match self {
            SchedOutcome::Enqueue => sched.enqueues += n,
            SchedOutcome::Remove => sched.removes += n,
            SchedOutcome::Park => sched.parked += n,
            SchedOutcome::Unpark => sched.unparked += n,
            SchedOutcome::Throttle => sched.throttles += n,
            SchedOutcome::Unthrottle => sched.unthrottles += n,
            SchedOutcome::Refill => sched.refills += n,
            SchedOutcome::InheritHandoff => sched.inherited_handoffs += n,
        }
    }
}

/// One node-replication observation. Like [`VmOutcome`] these are
/// counter-only annotations: replica reads and log appends decorate
/// syscalls that already emit their own enter/exit ring events, so an
/// extra ring entry would break the exact per-kind reconciliation.
/// `Append` additionally lands an [`AuditDelta::NrAppended`] ledger
/// entry when audit recording is on, so the incremental auditor can
/// balance the ledger sum against the logs' published tails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NrOutcome {
    /// Ops appended to a shared operation log (count = ops).
    Append,
    /// Flat-combining flushes this CPU performed, draining every CPU's
    /// pending slot (count = non-empty flushes).
    CombineBatch,
    /// Ops replayed into a replica to bring it to the tail (count =
    /// ops).
    Replay,
    /// Read syscalls served lock-free from the local replica (count =
    /// reads).
    ReadLocal,
    /// Read syscalls served by the locked domain path instead (count =
    /// reads).
    FallbackLocked,
}

impl NrOutcome {
    fn count_into(self, nr: &mut NrCounters, n: u64) {
        match self {
            NrOutcome::Append => nr.appended += n,
            NrOutcome::CombineBatch => nr.combine_batches += n,
            NrOutcome::Replay => nr.replayed += n,
            NrOutcome::ReadLocal => nr.read_local += n,
            NrOutcome::FallbackLocked => nr.fallback_locked += n,
        }
    }
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
    /// Ready-set sizes per httpd event-loop iteration on this CPU (each
    /// shard's event loop records its own ticks; the merged
    /// `httpd.polls` counter balances the merged sample count exactly).
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

    /// Emits `ev` on an explicit CPU.
    pub fn emit_on(&self, cpu: usize, ev: KernelEvent) {
        self.with_shard(cpu, |shard| apply(shard, ev));
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

    /// Counts `n` node-replication observations on the CPU attributed
    /// to this OS thread. Counter-only, no ring event (see
    /// [`NrOutcome`]); appends additionally land an audit-ledger entry
    /// when recording is on, so the auditor can balance appended ops
    /// against the logs' published tails.
    pub fn nr_event(&self, outcome: NrOutcome, n: u64) {
        if n == 0 {
            return;
        }
        let audit = self.audit_recording();
        self.with_shard(CURRENT_CPU.get(), |shard| {
            if audit {
                if let NrOutcome::Append = outcome {
                    shard.ledger.push(AuditDelta::NrAppended(n));
                }
            }
            outcome.count_into(&mut shard.counters.nr, n)
        });
    }

    /// Counts an IPC fastpath outcome on the CPU attributed to this OS
    /// thread. Counter-only, no ring event (see [`FastpathOutcome`]).
    pub fn fastpath_event(&self, outcome: FastpathOutcome) {
        self.with_shard(CURRENT_CPU.get(), |shard| {
            outcome.count_into(&mut shard.counters.pm.fastpath)
        });
    }

    /// Counts `n` batched-VM-datapath observations on the CPU attributed
    /// to this OS thread. Counter-only, no ring event (see
    /// [`VmOutcome`]).
    pub fn vm_event(&self, outcome: VmOutcome, n: u64) {
        if n == 0 {
            return;
        }
        self.with_shard(CURRENT_CPU.get(), |shard| {
            outcome.count_into(&mut shard.counters.vm, n)
        });
    }

    /// Counts `n` zero-copy-network-datapath observations on the CPU
    /// attributed to this OS thread. Counter-only, no ring event (see
    /// [`NetOutcome`]); pool acquire/release additionally move the
    /// in-flight gauge.
    pub fn net_event(&self, outcome: NetOutcome, n: u64) {
        if n == 0 {
            return;
        }
        let held = match outcome {
            NetOutcome::PoolAcquire => n as i64,
            NetOutcome::PoolRelease => -(n as i64),
            _ => 0,
        };
        if held != 0 {
            self.net_in_flight.fetch_add(held, Ordering::Relaxed);
        }
        let audit = self.audit_recording();
        self.with_shard(CURRENT_CPU.get(), |shard| {
            // Handle movements double as audit-ledger entries, so pool
            // users need no extra instrumentation.
            if audit && held != 0 {
                shard.ledger.push(AuditDelta::HandleNet(held));
            }
            outcome.count_into(&mut shard.counters.net, n)
        });
    }

    /// Packet-pool slots currently in flight (acquired − released across
    /// all CPUs).
    pub fn net_in_flight(&self) -> i64 {
        self.net_in_flight.load(Ordering::Relaxed)
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

    /// Records one completed audit on the CPU attributed to this OS
    /// thread: an incremental audit that folded `touched` ledger
    /// entries, or a full stop-the-world audit (`touched` ignored). An
    /// audit's host cost is timed by the caller that wants it.
    pub fn audit_event(&self, incremental: bool, touched: u64) {
        self.with_shard(CURRENT_CPU.get(), |shard| {
            let a = &mut shard.counters.audit;
            if incremental {
                a.incremental += 1;
                a.touched_entries += touched;
                shard.audit_touched.record(touched);
            } else {
                a.full += 1;
            }
        });
    }

    /// Records one run-queue pick on the CPU attributed to this OS
    /// thread: the shard's `sched.picks` counter advances and the
    /// list head and nodes the pick touched land in its pick-steps
    /// histogram. One method for both so the histogram's
    /// sample count balances `sched.picks` exactly under `trace_wf`.
    pub fn sched_pick(&self, steps: u64) {
        self.with_shard(CURRENT_CPU.get(), |shard| {
            shard.counters.sched.picks += 1;
            shard.sched_pick.record(steps);
        });
    }

    /// Counts `n` multi-tenant-scheduler observations on the CPU
    /// attributed to this OS thread. Counter-only, no ring event (see
    /// [`SchedOutcome`]); budget grant/charge/refund movements emit
    /// their own [`AuditDelta`]s at the account sites, not here.
    pub fn sched_event(&self, outcome: SchedOutcome, n: u64) {
        if n == 0 {
            return;
        }
        self.with_shard(CURRENT_CPU.get(), |shard| {
            outcome.count_into(&mut shard.counters.sched, n)
        });
    }

    /// Counts `n` zero-copy-block-datapath observations on the CPU
    /// attributed to this OS thread. Counter-only, no ring event (see
    /// [`BlkOutcome`]); pool acquire/release additionally move the blk
    /// in-flight gauge.
    pub fn blk_event(&self, outcome: BlkOutcome, n: u64) {
        if n == 0 {
            return;
        }
        let held = match outcome {
            BlkOutcome::PoolAcquire => n as i64,
            BlkOutcome::PoolRelease => -(n as i64),
            _ => 0,
        };
        if held != 0 {
            self.blk_in_flight.fetch_add(held, Ordering::Relaxed);
        }
        let audit = self.audit_recording();
        self.with_shard(CURRENT_CPU.get(), |shard| {
            if audit && held != 0 {
                shard.ledger.push(AuditDelta::HandleBlk(held));
            }
            outcome.count_into(&mut shard.counters.blk, n)
        });
    }

    /// Block-pool slots currently in flight (acquired − released across
    /// all CPUs).
    pub fn blk_in_flight(&self) -> i64 {
        self.blk_in_flight.load(Ordering::Relaxed)
    }

    /// Counts `n` event-driven-httpd observations on the CPU attributed
    /// to this OS thread. Counter-only, no ring event (see
    /// [`HttpdOutcome`]). Unlike the other subsystem events,
    /// `ReadyBatch` is recorded even for `n == 0`: an empty event-loop
    /// iteration is a sample of the O(ready) claim, and its size lands
    /// in the sink's ready-batch histogram.
    pub fn httpd_event(&self, outcome: HttpdOutcome, n: u64) {
        if n == 0 && outcome != HttpdOutcome::ReadyBatch {
            return;
        }
        self.with_shard(CURRENT_CPU.get(), |shard| {
            if outcome == HttpdOutcome::ReadyBatch {
                shard.httpd_ready.record(n);
            }
            outcome.count_into(&mut shard.counters.httpd, n)
        });
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

/// The trace subsystem's well-formedness invariant (conjoined into the
/// kernel's `total_wf`):
///
/// * every per-CPU ring is coherent (`tail ≤ head`,
///   `head − tail ≤ capacity`, retained slots carry their sequence
///   numbers, `dropped` accounts for the advanced tail);
/// * per shard, the per-kind event counts sum to the ring's `head` (no
///   event pushed without being counted, none counted without a push);
/// * per shard and syscall kind, the latency histogram total equals the
///   exit count, `ok + errs = exits`, and at most one call is in flight
///   (`exits ≤ enters ≤ exits + 1`);
/// * per shard, the subsystem counters reconcile with that shard's
///   per-kind event counts (e.g. `pm.context_switches` = `ContextSwitch`
///   events) — a *stronger* statement than the old global-sink check,
///   because counters and events are updated under the same shard lock;
/// * no merged counter has decreased since the previous audit
///   (low-water mark, raised on every check).
pub fn trace_wf(sink: &TraceSink) -> VerifResult {
    let mut kind_totals = [0u64; NUM_EVENT_KINDS];
    let mut enter_total = 0u64;
    let mut exit_total = 0u64;
    let mut merged = Counters::default();
    let (mut waits_pm, mut waits_mem, mut picks) = (0u64, 0u64, 0u64);
    let (mut ready, mut touched) = (LatencyHist::new(), LatencyHist::new());
    for (cpu, mutex) in sink.shards.iter().enumerate() {
        let c = lock_recovering(mutex);
        c.ring.wf()?;
        c.lock_wait_pm.wf()?;
        c.lock_wait_mem.wf()?;
        c.sched_pick.wf()?;
        waits_pm += c.lock_wait_pm.count();
        waits_mem += c.lock_wait_mem.count();
        picks += c.sched_pick.count();
        ready.merge(&c.httpd_ready);
        touched.merge(&c.audit_touched);
        let pushed: u64 = c.kinds.iter().sum();
        check(
            pushed == c.ring.head(),
            "trace",
            format_args!(
                "cpu {cpu}: {pushed} counted events but ring head {}",
                c.ring.head()
            ),
        )?;
        for (m, k) in kind_totals.iter_mut().zip(c.kinds.iter()) {
            *m += k;
        }
        for (kind, s) in SyscallKind::ALL.iter().zip(c.syscalls.iter()) {
            s.hist.wf()?;
            check(
                s.hist.count() == s.exits,
                "trace",
                format_args!(
                    "cpu {cpu} {}: histogram holds {} samples for {} exits",
                    kind.name(),
                    s.hist.count(),
                    s.exits
                ),
            )?;
            check(
                s.ok + s.errs == s.exits,
                "trace",
                format_args!("cpu {cpu} {}: ok+errs != exits", kind.name()),
            )?;
            check(
                s.exits <= s.enters && s.enters <= s.exits + 1,
                "trace",
                format_args!(
                    "cpu {cpu} {}: {} enters vs {} exits",
                    kind.name(),
                    s.enters,
                    s.exits
                ),
            )?;
            enter_total += s.enters;
            exit_total += s.exits;
        }
        let ctrs = c.counters;
        let pairs = [
            (
                "pm.context_switches",
                ctrs.pm.context_switches,
                EventKind::ContextSwitch,
            ),
            ("pm.ipc_sends", ctrs.pm.ipc_sends, EventKind::EndpointSend),
            ("pm.ipc_recvs", ctrs.pm.ipc_recvs, EventKind::EndpointRecv),
            ("mem.allocs", ctrs.mem.allocs, EventKind::PageAlloc),
            ("mem.frees", ctrs.mem.frees, EventKind::PageFree),
            ("ptable.maps", ctrs.ptable.maps, EventKind::PtMap),
            ("ptable.unmaps", ctrs.ptable.unmaps, EventKind::PtUnmap),
            (
                "drivers.rx_batches",
                ctrs.drivers.rx_batches,
                EventKind::DriverRx,
            ),
            (
                "drivers.tx_batches",
                ctrs.drivers.tx_batches,
                EventKind::DriverTx,
            ),
        ];
        for (name, counter, kind) in pairs {
            check(
                counter == c.kinds[kind.index()],
                "trace",
                format_args!(
                    "cpu {cpu}: counter {name} = {counter} but {} {} events",
                    c.kinds[kind.index()],
                    kind.name()
                ),
            )?;
        }
        check(
            ctrs.pm.rendezvous <= ctrs.pm.ipc_sends + ctrs.pm.ipc_recvs,
            "trace",
            format_args!("cpu {cpu}: more rendezvous than IPC operations"),
        )?;
        // Every fastpath hit performs a rendezvous delivery (and emits
        // the same EndpointSend/EndpointRecv pair as the slow path), so
        // hits can never outnumber rendezvous completions on a shard.
        check(
            ctrs.pm.fastpath.hits <= ctrs.pm.rendezvous,
            "trace",
            format_args!("cpu {cpu}: more fastpath hits than rendezvous deliveries"),
        )?;
        // A batched shootdown flush only drains invalidations the same
        // mem critical section queued, so on any shard the flushed pages
        // can never outnumber the deferred ones.
        check(
            ctrs.vm.tlb_shootdowns_flushed <= ctrs.vm.tlb_shootdowns_deferred,
            "trace",
            format_args!("cpu {cpu}: more shootdown pages flushed than deferred"),
        )?;
        merged.merge(&ctrs);
    }
    // Pool ledger: slots in flight are exactly the acquired-but-not-yet-
    // released ones. Checked on the merged view only — a PktBuf may be
    // released on a different CPU than it was acquired on, so per-shard
    // released can legitimately exceed per-shard acquired.
    let in_flight = sink.net_in_flight();
    check(
        in_flight >= 0,
        "trace",
        format_args!("net pool gauge negative: {in_flight} slots in flight"),
    )?;
    check(
        merged.net.pool_acquired == merged.net.pool_released + in_flight as u64,
        "trace",
        format_args!(
            "net pool ledger: {} acquired != {} released + {in_flight} in flight",
            merged.net.pool_acquired, merged.net.pool_released
        ),
    )?;
    // Block-pool ledger: same merged-view discipline as the net pool —
    // a BlkBuf may be reaped and released on a different CPU than it
    // was acquired on.
    let blk_in_flight = sink.blk_in_flight();
    check(
        blk_in_flight >= 0,
        "trace",
        format_args!("blk pool gauge negative: {blk_in_flight} slots in flight"),
    )?;
    check(
        merged.blk.pool_acquired == merged.blk.pool_released + blk_in_flight as u64,
        "trace",
        format_args!(
            "blk pool ledger: {} acquired != {} released + {blk_in_flight} in flight",
            merged.blk.pool_acquired, merged.blk.pool_released
        ),
    )?;
    // Completions are reaped from prior submissions; globally the CQ can
    // never return more I/Os than the SQ accepted.
    check(
        merged.blk.reap_ios <= merged.blk.submit_ios,
        "trace",
        format_args!(
            "blk queues reaped {} I/Os but only {} were submitted",
            merged.blk.reap_ios, merged.blk.submit_ios
        ),
    )?;
    // Node-replication accounting: every flat-combining flush drains at
    // least one op (empty drains are not counted), so flushes can never
    // outnumber appended ops; and each appended op is replayed at most
    // once per replica plus once by the auditor's shadow fold. The
    // replica count is bounded by the shard count, since replicas are
    // per-CPU.
    check(
        merged.nr.combine_batches <= merged.nr.appended,
        "trace",
        format_args!(
            "nr log: {} combine batches but only {} appended ops",
            merged.nr.combine_batches, merged.nr.appended
        ),
    )?;
    check(
        merged.nr.replayed <= merged.nr.appended * (sink.shards.len() as u64 + 1),
        "trace",
        format_args!(
            "nr log: {} replayed ops exceeds {} appended × ({} replicas + 1)",
            merged.nr.replayed,
            merged.nr.appended,
            sink.shards.len()
        ),
    )?;
    // Each recorded lock wait annotates one domain-lock acquisition, so
    // samples can never outnumber acquisitions.
    check(
        waits_pm <= merged.locks.pm.acquisitions && waits_mem <= merged.locks.mem.acquisitions,
        "trace",
        format_args!(
            "lock-wait histograms hold {waits_pm}/{waits_mem} samples for {}/{} pm/mem \
             acquisitions",
            merged.locks.pm.acquisitions, merged.locks.mem.acquisitions
        ),
    )?;
    // Event-driven httpd accounting: the live gauge (accepts − closes)
    // never goes negative, timeout-driven closes are a subset of all
    // closes, parked connections resume at most once, and the ready-
    // batch histogram holds exactly one sample per event-loop poll —
    // every iteration records its ready-set size, empty ones included.
    check(
        merged.httpd.closes <= merged.httpd.accepts,
        "trace",
        format_args!(
            "httpd ledger: {} closes exceed {} accepts",
            merged.httpd.closes, merged.httpd.accepts
        ),
    )?;
    check(
        merged.httpd.timeouts_keepalive
            + merged.httpd.timeouts_header
            + merged.httpd.timeouts_drain
            <= merged.httpd.closes,
        "trace",
        format_args!(
            "httpd timeouts {}+{}+{} exceed {} closes",
            merged.httpd.timeouts_keepalive,
            merged.httpd.timeouts_header,
            merged.httpd.timeouts_drain,
            merged.httpd.closes
        ),
    )?;
    check(
        merged.httpd.unparked <= merged.httpd.parked,
        "trace",
        format_args!(
            "httpd backpressure: {} unparked but only {} parked",
            merged.httpd.unparked, merged.httpd.parked
        ),
    )?;
    ready.wf()?;
    check(
        ready.count() == merged.httpd.polls,
        "trace",
        format_args!(
            "ready-batch histogram holds {} samples for {} polls",
            ready.count(),
            merged.httpd.polls
        ),
    )?;
    // Multi-tenant-scheduler accounting: a parked thread resumes at
    // most once per park, an account unthrottles at most once per
    // throttle, and the pick-steps histograms hold exactly one sample
    // per run-queue pick — `sched_pick` moves both under the same shard
    // lock, so a drifted pair means a lost or forged sample.
    check(
        merged.sched.unparked <= merged.sched.parked,
        "trace",
        format_args!(
            "sched parking: {} unparked but only {} parked",
            merged.sched.unparked, merged.sched.parked
        ),
    )?;
    check(
        merged.sched.unthrottles <= merged.sched.throttles,
        "trace",
        format_args!(
            "sched budgets: {} unthrottles but only {} throttles",
            merged.sched.unthrottles, merged.sched.throttles
        ),
    )?;
    check(
        picks == merged.sched.picks,
        "trace",
        format_args!(
            "pick-steps histograms hold {picks} samples for {} picks",
            merged.sched.picks
        ),
    )?;
    // Every full audit folds the pending ledger first (that fold is
    // counted as an incremental audit), so incremental audits can never
    // trail full ones.
    check(
        merged.audit.incremental >= merged.audit.full,
        "trace",
        format_args!(
            "audit ledger: {} incremental audits but {} full audits",
            merged.audit.incremental, merged.audit.full
        ),
    )?;
    touched.wf()?;
    check(
        touched.count() == merged.audit.incremental,
        "trace",
        format_args!(
            "touched-entry histogram holds {} samples for {} incremental audits",
            touched.count(),
            merged.audit.incremental
        ),
    )?;
    check(
        touched.total_cycles() == merged.audit.touched_entries,
        "trace",
        format_args!(
            "touched-entry histogram sums {} entries but counters saw {}",
            touched.total_cycles(),
            merged.audit.touched_entries
        ),
    )?;
    check(
        kind_totals[EventKind::SyscallEnter.index()] == enter_total
            && kind_totals[EventKind::SyscallExit.index()] == exit_total,
        "trace",
        "per-kind syscall stats disagree with event counts",
    )?;
    let mut low = lock_recovering(&sink.low_water);
    merged.monotone_since(&low)?;
    *low = merged;
    Ok(())
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

    /// `true` when a sink is attached.
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// Emits on the attributed CPU (no-op when detached).
    pub fn emit(&self, ev: KernelEvent) {
        if let Some(sink) = &self.0 {
            sink.emit(ev);
        }
    }

    /// Counts an IPC fastpath outcome (no-op when detached).
    pub fn fastpath(&self, outcome: FastpathOutcome) {
        if let Some(sink) = &self.0 {
            sink.fastpath_event(outcome);
        }
    }

    /// Counts `n` batched-VM-datapath observations (no-op when
    /// detached).
    pub fn vm(&self, outcome: VmOutcome, n: u64) {
        if let Some(sink) = &self.0 {
            sink.vm_event(outcome, n);
        }
    }

    /// Counts `n` zero-copy-network-datapath observations (no-op when
    /// detached).
    pub fn net(&self, outcome: NetOutcome, n: u64) {
        if let Some(sink) = &self.0 {
            sink.net_event(outcome, n);
        }
    }

    /// Counts `n` zero-copy-block-datapath observations (no-op when
    /// detached).
    pub fn blk(&self, outcome: BlkOutcome, n: u64) {
        if let Some(sink) = &self.0 {
            sink.blk_event(outcome, n);
        }
    }

    /// Counts `n` node-replication observations (no-op when detached).
    pub fn nr(&self, outcome: NrOutcome, n: u64) {
        if let Some(sink) = &self.0 {
            sink.nr_event(outcome, n);
        }
    }

    /// Counts `n` event-driven-httpd observations (no-op when
    /// detached).
    pub fn httpd(&self, outcome: HttpdOutcome, n: u64) {
        if let Some(sink) = &self.0 {
            sink.httpd_event(outcome, n);
        }
    }

    /// Records one run-queue pick that touched `steps` list heads and
    /// nodes (no-op when detached).
    pub fn sched_pick(&self, steps: u64) {
        if let Some(sink) = &self.0 {
            sink.sched_pick(steps);
        }
    }

    /// Counts `n` multi-tenant-scheduler observations (no-op when
    /// detached).
    pub fn sched(&self, outcome: SchedOutcome, n: u64) {
        if let Some(sink) = &self.0 {
            sink.sched_event(outcome, n);
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
        sink.net_event(NetOutcome::PoolAcquire, 32);
        sink.net_event(NetOutcome::RxBatch, 32);
        sink.net_event(NetOutcome::SteerHit, 32);
        // The batch is transmitted — and released — on the other CPU:
        // the ledger must still balance on the merged view.
        sink.set_cpu(1);
        sink.net_event(NetOutcome::TxBatch, 32);
        sink.net_event(NetOutcome::PoolRelease, 24);
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
        sink.net_event(NetOutcome::PoolRelease, 8);
        assert_eq!(sink.net_in_flight(), 0);
        assert!(trace_wf(&sink).is_ok());
    }

    #[test]
    fn blk_events_accumulate_and_balance_the_pool_ledger() {
        let sink = TraceSink::new(2, 16);
        sink.set_cpu(0);
        sink.blk_event(BlkOutcome::PoolAcquire, 32);
        sink.blk_event(BlkOutcome::SubmitBatch, 32);
        // Completions are reaped — and buffers released — on the other
        // CPU: the ledger must still balance on the merged view.
        sink.set_cpu(1);
        sink.blk_event(BlkOutcome::ReapBatch, 32);
        sink.blk_event(BlkOutcome::Wakeup, 1);
        sink.blk_event(BlkOutcome::PoolRelease, 24);
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
        sink.blk_event(BlkOutcome::PoolRelease, 8);
        assert_eq!(sink.blk_in_flight(), 0);
        assert!(trace_wf(&sink).is_ok());
    }

    #[test]
    fn nr_events_accumulate_and_ledger_appends_when_recording() {
        let sink = TraceSink::new(2, 8);
        sink.set_cpu(0);
        sink.nr_event(NrOutcome::Append, 3);
        sink.nr_event(NrOutcome::CombineBatch, 1);
        sink.nr_event(NrOutcome::Replay, 3);
        sink.set_cpu(1);
        sink.nr_event(NrOutcome::Replay, 3);
        sink.nr_event(NrOutcome::ReadLocal, 10);
        sink.nr_event(NrOutcome::FallbackLocked, 2);
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
        sink.nr_event(NrOutcome::Append, 2);
        sink.nr_event(NrOutcome::ReadLocal, 1);
        assert_eq!(sink.audit_ledger_len(), 1, "only appends enter the ledger");
        let mut drained = Vec::new();
        sink.drain_audit_ledgers(&mut drained);
        assert_eq!(drained, vec![AuditDelta::NrAppended(2)]);
    }

    #[test]
    fn sched_events_accumulate_and_picks_balance_the_histogram() {
        let sink = TraceSink::new(2, 8);
        sink.set_cpu(0);
        sink.sched_event(SchedOutcome::Enqueue, 3);
        sink.sched_pick(120);
        sink.sched_event(SchedOutcome::Park, 2);
        sink.sched_event(SchedOutcome::Throttle, 1);
        sink.set_cpu(1);
        sink.sched_pick(80);
        sink.sched_event(SchedOutcome::Unpark, 2);
        sink.sched_event(SchedOutcome::Unthrottle, 1);
        sink.sched_event(SchedOutcome::Refill, 1);
        sink.sched_event(SchedOutcome::InheritHandoff, 4);
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
        sink.sched_event(SchedOutcome::Unpark, 1);
        assert!(trace_wf(&sink).is_err(), "unpark without a park must fail");
        let sink = TraceSink::new(1, 8);
        sink.set_cpu(0);
        sink.sched_pick(50);
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
        sink.nr_event(NrOutcome::Append, 1);
        sink.nr_event(NrOutcome::CombineBatch, 1);
        assert!(trace_wf(&sink).is_ok());
        sink.nr_event(NrOutcome::CombineBatch, 1);
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
        sink.blk_event(BlkOutcome::SubmitBatch, 4);
        sink.blk_event(BlkOutcome::ReapBatch, 4);
        assert!(trace_wf(&sink).is_ok());
        sink.blk_event(BlkOutcome::ReapBatch, 1);
        assert!(
            trace_wf(&sink).is_err(),
            "reaping more I/Os than were submitted must fail wf"
        );
    }

    #[test]
    fn wf_rejects_unbalanced_blk_pool_ledger() {
        let sink = TraceSink::new(1, 8);
        sink.set_cpu(0);
        sink.blk_event(BlkOutcome::PoolAcquire, 4);
        assert!(trace_wf(&sink).is_ok(), "in-flight slots are accounted");
        lock_recovering(&sink.shards[0]).counters.blk.pool_released += 1;
        assert!(trace_wf(&sink).is_err(), "ledger imbalance must fail wf");
    }

    #[test]
    fn wf_rejects_unbalanced_pool_ledger() {
        let sink = TraceSink::new(1, 8);
        sink.set_cpu(0);
        sink.net_event(NetOutcome::PoolAcquire, 4);
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
