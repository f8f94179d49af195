//! Monotone per-subsystem counter blocks.
//!
//! Counters only ever increase (the `trace_wf` audit enforces this
//! between checks via a low-water mark); a decreasing counter would mean
//! lost events.

use atmo_spec::harness::{check, VerifResult};

/// Process-manager counters (scheduling and IPC).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PmCounters {
    /// Times a CPU's running thread changed.
    pub context_switches: u64,
    /// Messages sent over endpoints (send/call/reply deliveries).
    pub ipc_sends: u64,
    /// Messages received from endpoints (recv/poll completions).
    pub ipc_recvs: u64,
    /// Send/recv operations completed by direct rendezvous with an
    /// already-waiting partner (the paper's IPC fast path).
    pub rendezvous: u64,
    /// Direct-handoff fastpath statistics (Call/ReplyRecv).
    pub fastpath: FastpathCounters,
}

/// IPC fastpath hit/miss statistics. Hits are direct handoffs that
/// switched `current` straight to the partner; each `fallback_*` field
/// counts one reason the fastpath bailed to the slow rendezvous.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FastpathCounters {
    /// Direct handoffs performed.
    pub hits: u64,
    /// Partner queue was absent or on the sending side.
    pub fallback_wrong_side: u64,
    /// Endpoint queue full — the slow path's capacity check fired.
    pub fallback_queue_full: u64,
    /// Partner's home CPU differs from the caller's.
    pub fallback_cross_cpu: u64,
    /// Payload carries a capability grant that needs the mem domain.
    pub fallback_cap_transfer: u64,
    /// Handoff budget exhausted — yielded to the run queue instead.
    pub fallback_budget: u64,
    /// Descriptor-slot cache lookups that skipped validation.
    pub slot_cache_hits: u64,
    /// Descriptor-slot cache lookups that fell through to the table.
    pub slot_cache_misses: u64,
}

impl FastpathCounters {
    fn merge(&mut self, other: &FastpathCounters) {
        self.hits += other.hits;
        self.fallback_wrong_side += other.fallback_wrong_side;
        self.fallback_queue_full += other.fallback_queue_full;
        self.fallback_cross_cpu += other.fallback_cross_cpu;
        self.fallback_cap_transfer += other.fallback_cap_transfer;
        self.fallback_budget += other.fallback_budget;
        self.slot_cache_hits += other.slot_cache_hits;
        self.slot_cache_misses += other.slot_cache_misses;
    }

    /// Total fastpath attempts that missed, across all reasons.
    pub fn fallbacks(&self) -> u64 {
        self.fallback_wrong_side
            + self.fallback_queue_full
            + self.fallback_cross_cpu
            + self.fallback_cap_transfer
            + self.fallback_budget
    }
}

/// Page-allocator counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Allocation operations.
    pub allocs: u64,
    /// 4 KiB frames handed out.
    pub frames_allocated: u64,
    /// Free operations.
    pub frees: u64,
    /// 4 KiB frames returned.
    pub frames_freed: u64,
}

/// Page-table counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PtableCounters {
    /// Leaf entries written.
    pub maps: u64,
    /// Leaf entries cleared.
    pub unmaps: u64,
    /// 4 KiB frames covered by written leaves.
    pub frames_mapped: u64,
    /// 4 KiB frames uncovered by cleared leaves.
    pub frames_unmapped: u64,
}

/// Batched-VM-datapath counters (walk cache, superpage promotion, and
/// deferred TLB shootdowns). Counter-only — like
/// [`FastpathCounters`], these annotate work whose ring events are
/// already emitted by the allocator and page table, so they never enter
/// the per-kind event reconciliation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmCounters {
    /// Batched leaf fills that reused the cached L1 walk instead of
    /// resolving the L3→L2→L1 chain again.
    pub map_batch_hits: u64,
    /// 512-page runs promoted to a single 2 MiB entry.
    pub superpage_promotions: u64,
    /// Promoted entries split back into 512 4 KiB entries (partial
    /// unmap or DMA pinning inside the region).
    pub superpage_demotions: u64,
    /// Pages whose TLB invalidation was queued for a batched shootdown.
    pub tlb_shootdowns_deferred: u64,
    /// Pages invalidated by batched shootdown flushes. Never exceeds
    /// the deferred count on a shard: a flush only drains what the same
    /// syscall queued (`trace_wf` checks this).
    pub tlb_shootdowns_flushed: u64,
}

impl VmCounters {
    fn merge(&mut self, other: &VmCounters) {
        self.map_batch_hits += other.map_batch_hits;
        self.superpage_promotions += other.superpage_promotions;
        self.superpage_demotions += other.superpage_demotions;
        self.tlb_shootdowns_deferred += other.tlb_shootdowns_deferred;
        self.tlb_shootdowns_flushed += other.tlb_shootdowns_flushed;
    }
}

/// Zero-copy network datapath counters (packet-buffer pool, batched
/// zero-copy RX/TX, and RSS flow steering). Counter-only — like
/// [`VmCounters`], they annotate datapath work whose ring events (if
/// any) are emitted by the driver, so they never enter the per-kind
/// event reconciliation. The pool gauge `acquired - released` is the
/// number of `PktBuf` handles in flight; `trace_wf` checks it against
/// the sink's in-flight gauge on the merged view (a handle may be
/// released on a different CPU than it was acquired on, so the equation
/// holds globally, not per shard).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Pool slots handed out (`PktBuf` handles created).
    pub pool_acquired: u64,
    /// Pool slots returned.
    pub pool_released: u64,
    /// Acquire attempts that found the pool empty (backpressure events,
    /// not failures — the datapath retries after draining TX).
    pub pool_exhausted: u64,
    /// Zero-copy receive batches.
    pub rx_zc_batches: u64,
    /// Frames across all zero-copy receive batches.
    pub rx_zc_frames: u64,
    /// Zero-copy transmit batches.
    pub tx_zc_batches: u64,
    /// Frames across all zero-copy transmit batches.
    pub tx_zc_frames: u64,
    /// Frames whose flow key steered to the local queue's CPU.
    pub steer_hits: u64,
    /// Frames that arrived on the wrong queue for their flow.
    pub steer_misses: u64,
    /// Frames copied out of the pool into an owned buffer (the non-zero-
    /// copy fallback, e.g. for consumers still wanting a `Packet`).
    pub fallback_copies: u64,
}

impl NetCounters {
    fn merge(&mut self, other: &NetCounters) {
        self.pool_acquired += other.pool_acquired;
        self.pool_released += other.pool_released;
        self.pool_exhausted += other.pool_exhausted;
        self.rx_zc_batches += other.rx_zc_batches;
        self.rx_zc_frames += other.rx_zc_frames;
        self.tx_zc_batches += other.tx_zc_batches;
        self.tx_zc_frames += other.tx_zc_frames;
        self.steer_hits += other.steer_hits;
        self.steer_misses += other.steer_misses;
        self.fallback_copies += other.fallback_copies;
    }
}

/// Zero-copy block datapath counters (block-buffer pool, batched SQ
/// submission and CQ reaping, and completion wakeups). Counter-only —
/// like [`NetCounters`], they annotate datapath work whose ring events
/// (if any) are emitted by the driver or dispatcher, so they never
/// enter the per-kind event reconciliation. The pool gauge
/// `acquired - released` is the number of `BlkBuf` handles in flight;
/// `trace_wf` checks it against the sink's blk in-flight gauge on the
/// merged view, and additionally that reaped I/Os never exceed
/// submitted I/Os globally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlkCounters {
    /// Pool slots handed out (`BlkBuf` handles created).
    pub pool_acquired: u64,
    /// Pool slots returned.
    pub pool_released: u64,
    /// Acquire attempts that found the pool empty (backpressure events,
    /// not failures — the datapath reaps completions and retries).
    pub pool_exhausted: u64,
    /// Batched SQ doorbell rings.
    pub submit_batches: u64,
    /// I/O commands across all submission batches.
    pub submit_ios: u64,
    /// Batched CQ reap passes that returned at least one completion.
    pub reap_batches: u64,
    /// Completions across all reap batches.
    pub reap_ios: u64,
    /// Parked reapers woken by a completion (modeled on the Call/
    /// ReplyRecv direct-handoff fast path).
    pub wakeups: u64,
    /// Blocks copied out of the pool into an owned buffer (the non-
    /// zero-copy fallback).
    pub fallback_copies: u64,
}

impl BlkCounters {
    fn merge(&mut self, other: &BlkCounters) {
        self.pool_acquired += other.pool_acquired;
        self.pool_released += other.pool_released;
        self.pool_exhausted += other.pool_exhausted;
        self.submit_batches += other.submit_batches;
        self.submit_ios += other.submit_ios;
        self.reap_batches += other.reap_batches;
        self.reap_ios += other.reap_ios;
        self.wakeups += other.wakeups;
        self.fallback_copies += other.fallback_copies;
    }
}

/// Node-replication counters (per-CPU replicas over the shared op
/// log). Counter-only — like [`VmCounters`], they annotate datapath
/// work and never enter the per-kind event reconciliation. `trace_wf`
/// checks `combine_batches <= appended` (every flat-combining flush
/// carries at least one op) and
/// `replayed <= appended * (replicas + 1)` (each appended op is
/// replayed at most once per replica plus the auditor's shadow
/// replica) on the merged view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NrCounters {
    /// Ops appended to the shared operation log.
    pub appended: u64,
    /// Flat-combining flushes performed (each drains every CPU's
    /// pending slot into the log; only non-empty drains count).
    pub combine_batches: u64,
    /// Ops replayed onto replicas (local post-update replay, read-path
    /// catch-up, and epoch synchronization).
    pub replayed: u64,
    /// Read syscalls answered from the local replica, lock-free.
    pub read_local: u64,
    /// Read syscalls served by the locked domain path instead (node
    /// replication disabled, or a unified/big-lock dispatch).
    pub fallback_locked: u64,
}

impl NrCounters {
    fn merge(&mut self, other: &NrCounters) {
        self.appended += other.appended;
        self.combine_batches += other.combine_batches;
        self.replayed += other.replayed;
        self.read_local += other.read_local;
        self.fallback_locked += other.fallback_locked;
    }
}

/// Well-formedness audit counters. `incremental` counts O(touched)
/// ledger-fold audits, `full` counts stop-the-world flat audits, and
/// `touched_entries` accumulates the ledger entries folded by
/// incremental audits. Every full audit folds the pending ledger first
/// (that fold *is* an incremental audit), so `incremental >= full`
/// always — `trace_wf` checks this on the merged view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditCounters {
    /// Incremental (ledger-fold) audits performed.
    pub incremental: u64,
    /// Full stop-the-world audits performed.
    pub full: u64,
    /// Ledger entries folded across all incremental audits.
    pub touched_entries: u64,
}

impl AuditCounters {
    fn merge(&mut self, other: &AuditCounters) {
        self.incremental += other.incremental;
        self.full += other.full;
        self.touched_entries += other.touched_entries;
    }
}

/// Event-driven httpd counters (per-CPU connection shards, timer
/// wheels, readiness rings). Counter-only — like [`NetCounters`] they
/// annotate app-level datapath work and never enter the per-kind event
/// reconciliation. `trace_wf` checks `closes <= accepts` (the live
/// gauge `accepts - closes` never goes negative), that timeout-driven
/// closes never exceed total closes, that `unparked <= parked`
/// (backpressure parks resolve at most once), and that the sink's
/// ready-batch histogram holds exactly `polls` samples — every
/// event-loop iteration records its ready-set size, including empty
/// ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HttpdCounters {
    /// Connections opened (table slots handed out).
    pub accepts: u64,
    /// Connections closed (slot recycled under a new generation).
    pub closes: u64,
    /// Requests fully served (response streamed to TX).
    pub served: u64,
    /// Closes forced by the keepalive timer (idle connections).
    pub timeouts_keepalive: u64,
    /// Closes forced by the read-header timer (slowloris).
    pub timeouts_header: u64,
    /// Closes forced by the write-drain timer (stuck TX).
    pub timeouts_drain: u64,
    /// Timer-wheel nodes moved (or fired) by level-boundary cascades.
    pub wheel_cascades: u64,
    /// Connections parked on packet-pool exhaustion (backpressure).
    pub parked: u64,
    /// Parked connections resumed after TX freed pool slots.
    pub unparked: u64,
    /// Requests rejected as malformed by the incremental parser.
    pub malformed: u64,
    /// Event-loop iterations (ready-ring drains, including empty ones).
    pub polls: u64,
}

impl HttpdCounters {
    fn merge(&mut self, other: &HttpdCounters) {
        self.accepts += other.accepts;
        self.closes += other.closes;
        self.served += other.served;
        self.timeouts_keepalive += other.timeouts_keepalive;
        self.timeouts_header += other.timeouts_header;
        self.timeouts_drain += other.timeouts_drain;
        self.wheel_cascades += other.wheel_cascades;
        self.parked += other.parked;
        self.unparked += other.unparked;
        self.malformed += other.malformed;
        self.polls += other.polls;
    }
}

/// Multi-tenant scheduler counters (bitmap-indexed MLFQ, per-container
/// budget accounts, IPC budget inheritance). Counter-only — like
/// [`FastpathCounters`], they annotate scheduling work whose ring
/// events (context switches) are already emitted, so they never enter
/// the per-kind event reconciliation. `trace_wf` checks that the sink's
/// pick-steps histograms hold exactly `picks` samples, that
/// `unparked <= parked` (a parked thread resumes at most once per
/// park), and `unthrottles <= throttles` on the merged view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Run-queue picks (dispatch/rotate decisions that scanned the
    /// priority bitmap). Each records one pick-steps sample.
    pub picks: u64,
    /// Threads enqueued onto a run-queue level.
    pub enqueues: u64,
    /// Threads removed from the run queues (dequeue or teardown).
    pub removes: u64,
    /// Threads parked off the run queues (container throttled).
    pub parked: u64,
    /// Parked threads re-enqueued after a budget refill.
    pub unparked: u64,
    /// Container accounts throttled on budget exhaustion.
    pub throttles: u64,
    /// Container accounts unthrottled by the refill wheel.
    pub unthrottles: u64,
    /// Budget refills performed by the hierarchical timer wheel.
    pub refills: u64,
    /// IPC direct handoffs that inherited the client's budget account.
    pub inherited_handoffs: u64,
    /// MLFQ level demotions (a thread exhausted its slice).
    pub demotions: u64,
}

impl SchedCounters {
    fn merge(&mut self, other: &SchedCounters) {
        self.picks += other.picks;
        self.enqueues += other.enqueues;
        self.removes += other.removes;
        self.parked += other.parked;
        self.unparked += other.unparked;
        self.throttles += other.throttles;
        self.unthrottles += other.unthrottles;
        self.refills += other.refills;
        self.inherited_handoffs += other.inherited_handoffs;
        self.demotions += other.demotions;
    }
}

/// Driver counters (ixgbe + NVMe).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriverCounters {
    /// Receive/completion batches.
    pub rx_batches: u64,
    /// Items across all receive batches.
    pub rx_items: u64,
    /// Transmit/submission batches.
    pub tx_batches: u64,
    /// Items across all transmit batches.
    pub tx_items: u64,
}

/// One lock domain's acquisition statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockCounters {
    /// Successful acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that found the lock held (slow path).
    pub contended: u64,
    /// Longest single hold, in modeled cycles: from the acquirer's
    /// meter entering the domain to the release time it published (0
    /// for the trace shards, which serialize no modeled time). Only
    /// ever grows, so it stays monotone under the low-water audit.
    pub hold_max_cycles: u64,
}

impl LockCounters {
    fn merge(&mut self, other: &LockCounters) {
        self.acquisitions += other.acquisitions;
        self.contended += other.contended;
        self.hold_max_cycles = self.hold_max_cycles.max(other.hold_max_cycles);
    }
}

/// Per-domain lock statistics (satellite of the lock-sharding refactor).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LocksCounters {
    /// Process-manager domain lock.
    pub pm: LockCounters,
    /// Memory domain lock.
    pub mem: LockCounters,
    /// Trace-shard locks.
    pub trace: LockCounters,
}

/// All subsystem counter blocks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Process manager.
    pub pm: PmCounters,
    /// Page allocator.
    pub mem: MemCounters,
    /// Page tables.
    pub ptable: PtableCounters,
    /// Batched VM datapath.
    pub vm: VmCounters,
    /// Drivers.
    pub drivers: DriverCounters,
    /// Zero-copy network datapath.
    pub net: NetCounters,
    /// Zero-copy block datapath.
    pub blk: BlkCounters,
    /// Node-replicated read paths.
    pub nr: NrCounters,
    /// Event-driven httpd (connection shards, wheels, readiness).
    pub httpd: HttpdCounters,
    /// Multi-tenant scheduler (MLFQ picks, budgets, inheritance).
    pub sched: SchedCounters,
    /// Well-formedness audits.
    pub audit: AuditCounters,
    /// Domain locks.
    pub locks: LocksCounters,
}

impl Counters {
    /// Every counter as a labelled flat list (for reports and the
    /// monotonicity audit).
    pub fn flat(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("pm.context_switches", self.pm.context_switches),
            ("pm.ipc_sends", self.pm.ipc_sends),
            ("pm.ipc_recvs", self.pm.ipc_recvs),
            ("pm.rendezvous", self.pm.rendezvous),
            ("pm.fastpath.hits", self.pm.fastpath.hits),
            (
                "pm.fastpath.fallback_wrong_side",
                self.pm.fastpath.fallback_wrong_side,
            ),
            (
                "pm.fastpath.fallback_queue_full",
                self.pm.fastpath.fallback_queue_full,
            ),
            (
                "pm.fastpath.fallback_cross_cpu",
                self.pm.fastpath.fallback_cross_cpu,
            ),
            (
                "pm.fastpath.fallback_cap_transfer",
                self.pm.fastpath.fallback_cap_transfer,
            ),
            (
                "pm.fastpath.fallback_budget",
                self.pm.fastpath.fallback_budget,
            ),
            (
                "pm.fastpath.slot_cache_hits",
                self.pm.fastpath.slot_cache_hits,
            ),
            (
                "pm.fastpath.slot_cache_misses",
                self.pm.fastpath.slot_cache_misses,
            ),
            ("mem.allocs", self.mem.allocs),
            ("mem.frames_allocated", self.mem.frames_allocated),
            ("mem.frees", self.mem.frees),
            ("mem.frames_freed", self.mem.frames_freed),
            ("ptable.maps", self.ptable.maps),
            ("ptable.unmaps", self.ptable.unmaps),
            ("ptable.frames_mapped", self.ptable.frames_mapped),
            ("ptable.frames_unmapped", self.ptable.frames_unmapped),
            ("vm.map_batch_hits", self.vm.map_batch_hits),
            ("vm.superpage_promotions", self.vm.superpage_promotions),
            ("vm.superpage_demotions", self.vm.superpage_demotions),
            (
                "vm.tlb_shootdowns_deferred",
                self.vm.tlb_shootdowns_deferred,
            ),
            ("vm.tlb_shootdowns_flushed", self.vm.tlb_shootdowns_flushed),
            ("drivers.rx_batches", self.drivers.rx_batches),
            ("drivers.rx_items", self.drivers.rx_items),
            ("drivers.tx_batches", self.drivers.tx_batches),
            ("drivers.tx_items", self.drivers.tx_items),
            ("net.pool_acquired", self.net.pool_acquired),
            ("net.pool_released", self.net.pool_released),
            ("net.pool_exhausted", self.net.pool_exhausted),
            ("net.rx_zc_batches", self.net.rx_zc_batches),
            ("net.rx_zc_frames", self.net.rx_zc_frames),
            ("net.tx_zc_batches", self.net.tx_zc_batches),
            ("net.tx_zc_frames", self.net.tx_zc_frames),
            ("net.steer_hits", self.net.steer_hits),
            ("net.steer_misses", self.net.steer_misses),
            ("net.fallback_copies", self.net.fallback_copies),
            ("blk.pool_acquired", self.blk.pool_acquired),
            ("blk.pool_released", self.blk.pool_released),
            ("blk.pool_exhausted", self.blk.pool_exhausted),
            ("blk.submit_batches", self.blk.submit_batches),
            ("blk.submit_ios", self.blk.submit_ios),
            ("blk.reap_batches", self.blk.reap_batches),
            ("blk.reap_ios", self.blk.reap_ios),
            ("blk.wakeups", self.blk.wakeups),
            ("blk.fallback_copies", self.blk.fallback_copies),
            ("nr.appended", self.nr.appended),
            ("nr.combine_batch", self.nr.combine_batches),
            ("nr.replay", self.nr.replayed),
            ("nr.read_local", self.nr.read_local),
            ("nr.fallback_locked", self.nr.fallback_locked),
            ("httpd.accepts", self.httpd.accepts),
            ("httpd.closes", self.httpd.closes),
            ("httpd.served", self.httpd.served),
            ("httpd.timeouts_keepalive", self.httpd.timeouts_keepalive),
            ("httpd.timeouts_header", self.httpd.timeouts_header),
            ("httpd.timeouts_drain", self.httpd.timeouts_drain),
            ("httpd.wheel_cascades", self.httpd.wheel_cascades),
            ("httpd.parked", self.httpd.parked),
            ("httpd.unparked", self.httpd.unparked),
            ("httpd.malformed", self.httpd.malformed),
            ("httpd.polls", self.httpd.polls),
            ("sched.picks", self.sched.picks),
            ("sched.enqueues", self.sched.enqueues),
            ("sched.removes", self.sched.removes),
            ("sched.parked", self.sched.parked),
            ("sched.unparked", self.sched.unparked),
            ("sched.throttles", self.sched.throttles),
            ("sched.unthrottles", self.sched.unthrottles),
            ("sched.refills", self.sched.refills),
            ("sched.inherited_handoffs", self.sched.inherited_handoffs),
            ("sched.demotions", self.sched.demotions),
            ("audit.incremental", self.audit.incremental),
            ("audit.full", self.audit.full),
            ("audit.touched_entries", self.audit.touched_entries),
            ("locks.pm.acquisitions", self.locks.pm.acquisitions),
            ("locks.pm.contended", self.locks.pm.contended),
            ("locks.pm.hold_max_cycles", self.locks.pm.hold_max_cycles),
            ("locks.mem.acquisitions", self.locks.mem.acquisitions),
            ("locks.mem.contended", self.locks.mem.contended),
            ("locks.mem.hold_max_cycles", self.locks.mem.hold_max_cycles),
            ("locks.trace.acquisitions", self.locks.trace.acquisitions),
            ("locks.trace.contended", self.locks.trace.contended),
            (
                "locks.trace.hold_max_cycles",
                self.locks.trace.hold_max_cycles,
            ),
        ]
    }

    /// Folds another counter block into this one: event counts sum, hold
    /// maxima take the max. Used to merge per-CPU trace shards into one
    /// snapshot view.
    pub fn merge(&mut self, other: &Counters) {
        self.pm.context_switches += other.pm.context_switches;
        self.pm.ipc_sends += other.pm.ipc_sends;
        self.pm.ipc_recvs += other.pm.ipc_recvs;
        self.pm.rendezvous += other.pm.rendezvous;
        self.pm.fastpath.merge(&other.pm.fastpath);
        self.mem.allocs += other.mem.allocs;
        self.mem.frames_allocated += other.mem.frames_allocated;
        self.mem.frees += other.mem.frees;
        self.mem.frames_freed += other.mem.frames_freed;
        self.ptable.maps += other.ptable.maps;
        self.ptable.unmaps += other.ptable.unmaps;
        self.ptable.frames_mapped += other.ptable.frames_mapped;
        self.ptable.frames_unmapped += other.ptable.frames_unmapped;
        self.vm.merge(&other.vm);
        self.drivers.rx_batches += other.drivers.rx_batches;
        self.drivers.rx_items += other.drivers.rx_items;
        self.drivers.tx_batches += other.drivers.tx_batches;
        self.drivers.tx_items += other.drivers.tx_items;
        self.net.merge(&other.net);
        self.blk.merge(&other.blk);
        self.nr.merge(&other.nr);
        self.httpd.merge(&other.httpd);
        self.sched.merge(&other.sched);
        self.audit.merge(&other.audit);
        self.locks.pm.merge(&other.locks.pm);
        self.locks.mem.merge(&other.locks.mem);
        self.locks.trace.merge(&other.locks.trace);
    }

    /// Checks that no counter has decreased relative to `older`.
    pub fn monotone_since(&self, older: &Counters) -> VerifResult {
        for ((name, now), (_, before)) in self.flat().iter().zip(older.flat().iter()) {
            check(
                now >= before,
                "trace_counters",
                format_args!("counter {name} decreased: {before} -> {now}"),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_since_accepts_growth_and_rejects_shrink() {
        let mut old = Counters::default();
        old.pm.ipc_sends = 5;
        let mut new = old;
        new.pm.ipc_sends = 9;
        assert!(new.monotone_since(&old).is_ok());
        assert!(old.monotone_since(&new).is_err());
    }

    #[test]
    fn flat_covers_all_blocks() {
        let c = Counters::default();
        let names: Vec<&str> = c.flat().iter().map(|(n, _)| *n).collect();
        assert!(names.iter().any(|n| n.starts_with("pm.")));
        assert!(names.iter().any(|n| n.starts_with("mem.")));
        assert!(names.iter().any(|n| n.starts_with("ptable.")));
        assert!(names.iter().any(|n| n.starts_with("vm.")));
        assert!(names.iter().any(|n| n.starts_with("drivers.")));
        assert!(names.iter().any(|n| n.starts_with("net.")));
        assert!(names.iter().any(|n| n.starts_with("blk.")));
        assert!(names.iter().any(|n| n.starts_with("nr.")));
        assert!(names.iter().any(|n| n.starts_with("httpd.")));
        assert!(names.iter().any(|n| n.starts_with("sched.")));
        assert!(names.iter().any(|n| n.starts_with("locks.")));
    }

    #[test]
    fn merge_sums_counts_and_maxes_holds() {
        let mut a = Counters::default();
        a.pm.ipc_sends = 3;
        a.locks.pm.acquisitions = 10;
        a.locks.pm.hold_max_cycles = 500;
        let mut b = Counters::default();
        b.pm.ipc_sends = 4;
        b.locks.pm.acquisitions = 1;
        b.locks.pm.hold_max_cycles = 900;
        a.merge(&b);
        assert_eq!(a.pm.ipc_sends, 7);
        assert_eq!(a.locks.pm.acquisitions, 11);
        assert_eq!(a.locks.pm.hold_max_cycles, 900, "max, not sum");
    }
}
