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

/// Multi-tenant scheduler counters (per-CPU FIFO run queues,
/// per-container budget accounts, IPC budget inheritance). Counter-only — like
/// [`FastpathCounters`], they annotate scheduling work whose ring
/// events (context switches) are already emitted, so they never enter
/// the per-kind event reconciliation. `trace_wf` checks that the sink's
/// pick-steps histograms hold exactly `picks` samples, that
/// `unparked <= parked` (a parked thread resumes at most once per
/// park), and `unthrottles <= throttles` on the merged view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Run-queue picks (dispatch/rotate decisions that probed the
    /// queue head). Each records one pick-steps sample.
    pub picks: u64,
    /// Threads enqueued onto a run queue.
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
    /// Multi-tenant scheduler (picks, budgets, inheritance).
    pub sched: SchedCounters,
    /// Well-formedness audits.
    pub audit: AuditCounters,
    /// Domain locks.
    pub locks: LocksCounters,
}

/// How one counter combines across per-CPU shards.
#[derive(Clone, Copy)]
enum Fold {
    /// Event counts add up.
    Sum,
    /// High-water marks take the largest.
    Max,
}

/// Leaf counters in a [`Counters`]: every leaf is a `u64`, so the size of
/// the struct counts them.
const LEAVES: usize = std::mem::size_of::<Counters>() / std::mem::size_of::<u64>();

impl Counters {
    /// Visits every counter exactly once: its dotted field path, how it
    /// folds across shards, and the field itself. [`flat`](Self::flat),
    /// [`merge`](Self::merge) and
    /// [`monotone_since`](Self::monotone_since) all derive from this one
    /// listing, so a counter missing here is missing everywhere — which
    /// `the_visitor_names_every_leaf_once` turns into a test failure.
    /// A table, one row per counter: kept unwrapped so a missing or
    /// doubled row shows at a glance.
    #[rustfmt::skip]
    fn visit(&mut self, mut f: impl FnMut(&'static str, Fold, &mut u64)) {
        use Fold::{Max, Sum};
        let Counters {
            pm, mem, ptable, vm, drivers, net, blk, nr, httpd, sched, audit, locks,
        } = self;
        let fp = &mut pm.fastpath;
        f("pm.context_switches", Sum, &mut pm.context_switches);
        f("pm.ipc_sends", Sum, &mut pm.ipc_sends);
        f("pm.ipc_recvs", Sum, &mut pm.ipc_recvs);
        f("pm.rendezvous", Sum, &mut pm.rendezvous);
        f("pm.fastpath.hits", Sum, &mut fp.hits);
        f("pm.fastpath.fallback_wrong_side", Sum, &mut fp.fallback_wrong_side);
        f("pm.fastpath.fallback_queue_full", Sum, &mut fp.fallback_queue_full);
        f("pm.fastpath.fallback_cross_cpu", Sum, &mut fp.fallback_cross_cpu);
        f("pm.fastpath.fallback_cap_transfer", Sum, &mut fp.fallback_cap_transfer);
        f("pm.fastpath.fallback_budget", Sum, &mut fp.fallback_budget);
        f("pm.fastpath.slot_cache_hits", Sum, &mut fp.slot_cache_hits);
        f("pm.fastpath.slot_cache_misses", Sum, &mut fp.slot_cache_misses);
        f("mem.allocs", Sum, &mut mem.allocs);
        f("mem.frames_allocated", Sum, &mut mem.frames_allocated);
        f("mem.frees", Sum, &mut mem.frees);
        f("mem.frames_freed", Sum, &mut mem.frames_freed);
        f("ptable.maps", Sum, &mut ptable.maps);
        f("ptable.unmaps", Sum, &mut ptable.unmaps);
        f("ptable.frames_mapped", Sum, &mut ptable.frames_mapped);
        f("ptable.frames_unmapped", Sum, &mut ptable.frames_unmapped);
        f("vm.map_batch_hits", Sum, &mut vm.map_batch_hits);
        f("vm.superpage_promotions", Sum, &mut vm.superpage_promotions);
        f("vm.superpage_demotions", Sum, &mut vm.superpage_demotions);
        f("vm.tlb_shootdowns_deferred", Sum, &mut vm.tlb_shootdowns_deferred);
        f("vm.tlb_shootdowns_flushed", Sum, &mut vm.tlb_shootdowns_flushed);
        f("drivers.rx_batches", Sum, &mut drivers.rx_batches);
        f("drivers.rx_items", Sum, &mut drivers.rx_items);
        f("drivers.tx_batches", Sum, &mut drivers.tx_batches);
        f("drivers.tx_items", Sum, &mut drivers.tx_items);
        f("net.pool_acquired", Sum, &mut net.pool_acquired);
        f("net.pool_released", Sum, &mut net.pool_released);
        f("net.pool_exhausted", Sum, &mut net.pool_exhausted);
        f("net.rx_zc_batches", Sum, &mut net.rx_zc_batches);
        f("net.rx_zc_frames", Sum, &mut net.rx_zc_frames);
        f("net.tx_zc_batches", Sum, &mut net.tx_zc_batches);
        f("net.tx_zc_frames", Sum, &mut net.tx_zc_frames);
        f("net.steer_hits", Sum, &mut net.steer_hits);
        f("net.steer_misses", Sum, &mut net.steer_misses);
        f("net.fallback_copies", Sum, &mut net.fallback_copies);
        f("blk.pool_acquired", Sum, &mut blk.pool_acquired);
        f("blk.pool_released", Sum, &mut blk.pool_released);
        f("blk.pool_exhausted", Sum, &mut blk.pool_exhausted);
        f("blk.submit_batches", Sum, &mut blk.submit_batches);
        f("blk.submit_ios", Sum, &mut blk.submit_ios);
        f("blk.reap_batches", Sum, &mut blk.reap_batches);
        f("blk.reap_ios", Sum, &mut blk.reap_ios);
        f("blk.wakeups", Sum, &mut blk.wakeups);
        f("blk.fallback_copies", Sum, &mut blk.fallback_copies);
        f("nr.appended", Sum, &mut nr.appended);
        f("nr.combine_batches", Sum, &mut nr.combine_batches);
        f("nr.replayed", Sum, &mut nr.replayed);
        f("nr.read_local", Sum, &mut nr.read_local);
        f("nr.fallback_locked", Sum, &mut nr.fallback_locked);
        f("httpd.accepts", Sum, &mut httpd.accepts);
        f("httpd.closes", Sum, &mut httpd.closes);
        f("httpd.served", Sum, &mut httpd.served);
        f("httpd.timeouts_keepalive", Sum, &mut httpd.timeouts_keepalive);
        f("httpd.timeouts_header", Sum, &mut httpd.timeouts_header);
        f("httpd.timeouts_drain", Sum, &mut httpd.timeouts_drain);
        f("httpd.wheel_cascades", Sum, &mut httpd.wheel_cascades);
        f("httpd.parked", Sum, &mut httpd.parked);
        f("httpd.unparked", Sum, &mut httpd.unparked);
        f("httpd.malformed", Sum, &mut httpd.malformed);
        f("httpd.polls", Sum, &mut httpd.polls);
        f("sched.picks", Sum, &mut sched.picks);
        f("sched.enqueues", Sum, &mut sched.enqueues);
        f("sched.removes", Sum, &mut sched.removes);
        f("sched.parked", Sum, &mut sched.parked);
        f("sched.unparked", Sum, &mut sched.unparked);
        f("sched.throttles", Sum, &mut sched.throttles);
        f("sched.unthrottles", Sum, &mut sched.unthrottles);
        f("sched.refills", Sum, &mut sched.refills);
        f("sched.inherited_handoffs", Sum, &mut sched.inherited_handoffs);
        f("audit.incremental", Sum, &mut audit.incremental);
        f("audit.full", Sum, &mut audit.full);
        f("audit.touched_entries", Sum, &mut audit.touched_entries);
        f("locks.pm.acquisitions", Sum, &mut locks.pm.acquisitions);
        f("locks.pm.contended", Sum, &mut locks.pm.contended);
        f("locks.pm.hold_max_cycles", Max, &mut locks.pm.hold_max_cycles);
        f("locks.mem.acquisitions", Sum, &mut locks.mem.acquisitions);
        f("locks.mem.contended", Sum, &mut locks.mem.contended);
        f("locks.mem.hold_max_cycles", Max, &mut locks.mem.hold_max_cycles);
        f("locks.trace.acquisitions", Sum, &mut locks.trace.acquisitions);
        f("locks.trace.contended", Sum, &mut locks.trace.contended);
        f("locks.trace.hold_max_cycles", Max, &mut locks.trace.hold_max_cycles);
    }

    /// Every counter's value, in visiting order.
    fn values(&self) -> [u64; LEAVES] {
        let (mut copy, mut out, mut i) = (*self, [0; LEAVES], 0);
        copy.visit(|_, _, v| {
            out[i] = *v;
            i += 1;
        });
        out
    }

    /// Every counter as a labelled flat list (for reports and the
    /// monotonicity audit).
    pub fn flat(&self) -> Vec<(&'static str, u64)> {
        let (mut copy, mut out) = (*self, Vec::with_capacity(LEAVES));
        copy.visit(|name, _, v| out.push((name, *v)));
        out
    }

    /// Folds another counter block into this one: event counts sum, hold
    /// maxima take the max. Used to merge per-CPU trace shards into one
    /// snapshot view.
    pub fn merge(&mut self, other: &Counters) {
        let (theirs, mut i) = (other.values(), 0);
        self.visit(|_, fold, mine| {
            match fold {
                Fold::Sum => *mine += theirs[i],
                Fold::Max => *mine = (*mine).max(theirs[i]),
            }
            i += 1;
        });
    }

    /// Checks that no counter has decreased relative to `older`.
    pub fn monotone_since(&self, older: &Counters) -> VerifResult {
        let (mut newer, before) = (*self, older.values());
        let (mut i, mut verdict) = (0, Ok(()));
        newer.visit(|name, _, now| {
            let before = before[i];
            i += 1;
            if verdict.is_ok() {
                verdict = check(
                    *now >= before,
                    "trace_counters",
                    format_args!("counter {name} decreased: {before} -> {now}"),
                );
            }
        });
        verdict
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

    /// Walks the derived `Debug` output for leaf field paths, so a field
    /// added to any block without a row in `visit()` fails here rather
    /// than silently escaping the merge and the monotonicity audit.
    #[test]
    fn the_visitor_names_every_leaf_once() {
        let mut path: Vec<&str> = Vec::new();
        let mut leaves = Vec::new();
        let debug = format!("{:#?}", Counters::default());
        for line in debug.lines().skip(1).map(str::trim) {
            match line.split_once(": ") {
                Some((name, rest)) if rest.ends_with('{') => path.push(name),
                Some((name, _)) => leaves.push([&path[..], &[name]].concat().join(".")),
                None => drop(path.pop()),
            }
        }
        let named: Vec<&str> = Counters::default().flat().iter().map(|(n, _)| *n).collect();
        assert_eq!(named, leaves, "visit() and the struct definitions disagree");
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
