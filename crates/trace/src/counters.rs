//! Monotone per-subsystem counter blocks, declared once.
//!
//! `counter_blocks!` below is the one listing of every counter: its
//! field and doc, how it folds across recorders, and the outcome
//! variant that bumps it, if any, by `1` or by the outcome's `n`. The
//! block structs, `Counters::visit` (and with it `flat`, `merge` and
//! `monotone_since`), the `*Outcome` enums and their counting all come
//! from it, so adding a counter is adding one row.
//!
//! Counters only ever increase (the `trace_wf` audit enforces this
//! between checks via a low-water mark); a decreasing counter would mean
//! lost events. The cross-counter balances are `trace_wf`'s named
//! equations.
//!
//! The listing also declares each block's recorder form, in `cells`:
//! the same fields as `Tally` cells, which only the recording thread
//! writes. Outcomes count into that form; readers `load` it back into
//! the plain blocks.

use std::sync::atomic::{AtomicU64, Ordering};

use atmo_spec::harness::{check, VerifResult};

/// One single-writer recorder cell. Only the thread that owns the
/// recorder writes it, so a bump is a relaxed load and store — no lock
/// and no atomic read-modify-write — while any thread may read it.
#[derive(Debug, Default)]
pub(crate) struct Tally(AtomicU64);

impl Tally {
    /// A cell holding `v`.
    pub(crate) fn new(v: u64) -> Self {
        Tally(AtomicU64::new(v))
    }

    /// The cell's value.
    pub(crate) fn load(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the cell (owner only).
    pub(crate) fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed)
    }

    /// Adds `n` (owner only).
    pub(crate) fn add(&self, n: u64) {
        self.set(self.load() + n)
    }

    /// Raises the cell to `v` if `v` is larger (owner only).
    pub(crate) fn raise(&self, v: u64) {
        if v > self.load() {
            self.set(v)
        }
    }
}

/// How one counter combines across recorders and CPUs.
#[derive(Clone, Copy)]
enum Fold {
    /// Event counts add up.
    Sum,
    /// High-water marks take the largest.
    Max,
}

/// Declares the counter blocks. Each block is a struct at one or more
/// paths in [`Counters`]; a block `counted by` an outcome enum gets that
/// enum, one variant per row that names one. A row is a `Sum`/`Max`
/// leaf counter, or a field holding another block (whose rows visit at
/// that block's own listing). `=> Variant += 1` (or `+= n`) declares the
/// variant and what it adds; `, also Variant += n` makes a variant
/// declared on an earlier row bump a second counter.
macro_rules! counter_blocks {
    ($(
        $(#[doc = $doc:literal])*
        $Block:ident $(counted by $Outcome:ident)? at [$($($seg:ident).+),*] $rows:tt
    )*) => {
        $(
            counter_blocks!(@block [$(#[doc = $doc])*] $Block $rows);
            counter_blocks!(@outcome [$($Outcome)?] [$($($seg).+),*] $Block $rows);
        )*

        /// Every block's recorder form: the same fields, as [`Tally`]
        /// cells.
        pub(crate) mod cells {
            use super::Tally;
            $(counter_blocks!(@cells $Block $rows);)*
        }

        /// Every counted observation, by the block its outcome enum counts
        /// into. [`TraceSink::count`](crate::TraceSink::count) takes any
        /// outcome enum through this.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Outcome {
            $($(
                #[doc = concat!("Counts into [`", stringify!($Block), "`].")]
                $Outcome($Outcome),
            )?)*
        }

        $($(
            impl From<$Outcome> for Outcome {
                fn from(o: $Outcome) -> Self {
                    Outcome::$Outcome(o)
                }
            }
        )?)*

        impl Counters {
            /// Visits every counter exactly once, in listing order: its
            /// dotted field path, how it folds across recorders, and the field
            /// itself. A counter missing here would be missing from
            /// `flat`, `merge` and `monotone_since` alike, which
            /// `the_visitor_names_every_leaf_once` turns into a test
            /// failure.
            fn visit(&mut self, mut f: impl FnMut(&'static str, Fold, &mut u64)) {
                $($(counter_blocks!(
                    @visit f, self.$($seg).+, stringify!($($seg).+), $rows
                );)*)*
            }

        }

        impl cells::Counters {
            /// Adds `outcome`'s bumps to its block (owner only).
            pub(crate) fn count(&self, outcome: Outcome, n: u64) {
                match outcome {
                    $($(Outcome::$Outcome(o) => o.bump(self, n),)?)*
                }
            }
        }
    };
    (@block [$($doc:tt)*] $Block:ident {$(
        $(#[doc = $fdoc:literal])*
        $field:ident: $fold:ident
        $(=> $Var:ident += $by:tt)? $(, also $AlsoVar:ident += $also_by:tt)?;
    )*}) => {
        $($doc)*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $Block {
            $($(#[doc = $fdoc])* pub $field: counter_blocks!(@type $fold),)*
        }
    };
    (@cells $Block:ident {$(
        $(#[doc = $fdoc:literal])*
        $field:ident: $fold:ident
        $(=> $Var:ident += $by:tt)? $(, also $AlsoVar:ident += $also_by:tt)?;
    )*}) => {
        #[derive(Debug, Default)]
        pub(crate) struct $Block {
            $(pub(crate) $field: counter_blocks!(@cell $fold),)*
        }

        impl $Block {
            /// The block's current values.
            pub(crate) fn load(&self) -> super::$Block {
                super::$Block { $($field: self.$field.load(),)* }
            }
        }
    };
    (@outcome [] [$($path:tt)*] $Block:ident $rows:tt) => {};
    (@outcome [$Outcome:ident] [$($seg:ident).+] $Block:ident {$(
        $(#[doc = $fdoc:literal])*
        $field:ident: $fold:ident
        $(=> $Var:ident += $by:tt)? $(, also $AlsoVar:ident += $also_by:tt)?;
    )*}) => {
        #[doc = concat!(
            "One observation counted into [`", stringify!($Block), "`], \
             with no ring event: it annotates work whose ring events, if \
             any, are already emitted, so an entry of its own would break \
             the exact per-kind reconciliation."
        )]
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $Outcome {
            $($(
                #[doc = concat!(
                    "Adds `", stringify!($by), "` to [`",
                    stringify!($Block), "::", stringify!($field), "`]."
                )]
                $Var,
            )?)*
        }

        impl $Outcome {
            /// Adds this outcome's bumps to its block of `c`.
            fn bump(self, c: &cells::Counters, n: u64) {
                let block = &c.$($seg).+;
                $(
                    $(if self == $Outcome::$Var {
                        block.$field.add(counter_blocks!(@by n, $by));
                    })?
                    $(if self == $Outcome::$AlsoVar {
                        block.$field.add(counter_blocks!(@by n, $also_by));
                    })?
                )*
            }
        }
    };
    (@visit $f:ident, $place:expr, $prefix:expr, {$(
        $(#[doc = $fdoc:literal])*
        $field:ident: $fold:ident
        $(=> $Var:ident += $by:tt)? $(, also $AlsoVar:ident += $also_by:tt)?;
    )*}) => {
        $(counter_blocks!(@leaf $f, $fold, concat!($prefix, ".", stringify!($field)), $place.$field);)*
    };
    (@type Sum) => { u64 };
    (@type Max) => { u64 };
    (@type $Block:ident) => { $Block };
    (@cell Sum) => { Tally };
    (@cell Max) => { Tally };
    (@cell $Block:ident) => { $Block };
    (@leaf $f:ident, Sum, $name:expr, $field:expr) => { $f($name, Fold::Sum, &mut $field) };
    (@leaf $f:ident, Max, $name:expr, $field:expr) => { $f($name, Fold::Max, &mut $field) };
    (@leaf $f:ident, $Block:ident, $name:expr, $field:expr) => {};
    (@by $n:ident, 1) => { 1 };
    (@by $n:ident, n) => { $n };
}

counter_blocks! {
    /// All subsystem counter blocks.
    Counters at [] {
        /// Process manager.
        pm: PmCounters;
        /// Page allocator.
        mem: MemCounters;
        /// Page tables.
        ptable: PtableCounters;
        /// Batched VM datapath.
        vm: VmCounters;
        /// Drivers.
        drivers: DriverCounters;
        /// Zero-copy network datapath.
        net: NetCounters;
        /// Zero-copy block datapath.
        blk: BlkCounters;
        /// Node-replicated read paths.
        nr: NrCounters;
        /// Event-driven httpd (connection shards, wheels, readiness).
        httpd: HttpdCounters;
        /// Multi-tenant scheduler (picks, budgets, inheritance).
        sched: SchedCounters;
        /// Well-formedness audits.
        audit: AuditCounters;
        /// Domain locks.
        locks: LocksCounters;
    }

    /// Process-manager counters (scheduling and IPC).
    PmCounters at [pm] {
        /// Times a CPU's running thread changed.
        context_switches: Sum;
        /// Messages sent over endpoints (send/call/reply deliveries).
        ipc_sends: Sum;
        /// Messages received from endpoints (recv/poll completions).
        ipc_recvs: Sum;
        /// Send/recv operations completed by direct rendezvous with an
        /// already-waiting partner (the paper's IPC fast path).
        rendezvous: Sum;
        /// Direct-handoff fastpath statistics (Call/ReplyRecv).
        fastpath: FastpathCounters;
    }

    /// IPC fastpath hit/miss statistics. Hits are direct handoffs that
    /// switched `current` straight to the partner; each `fallback_*` field
    /// counts one reason the fastpath bailed to the slow rendezvous.
    FastpathCounters counted by FastpathOutcome at [pm.fastpath] {
        /// Direct handoffs performed.
        hits: Sum => Hit += n;
        /// Partner queue was absent or on the sending side.
        fallback_wrong_side: Sum => WrongSide += n;
        /// Endpoint queue full — the slow path's capacity check fired.
        fallback_queue_full: Sum => QueueFull += n;
        /// Partner's home CPU differs from the caller's.
        fallback_cross_cpu: Sum => CrossCpu += n;
        /// Payload carries a capability grant that needs the mem domain.
        fallback_cap_transfer: Sum => CapTransfer += n;
        /// Handoff budget exhausted — yielded to the run queue instead.
        fallback_budget: Sum => Budget += n;
        /// Descriptor-slot cache lookups that skipped validation.
        slot_cache_hits: Sum => SlotCacheHit += n;
        /// Descriptor-slot cache lookups that fell through to the table.
        slot_cache_misses: Sum => SlotCacheMiss += n;
    }

    /// Page-allocator counters.
    MemCounters at [mem] {
        /// Allocation operations.
        allocs: Sum;
        /// 4 KiB frames handed out.
        frames_allocated: Sum;
        /// Free operations.
        frees: Sum;
        /// 4 KiB frames returned.
        frames_freed: Sum;
    }

    /// Page-table counters.
    PtableCounters at [ptable] {
        /// Leaf entries written.
        maps: Sum;
        /// Leaf entries cleared.
        unmaps: Sum;
        /// 4 KiB frames covered by written leaves.
        frames_mapped: Sum;
        /// 4 KiB frames uncovered by cleared leaves.
        frames_unmapped: Sum;
    }

    /// Batched-VM-datapath counters (walk cache, superpage promotion, and
    /// deferred TLB shootdowns).
    VmCounters counted by VmOutcome at [vm] {
        /// Batched leaf fills that reused the cached L1 walk instead of
        /// resolving the L3→L2→L1 chain again.
        map_batch_hits: Sum => MapBatchHit += n;
        /// 512-page runs promoted to a single 2 MiB entry.
        superpage_promotions: Sum => SuperpagePromotion += n;
        /// Promoted entries split back into 512 4 KiB entries (partial
        /// unmap or DMA pinning inside the region).
        superpage_demotions: Sum => SuperpageDemotion += n;
        /// Pages whose TLB invalidation was queued for a batched shootdown.
        tlb_shootdowns_deferred: Sum => ShootdownDeferred += n;
        /// Pages invalidated by batched shootdown flushes.
        tlb_shootdowns_flushed: Sum => ShootdownFlushed += n;
    }

    /// Driver counters (ixgbe + NVMe).
    DriverCounters at [drivers] {
        /// Receive/completion batches.
        rx_batches: Sum;
        /// Items across all receive batches.
        rx_items: Sum;
        /// Transmit/submission batches.
        tx_batches: Sum;
        /// Items across all transmit batches.
        tx_items: Sum;
    }

    /// Zero-copy network datapath counters (packet-buffer pool, batched
    /// zero-copy RX/TX, and RSS flow steering). `pool_acquired -
    /// pool_released` is the number of `PktBuf` handles in flight.
    NetCounters counted by NetOutcome at [net] {
        /// Pool slots handed out (`PktBuf` handles created).
        pool_acquired: Sum => PoolAcquire += n;
        /// Pool slots returned.
        pool_released: Sum => PoolRelease += n;
        /// Acquire attempts that found the pool empty (backpressure events,
        /// not failures — the datapath retries after draining TX).
        pool_exhausted: Sum => PoolExhausted += n;
        /// Zero-copy receive batches.
        rx_zc_batches: Sum => RxBatch += 1;
        /// Frames across all zero-copy receive batches.
        rx_zc_frames: Sum, also RxBatch += n;
        /// Zero-copy transmit batches.
        tx_zc_batches: Sum => TxBatch += 1;
        /// Frames across all zero-copy transmit batches.
        tx_zc_frames: Sum, also TxBatch += n;
        /// Frames whose flow key steered to the local queue's CPU.
        steer_hits: Sum => SteerHit += n;
        /// Frames that arrived on the wrong queue for their flow.
        steer_misses: Sum => SteerMiss += n;
        /// Frames copied out of the pool into an owned buffer (the non-zero-
        /// copy fallback, e.g. for consumers still wanting a `Packet`).
        fallback_copies: Sum => Fallback += n;
    }

    /// Zero-copy block datapath counters (block-buffer pool, batched SQ
    /// submission and CQ reaping, and completion wakeups).
    /// `pool_acquired - pool_released` is the number of `BlkBuf` handles in
    /// flight.
    BlkCounters counted by BlkOutcome at [blk] {
        /// Pool slots handed out (`BlkBuf` handles created).
        pool_acquired: Sum => PoolAcquire += n;
        /// Pool slots returned.
        pool_released: Sum => PoolRelease += n;
        /// Acquire attempts that found the pool empty (backpressure events,
        /// not failures — the datapath reaps completions and retries).
        pool_exhausted: Sum => PoolExhausted += n;
        /// Batched SQ doorbell rings.
        submit_batches: Sum => SubmitBatch += 1;
        /// I/O commands across all submission batches.
        submit_ios: Sum, also SubmitBatch += n;
        /// Batched CQ reap passes that returned at least one completion.
        reap_batches: Sum => ReapBatch += 1;
        /// Completions across all reap batches.
        reap_ios: Sum, also ReapBatch += n;
        /// Parked reapers woken by a completion (modeled on the Call/
        /// ReplyRecv direct-handoff fast path).
        wakeups: Sum => Wakeup += n;
        /// Blocks copied out of the pool into an owned buffer (the non-
        /// zero-copy fallback).
        fallback_copies: Sum => Fallback += n;
    }

    /// Node-replication counters (per-CPU replicas over the shared op
    /// log).
    NrCounters counted by NrOutcome at [nr] {
        /// Ops appended to the shared operation log.
        appended: Sum => Append += n;
        /// Flat-combining flushes performed (each drains every CPU's
        /// pending slot into the log; only non-empty drains count).
        combine_batches: Sum => CombineBatch += n;
        /// Ops replayed onto replicas (local post-update replay, read-path
        /// catch-up, and epoch synchronization).
        replayed: Sum => Replay += n;
        /// Read syscalls answered from the local replica, lock-free.
        read_local: Sum => ReadLocal += n;
        /// Read syscalls served by the locked domain path instead (node
        /// replication disabled, or a unified/big-lock dispatch).
        fallback_locked: Sum => FallbackLocked += n;
    }

    /// Event-driven httpd counters (per-CPU connection shards, timer
    /// wheels, readiness rings). `accepts - closes` is the live
    /// connection gauge.
    HttpdCounters counted by HttpdOutcome at [httpd] {
        /// Connections opened (table slots handed out).
        accepts: Sum => Accept += n;
        /// Connections closed (slot recycled under a new generation).
        closes: Sum => Close += n;
        /// Requests fully served (response streamed to TX).
        served: Sum => Served += n;
        /// Closes forced by the keepalive timer (idle connections).
        timeouts_keepalive: Sum => TimeoutKeepalive += n;
        /// Closes forced by the read-header timer (slowloris).
        timeouts_header: Sum => TimeoutHeader += n;
        /// Closes forced by the write-drain timer (stuck TX).
        timeouts_drain: Sum => TimeoutDrain += n;
        /// Timer-wheel nodes moved (or fired) by level-boundary cascades.
        wheel_cascades: Sum => WheelCascade += n;
        /// Connections parked on packet-pool exhaustion (backpressure).
        parked: Sum => Parked += n;
        /// Parked connections resumed after TX freed pool slots.
        unparked: Sum => Unparked += n;
        /// Requests rejected as malformed by the incremental parser.
        malformed: Sum => Malformed += n;
        /// Event-loop iterations (ready-ring drains, including empty ones).
        /// Each lands its ready-set size, `n`, in the ready-batch histogram.
        polls: Sum => ReadyBatch += 1;
    }

    /// Multi-tenant scheduler counters (per-CPU FIFO run queues,
    /// per-container budget accounts, IPC budget inheritance).
    SchedCounters counted by SchedOutcome at [sched] {
        /// Run-queue picks (dispatch/rotate decisions that probed the
        /// queue head). Each lands the list heads and nodes it touched,
        /// `n`, in the pick-steps histogram.
        picks: Sum => Pick += 1;
        /// Threads enqueued onto a run queue.
        enqueues: Sum => Enqueue += n;
        /// Threads removed from the run queues (dequeue or teardown).
        removes: Sum => Remove += n;
        /// Threads parked off the run queues (container throttled).
        parked: Sum => Park += n;
        /// Parked threads re-enqueued after a budget refill.
        unparked: Sum => Unpark += n;
        /// Container accounts throttled on budget exhaustion.
        throttles: Sum => Throttle += n;
        /// Container accounts unthrottled by the refill wheel.
        unthrottles: Sum => Unthrottle += n;
        /// Budget refills performed by the hierarchical timer wheel.
        refills: Sum => Refill += n;
        /// IPC direct handoffs that inherited the client's budget account.
        inherited_handoffs: Sum => InheritHandoff += n;
    }

    /// Well-formedness audit counters.
    AuditCounters counted by AuditOutcome at [audit] {
        /// Incremental (ledger-fold) audits performed. Each lands the
        /// ledger entries it folded, `n`, in the touched-entry histogram.
        incremental: Sum => Incremental += 1;
        /// Full stop-the-world audits performed.
        full: Sum => Full += n;
        /// Ledger entries folded across all incremental audits.
        touched_entries: Sum, also Incremental += n;
    }

    /// Per-domain lock statistics.
    LocksCounters at [locks] {
        /// Process-manager domain lock.
        pm: LockCounters;
        /// Memory domain lock.
        mem: LockCounters;
        /// Trace-sink locks taken while recording: only the audit ledger's,
        /// taken while audit recording is on (an event itself takes none).
        trace: LockCounters;
    }

    /// One lock domain's acquisition statistics.
    LockCounters at [locks.pm, locks.mem, locks.trace] {
        /// Successful acquisitions.
        acquisitions: Sum;
        /// Acquisitions that found the lock held (slow path).
        contended: Sum;
        /// Longest single hold, in modeled cycles: from the acquirer's
        /// meter entering the domain to the release time it published.
        /// Only ever grows, so it stays monotone under the low-water
        /// audit.
        hold_max_cycles: Max;
    }
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

/// Leaf counters in a [`Counters`]: every leaf is a `u64`, so the size of
/// the struct counts them.
const LEAVES: usize = std::mem::size_of::<Counters>() / std::mem::size_of::<u64>();

impl Counters {
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
    /// maxima take the max. Used to merge the recorders' per-CPU blocks
    /// into one snapshot view.
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
