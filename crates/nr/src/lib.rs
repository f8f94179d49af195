//! Node replication: per-CPU replicas over a shared operation log.
//!
//! NrOS-style node replication turns a lock-serialized data structure
//! into one *replica per CPU* kept consistent by a shared, append-only
//! operation log:
//!
//! * **Updates** append their operation to the log (through a
//!   flat-combining appender — one CPU batches the waiting ops of its
//!   peers, amortizing log contention) and replay it on the local
//!   replica before returning.
//! * **Reads** replay the local replica up to the log's published tail
//!   and then answer from local state — no shared lock is held while the
//!   answer is computed, so readers on different CPUs scale
//!   independently.
//!
//! The correctness story is *replica linearization*: every replica at
//! completion tail `t` equals the fold of the abstract op sequence
//! `[0, t)` over the initial state ([`NodeReplicated::nr_wf`]). The
//! kernel layers a second, stop-the-world check on top: at epoch
//! boundaries each replica is compared bit-for-bit against the
//! authoritative locked state itself.
//!
//! Lock discipline: every mutex in this crate (log interior, per-CPU
//! pending slots, combiner, replicas, checkpoint) is a **leaf** — no
//! code path acquires any other lock while holding one, so the layer
//! can be entered from under any kernel lock domain without extending
//! the lock order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use atmo_spec::harness::{check, VerifResult};
use atmo_spec::lock_recovering;

/// A replicated state machine: the state type plus its deterministic
/// application of the log entry type `Op`. Applying the same op
/// sequence to two clones of the same initial state must yield equal
/// states — that determinism is exactly what
/// [`NodeReplicated::nr_wf`] checks. The entry type is a parameter, not
/// an associated type, so a crate can replicate a state type it does
/// not own under an entry type it does.
pub trait NrDispatch<Op>: Clone + PartialEq + std::fmt::Debug {
    /// Applies one operation to this replica's state.
    fn apply(&mut self, op: &Op);
}

/// Outcome of an update batch, for the caller's trace counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct AppendStats {
    /// Ops this call enqueued (and that are now durably in the log).
    pub appended: u64,
    /// Flat-combining flushes this CPU performed (0 when a peer
    /// combined our ops for us).
    pub combine_batches: u64,
    /// Ops replayed onto the local replica before returning.
    pub replayed: u64,
}

/// Outcome of a read, for the caller's trace counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadStats {
    /// Ops replayed to bring the local replica to the tail.
    pub replayed: u64,
    /// The log tail the answer reflects (the read's linearization
    /// point: the value is never newer than this tail).
    pub tail: u64,
}

/// Interior of the log: ops since `base` (absolute index of `ops[0]`).
/// Bounded: once all replicas have replayed past a full chunk, the
/// prefix is folded into the replicas' shared checkpoint and dropped.
struct LogInner<Op> {
    base: u64,
    ops: Vec<Op>,
}

/// The shared operation log with a flat-combining appender.
pub struct OpLog<Op> {
    inner: Mutex<LogInner<Op>>,
    /// Published length (absolute). Readers replay up to this point.
    tail: AtomicU64,
    /// Per-CPU slots of ops waiting to be combined into the log.
    pending: Vec<Mutex<Vec<Op>>>,
    /// Held by the CPU currently draining every pending slot.
    combiner: Mutex<()>,
}

impl<Op: Clone> OpLog<Op> {
    fn new(ncpus: usize) -> Self {
        OpLog {
            inner: Mutex::new(LogInner {
                base: 0,
                ops: Vec::new(),
            }),
            tail: AtomicU64::new(0),
            pending: (0..ncpus).map(|_| Mutex::new(Vec::new())).collect(),
            combiner: Mutex::new(()),
        }
    }

    /// The published tail (total ops ever appended).
    pub fn tail(&self) -> u64 {
        self.tail.load(Ordering::Acquire)
    }

    /// Flat-combining append: publish `ops` in this CPU's slot, then
    /// either become the combiner (drain *every* slot, in CPU order,
    /// into the log) or wait for the current combiner to drain ours.
    /// The ops move by value into the slot, whose buffer the drain
    /// leaves allocated, so appending one op allocates nothing.
    fn append(&self, cpu: usize, ops: impl IntoIterator<Item = Op>) -> (u64, u64) {
        let n = {
            let mut slot = lock_recovering(&self.pending[cpu]);
            let before = slot.len();
            slot.extend(ops);
            (slot.len() - before) as u64
        };
        if n == 0 {
            return (0, 0);
        }
        loop {
            if let Ok(_g) = self.combiner.try_lock() {
                let drained = self.drain_all();
                let batches = u64::from(drained > 0);
                return (n, batches);
            }
            // A peer holds the combiner; it drains every slot including
            // ours. Once ours is empty, our ops are in the log.
            if lock_recovering(&self.pending[cpu]).is_empty() {
                return (n, 0);
            }
            std::hint::spin_loop();
        }
    }

    /// Drains every pending slot into the log (combiner lock held by
    /// the caller) and publishes the new tail. Returns ops drained.
    fn drain_all(&self) -> u64 {
        let mut inner = lock_recovering(&self.inner);
        let mut drained = 0u64;
        for slot in &self.pending {
            let mut s = lock_recovering(slot);
            drained += s.len() as u64;
            inner.ops.append(&mut s);
        }
        if drained > 0 {
            self.tail
                .store(inner.base + inner.ops.len() as u64, Ordering::Release);
        }
        drained
    }

    /// Applies `f` to the ops in `[from, to)` (absolute indices).
    ///
    /// # Panics
    ///
    /// Panics when the range reaches below the retained window — the
    /// garbage collector only drops prefixes every replica has replayed.
    fn replay_range(&self, from: u64, to: u64, mut f: impl FnMut(&Op)) -> u64 {
        if from >= to {
            return 0;
        }
        let inner = lock_recovering(&self.inner);
        assert!(
            from >= inner.base,
            "replay from {from} below retained base {}",
            inner.base
        );
        let lo = (from - inner.base) as usize;
        let hi = (to - inner.base) as usize;
        for op in &inner.ops[lo..hi] {
            f(op);
        }
        to - from
    }
}

/// One CPU's replica: the projected state plus the absolute log tail
/// it has replayed to (monotone).
struct ReplicaInner<S> {
    state: S,
    tail: u64,
}

/// Per-CPU replicas plus the log that keeps them consistent.
pub struct NodeReplicated<S, Op> {
    log: OpLog<Op>,
    replicas: Vec<Mutex<ReplicaInner<S>>>,
    /// The fold of `[0, base)`: the state every replica had at the
    /// log's retained base. `nr_wf` folds the retained suffix on top.
    checkpoint: Mutex<ReplicaInner<S>>,
    /// Retained-window bound: a GC pass runs when the log grows past
    /// this many ops (see [`Self::gc`]).
    capacity: usize,
}

/// Default retained-window bound for [`NodeReplicated::new`]. A kernel
/// pm entry carries whole objects (a container is about 600 bytes), so
/// the window is kept short: folding a prefix into the checkpoint costs
/// the same per op at any bound, and a short window holds less.
pub const DEFAULT_LOG_CAPACITY: usize = 1024;

impl<S: NrDispatch<Op>, Op: Clone> NodeReplicated<S, Op> {
    /// `ncpus` replicas, all starting from `init` with an empty log.
    pub fn new(ncpus: usize, init: S) -> Self {
        assert!(ncpus > 0, "at least one replica");
        NodeReplicated {
            log: OpLog::new(ncpus),
            replicas: (0..ncpus)
                .map(|_| {
                    Mutex::new(ReplicaInner {
                        state: init.clone(),
                        tail: 0,
                    })
                })
                .collect(),
            checkpoint: Mutex::new(ReplicaInner {
                state: init,
                tail: 0,
            }),
            capacity: DEFAULT_LOG_CAPACITY,
        }
    }

    /// Number of replicas.
    pub fn ncpus(&self) -> usize {
        self.replicas.len()
    }

    /// The log's published tail.
    pub fn tail(&self) -> u64 {
        self.log.tail()
    }

    /// The absolute tail `cpu`'s replica has replayed to.
    pub fn replica_tail(&self, cpu: usize) -> u64 {
        lock_recovering(&self.replicas[cpu]).tail
    }

    /// Update path: append `ops` through the flat combiner, then replay
    /// the local replica to the published tail (which covers the ops
    /// just appended) before returning.
    pub fn execute_mut(&self, cpu: usize, ops: impl IntoIterator<Item = Op>) -> AppendStats {
        let (appended, combine_batches) = self.log.append(cpu, ops);
        let replayed = self.sync(cpu);
        if appended > 0 {
            self.maybe_gc();
        }
        AppendStats {
            appended,
            combine_batches,
            replayed,
        }
    }

    /// Fire-and-forget update path: appends `ops` through the flat
    /// combiner *without* replaying the local replica. The kernel's
    /// writers use this — they computed their answer from the
    /// authoritative locked state, so the local replica can catch up
    /// on its next read instead of on the write's critical path.
    /// Returned stats carry `replayed == 0`. (The retained window can
    /// transiently exceed `capacity` while every replica lags — GC
    /// only folds prefixes all replicas have replayed — and shrinks
    /// again at the next read or [`sync_all`](Self::sync_all).)
    pub fn append(&self, cpu: usize, ops: impl IntoIterator<Item = Op>) -> AppendStats {
        let (appended, combine_batches) = self.log.append(cpu, ops);
        if appended > 0 {
            self.maybe_gc();
        }
        AppendStats {
            appended,
            combine_batches,
            replayed: 0,
        }
    }

    /// Read path: replay the local replica to the published tail, then
    /// answer from it. No shared lock is held while `f` runs — only the
    /// local replica's leaf mutex.
    pub fn execute_ro<R>(&self, cpu: usize, f: impl FnOnce(&S) -> R) -> (R, ReadStats) {
        let mut r = lock_recovering(&self.replicas[cpu]);
        let tail = self.log.tail();
        let from = r.tail;
        let state = &mut r.state;
        let replayed = self.log.replay_range(from, tail, |op| state.apply(op));
        r.tail = tail;
        (f(&r.state), ReadStats { replayed, tail })
    }

    /// Replays `cpu`'s replica to the published tail; returns the
    /// number of ops applied.
    pub fn sync(&self, cpu: usize) -> u64 {
        let mut r = lock_recovering(&self.replicas[cpu]);
        let tail = self.log.tail();
        let from = r.tail;
        let state = &mut r.state;
        let replayed = self.log.replay_range(from, tail, |op| state.apply(op));
        r.tail = tail;
        replayed
    }

    /// Replays every replica to the published tail (epoch boundaries,
    /// stop-the-world cross-checks). Returns total ops applied.
    pub fn sync_all(&self) -> u64 {
        (0..self.replicas.len()).map(|c| self.sync(c)).sum()
    }

    /// Runs `f` on `cpu`'s replica state *as is* (no replay) — the
    /// stale view, for stale-read bound tests.
    pub fn peek<R>(&self, cpu: usize, f: impl FnOnce(&S, u64) -> R) -> R {
        let r = lock_recovering(&self.replicas[cpu]);
        f(&r.state, r.tail)
    }

    /// Bounds the log: when the retained window exceeds `capacity`,
    /// folds the prefix every replica has already replayed into the
    /// checkpoint and drops it. The log stays O(capacity + lag of the
    /// slowest replica).
    fn maybe_gc(&self) {
        let inner_len = {
            let inner = lock_recovering(&self.log.inner);
            inner.ops.len()
        };
        if inner_len <= self.capacity {
            return;
        }
        let min_tail = (0..self.replicas.len())
            .map(|c| lock_recovering(&self.replicas[c]).tail)
            .min()
            .unwrap_or(0);
        let mut ck = lock_recovering(&self.checkpoint);
        if min_tail <= ck.tail {
            return;
        }
        let ck_tail = ck.tail;
        let state = &mut ck.state;
        self.log
            .replay_range(ck_tail, min_tail, |op| state.apply(op));
        ck.tail = min_tail;
        let mut inner = lock_recovering(&self.log.inner);
        let drop_n = (min_tail - inner.base) as usize;
        inner.ops.drain(..drop_n);
        inner.base = min_tail;
    }

    /// Replica linearization (`nr_wf`): every replica at tail `t`
    /// equals the fold of the abstract op sequence `[0, t)` — computed
    /// as the checkpoint (the fold of the collected prefix) plus the
    /// retained ops up to `t`. Also checks tail sanity: every replica
    /// tail is ≤ the published tail and ≥ the checkpoint tail.
    pub fn nr_wf(&self) -> VerifResult {
        let ck = lock_recovering(&self.checkpoint);
        let published = self.log.tail();
        check(
            ck.tail <= published,
            "nr_wf",
            format_args!("checkpoint tail {} beyond published {published}", ck.tail),
        )?;
        for cpu in 0..self.replicas.len() {
            let r = lock_recovering(&self.replicas[cpu]);
            check(
                r.tail <= published && r.tail >= ck.tail,
                "nr_wf",
                format_args!(
                    "replica {cpu} tail {} outside [{}, {published}]",
                    r.tail, ck.tail
                ),
            )?;
            let mut fold = ck.state.clone();
            let ck_tail = ck.tail;
            self.log.replay_range(ck_tail, r.tail, |op| fold.apply(op));
            check(
                fold == r.state,
                "nr_wf",
                format_args!(
                    "replica {cpu} at tail {} diverges from the fold of [0, {}): \
                     fold {:?} != replica {:?}",
                    r.tail, r.tail, fold, r.state
                ),
            )?;
        }
        Ok(())
    }

    /// Ops currently held in the retained log window (diagnostics and
    /// GC-bound tests).
    pub fn retained_ops(&self) -> usize {
        lock_recovering(&self.log.inner).ops.len()
    }

    /// The absolute tail the shared checkpoint has folded to (0 until
    /// the first GC pass).
    pub fn checkpoint_tail(&self) -> u64 {
        lock_recovering(&self.checkpoint).tail
    }

    /// The fold of the full op sequence `[0, tail)` — the abstract
    /// state every replica converges to once it replays everything.
    pub fn fold_to_tail(&self) -> S {
        let ck = lock_recovering(&self.checkpoint);
        let mut fold = ck.state.clone();
        let ck_tail = ck.tail;
        self.log
            .replay_range(ck_tail, self.log.tail(), |op| fold.apply(op));
        fold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter machine: `Add(n)` ops, state is the running sum plus
    /// the op count (so op *order and count* matter, not just the sum).
    #[derive(Clone, PartialEq, Eq, Debug, Default)]
    struct Sum {
        total: u64,
        ops: u64,
    }

    impl NrDispatch<u64> for Sum {
        fn apply(&mut self, op: &u64) {
            self.total += *op;
            self.ops += 1;
        }
    }

    #[test]
    fn update_then_read_sees_own_write() {
        let nr = NodeReplicated::new(4, Sum::default());
        let stats = nr.execute_mut(1, vec![5, 7]);
        assert_eq!(stats.appended, 2);
        assert_eq!(stats.replayed, 2);
        let (v, rs) = nr.execute_ro(1, |s| s.total);
        assert_eq!(v, 12);
        assert_eq!(rs.replayed, 0);
        assert_eq!(rs.tail, 2);
    }

    #[test]
    fn peer_replica_catches_up_on_read() {
        let nr = NodeReplicated::new(4, Sum::default());
        nr.execute_mut(0, vec![1, 2, 3]);
        assert_eq!(nr.replica_tail(3), 0);
        let (v, rs) = nr.execute_ro(3, |s| s.total);
        assert_eq!(v, 6);
        assert_eq!(rs.replayed, 3);
        assert!(nr.nr_wf().is_ok());
    }

    #[test]
    fn stale_replica_never_ahead_of_replayed_tail() {
        let nr = NodeReplicated::new(2, Sum::default());
        nr.execute_mut(0, vec![10]);
        // CPU 1 has not replayed: its state reflects exactly tail 0.
        nr.peek(1, |s, tail| {
            assert_eq!(tail, 0);
            assert_eq!(*s, Sum::default());
        });
        nr.sync(1);
        nr.peek(1, |s, tail| {
            assert_eq!(tail, 1);
            assert_eq!(s.total, 10);
        });
    }

    #[test]
    fn gc_bounds_the_log_and_preserves_the_fold() {
        let mut nr = NodeReplicated::new(2, Sum::default());
        nr.capacity = 64;
        for i in 0..1000u64 {
            nr.execute_mut((i % 2) as usize, vec![i]);
            if i % 97 == 0 {
                nr.sync_all();
            }
        }
        nr.sync_all();
        nr.maybe_gc();
        let retained = lock_recovering(&nr.log.inner).ops.len();
        assert!(retained <= 64 + 1, "log not bounded: {retained} retained");
        assert!(nr.nr_wf().is_ok(), "{:?}", nr.nr_wf());
        let fold = nr.fold_to_tail();
        assert_eq!(fold.total, (0..1000).sum::<u64>());
        assert_eq!(fold.ops, 1000);
    }

    #[test]
    fn nr_wf_refutes_a_diverged_replica() {
        let nr = NodeReplicated::new(2, Sum::default());
        nr.execute_mut(0, vec![1]);
        nr.sync_all();
        lock_recovering(&nr.replicas[1]).state.total = 999;
        assert!(nr.nr_wf().is_err());
    }

    #[test]
    fn concurrent_appends_and_reads_linearize() {
        use std::sync::Arc;
        let nr = Arc::new(NodeReplicated::new(4, Sum::default()));
        let mut handles = Vec::new();
        for cpu in 0..4usize {
            let nr = Arc::clone(&nr);
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    nr.execute_mut(cpu, vec![i]);
                    if i % 7 == 0 {
                        let (_, rs) = nr.execute_ro(cpu, |s| s.ops);
                        assert!(rs.tail >= i);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(nr.tail(), 1000);
        nr.sync_all();
        assert!(nr.nr_wf().is_ok(), "{:?}", nr.nr_wf());
        assert_eq!(nr.fold_to_tail().ops, 1000);
    }
}
