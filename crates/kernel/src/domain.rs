//! Lock domains: ordered, instrumented mutexes for the sharded kernel.
//!
//! The sharded [`SmpKernel`](crate::smp::SmpKernel) replaces the big
//! lock with one lock per domain. Deadlock freedom comes from a *total
//! lock order* over [`LockLevel`]s — every code path acquires locks in
//! strictly ascending level order:
//!
//! ```text
//! Meter(0) → Pm(1) → Hw(2) → Snapshot(3) → Cache(4) → Mem(5) → audit ledgers (leaf)
//! ```
//!
//! Publicly that is the documented `pm → mem` order; `Meter`, `Hw`,
//! `Snapshot` and `Cache` are auxiliary leaf-ish levels slotted around
//! them (a CPU's meter is taken before its syscall touches pm, the
//! per-CPU page caches sit between pm and mem because a cache
//! refill/drain must take the mem lock while holding the cache).
//! Recording a trace event — including the acquisition a guard reports
//! on drop — takes no lock: each OS thread writes its own single-writer
//! recorder cells in `atmo-trace`. The per-CPU audit ledgers there are
//! the one trace lock, taken only while incremental audit recording is
//! on; they never acquire anything, so they are only ever taken last.
//!
//! `Meter` and `Cache` are *multi-acquire* levels: the stop-the-world
//! `with_kernel` path locks every CPU's meter (then every cache) in
//! CPU-index order, which is deadlock-free because that inner order is
//! itself total and no other path ever holds two of them.
//!
//! In every debug build (so under every plain `cargo test`), each
//! acquisition is checked against a thread-local table of held levels
//! and any violation of the total order panics immediately — no
//! external dependencies, just a `thread_local!` array.
//!
//! Every [`DomainLock`] also carries a modeled-time stamp
//! ([`model_time`](DomainLock::model_time)): the release time, in
//! modeled cycles, of the last critical section. An acquirer
//! [`enter`](DomainGuard::enter)s the domain by syncing its CPU's
//! [`CycleMeter`] to that stamp and [`publish`](DomainGuard::publish)es
//! its own release time before dropping the guard, which makes lock
//! serialization visible to the modeled clock — the basis of the
//! `repro-smp-scaling` benchmark on a single-core host. The wait and
//! the hold reported to the trace sink are the two modeled intervals
//! those calls delimit; the host clock is never read.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

use atmo_hw::cycles::CycleMeter;
use atmo_spec::{into_inner_recovering, lock_recovering};
use atmo_trace::{LockDomain, TraceHandle};

/// Position of a lock in the total acquisition order (ascending only).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum LockLevel {
    /// Per-CPU cycle meters (multi-acquire, CPU-index order).
    Meter = 0,
    /// The process-manager domain.
    Pm = 1,
    /// The machine (interrupt controller, cost model, boot info).
    Hw = 2,
    /// The published trace-snapshot slot.
    Snapshot = 3,
    /// Per-CPU page caches (multi-acquire, CPU-index order).
    Cache = 4,
    /// The memory domain.
    Mem = 5,
}

/// Number of distinct lock levels.
pub const NUM_LOCK_LEVELS: usize = 6;

impl LockLevel {
    /// `true` when several locks of this level may be held at once
    /// (acquired in CPU-index order by the stop-the-world path).
    pub fn multi_acquire(self) -> bool {
        matches!(self, LockLevel::Meter | LockLevel::Cache)
    }
}

#[cfg(debug_assertions)]
mod order {
    use super::{LockLevel, NUM_LOCK_LEVELS};
    use std::cell::RefCell;

    thread_local! {
        /// How many locks of each level this OS thread currently holds.
        static HELD: RefCell<[u8; NUM_LOCK_LEVELS]> = const { RefCell::new([0; NUM_LOCK_LEVELS]) };
    }

    pub fn acquiring(level: LockLevel) {
        HELD.with_borrow_mut(|held| {
            let l = level as usize;
            for (above, &count) in held.iter().enumerate().skip(l + 1) {
                assert!(
                    count == 0,
                    "lock-order violation: acquiring {level:?} (level {l}) while holding a \
                     level-{above} lock"
                );
            }
            assert!(
                held[l] == 0 || level.multi_acquire(),
                "lock-order violation: acquiring a second {level:?} lock"
            );
            held[l] += 1;
        });
    }

    pub fn released(level: LockLevel) {
        HELD.with_borrow_mut(|held| {
            let l = level as usize;
            debug_assert!(held[l] > 0, "releasing a {level:?} lock that was not held");
            held[l] = held[l].saturating_sub(1);
        });
    }
}

#[cfg(not(debug_assertions))]
mod order {
    use super::LockLevel;
    pub fn acquiring(_level: LockLevel) {}
    pub fn released(_level: LockLevel) {}
}

/// One domain's lock: an ordered, optionally instrumented mutex with a
/// modeled release timestamp.
#[derive(Debug)]
pub struct DomainLock<T> {
    mutex: Mutex<T>,
    level: LockLevel,
    /// When set, every acquisition is recorded into the trace sink's
    /// per-domain lock counters.
    instrument: Option<LockDomain>,
    trace: TraceHandle,
    /// Modeled cycle count at which the last critical section released
    /// the lock; acquirers `sync_to` their meter so serialization shows
    /// up in modeled time.
    model_time: AtomicU64,
}

impl<T> DomainLock<T> {
    /// A lock at `level`, instrumented as `instrument` (if any) into
    /// `trace`.
    pub fn new(
        value: T,
        level: LockLevel,
        instrument: Option<LockDomain>,
        trace: TraceHandle,
    ) -> Self {
        DomainLock {
            mutex: Mutex::new(value),
            level,
            instrument,
            trace,
            model_time: AtomicU64::new(0),
        }
    }

    /// Acquires the lock for `cpu`, checking the total order and
    /// recording contention. Panics on a lock-order violation in debug
    /// builds.
    pub fn lock(&self, cpu: usize) -> DomainGuard<'_, T> {
        order::acquiring(self.level);
        let (guard, contended) = match self.mutex.try_lock() {
            Ok(g) => (g, false),
            Err(TryLockError::Poisoned(e)) => (e.into_inner(), false),
            Err(TryLockError::WouldBlock) => (lock_recovering(&self.mutex), true),
        };
        DomainGuard {
            guard: Some(guard),
            lock: self,
            cpu,
            contended,
            entered: None,
            published: 0,
        }
    }

    /// The modeled release time of the last critical section.
    pub fn model_time(&self) -> u64 {
        self.model_time.load(Ordering::Acquire)
    }

    /// Advances the modeled release time to `now` (monotone).
    pub fn set_model_time(&self, now: u64) {
        self.model_time.fetch_max(now, Ordering::AcqRel);
    }

    /// Consumes the lock, recovering the value even if poisoned.
    pub fn into_inner(self) -> T {
        into_inner_recovering(self.mutex)
    }
}

/// Guard for a [`DomainLock`]; releases the lock, reports the
/// acquisition to the trace sink, and pops the held-level table on drop.
pub struct DomainGuard<'a, T> {
    guard: Option<MutexGuard<'a, T>>,
    lock: &'a DomainLock<T>,
    cpu: usize,
    contended: bool,
    /// `(wait, entry time)` in modeled cycles, once [`enter`](Self::enter)ed.
    entered: Option<(u64, u64)>,
    /// The release time this guard [`publish`](Self::publish)ed.
    published: u64,
}

impl<T> DomainGuard<'_, T> {
    /// Enters the domain in modeled time: a CPU entering observes at
    /// least the clock of the CPU that left it last, so `meter` jumps to
    /// the lock's release stamp. That jump is this acquisition's wait —
    /// the DES analogue of spinning — and where the meter lands is where
    /// its hold starts (an acquirer whose clock was already ahead waited
    /// zero and holds from its own time, not from the stale stamp).
    pub fn enter(&mut self, meter: &mut CycleMeter) {
        let stamp = self.lock.model_time();
        let wait = stamp.saturating_sub(meter.now());
        meter.sync_to(stamp);
        self.entered = Some((wait, meter.now()));
    }

    /// Publishes `now` as the domain's release time and the end of this
    /// guard's hold.
    pub fn publish(&mut self, now: u64) {
        self.lock.set_model_time(now);
        self.published = now;
    }
}

impl<T> Deref for DomainGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> DerefMut for DomainGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl<T> Drop for DomainGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.guard.take());
        order::released(self.lock.level);
        if let Some(domain) = self.lock.instrument {
            // A guard that entered but never published held nothing the
            // model can see: it reports a zero hold.
            let modeled = self
                .entered
                .map(|(wait, at)| (wait, self.published.saturating_sub(at)));
            self.lock
                .trace
                .lock_event(self.cpu, domain, self.contended, modeled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_trace::TraceSink;

    #[test]
    fn lock_reports_instrumented_acquisitions() {
        let trace = TraceSink::new(1, 16);
        let lock = DomainLock::new(5u32, LockLevel::Pm, Some(LockDomain::Pm), trace.clone());
        {
            let mut g = lock.lock(0);
            *g += 1;
        }
        let snap = trace.snapshot();
        assert_eq!(snap.counters.locks.pm.acquisitions, 1);
        assert_eq!(snap.counters.locks.pm.contended, 0);
        assert_eq!(lock.into_inner(), 6);
    }

    #[test]
    fn contention_is_detected() {
        use std::sync::Arc;
        let trace = TraceSink::new(1, 16);
        let lock = Arc::new(DomainLock::new(
            0u64,
            LockLevel::Mem,
            Some(LockDomain::Mem),
            trace.clone(),
        ));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2000 {
                    *lock.lock(0) += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = trace.snapshot();
        assert_eq!(snap.counters.locks.mem.acquisitions, 8000);
        assert_eq!(*lock.lock(0), 8000);
    }

    #[test]
    fn model_time_is_monotone() {
        let trace = TraceSink::new(1, 4);
        let lock = DomainLock::new((), LockLevel::Pm, None, trace);
        lock.set_model_time(100);
        lock.set_model_time(40);
        assert_eq!(lock.model_time(), 100, "never rewinds");
        lock.set_model_time(250);
        assert_eq!(lock.model_time(), 250);
    }

    #[test]
    fn hold_is_published_minus_entered_in_modeled_cycles() {
        let trace = TraceSink::new(1, 16);
        let lock = DomainLock::new((), LockLevel::Pm, Some(LockDomain::Pm), trace.clone());
        lock.set_model_time(100);
        let mut meter = CycleMeter::default();
        meter.charge(40);
        {
            // Behind the stamp: waits 60, enters at 100, holds 250.
            let mut g = lock.lock(0);
            g.enter(&mut meter);
            assert_eq!(meter.now(), 100);
            meter.charge(250);
            g.publish(meter.now());
        }
        assert_eq!(lock.model_time(), 350);
        let snap = trace.snapshot();
        assert_eq!(snap.counters.locks.pm.hold_max_cycles, 250);
        assert_eq!(snap.lock_wait_pm_hist.max(), 60);
        // An idle gap before the acquisition is neither wait nor hold.
        meter.charge(10_000);
        {
            let mut g = lock.lock(0);
            g.enter(&mut meter);
            meter.charge(30);
            g.publish(meter.now());
        }
        let snap = trace.snapshot();
        assert_eq!(snap.counters.locks.pm.hold_max_cycles, 250, "30 < 250");
        assert_eq!(snap.lock_wait_pm_hist.count(), 2);
        assert_eq!(snap.lock_wait_pm_hist.min(), 0, "ahead of the stamp");
        assert_eq!(lock.model_time(), 10_380);
    }

    #[test]
    fn unpublished_or_unentered_guards_report_no_hold() {
        let trace = TraceSink::new(1, 16);
        let lock = DomainLock::new((), LockLevel::Mem, Some(LockDomain::Mem), trace.clone());
        let mut meter = CycleMeter::default();
        {
            let mut g = lock.lock(0);
            g.enter(&mut meter);
            meter.charge(500);
        }
        drop(lock.lock(0));
        let snap = trace.snapshot();
        assert_eq!(snap.counters.locks.mem.acquisitions, 2);
        assert_eq!(snap.counters.locks.mem.hold_max_cycles, 0);
        assert_eq!(snap.lock_wait_mem_hist.count(), 1, "only the entered one");
        assert_eq!(lock.model_time(), 0, "nothing was published");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn order_checker_rejects_descending_acquire() {
        let trace = TraceSink::new(1, 4);
        let pm = DomainLock::new((), LockLevel::Pm, None, trace.clone());
        let mem = DomainLock::new((), LockLevel::Mem, None, trace);
        // Ascending is fine.
        {
            let _a = pm.lock(0);
            let _b = mem.lock(0);
        }
        // Descending must panic.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _b = mem.lock(0);
            let _a = pm.lock(0);
        }));
        assert!(err.is_err(), "mem→pm acquisition must be rejected");
    }
}
