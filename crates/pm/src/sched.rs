//! The O(1) multi-tenant scheduler: one intrusive FIFO run queue per CPU
//! with per-container CPU-budget accounts and IPC budget inheritance.
//!
//! Atmosphere partitions CPU cores among containers (a container's
//! reservation, §3); each core runs a queue of threads whose containers
//! own that core (directly or through an ancestor — the rule that lets
//! thousands of zero-core tenants share an ancestor's cores). Three
//! mechanisms generalize the paper's fixed 3-container configuration to
//! N tenants:
//!
//! * **Intrusive FIFO run queues.** Each CPU holds one intrusive
//!   doubly-linked list over a shared slab of nodes. Enqueue links at
//!   the tail, pick unlinks the head, and a per-thread location index
//!   makes [`remove`](Scheduler::remove) O(1) from anywhere — no
//!   64-entry cap, no linear scans, pick cost flat in both queue depth
//!   and tenant count. The pick order is round-robin.
//! * **Per-container budget accounts.** A weighted container holds a
//!   [`BudgetAccount`]; its threads' timer ticks consume units and a
//!   timer wheel grants `weight` units per refill period,
//!   so long-run CPU shares are weight-proportional. An exhausted
//!   account is *throttled*: its Ready threads are parked off the run
//!   queues entirely, so an idle or throttled tenant costs the pick
//!   path nothing.
//! * **A sparse refill wheel.** Every account has a refill *phase*: it
//!   is due every [`REFILL_PERIOD`] ticks from its creation. The wheel
//!   holds only the accounts a refill can change; a
//!   [saturated](BudgetAccount::saturated) account keeps its due tick
//!   but no entry, and whatever unsaturates it re-arms it at the next
//!   tick of its phase. A tick's entries fire in *lineage* order (the
//!   order their phases began), which is the order a wheel refilling
//!   every account would have fired them in, so an idle tenant costs
//!   the tick nothing and refill, unpark and run-queue order are those
//!   of that eager wheel.
//! * **Budget inheritance.** A client's direct IPC handoff into a
//!   shared server marks the server thread as billed to the client's
//!   account, so one verified service can multiplex thousands of
//!   clients without its own account being drained by any one of them.
//!
//! The budget ledger is a linear resource: every account satisfies
//! `granted = consumed + refunded + remaining`, checked per account by
//! [`sched_wf`] and globally by the kernel's budget-conservation audit
//! (grants, charges and refunds emit [`AuditDelta`]s into the
//! incremental audit ledger; retired accounts fold into running totals
//! so the stop-the-world cross-check stays bit-for-bit).

use std::collections::{BTreeMap, HashMap};
use std::{fmt, mem};

use atmo_spec::harness::{check, check_eqn, VerifResult};
use atmo_spec::{PermMap, WriteSet};
use atmo_trace::{AuditDelta, KernelEvent, SchedOutcome, TraceHandle, TraceShare};

use crate::container::Container;
use crate::thread::Thread;
use crate::types::{CpuId, CtnrPtr, ThrdPtr, ThreadState};

/// Timer ticks between budget refills of one account.
pub const REFILL_PERIOD: u64 = 16;

/// An account's `remaining` budget is capped at `weight` times this
/// (the burst a tenant can accumulate while idle).
pub const BURST_MULTIPLIER: u64 = 4;

/// Slots of the refill wheel, one tick each. Every refill is armed
/// [`REFILL_PERIOD`] ticks out, so one revolution covers it.
const WHEEL_SLOTS: usize = 64;
const _: () = assert!(REFILL_PERIOD < WHEEL_SLOTS as u64);

/// Null link in the intrusive slab.
const NIL: usize = usize::MAX;

/// One slab node: a queued thread and its intrusive list links.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SlabNode {
    thread: ThrdPtr,
    prev: usize,
    next: usize,
}

/// Where a thread known to the scheduler currently lives — the O(1)
/// location index behind [`Scheduler::remove`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loc {
    /// Linked into `cpu`'s run queue at slab slot `slot`.
    Queued { cpu: CpuId, slot: usize },
    /// Parked off the run queues in its container's throttled account,
    /// at index `idx` of that account's parked list.
    Parked { cntr: CtnrPtr, idx: usize },
    /// Currently running on `cpu`.
    Running { cpu: CpuId },
}

/// Per-CPU scheduling state: the running thread plus one intrusive
/// FIFO list of queued threads.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CpuSched {
    /// The thread currently executing on this CPU.
    current: Option<ThrdPtr>,
    /// Head slab slot (`NIL` = empty).
    head: usize,
    /// Tail slab slot.
    tail: usize,
    /// Queued threads.
    len: u64,
}

impl CpuSched {
    fn new() -> Self {
        CpuSched {
            current: None,
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

/// One container's CPU-budget account (a linear resource: the
/// conservation equation `granted = consumed + refunded + remaining`
/// holds at every step and is audited by [`sched_wf`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BudgetAccount {
    /// Scheduling weight (units granted per refill period; never 0 for
    /// a live account — weight 0 means "no account", the unmetered
    /// strict-partition degenerate case).
    pub weight: u32,
    /// Units currently available to spend.
    pub remaining: u64,
    /// Lifetime units granted by refills (monotone).
    pub granted: u64,
    /// Lifetime units consumed by running threads (monotone).
    pub consumed: u64,
    /// Lifetime units refunded at teardown (monotone).
    pub refunded: u64,
    /// Ticks that ran on this account while `remaining` was already 0
    /// (a thread current on another CPU when the budget hit zero, or
    /// one last tick before the throttle lands). Settled out of the
    /// next refill grant — `consumed` grows instead of `remaining` —
    /// so the time is billed late rather than never. Outside the
    /// conservation equation until settled; dropped at teardown.
    pub debt: u64,
    /// Throttled — by exhaustion or administratively: the container's
    /// Ready threads are parked here instead of occupying run-queue
    /// slots.
    pub throttled: bool,
    /// Administratively throttled via `SchedThrottle`. Refills never
    /// clear this — only an explicit administrative unthrottle does —
    /// whereas a pure exhaustion throttle lifts as soon as a refill
    /// restores budget.
    pub admin_throttled: bool,
    /// Parked threads and the home CPU each re-enqueues to on refill.
    parked: Vec<(ThrdPtr, CpuId)>,
}

impl BudgetAccount {
    /// Threads currently parked in this account.
    pub fn parked(&self) -> &[(ThrdPtr, CpuId)] {
        &self.parked
    }

    /// A refill would change nothing: the burst is full (so it grants
    /// 0), no debt waits to be settled and no exhaustion throttle waits
    /// to be lifted. A saturated account needs no wheel entry.
    pub fn saturated(&self) -> bool {
        self.remaining >= self.weight as u64 * BURST_MULTIPLIER
            && self.debt == 0
            // An administrative throttle is no refill's to lift.
            && (!self.throttled || self.admin_throttled)
    }
}

/// One slot of the budget slab. A mapped slot (named by
/// `Scheduler::budgets`) holds a live account or a *tombstone*: an
/// account torn down before its refill phase ended, kept armed so that
/// a re-create under the same pointer before the entry fires inherits
/// its due tick and lineage.
#[doc(hidden)]
#[derive(Clone, Debug, Default)]
pub struct BudgetSlot {
    pub cntr: CtnrPtr,
    pub live: bool,
    /// Exactly one wheel entry names this slot, at tick `due`.
    pub armed: bool,
    /// A tick of the slot's refill phase: the pending entry's tick
    /// while armed, otherwise the last tick the phase fell on (or the
    /// first, for an account not yet due).
    pub due: u64,
    /// Lineage: the order in which the slot's refill phase began. A
    /// tick's entries fire in lineage order.
    pub seq: u64,
    /// The account while `live`; `BudgetAccount::default()` otherwise.
    pub acct: BudgetAccount,
}

/// Outcome of charging one timer tick to a container's account.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChargeOutcome {
    /// The billed container has no account (weight 0): the unmetered
    /// strict-partition degenerate case.
    Unmetered,
    /// One unit consumed; budget remains.
    Charged,
    /// The charge consumed the last unit (or none remained): the
    /// container should be throttled until the wheel refills it.
    Exhausted,
}

/// The scheduler: per-CPU FIFO run queues over a shared intrusive slab,
/// per-container budget accounts driven by a refill wheel,
/// and the per-thread location index.
#[derive(Clone, Debug)]
pub struct Scheduler {
    cpus: Vec<CpuSched>,
    /// Shared node slab for every CPU's intrusive lists.
    slab: Vec<SlabNode>,
    /// Free slab slots (stack).
    free: Vec<usize>,
    /// Thread → current location. Never iterated (iteration order would
    /// be nondeterministic); every lookup is point-wise.
    index: HashMap<ThrdPtr, Loc>,
    /// The budget slab: accounts live here so a refill is one indexed
    /// load, and the wheel levels hold indices into it.
    slots: Vec<BudgetSlot>,
    /// Free budget-slab slots (stack).
    free_slots: Vec<usize>,
    /// Container page → budget-slab slot, for every mapped slot. Only
    /// the point lookups syscalls make walk it; the tick never does.
    budgets: BTreeMap<CtnrPtr, usize>,
    /// Budget totals of accounts already torn down, so lifetime sums
    /// survive container churn and the stop-the-world audit can
    /// cross-check the incremental ledger bit-for-bit:
    /// `(granted, consumed, refunded)`.
    retired: (u64, u64, u64),
    /// Thread → container whose account its CPU time bills to (set on
    /// an inheriting IPC handoff, cleared when the handoff unwinds).
    /// Never iterated.
    inherited: HashMap<ThrdPtr, CtnrPtr>,
    /// The refill wheel: one slot per tick, holding the budget-slab
    /// indices of the tombstones and of the accounts a refill can
    /// change that are due that tick. They fire in lineage order —
    /// refill order is unpark order is run-queue order.
    wheel: Vec<Vec<usize>>,
    /// Global tick count (advanced once per [`timer_tick`] on any CPU).
    ///
    /// [`timer_tick`]: crate::ProcessManager::timer_tick
    wheel_now: u64,
    /// The next lineage number to hand out.
    next_seq: u64,
    /// The CPUs whose `current` changed since the last
    /// [`clear_moved`](Self::clear_moved).
    moved: WriteSet<CpuId>,
    /// Context-switch / scheduler-counter sink (always-equal share:
    /// tracing does not change scheduler state).
    trace: TraceShare,
}

impl Scheduler {
    /// A scheduler for `ncpus` cores, all idle, no accounts.
    pub fn new(ncpus: usize) -> Self {
        Scheduler {
            cpus: (0..ncpus).map(|_| CpuSched::new()).collect(),
            slab: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            budgets: BTreeMap::new(),
            retired: (0, 0, 0),
            inherited: HashMap::new(),
            wheel: vec![Vec::new(); WHEEL_SLOTS],
            wheel_now: 0,
            next_seq: 0,
            moved: WriteSet::default(),
            trace: TraceShare::detached(),
        }
    }

    /// Routes context-switch events and scheduler counters into `sink`.
    pub fn attach_trace(&mut self, sink: TraceHandle) {
        self.trace.attach(sink);
    }

    /// Emits a context-switch event, and records `cpu` as moved, when
    /// the running thread actually changed.
    fn note_switch(&mut self, cpu: CpuId, from: Option<ThrdPtr>, to: Option<ThrdPtr>) {
        if from != to {
            self.moved.record(cpu);
            self.trace
                .emit(KernelEvent::ContextSwitch { cpu, from, to });
        }
    }

    /// The CPUs whose `current` changed since the last
    /// [`clear_written`](crate::ProcessManager::clear_written), in order.
    pub fn moved(&self) -> &WriteSet<CpuId> {
        &self.moved
    }

    /// Forgets the moved CPUs (keeps the buffer).
    pub(crate) fn clear_moved(&mut self) {
        self.moved.clear();
    }

    /// Number of CPUs.
    pub fn ncpus(&self) -> usize {
        self.cpus.len()
    }

    /// The running thread on `cpu`.
    pub fn current(&self, cpu: CpuId) -> Option<ThrdPtr> {
        self.cpus.get(cpu).and_then(|c| c.current)
    }

    // ----- intrusive slab plumbing -----------------------------------------

    fn alloc_node(&mut self, t: ThrdPtr) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = SlabNode {
                    thread: t,
                    prev: NIL,
                    next: NIL,
                };
                slot
            }
            None => {
                self.slab.push(SlabNode {
                    thread: t,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        }
    }

    /// Links `t` at the tail of `cpu`'s list and indexes it. O(1);
    /// returns the slab nodes written (the new node, plus the old tail
    /// when there was one).
    fn push_tail(&mut self, cpu: CpuId, t: ThrdPtr) -> u64 {
        debug_assert!(
            !self.index.contains_key(&t),
            "thread {t:#x} enqueued while already scheduled"
        );
        let slot = self.alloc_node(t);
        let c = &mut self.cpus[cpu];
        let old_tail = c.tail;
        self.slab[slot].prev = old_tail;
        if old_tail == NIL {
            c.head = slot;
        } else {
            self.slab[old_tail].next = slot;
        }
        c.tail = slot;
        c.len += 1;
        self.index.insert(t, Loc::Queued { cpu, slot });
        self.trace.count(SchedOutcome::Enqueue, 1);
        1 + (old_tail != NIL) as u64
    }

    /// Unlinks slab `slot` from `cpu`'s list (index entry is the
    /// caller's responsibility). O(1); returns the slab nodes touched
    /// (the node itself plus each neighbour it had).
    fn unlink(&mut self, cpu: CpuId, slot: usize) -> u64 {
        let (prev, next) = {
            let n = &self.slab[slot];
            (n.prev, n.next)
        };
        let c = &mut self.cpus[cpu];
        if prev == NIL {
            c.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            c.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
        c.len -= 1;
        self.free.push(slot);
        1 + (prev != NIL) as u64 + (next != NIL) as u64
    }

    /// Linear presence scan — the old O(ncpus·queue) path, kept only to
    /// cross-validate the O(1) location index in debug builds.
    #[cfg(debug_assertions)]
    fn scan_presence(&self, t: ThrdPtr) -> bool {
        for c in &self.cpus {
            if c.current == Some(t) {
                return true;
            }
            let mut slot = c.head;
            while slot != NIL {
                if self.slab[slot].thread == t {
                    return true;
                }
                slot = self.slab[slot].next;
            }
        }
        let mut live = self.slots.iter().filter(|s| s.live);
        live.any(|s| s.acct.parked.iter().any(|&(p, _)| p == t))
    }

    // ----- run-queue operations --------------------------------------------

    /// Read-only view of `cpu`'s ready queue in pick (FIFO) order.
    /// Builds a `Vec` on demand — external callers only inspect it; the
    /// hot `sched_wf` walk iterates the intrusive list directly via
    /// [`queued`](Self::queued).
    pub fn ready_queue(&self, cpu: CpuId) -> Vec<ThrdPtr> {
        self.queued(cpu).collect()
    }

    /// Iterates `cpu`'s queued threads in pick order without
    /// allocating.
    pub fn queued(&self, cpu: CpuId) -> QueuedIter<'_> {
        QueuedIter {
            sched: self,
            slot: self.cpus.get(cpu).map_or(NIL, |c| c.head),
        }
    }

    /// Enqueues a runnable thread at the tail of `cpu`'s run queue.
    /// Overflow is impossible: the intrusive slab grows as needed, so —
    /// unlike the old fixed 64-slot queue — a runnable thread is never
    /// silently dropped.
    pub fn enqueue(&mut self, cpu: CpuId, t: ThrdPtr) {
        if cpu >= self.cpus.len() {
            debug_assert!(false, "enqueue on nonexistent CPU {cpu}");
            return;
        }
        self.push_tail(cpu, t);
    }

    /// Removes `t` from wherever it is queued, parked or running, in
    /// O(1) via the location index. Returns `true` when it was found.
    pub fn remove(&mut self, t: ThrdPtr) -> bool {
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.index.contains_key(&t),
            self.scan_presence(t),
            "location index disagrees with linear scan for thread {t:#x}"
        );
        let loc = match self.index.remove(&t) {
            Some(loc) => loc,
            None => return false,
        };
        match loc {
            Loc::Queued { cpu, slot } => {
                debug_assert_eq!(self.slab[slot].thread, t, "stale location index entry");
                self.unlink(cpu, slot);
            }
            Loc::Parked { cntr, idx } => {
                let acct = self
                    .acct_mut(cntr)
                    .expect("parked thread without an account");
                debug_assert_eq!(acct.parked[idx].0, t, "stale parked index entry");
                acct.parked.swap_remove(idx);
                // The swapped-in entry (if any) moved to `idx`.
                if let Some(&(moved, _)) = acct.parked.get(idx) {
                    self.index.insert(moved, Loc::Parked { cntr, idx });
                }
            }
            Loc::Running { cpu } => {
                debug_assert_eq!(self.cpus[cpu].current, Some(t));
                self.cpus[cpu].current = None;
                self.note_switch(cpu, Some(t), None);
            }
        }
        self.inherited.remove(&t);
        self.trace.count(SchedOutcome::Remove, 1);
        true
    }

    /// Round-robin step on `cpu`: the current thread (if any) goes to
    /// the back of the queue and the head becomes the new current
    /// thread.
    pub fn rotate(&mut self, cpu: CpuId) -> Option<ThrdPtr> {
        if cpu >= self.cpus.len() {
            return None;
        }
        let mut steps = 0;
        let prev = self.cpus[cpu].current;
        if let Some(cur) = self.cpus[cpu].current.take() {
            self.index.remove(&cur);
            steps += self.push_tail(cpu, cur);
        }
        let next = self.take_next(cpu, &mut steps);
        self.note_switch(cpu, prev, next);
        self.trace.count(SchedOutcome::Pick, steps);
        next
    }

    /// Makes the first queued thread current without
    /// requeueing the previous thread (used when the previous thread
    /// blocked).
    pub fn dispatch(&mut self, cpu: CpuId) -> Option<ThrdPtr> {
        if cpu >= self.cpus.len() {
            return None;
        }
        debug_assert!(
            self.cpus[cpu].current.is_none(),
            "dispatch over a running thread"
        );
        let mut steps = 0;
        let next = self.take_next(cpu, &mut steps);
        self.note_switch(cpu, None, next);
        self.trace.count(SchedOutcome::Pick, steps);
        next
    }

    /// Dequeues the head of `cpu`'s list and installs it as current.
    /// O(1); adds the one list head probed plus the nodes the unlink
    /// touched to `steps`.
    fn take_next(&mut self, cpu: CpuId, steps: &mut u64) -> Option<ThrdPtr> {
        let slot = self.cpus[cpu].head;
        if slot == NIL {
            return None;
        }
        let t = self.slab[slot].thread;
        *steps += 1 + self.unlink(cpu, slot);
        self.cpus[cpu].current = Some(t);
        self.index.insert(t, Loc::Running { cpu });
        Some(t)
    }

    /// Marks `t` as the thread currently running on `cpu` (boot/init
    /// path).
    pub fn set_current(&mut self, cpu: CpuId, t: ThrdPtr) {
        debug_assert!(
            self.cpus[cpu].current.is_none(),
            "CPU already running a thread"
        );
        debug_assert!(
            !self.index.contains_key(&t),
            "set_current on an already-scheduled thread"
        );
        self.cpus[cpu].current = Some(t);
        self.index.insert(t, Loc::Running { cpu });
        self.note_switch(cpu, None, Some(t));
    }

    /// Direct handoff: replaces `cpu`'s current thread `from` with `to`
    /// without touching the ready queue — the fastpath IPC switch. The
    /// displaced thread is the caller's responsibility (it blocks on
    /// the endpoint or its reply slot, never lands in the ready queue).
    pub fn switch_current(&mut self, cpu: CpuId, from: ThrdPtr, to: ThrdPtr) {
        debug_assert_eq!(
            self.cpus[cpu].current,
            Some(from),
            "handoff from a non-running thread"
        );
        debug_assert!(
            !self.index.contains_key(&to),
            "handoff target must come from an endpoint, not the run queues"
        );
        self.index.remove(&from);
        self.cpus[cpu].current = Some(to);
        self.index.insert(to, Loc::Running { cpu });
        self.note_switch(cpu, Some(from), Some(to));
    }

    /// Takes the current thread off `cpu` (it blocked or exited).
    pub fn clear_current(&mut self, cpu: CpuId) -> Option<ThrdPtr> {
        let prev = match self.cpus.get_mut(cpu) {
            Some(c) => c.current.take(),
            None => None,
        };
        if let Some(t) = prev {
            self.index.remove(&t);
        }
        self.note_switch(cpu, prev, None);
        prev
    }

    // ----- budget accounts -------------------------------------------------

    /// Sets `cntr`'s scheduling weight. A fresh account starts with a
    /// full burst of budget and a new refill phase, due
    /// [`REFILL_PERIOD`] ticks from now; being saturated, it holds no
    /// wheel entry until it spends. Weight 0 tears the account down (see
    /// [`remove_account`](Self::remove_account)) and returns the
    /// formerly parked threads exactly like it.
    pub fn set_weight(&mut self, cntr: CtnrPtr, weight: u32) -> Vec<(ThrdPtr, CpuId)> {
        if weight == 0 {
            return self.remove_account(cntr);
        }
        let slot = self.budgets.get(&cntr).copied().unwrap_or_else(|| {
            let slot = self.free_slots.pop().unwrap_or_else(|| {
                self.slots.push(BudgetSlot::default());
                self.slots.len() - 1
            });
            let s = &mut self.slots[slot];
            s.cntr = cntr;
            s.due = self.wheel_now + REFILL_PERIOD;
            s.seq = self.next_seq;
            self.next_seq += 1;
            self.budgets.insert(cntr, slot);
            slot
        });
        let s = &mut self.slots[slot];
        s.acct.weight = weight;
        if !s.live {
            // A fresh slot, or a tombstone whose pending wheel entry
            // the new account inherits.
            let grant = weight as u64 * BURST_MULTIPLIER;
            s.live = true;
            s.acct.remaining = grant;
            s.acct.granted = grant;
            self.trace.audit(AuditDelta::BudgetGrant(grant));
        }
        // A larger weight raises the burst cap over what remains.
        self.arm_if_unsaturated(slot);
        Vec::new()
    }

    /// The raw budget slab and refill wheel, for the seeded
    /// corruptions of `tests/fault_injection.rs`.
    #[doc(hidden)]
    pub fn budget_slab_raw(&mut self) -> (&mut [BudgetSlot], &mut [Vec<usize>]) {
        (&mut self.slots, &mut self.wheel)
    }

    /// The mapped slots — live accounts and tombstones — in pointer order.
    fn mapped(&self) -> impl Iterator<Item = &BudgetSlot> {
        self.budgets.values().map(|&slot| &self.slots[slot])
    }

    /// Slab slot of `cntr`'s live account (a tombstone is no account).
    fn live_slot(&self, cntr: CtnrPtr) -> Option<usize> {
        let slot = *self.budgets.get(&cntr)?;
        self.slots[slot].live.then_some(slot)
    }

    fn acct_mut(&mut self, cntr: CtnrPtr) -> Option<&mut BudgetAccount> {
        let slot = self.live_slot(cntr)?;
        Some(&mut self.slots[slot].acct)
    }

    /// `cntr`'s scheduling weight (0 = no account).
    pub fn weight(&self, cntr: CtnrPtr) -> u32 {
        self.account(cntr).map(|a| a.weight).unwrap_or(0)
    }

    /// `true` when `cntr`'s account is currently throttled.
    pub fn throttled(&self, cntr: CtnrPtr) -> bool {
        self.account(cntr).is_some_and(|a| a.throttled)
    }

    /// `cntr`'s account, when it has one (diagnostics and tests).
    pub fn account(&self, cntr: CtnrPtr) -> Option<&BudgetAccount> {
        let slot = self.live_slot(cntr)?;
        Some(&self.slots[slot].acct)
    }

    /// Tears down `cntr`'s account: the remaining budget is refunded
    /// (the linear resource is returned, never dropped), lifetime
    /// totals fold into the retired sums, and any parked threads are
    /// unindexed and returned so the caller can re-enqueue or terminate
    /// them.
    pub fn remove_account(&mut self, cntr: CtnrPtr) -> Vec<(ThrdPtr, CpuId)> {
        let Some(slot) = self.live_slot(cntr) else {
            return Vec::new();
        };
        // The slot stays mapped as a tombstone until the next tick of
        // its phase, so a re-create before then inherits that tick.
        self.arm_refill(slot);
        let s = &mut self.slots[slot];
        s.live = false;
        let mut acct = mem::take(&mut s.acct);
        if acct.remaining > 0 {
            let refund = acct.remaining;
            acct.refunded += refund;
            acct.remaining = 0;
            self.trace.audit(AuditDelta::BudgetRefund(refund));
        }
        self.retired.0 += acct.granted;
        self.retired.1 += acct.consumed;
        self.retired.2 += acct.refunded;
        for &(t, _) in &acct.parked {
            self.index.remove(&t);
        }
        acct.parked
    }

    /// Parks Ready thread `t` (homed on `cpu`) in its throttled
    /// container's account, off the run queues.
    pub fn park(&mut self, t: ThrdPtr, cpu: CpuId, cntr: CtnrPtr) {
        debug_assert!(
            !self.index.contains_key(&t),
            "park of a thread still scheduled"
        );
        let acct = self
            .acct_mut(cntr)
            .expect("park into a container without an account");
        debug_assert!(acct.throttled, "park into an unthrottled account");
        let idx = acct.parked.len();
        acct.parked.push((t, cpu));
        self.index.insert(t, Loc::Parked { cntr, idx });
        self.trace.count(SchedOutcome::Park, 1);
    }

    /// Charges one timer tick of CPU time to `cntr`'s account.
    /// [`ChargeOutcome::Exhausted`] tells the caller to throttle the
    /// container (which [`throttle`](Self::throttle) records). A tick
    /// that lands on an already-empty account (a thread still running
    /// on another CPU when the budget hit zero) accrues as `debt` and
    /// is billed out of the next refill grant instead of going
    /// unmetered.
    pub fn charge_tick(&mut self, cntr: CtnrPtr) -> ChargeOutcome {
        let Some(slot) = self.live_slot(cntr) else {
            return ChargeOutcome::Unmetered;
        };
        let acct = &mut self.slots[slot].acct;
        let out = if acct.remaining == 0 {
            acct.debt += 1;
            ChargeOutcome::Exhausted
        } else {
            acct.remaining -= 1;
            acct.consumed += 1;
            self.trace.audit(AuditDelta::BudgetCharge(1));
            if acct.remaining == 0 {
                ChargeOutcome::Exhausted
            } else {
                ChargeOutcome::Charged
            }
        };
        self.arm_if_unsaturated(slot);
        out
    }

    /// Marks `cntr`'s account throttled by exhaustion (its Ready
    /// threads are then parked by the caller); the next refill that
    /// restores budget lifts it. Idempotent.
    pub fn throttle(&mut self, cntr: CtnrPtr) {
        let Some(slot) = self.live_slot(cntr) else {
            return;
        };
        let acct = &mut self.slots[slot].acct;
        if !acct.throttled {
            acct.throttled = true;
            self.trace.count(SchedOutcome::Throttle, 1);
            // The next refill lifts it.
            self.arm_if_unsaturated(slot);
        }
    }

    /// Marks `cntr`'s account administratively throttled: it stays
    /// throttled across refills until
    /// [`unthrottle_admin`](Self::unthrottle_admin) clears it.
    /// Idempotent; composes with an exhaustion throttle already in
    /// force.
    pub fn throttle_admin(&mut self, cntr: CtnrPtr) {
        if let Some(acct) = self.acct_mut(cntr) {
            acct.admin_throttled = true;
            if !acct.throttled {
                acct.throttled = true;
                self.trace.count(SchedOutcome::Throttle, 1);
            }
        }
    }

    /// Clears `cntr`'s administrative throttle. When budget remains the
    /// account unthrottles fully and its parked threads re-enqueue; an
    /// exhausted account stays throttled-by-exhaustion until the wheel
    /// refills it. Neither case unsaturates the account (an exhausted
    /// one is armed already), so nothing is re-armed.
    pub fn unthrottle_admin(&mut self, cntr: CtnrPtr) {
        let Some(slot) = self.live_slot(cntr) else {
            return;
        };
        let acct = &mut self.slots[slot].acct;
        if mem::replace(&mut acct.admin_throttled, false) && acct.remaining > 0 {
            self.unthrottle(slot);
        }
    }

    /// The first tick of `slot`'s refill phase after now: its stored
    /// due tick advanced by whole [`REFILL_PERIOD`]s.
    fn next_due(&self, slot: usize) -> u64 {
        let (due, now) = (self.slots[slot].due, self.wheel_now);
        if due > now {
            due
        } else {
            due + (now - due) / REFILL_PERIOD * REFILL_PERIOD + REFILL_PERIOD
        }
    }

    /// Arms `slot`'s refill at the next tick of its phase, the tick a
    /// wheel refilling every account would have refilled it at (one
    /// pending entry per slot; re-arming while armed is a no-op, which
    /// keeps teardown/re-create churn from double-scheduling).
    fn arm_refill(&mut self, slot: usize) {
        if !self.slots[slot].armed {
            let due = self.next_due(slot);
            let s = &mut self.slots[slot];
            (s.armed, s.due) = (true, due);
            self.wheel[(due % WHEEL_SLOTS as u64) as usize].push(slot);
        }
    }

    /// Arms `slot`'s refill unless its live account is saturated: the
    /// step every operation that can unsaturate an account ends with.
    fn arm_if_unsaturated(&mut self, slot: usize) {
        if !self.slots[slot].acct.saturated() {
            self.arm_refill(slot);
        }
    }

    /// Advances the refill wheel one tick: refills every due account in
    /// lineage order (the order a wheel holding every account would
    /// refill them in), unthrottles accounts that regained budget and
    /// re-enqueues their parked threads (state unchanged — an idle CPU
    /// picks them up at its next tick or dispatch, so unparking is a
    /// Ψ-noop), re-arms those a next refill can still change and frees
    /// the fired tombstones. O(1) + O(due · log due) per tick with no
    /// tree walk and no allocation; saturated accounts cost nothing. The
    /// tick's counter and ledger traffic is emitted once, summed
    /// (counter-only events and ledger sums commute).
    pub fn advance_wheel(&mut self) {
        self.wheel_now += 1;
        let now = self.wheel_now;
        let at = (now % WHEEL_SLOTS as u64) as usize;
        let mut due = mem::take(&mut self.wheel[at]);
        // Entries were armed whenever their accounts unsaturated; firing
        // them by lineage restores the eager wheel's FIFO order.
        due.sort_unstable_by_key(|&slot| self.slots[slot].seq);
        let (mut refills, mut granted, mut settled) = (0, 0, 0);
        for slot in due.drain(..) {
            let s = &mut self.slots[slot];
            s.armed = false;
            if !s.live {
                // A tombstone nobody re-created: the slot is free now.
                self.budgets.remove(&s.cntr);
                self.free_slots.push(slot);
                continue;
            }
            let acct = &mut s.acct;
            let cap = acct.weight as u64 * BURST_MULTIPLIER;
            let grant = (acct.weight as u64).min(cap.saturating_sub(acct.remaining));
            // Ticks that ran while the account was already empty settle
            // out of the grant first: they were consumed, just billed
            // late.
            let settle = grant.min(acct.debt);
            acct.debt -= settle;
            acct.consumed += settle;
            acct.remaining += grant - settle;
            acct.granted += grant;
            refills += 1;
            granted += grant;
            settled += settle;
            // An administrative throttle never lifts on refill — only
            // the exhaustion case auto-unthrottles.
            if acct.throttled && !acct.admin_throttled && acct.remaining > 0 {
                self.unthrottle(slot);
            }
            self.arm_if_unsaturated(slot);
        }
        // Re-arming lands `REFILL_PERIOD` slots on, so the drained slot
        // stayed empty: hand its buffer back with the capacity kept.
        debug_assert!(self.wheel[at].is_empty());
        self.wheel[at] = due;
        if refills > 0 {
            self.trace.count(SchedOutcome::Refill, refills);
        }
        if granted > 0 {
            self.trace.audit(AuditDelta::BudgetGrant(granted));
        }
        if settled > 0 {
            self.trace.audit(AuditDelta::BudgetCharge(settled));
        }
    }

    /// Clears the throttle of `slot`'s account and re-enqueues its
    /// parked threads on their home CPUs (state unchanged — Ψ-noop; an
    /// idle CPU picks them up at its next tick or dispatch). No-op on an
    /// unthrottled account.
    fn unthrottle(&mut self, slot: usize) {
        let acct = &mut self.slots[slot].acct;
        if !mem::replace(&mut acct.throttled, false) {
            return;
        }
        let mut parked = mem::take(&mut acct.parked);
        self.trace.count(SchedOutcome::Unthrottle, 1);
        self.trace.count(SchedOutcome::Unpark, parked.len() as u64);
        for (t, cpu) in parked.drain(..) {
            self.index.remove(&t);
            self.push_tail(cpu, t);
        }
        // The account keeps its buffer: the next park allocates nothing.
        self.slots[slot].acct.parked = parked;
    }

    // ----- budget inheritance ----------------------------------------------

    /// Marks `t`'s CPU time as billed to `cntr`'s account (the client's
    /// account on an IPC direct handoff into a shared server). The
    /// caller resolves nested inheritance before calling, so chains
    /// collapse to the originating client.
    pub fn inherit(&mut self, t: ThrdPtr, cntr: CtnrPtr) {
        self.inherited.insert(t, cntr);
        self.trace.count(SchedOutcome::InheritHandoff, 1);
    }

    /// Clears `t`'s inherited billing (the handoff unwound).
    pub fn clear_inherit(&mut self, t: ThrdPtr) {
        self.inherited.remove(&t);
    }

    /// The container `t`'s CPU time bills to: its inherited account
    /// when a handoff is outstanding, otherwise `owner`.
    pub fn billed(&self, t: ThrdPtr, owner: CtnrPtr) -> CtnrPtr {
        self.inherited.get(&t).copied().unwrap_or(owner)
    }

    /// Lifetime budget totals across live and retired accounts:
    /// `(granted, consumed, refunded, remaining)`. The stop-the-world
    /// audit reconstructs its budget components from this, so the
    /// incremental ledger cross-checks bit-for-bit even across
    /// container churn.
    pub fn budget_totals(&self) -> (u64, u64, u64, u64) {
        let mut totals = (self.retired.0, self.retired.1, self.retired.2, 0);
        for acct in self.slots.iter().filter(|s| s.live).map(|s| &s.acct) {
            totals.0 += acct.granted;
            totals.1 += acct.consumed;
            totals.2 += acct.refunded;
            totals.3 += acct.remaining;
        }
        totals
    }
}

/// Equality is on abstract content — mapped slots by container pointer,
/// each with its next refill tick, and the lineage order of the slots
/// due on one tick — so schedulers that reached the same accounts by
/// different churn histories, number their budget slots and lineages
/// differently, or hold a no-op entry where the other holds none, stay
/// equal.
impl PartialEq for Scheduler {
    fn eq(&self, o: &Self) -> bool {
        fn content(s: &BudgetSlot) -> (CtnrPtr, bool, &BudgetAccount) {
            (s.cntr, s.live, &s.acct)
        }
        let refills = |s: &Self| -> Vec<(u64, CtnrPtr)> {
            let mut due: Vec<_> = (s.budgets.values())
                .map(|&slot| (s.next_due(slot), s.slots[slot].seq, s.slots[slot].cntr))
                .collect();
            due.sort_unstable();
            due.into_iter()
                .map(|(tick, _, cntr)| (tick, cntr))
                .collect()
        };
        self.mapped().map(content).eq(o.mapped().map(content))
            && refills(self) == refills(o)
            && (&self.cpus, &self.slab, &self.free) == (&o.cpus, &o.slab, &o.free)
            && (&self.index, &self.inherited) == (&o.index, &o.inherited)
            && (self.retired, self.wheel_now) == (o.retired, o.wheel_now)
    }
}

impl Eq for Scheduler {}

/// Non-allocating iterator over one CPU's queued threads in pick order.
pub struct QueuedIter<'a> {
    sched: &'a Scheduler,
    slot: usize,
}

impl Iterator for QueuedIter<'_> {
    type Item = ThrdPtr;

    fn next(&mut self) -> Option<ThrdPtr> {
        if self.slot == NIL {
            return None;
        }
        let node = &self.sched.slab[self.slot];
        self.slot = node.next;
        Some(node.thread)
    }
}

/// The named equations of [`sched_wf`]; `tests/fault_injection.rs`
/// keeps one seeded mutant for each.
pub const SCHED_EQUATIONS: [&str; 5] = [
    "budget-slot-bijection",
    "mapped-slot-armed",
    "free-slot-inert",
    "armed-one-wheel-entry",
    "budget-conservation",
];

/// Scheduler well-formedness: every queued/parked/running thread is
/// live and in the matching state, appears in exactly one place (with a
/// coherent location-index entry), runs only on a core its container
/// (or one of its ancestors) owns, and every budget account conserves
/// its linear resource (`granted = consumed + refunded + remaining`).
pub fn sched_wf(
    sched: &Scheduler,
    cntrs: &PermMap<Container>,
    thrds: &PermMap<Thread>,
) -> VerifResult {
    let mut seen: Vec<ThrdPtr> = Vec::new();
    let check_scheduled = |t: ThrdPtr, cpu: CpuId, running: bool, seen: &mut Vec<ThrdPtr>| {
        check(
            thrds.contains(t),
            "scheduler",
            format_args!("dead thread {t:#x} scheduled on CPU {cpu}"),
        )?;
        check(
            !seen.contains(&t),
            "scheduler",
            format_args!("thread {t:#x} scheduled twice"),
        )?;
        seen.push(t);

        let thread = thrds.value(t);
        let expected = if running {
            matches!(thread.state, ThreadState::Running(c) if c == cpu)
        } else {
            thread.state == ThreadState::Ready
        };
        check(
            expected,
            "scheduler",
            format_args!(
                "thread {t:#x} state {:?} inconsistent with CPU {cpu}",
                thread.state
            ),
        )?;

        // CPU ownership: the owning container or an ancestor owns the
        // core.
        let c = thread.owning_cntr;
        check(
            cntrs.contains(c),
            "scheduler",
            format_args!("scheduled thread {t:#x} of unknown container"),
        )?;
        let cntr = cntrs.value(c);
        let owns = cntr.owned_cpus.contains(&cpu)
            || cntr
                .path
                .iter()
                .any(|anc| cntrs.contains(*anc) && cntrs.value(*anc).owned_cpus.contains(&cpu));
        check(
            owns,
            "scheduler",
            format_args!("thread {t:#x} runs on CPU {cpu} its container does not own"),
        )
    };

    for cpu in 0..sched.ncpus() {
        // List length/head coherence.
        let c = &sched.cpus[cpu];
        check(
            (c.len > 0) == (c.head != NIL),
            "scheduler",
            format_args!(
                "CPU {cpu}: queue length {} out of sync with its head",
                c.len
            ),
        )?;
        for t in sched.queued(cpu) {
            check_scheduled(t, cpu, false, &mut seen)?;
            check(
                matches!(sched.index.get(&t), Some(Loc::Queued { cpu: c2, .. }) if *c2 == cpu),
                "scheduler",
                format_args!("queued thread {t:#x} has no matching index entry"),
            )?;
        }
        if let Some(t) = sched.current(cpu) {
            check_scheduled(t, cpu, true, &mut seen)?;
            check(
                matches!(sched.index.get(&t), Some(Loc::Running { cpu: c2 }) if *c2 == cpu),
                "scheduler",
                format_args!("running thread {t:#x} has no matching index entry"),
            )?;
        }
    }

    // The budget slab: `budgets` and `slot.cntr` are inverse over the
    // mapped slots (live accounts and tombstones); every tombstone, and
    // every account a refill would change, awaits its refill; every
    // other slot is on the free list and inert; and `armed` counts the
    // wheel entries naming a slot, each filed under its due tick within
    // the next refill period.
    let eqn = |ok: bool, equation: &'static str, detail: fmt::Arguments<'_>| {
        check_eqn(ok, "scheduler", "pm", equation, detail)
    };
    let n = sched.slots.len();
    let is_mapped = |i: usize| sched.budgets.get(&sched.slots[i].cntr) == Some(&i);
    let mapped = (0..n).filter(|&i| is_mapped(i)).count();
    eqn(
        mapped == sched.budgets.len() && mapped + sched.free_slots.len() == n,
        "budget-slot-bijection",
        format_args!("{mapped} of {n} slots mapped by {:?}", sched.budgets),
    )?;
    let (mut entries, mut misfiled) = (vec![0; n + 1], 0);
    for (at, pending) in sched.wheel.iter().enumerate() {
        for &slot in pending {
            entries[slot.min(n)] += 1;
            let filed_at = sched
                .slots
                .get(slot)
                .map_or(at, |s| (s.due % WHEEL_SLOTS as u64) as usize);
            misfiled += (filed_at != at) as usize;
        }
    }
    let what = format_args!("{} wheel entries outside the slab", entries[n]);
    eqn(entries[n] == 0, "armed-one-wheel-entry", what)?;
    let what = format_args!("{misfiled} wheel entries filed under another tick");
    eqn(misfiled == 0, "armed-one-wheel-entry", what)?;
    let now = sched.wheel_now;
    for (i, s) in sched.slots.iter().enumerate() {
        if is_mapped(i) {
            let what = format_args!("container {:#x} needs a refill, none is pending", s.cntr);
            let needed = !s.live || !s.acct.saturated();
            eqn(s.armed || !needed, "mapped-slot-armed", what)?;
        } else {
            let inert = !s.live && !s.armed && sched.free_slots.contains(&i);
            let what = format_args!("unmapped slot {i} is live, armed or lost");
            eqn(inert, "free-slot-inert", what)?;
        }
        let what = format_args!("slot {i}: {} entries, armed = {}", entries[i], s.armed);
        eqn(
            entries[i] == s.armed as usize,
            "armed-one-wheel-entry",
            what,
        )?;
        let in_period = now < s.due && s.due <= now + REFILL_PERIOD;
        let what = format_args!("slot {i} due at tick {} at tick {now}", s.due);
        eqn(!s.armed || in_period, "armed-one-wheel-entry", what)?;
    }

    // Parked threads: live, Ready, owned cores, indexed — and only in
    // throttled accounts (an unthrottled account never holds threads
    // back).
    for s in sched.mapped().filter(|s| s.live) {
        let (cntr_ptr, acct) = (&s.cntr, &s.acct);
        check(
            acct.weight > 0,
            "scheduler",
            format_args!("container {cntr_ptr:#x} holds a zero-weight account"),
        )?;
        eqn(
            acct.granted == acct.consumed + acct.refunded + acct.remaining,
            "budget-conservation",
            format_args!(
                "container {cntr_ptr:#x} budget not conserved: {} granted != {} consumed + {} refunded + {} remaining",
                acct.granted, acct.consumed, acct.refunded, acct.remaining
            ),
        )?;
        check(
            acct.parked.is_empty() || acct.throttled,
            "scheduler",
            format_args!("container {cntr_ptr:#x} parks threads while unthrottled"),
        )?;
        check(
            !acct.admin_throttled || acct.throttled,
            "scheduler",
            format_args!("container {cntr_ptr:#x} admin-throttled but not throttled"),
        )?;
        for (idx, &(t, cpu)) in acct.parked.iter().enumerate() {
            check_scheduled(t, cpu, false, &mut seen)?;
            check(
                sched.index.get(&t)
                    == Some(&Loc::Parked {
                        cntr: *cntr_ptr,
                        idx,
                    }),
                "scheduler",
                format_args!("parked thread {t:#x} has no matching index entry"),
            )?;
        }
    }

    check(
        sched.index.len() == seen.len(),
        "scheduler",
        format_args!(
            "location index holds {} entries for {} scheduled threads",
            sched.index.len(),
            seen.len()
        ),
    )?;

    // Conversely, every Ready/Running thread is scheduled somewhere.
    for (t_ptr, perm) in thrds.iter() {
        match perm.value().state {
            ThreadState::Ready | ThreadState::Running(_) => {
                check(
                    seen.contains(&t_ptr),
                    "scheduler",
                    format_args!("runnable thread {t_ptr:#x} not scheduled on any CPU"),
                )?;
            }
            _ => {
                check(
                    !seen.contains(&t_ptr),
                    "scheduler",
                    format_args!("blocked thread {t_ptr:#x} still scheduled"),
                )?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotate_is_round_robin() {
        let mut s = Scheduler::new(1);
        s.enqueue(0, 0xa);
        s.enqueue(0, 0xb);
        assert_eq!(s.rotate(0), Some(0xa));
        assert_eq!(s.rotate(0), Some(0xb));
        assert_eq!(s.rotate(0), Some(0xa), "wraps around");
        assert_eq!(s.ready_queue(0), &[0xb]);
    }

    #[test]
    fn dispatch_after_block() {
        let mut s = Scheduler::new(1);
        s.enqueue(0, 0xa);
        s.enqueue(0, 0xb);
        s.dispatch(0);
        assert_eq!(s.current(0), Some(0xa));
        // 0xa blocks: clear and dispatch the next.
        assert_eq!(s.clear_current(0), Some(0xa));
        assert_eq!(s.dispatch(0), Some(0xb));
    }

    #[test]
    fn remove_finds_thread_anywhere() {
        let mut s = Scheduler::new(2);
        s.enqueue(0, 0xa);
        s.enqueue(1, 0xb);
        s.dispatch(1);
        assert!(s.remove(0xa), "from a ready queue");
        assert!(s.remove(0xb), "from current");
        assert!(!s.remove(0xc));
        assert_eq!(s.current(1), None);
    }

    #[test]
    fn switch_current_bypasses_ready_queue() {
        let mut s = Scheduler::new(1);
        s.enqueue(0, 0xa);
        s.enqueue(0, 0xc);
        s.dispatch(0);
        assert_eq!(s.current(0), Some(0xa));
        // Direct handoff to 0xb (a thread parked on an endpoint, not in
        // the queue): current changes, the queue is untouched.
        s.switch_current(0, 0xa, 0xb);
        assert_eq!(s.current(0), Some(0xb));
        assert_eq!(s.ready_queue(0), &[0xc]);
    }

    #[test]
    fn rotate_on_empty_cpu_idles() {
        let mut s = Scheduler::new(1);
        assert_eq!(s.rotate(0), None);
        assert_eq!(s.current(0), None);
    }

    #[test]
    fn per_cpu_isolation_of_queues() {
        let mut s = Scheduler::new(2);
        s.enqueue(0, 0xa);
        assert!(s.ready_queue(1).is_empty());
        assert_eq!(s.ready_queue(0), &[0xa]);
    }

    /// Regression for the old 64-slot cap: `enqueue` used to return
    /// `false` — and callers that ignored it silently lost runnable
    /// threads — past `MAX_READY_QUEUE = 64`. The intrusive slab has no
    /// cap: a thousand threads enqueue, stay FIFO, and every one is
    /// individually removable.
    #[test]
    fn enqueue_never_overflows() {
        let mut s = Scheduler::new(1);
        for t in 0..1000usize {
            s.enqueue(0, 0x1000 + t);
        }
        let q = s.ready_queue(0);
        assert_eq!(q.len(), 1000, "no 64-entry cap, nothing dropped");
        assert_eq!(q[0], 0x1000);
        assert_eq!(q[999], 0x1000 + 999);
        assert!(s.remove(0x1000 + 500), "O(1) removal from the middle");
        assert_eq!(s.ready_queue(0).len(), 999);
    }

    #[test]
    fn remove_is_indexed_from_queue_park_and_current() {
        let mut s = Scheduler::new(2);
        for t in 0..100usize {
            s.enqueue(0, 0x2000 + t);
        }
        // Middle, head, tail removals keep FIFO order of the rest.
        assert!(s.remove(0x2000 + 50));
        assert!(s.remove(0x2000));
        assert!(s.remove(0x2000 + 99));
        let q = s.ready_queue(0);
        assert_eq!(q.len(), 97);
        assert_eq!(q[0], 0x2001);
        assert_eq!(q[96], 0x2000 + 98);
        // Parked removal fixes the swapped entry's index.
        s.set_weight(0x9000, 1);
        s.throttle(0x9000);
        s.park(0xaa, 1, 0x9000);
        s.park(0xbb, 1, 0x9000);
        s.park(0xcc, 1, 0x9000);
        assert!(s.remove(0xaa));
        assert!(s.remove(0xcc), "swap_remove moved 0xcc's index");
        assert!(s.remove(0xbb));
        assert!(!s.remove(0xbb), "second removal finds nothing");
    }

    #[test]
    fn pick_steps_do_not_grow_with_queue_depth() {
        // Queue `depth` tenants, then block one pick and rotate through
        // two more. The nodes each pick touches are the same at depth 4
        // and at depth 1000.
        let steps = |depth: usize| {
            let sink = atmo_trace::TraceSink::new(1, 8);
            let mut s = Scheduler::new(1);
            s.attach_trace(sink.clone());
            for t in 1..=depth {
                s.enqueue(0, t * 0x1000);
            }
            let mut seen = Vec::new();
            for pick in 0..3 {
                let picked = if pick == 0 {
                    s.dispatch(0)
                } else {
                    s.rotate(0)
                };
                assert_eq!(picked, Some((pick + 1) * 0x1000), "FIFO order");
                let total = sink.snapshot().sched_pick_hist.total_cycles();
                seen.push(total - seen.iter().sum::<u64>());
            }
            seen
        };
        let shallow = steps(4);
        assert_eq!(shallow, steps(1000));
        // Probe the head, unlink it from its successor; a rotate first
        // links the outgoing thread behind the tail.
        assert_eq!(shallow, [3, 3 + 2, 3 + 2]);
    }

    #[test]
    fn budget_accounts_conserve_and_throttle_round_trips() {
        let mut s = Scheduler::new(1);
        s.set_weight(0x9000, 2);
        let initial = 2 * BURST_MULTIPLIER;
        assert_eq!(s.account(0x9000).unwrap().remaining, initial);
        // Drain the account one tick at a time.
        for i in 0..initial {
            let out = s.charge_tick(0x9000);
            if i == initial - 1 {
                assert_eq!(out, ChargeOutcome::Exhausted);
            } else {
                assert_eq!(out, ChargeOutcome::Charged);
            }
        }
        assert_eq!(s.charge_tick(0x9000), ChargeOutcome::Exhausted);
        s.throttle(0x9000);
        s.park(0xaa, 0, 0x9000);
        assert!(s.throttled(0x9000));
        // The refill wheel unthrottles at the next period boundary.
        for _ in 0..REFILL_PERIOD {
            assert!(s.ready_queue(0).is_empty(), "parked until the refill");
            s.advance_wheel();
        }
        assert!(!s.throttled(0x9000));
        assert_eq!(s.ready_queue(0), &[0xaa], "unparked threads re-enqueue");
        let acct = s.account(0x9000).unwrap();
        assert_eq!(
            acct.granted,
            acct.consumed + acct.refunded + acct.remaining,
            "conservation"
        );
        // Teardown refunds the remainder; totals survive retirement.
        let before = s.budget_totals();
        s.remove_account(0x9000);
        let after = s.budget_totals();
        assert_eq!(after.0, before.0, "granted survives retirement");
        assert_eq!(after.3, 0, "remaining refunded on teardown");
        assert_eq!(after.0, after.1 + after.2 + after.3);
    }

    #[test]
    fn admin_throttle_survives_refills_until_cleared() {
        let mut s = Scheduler::new(1);
        s.set_weight(0x9000, 2);
        assert!(s.account(0x9000).unwrap().remaining > 0);
        s.throttle_admin(0x9000);
        s.park(0xaa, 0, 0x9000);
        // Several full refill periods: the account keeps its budget
        // (burst-capped, grant 0) yet must stay throttled — a refill
        // never lifts an administrative throttle.
        for _ in 0..4 * REFILL_PERIOD {
            s.advance_wheel();
            assert!(s.ready_queue(0).is_empty(), "refill lifted admin throttle");
        }
        assert!(s.throttled(0x9000));
        // Explicit unthrottle with budget remaining: full round trip.
        s.unthrottle_admin(0x9000);
        assert!(!s.throttled(0x9000));
        assert_eq!(s.ready_queue(0), &[0xaa]);
    }

    #[test]
    fn admin_unthrottle_of_exhausted_account_waits_for_refill() {
        let mut s = Scheduler::new(1);
        s.set_weight(0x9000, 1);
        while s.charge_tick(0x9000) == ChargeOutcome::Charged {}
        s.throttle(0x9000); // exhaustion throttle first
        s.throttle_admin(0x9000); // then the admin one on top
        s.park(0xaa, 0, 0x9000);
        // Clearing the admin throttle alone must not release the
        // threads: the account is still out of budget.
        s.unthrottle_admin(0x9000);
        assert!(s.throttled(0x9000), "still exhaustion-throttled");
        assert!(s.ready_queue(0).is_empty());
        // The next refill restores budget and lifts the rest.
        for _ in 0..REFILL_PERIOD {
            s.advance_wheel();
        }
        assert_eq!(s.ready_queue(0), &[0xaa]);
        assert!(!s.throttled(0x9000));
    }

    #[test]
    fn exhausted_ticks_accrue_debt_settled_by_the_next_grant() {
        let mut s = Scheduler::new(1);
        s.set_weight(0x9000, 2);
        while s.charge_tick(0x9000) == ChargeOutcome::Charged {}
        let consumed_spent = s.account(0x9000).unwrap().consumed;
        // Three more ticks land on the empty account (threads still
        // running elsewhere): unbilled for now, recorded as debt.
        for _ in 0..3 {
            assert_eq!(s.charge_tick(0x9000), ChargeOutcome::Exhausted);
        }
        let acct = s.account(0x9000).unwrap();
        assert_eq!(acct.debt, 3);
        assert_eq!(acct.consumed, consumed_spent, "not yet billed");
        // The refill grant (weight 2) pays debt first: 2 of 3 units go
        // straight to `consumed`, none to `remaining`, debt 1 carries.
        for _ in 0..REFILL_PERIOD {
            s.advance_wheel();
        }
        let acct = s.account(0x9000).unwrap();
        assert_eq!(acct.debt, 1);
        assert_eq!(acct.consumed, consumed_spent + 2);
        assert_eq!(acct.remaining, 0);
        // Next refill clears the rest and budget starts accruing again.
        for _ in 0..REFILL_PERIOD {
            s.advance_wheel();
        }
        let acct = s.account(0x9000).unwrap();
        assert_eq!(acct.debt, 0);
        assert_eq!(acct.consumed, consumed_spent + 3);
        assert_eq!(acct.remaining, 1);
        // Conservation holds throughout — debt lives outside it.
        assert_eq!(acct.granted, acct.consumed + acct.refunded + acct.remaining);
    }

    #[test]
    fn unmetered_containers_charge_nothing() {
        let mut s = Scheduler::new(1);
        assert_eq!(s.charge_tick(0x9000), ChargeOutcome::Unmetered);
        assert_eq!(s.budget_totals(), (0, 0, 0, 0));
    }

    #[test]
    fn refill_wheel_caps_bursts_and_survives_churn() {
        let mut s = Scheduler::new(1);
        s.set_weight(0x9000, 4);
        // Fully charged at creation: refills grant nothing until spent.
        for _ in 0..REFILL_PERIOD {
            s.advance_wheel();
        }
        let acct = s.account(0x9000).unwrap();
        assert_eq!(acct.remaining, 4 * BURST_MULTIPLIER, "burst cap holds");
        // Tear down and re-create while a wheel entry is still armed:
        // the stale entry must not double-arm the new account.
        s.remove_account(0x9000);
        s.set_weight(0x9000, 1);
        for _ in 0..4 * REFILL_PERIOD {
            s.charge_tick(0x9000);
            s.advance_wheel();
        }
        let acct = s.account(0x9000).unwrap();
        assert_eq!(
            acct.granted,
            acct.consumed + acct.refunded + acct.remaining,
            "conservation across churn"
        );
    }

    /// Equality is on content, not on budget-slab numbering: churn that
    /// recycles slots in another order leaves an equal scheduler.
    #[test]
    fn equality_ignores_slot_numbering() {
        // A short-lived third account takes the first slot in one
        // history and the last in the other; once its tombstone fires
        // the survivors sit in slots 1,2 here and 0,1 there.
        let build = |order: [CtnrPtr; 3]| {
            let mut s = Scheduler::new(1);
            for c in order {
                s.set_weight(c, 2);
            }
            s.remove_account(0xf000);
            for _ in 0..REFILL_PERIOD {
                s.advance_wheel();
            }
            s.charge_tick(0xa000);
            s
        };
        let a = build([0xf000, 0x9000, 0xa000]);
        let b = build([0x9000, 0xa000, 0xf000]);
        assert_ne!(a.budgets, b.budgets, "the histories number slots apart");
        assert_eq!(a, b);
        // Content still separates them: an account field, a tombstone,
        // the order two entries fire in.
        let mut c = build([0x9000, 0xa000, 0xf000]);
        c.charge_tick(0x9000);
        assert_ne!(a, c);
        let mut d = build([0x9000, 0xa000, 0xf000]);
        d.remove_account(0xa000);
        assert_ne!(a, d);
        assert_ne!(a, build([0xa000, 0x9000, 0xf000]));
    }

    /// Entries reach a wheel slot in the order their accounts spent, not
    /// the order their phases began; a tick still fires them by lineage,
    /// so parked threads re-enqueue in the order the eager wheel would.
    #[test]
    fn a_tick_fires_its_entries_in_lineage_order() {
        let mut s = Scheduler::new(1);
        s.set_weight(0x9000, 1);
        s.set_weight(0xa000, 1);
        // Exhaust and park the younger lineage first.
        for (cntr, t) in [(0xa000, 0xaa), (0x9000, 0x99)] {
            while s.charge_tick(cntr) == ChargeOutcome::Charged {}
            s.throttle(cntr);
            s.park(t, 0, cntr);
        }
        let at = (REFILL_PERIOD % WHEEL_SLOTS as u64) as usize;
        let armed: Vec<_> = s.wheel[at].iter().map(|&slot| s.slots[slot].cntr).collect();
        assert_eq!(armed, [0xa000, 0x9000], "armed in spending order");
        for _ in 0..REFILL_PERIOD {
            s.advance_wheel();
        }
        assert!(!s.throttled(0x9000) && !s.throttled(0xa000));
        assert_eq!(s.ready_queue(0), [0x99, 0xaa], "unparked in lineage order");
    }

    /// A saturated account keeps its phase but no entry: spending arms it
    /// at the tick the eager wheel would refill it at, and tearing it
    /// down leaves a tombstone due at that tick, which a re-create before
    /// then inherits.
    #[test]
    fn saturated_accounts_keep_their_phase_without_an_entry() {
        let mut s = Scheduler::new(1);
        let t0 = 3;
        for _ in 0..t0 {
            s.advance_wheel();
        }
        s.set_weight(0x9000, 2);
        let slot = s.budgets[&0x9000];
        let entries = |s: &Scheduler| s.wheel.iter().map(Vec::len).sum::<usize>();
        assert!(!s.slots[slot].armed && entries(&s) == 0, "fresh: no entry");
        // Forty ticks on, a charge arms the phase's next tick.
        for _ in 0..40 {
            s.advance_wheel();
        }
        s.charge_tick(0x9000);
        let due = t0 + 3 * REFILL_PERIOD;
        assert!(s.wheel_now < due && due <= s.wheel_now + REFILL_PERIOD);
        assert_eq!((s.slots[slot].armed, s.slots[slot].due), (true, due));
        assert_eq!(s.wheel[(due % WHEEL_SLOTS as u64) as usize], [slot]);
        while s.wheel_now < due {
            s.advance_wheel();
        }
        let acct = s.account(0x9000).unwrap();
        assert_eq!(acct.remaining, 2 * BURST_MULTIPLIER, "refilled at {due}");
        assert!(!s.slots[slot].armed, "saturated again: the entry is gone");
        // A teardown five ticks later leaves a tombstone due one period on.
        for _ in 0..5 {
            s.advance_wheel();
        }
        s.remove_account(0x9000);
        let tomb = due + REFILL_PERIOD;
        assert_eq!((s.slots[slot].armed, s.slots[slot].due), (true, tomb));
        // A re-create before it fires inherits the tick and the lineage.
        let seq = s.slots[slot].seq;
        s.set_weight(0x9000, 1);
        assert_eq!(s.budgets[&0x9000], slot);
        assert_eq!((s.slots[slot].due, s.slots[slot].seq), (tomb, seq));
        // Torn down again, the tombstone fires at that tick and frees
        // the slot.
        s.remove_account(0x9000);
        while s.wheel_now < tomb - 1 {
            s.advance_wheel();
        }
        assert!(s.budgets.contains_key(&0x9000), "pending until {tomb}");
        s.advance_wheel();
        assert!(!s.budgets.contains_key(&0x9000) && s.free_slots == [slot]);
        assert_eq!(entries(&s), 0);
    }

    /// The account store the slab replaced, kept as the reference the
    /// slab must be indistinguishable from: accounts in a `BTreeMap`, a
    /// `BTreeSet` of armed pointers, a wheel of pointers, a stale
    /// entry dropped when it fires. Run queues are plain FIFOs.
    struct Reference {
        budgets: BTreeMap<CtnrPtr, BudgetAccount>,
        armed: std::collections::BTreeSet<CtnrPtr>,
        wheel: Vec<Vec<CtnrPtr>>,
        now: u64,
        retired: (u64, u64, u64),
        queues: [Vec<ThrdPtr>; 2],
    }

    impl Reference {
        fn schedule(&mut self, c: CtnrPtr) {
            let due = self.now + REFILL_PERIOD;
            self.wheel[(due % 64) as usize].push(c);
        }

        fn set_weight(&mut self, c: CtnrPtr, weight: u32) {
            let grant = weight as u64 * BURST_MULTIPLIER;
            let fresh = BudgetAccount {
                remaining: grant,
                granted: grant,
                ..BudgetAccount::default()
            };
            self.budgets.entry(c).or_insert(fresh).weight = weight;
            if self.armed.insert(c) {
                self.schedule(c);
            }
        }

        fn remove_account(&mut self, c: CtnrPtr) -> Vec<(ThrdPtr, CpuId)> {
            let Some(a) = self.budgets.remove(&c) else {
                return Vec::new();
            };
            self.retired.0 += a.granted;
            self.retired.1 += a.consumed;
            self.retired.2 += a.refunded + a.remaining;
            a.parked
        }

        fn unthrottle(&mut self, c: CtnrPtr) {
            let a = self.budgets.get_mut(&c).unwrap();
            a.throttled = false;
            for (t, cpu) in a.parked.drain(..) {
                self.queues[cpu].push(t);
            }
        }

        fn advance_wheel(&mut self) {
            self.now += 1;
            let now = self.now;
            for c in mem::take(&mut self.wheel[(now % 64) as usize]) {
                self.armed.remove(&c);
                let Some(a) = self.budgets.get_mut(&c) else {
                    continue;
                };
                let cap = a.weight as u64 * BURST_MULTIPLIER;
                let grant = (a.weight as u64).min(cap.saturating_sub(a.remaining));
                let settled = grant.min(a.debt);
                a.debt -= settled;
                a.consumed += settled;
                a.remaining += grant - settled;
                a.granted += grant;
                if a.throttled && !a.admin_throttled && a.remaining > 0 {
                    self.unthrottle(c);
                }
                self.armed.insert(c);
                self.schedule(c);
            }
        }

        fn totals(&self) -> (u64, u64, u64, u64) {
            let mut t = (self.retired.0, self.retired.1, self.retired.2, 0);
            for a in self.budgets.values() {
                t = (
                    t.0 + a.granted,
                    t.1 + a.consumed,
                    t.2 + a.refunded,
                    t.3 + a.remaining,
                );
            }
            t
        }
    }

    /// Seeded and replayable: 120 000 random steps of every budget
    /// operation, the slab against the reference, equal after each.
    #[test]
    fn slab_is_indistinguishable_from_the_tree_account_store() {
        const SEED: u64 = 0x51ab;
        const CNTRS: usize = 24;
        let cntr = |i: usize| 0x10_0000 + i * 0x1000;
        // Two threads per container, one homed on each CPU.
        let threads = |c: CtnrPtr| [(c + 0x100, 0), (c + 0x200, 1)];
        let mut rng = atmo_spec::XorShift64Star::new(SEED);
        let mut s = Scheduler::new(2);
        let mut r = Reference {
            budgets: BTreeMap::new(),
            armed: Default::default(),
            wheel: vec![Vec::new(); 64],
            now: 0,
            retired: (0, 0, 0),
            queues: [Vec::new(), Vec::new()],
        };
        for (t, cpu) in (0..CNTRS).flat_map(|i| threads(cntr(i))) {
            s.enqueue(cpu, t);
            r.queues[cpu].push(t);
        }
        // Parks the still-queued threads of a throttled container, as
        // `ProcessManager::park_ready_threads` does.
        let park_queued = |s: &mut Scheduler, r: &mut Reference, c: CtnrPtr| {
            for (t, cpu) in threads(c) {
                if let Some(at) = r.queues[cpu].iter().position(|&q| q == t) {
                    r.queues[cpu].remove(at);
                    r.budgets.get_mut(&c).unwrap().parked.push((t, cpu));
                    assert!(s.remove(t));
                    s.park(t, cpu, c);
                }
            }
        };
        let (mut inherited, mut stale_fired) = (0, 0);
        for step in 0..120_000 {
            let c = cntr(rng.below(CNTRS));
            let live = r.budgets.contains_key(&c);
            match rng.below(16) {
                0 => {
                    let w = 1 + rng.below(4) as u32;
                    // A pointer with no account but a wheel entry still
                    // pending: the new account inherits its due tick.
                    inherited += (!live && r.armed.contains(&c)) as u32;
                    stale_fired += (!live && !r.armed.contains(&c)) as u32;
                    s.set_weight(c, w);
                    r.set_weight(c, w);
                }
                1 if live => {
                    let parked = r.remove_account(c);
                    assert_eq!(s.remove_account(c), parked);
                    for (t, cpu) in parked {
                        s.enqueue(cpu, t);
                        r.queues[cpu].push(t);
                    }
                    // Half the time the pointer comes straight back.
                    if rng.chance(1, 2) {
                        inherited += 1;
                        s.set_weight(c, 3);
                        r.set_weight(c, 3);
                    }
                }
                2..=5 if live => {
                    let a = r.budgets.get_mut(&c).unwrap();
                    let expect = if a.remaining == 0 {
                        a.debt += 1;
                        ChargeOutcome::Exhausted
                    } else {
                        a.remaining -= 1;
                        a.consumed += 1;
                        [ChargeOutcome::Charged, ChargeOutcome::Exhausted]
                            [(a.remaining == 0) as usize]
                    };
                    assert_eq!(s.charge_tick(c), expect);
                    if expect == ChargeOutcome::Exhausted {
                        a.throttled = true;
                        s.throttle(c);
                        park_queued(&mut s, &mut r, c);
                    }
                }
                6 if live => {
                    let a = r.budgets.get_mut(&c).unwrap();
                    (a.throttled, a.admin_throttled) = (true, true);
                    s.throttle_admin(c);
                    park_queued(&mut s, &mut r, c);
                }
                7 if live => {
                    let a = r.budgets.get_mut(&c).unwrap();
                    if mem::replace(&mut a.admin_throttled, false) && a.remaining > 0 {
                        r.unthrottle(c);
                    }
                    s.unthrottle_admin(c);
                }
                _ => {
                    s.advance_wheel();
                    r.advance_wheel();
                }
            }
            for i in 0..CNTRS {
                let c = cntr(i);
                assert_eq!(s.account(c), r.budgets.get(&c), "step {step}: {c:#x}");
            }
            assert_eq!(s.budget_totals(), r.totals(), "step {step}");
            for cpu in 0..2 {
                assert_eq!(s.ready_queue(cpu), r.queues[cpu], "step {step}: CPU {cpu}");
            }
        }
        assert!(
            inherited > 1000 && stale_fired > 1000,
            "{inherited} re-creates under a pending entry, {stale_fired} after it fired"
        );
    }

    #[test]
    fn inheritance_bills_the_client_until_cleared() {
        let mut s = Scheduler::new(1);
        assert_eq!(s.billed(0xaa, 0x1111), 0x1111, "defaults to the owner");
        s.inherit(0xaa, 0x2222);
        assert_eq!(s.billed(0xaa, 0x1111), 0x2222, "handoff bills the client");
        s.clear_inherit(0xaa);
        assert_eq!(s.billed(0xaa, 0x1111), 0x1111);
        // Removal clears any outstanding inheritance.
        s.enqueue(0, 0xaa);
        s.inherit(0xaa, 0x2222);
        s.remove(0xaa);
        assert_eq!(s.billed(0xaa, 0x1111), 0x1111);
    }
}
