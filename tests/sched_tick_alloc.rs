//! The timer tick allocates nothing: once the refill wheel has turned
//! once, `Scheduler::advance_wheel` — drain the due slot, refill each
//! account that needs it, unpark, re-arm — and the charge/throttle/park
//! traffic between ticks run entirely in buffers they already own. A
//! wheel slot dropped and regrown per revolution, a `Vec` of unparked
//! threads returned per tick or a parked list freed per unthrottle shows
//! up here as a count.
//!
//! Lives in its own test binary because of the counting global allocator.

use atmosphere::pm::sched::{ChargeOutcome, Scheduler, REFILL_PERIOD};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocs_during, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ACCOUNTS: usize = 1024;
/// Accounts with a thread that runs every tick, so they exhaust, park and
/// are unparked by their refills; the others only refill.
const BUSY: usize = 64;

fn cntr(i: usize) -> usize {
    0x10_0000 + i * 0x1000
}

fn thread(i: usize) -> usize {
    0x900_0000 + i * 0x1000
}

/// One tick: the wheel advances, then every busy account's thread is
/// charged a unit; a thread whose account ran dry is parked, as
/// `ProcessManager::timer_tick` does.
fn tick(s: &mut Scheduler) {
    s.advance_wheel();
    for i in 0..BUSY {
        if s.throttled(cntr(i)) {
            continue;
        }
        if s.charge_tick(cntr(i)) == ChargeOutcome::Exhausted {
            s.throttle(cntr(i));
            assert!(s.remove(thread(i)), "the thread was queued");
            s.park(thread(i), 0, cntr(i));
        }
    }
}

#[test]
fn ten_thousand_ticks_over_1024_accounts_allocate_nothing() {
    let mut s = Scheduler::new(1);
    for i in 0..ACCOUNTS {
        // Accounts come into being a few per tick, so that every slot of
        // the refill period has some due.
        if i % (ACCOUNTS / REFILL_PERIOD as usize) == 0 {
            s.advance_wheel();
        }
        s.set_weight(cntr(i), 1 + (i % 4) as u32);
        if i < BUSY {
            s.enqueue(0, thread(i));
        }
    }
    // The first revolution (and a little more): wheel slots, parked lists
    // and the run-queue slab grow to their working size.
    for _ in 0..128 {
        tick(&mut s);
    }
    // Only the accounts a refill can change hold wheel entries: the busy
    // ones, plus any tombstone; the idle accounts sit full, unarmed.
    let (slots, wheel) = s.budget_slab_raw();
    let tombstones = slots.iter().filter(|s| s.armed && !s.live).count();
    let entries: usize = wheel.iter().map(Vec::len).sum();
    assert!(
        entries <= BUSY + tombstones,
        "{entries} wheel entries for {BUSY} busy accounts and {tombstones} tombstones"
    );
    let before = s.budget_totals();
    let allocs = allocs_during(|| {
        for _ in 0..10_000 {
            tick(&mut s);
        }
    });
    let after = s.budget_totals();
    assert!(
        after.0 > before.0 + 10_000 && after.1 > before.1 + 10_000,
        "the wheel refilled and the busy accounts consumed: {before:?} -> {after:?}"
    );
    assert_eq!(after.0, after.1 + after.2 + after.3, "budget conserved");
    assert_eq!(allocs, 0, "10 000 ticks allocated {allocs} times");
}
