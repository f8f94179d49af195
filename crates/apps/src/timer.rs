//! Hierarchical timer wheels for the event-driven httpd core.
//!
//! A four-level, 64-slots-per-level wheel over modeled ticks (the event
//! core maps one tick to a fixed number of modeled cycles). Arming,
//! cancelling and cascading are all O(1) per timer: a timer at delta
//! `d` lands in the lowest level whose span covers `d`, and each time a
//! level-`l` boundary passes, the nodes in that level's current slot
//! cascade one level down (or fire, when their deadline has arrived).
//! This replaces any scan of live connections — a million idle
//! connections cost nothing per tick; only armed slots that actually
//! expire are touched.
//!
//! Node storage is a preallocated slab indexed by the caller's id (the
//! event core uses the connection-slot index, giving exactly one timer
//! per connection and no allocation after construction). Like every
//! subsystem in this reproduction the wheel carries a flat
//! well-formedness invariant ([`TimerWheel::wf`]): doubly-linked slot
//! lists are coherent, per-level armed counts match the lists, and
//! every armed node hangs in the slot its deadline hashes to.

use atmo_spec::harness::{check, Invariant, VerifResult};

/// Levels in the hierarchy.
pub const WHEEL_LEVELS: usize = 4;

/// Slots per level.
pub const WHEEL_SLOTS: usize = 64;

/// log2([`WHEEL_SLOTS`]): the per-level shift.
const SLOT_BITS: u32 = 6;

/// Null link / empty slot marker.
const NONE: u32 = u32::MAX;

/// One slab node: an intrusive doubly-linked list entry plus the
/// deadline and the caller's timer kind.
#[derive(Clone, Copy, Debug)]
struct TimerNode {
    deadline: u64,
    next: u32,
    prev: u32,
    kind: u8,
    level: u8,
    slot: u8,
    armed: bool,
}

impl TimerNode {
    const fn idle() -> Self {
        TimerNode {
            deadline: 0,
            next: NONE,
            prev: NONE,
            kind: 0,
            level: 0,
            slot: 0,
            armed: false,
        }
    }
}

/// The hierarchical timer wheel. Timer ids are slab indices chosen by
/// the caller (`0..capacity`); each id holds at most one armed timer,
/// and re-arming an armed id moves it.
#[derive(Clone, Debug)]
pub struct TimerWheel {
    now: u64,
    heads: [[u32; WHEEL_SLOTS]; WHEEL_LEVELS],
    nodes: Vec<TimerNode>,
    level_armed: [usize; WHEEL_LEVELS],
    armed: usize,
    /// Nodes moved down a level (or fired) by boundary cascades.
    cascades: u64,
    fired: u64,
    cancelled: u64,
}

impl TimerWheel {
    /// A wheel with `capacity` timer ids, all idle, at tick 0.
    pub fn new(capacity: usize) -> Self {
        TimerWheel {
            now: 0,
            heads: [[NONE; WHEEL_SLOTS]; WHEEL_LEVELS],
            nodes: vec![TimerNode::idle(); capacity],
            level_armed: [0; WHEEL_LEVELS],
            armed: 0,
            cascades: 0,
            fired: 0,
            cancelled: 0,
        }
    }

    /// Current tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Timers currently armed.
    pub fn armed(&self) -> usize {
        self.armed
    }

    /// Timer ids the slab holds.
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes moved (or fired) by level-boundary cascades so far.
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Timers fired so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Timers cancelled before firing.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// `true` when id `id` holds an armed timer.
    pub fn is_armed(&self, id: u32) -> bool {
        self.nodes[id as usize].armed
    }

    /// The armed deadline of `id`, when armed.
    pub fn deadline(&self, id: u32) -> Option<u64> {
        let n = &self.nodes[id as usize];
        n.armed.then_some(n.deadline)
    }

    /// Arms (or re-arms) timer `id` with payload `kind` to fire at tick
    /// `deadline`. Deadlines at or before the current tick are clamped
    /// to the next tick — a wheel never fires in the past.
    ///
    /// # Panics
    ///
    /// Panics when `id` is outside the slab.
    pub fn arm(&mut self, id: u32, kind: u8, deadline: u64) {
        assert!((id as usize) < self.nodes.len(), "timer id out of range");
        if self.nodes[id as usize].armed {
            self.unlink(id);
        }
        let deadline = deadline.max(self.now + 1);
        let (level, slot) = self.place(deadline);
        let n = &mut self.nodes[id as usize];
        n.deadline = deadline;
        n.kind = kind;
        self.link(id, level, slot);
    }

    /// Cancels timer `id`; returns whether it was armed.
    pub fn cancel(&mut self, id: u32) -> bool {
        if !self.nodes[id as usize].armed {
            return false;
        }
        self.unlink(id);
        self.cancelled += 1;
        true
    }

    /// Advances the wheel to tick `to`, appending every firing timer as
    /// `(id, kind)` to `expired` (in firing-tick order; ties fire in
    /// arbitrary order within their tick). Idle stretches are skipped in
    /// O(boundaries), not O(ticks): while the lowest occupied level is
    /// `l`, the wheel jumps straight to the next level-`l` boundary.
    pub fn advance(&mut self, to: u64, expired: &mut Vec<(u32, u8)>) {
        while self.now < to {
            if self.armed == 0 {
                self.now = to;
                return;
            }
            if self.level_armed[0] > 0 {
                // A level-0 slot fires within the next 63 ticks; step.
                self.now += 1;
            } else {
                // Jump to the next boundary of the lowest occupied
                // level; everything below it is empty, so no tick in
                // between can fire or cascade anything.
                let mut next = to;
                for l in 1..WHEEL_LEVELS {
                    if self.level_armed[l] > 0 {
                        let span = 1u64 << (SLOT_BITS * l as u32);
                        next = ((self.now / span + 1) * span).min(to);
                        break;
                    }
                }
                self.now = next;
            }
            self.tick(expired);
        }
    }

    /// Processes the tick `self.now`: cascades every level whose
    /// boundary this tick crosses (top-down, so cascaded nodes settle in
    /// one pass), then fires the level-0 slot.
    fn tick(&mut self, expired: &mut Vec<(u32, u8)>) {
        let t = self.now;
        for l in (1..WHEEL_LEVELS).rev() {
            let span = 1u64 << (SLOT_BITS * l as u32);
            if t.is_multiple_of(span) {
                let slot = ((t >> (SLOT_BITS * l as u32)) & (WHEEL_SLOTS as u64 - 1)) as usize;
                self.cascade(l, slot, expired);
            }
        }
        let slot = (t & (WHEEL_SLOTS as u64 - 1)) as usize;
        let mut id = self.heads[0][slot];
        while id != NONE {
            let next = self.nodes[id as usize].next;
            debug_assert_eq!(self.nodes[id as usize].deadline, t, "level-0 slot is exact");
            self.unlink(id);
            self.fired += 1;
            expired.push((id, self.nodes[id as usize].kind));
            id = next;
        }
    }

    /// Empties level `level` slot `slot`, re-placing each node by its
    /// remaining delta (firing it when the deadline is this tick).
    fn cascade(&mut self, level: usize, slot: usize, expired: &mut Vec<(u32, u8)>) {
        let mut id = self.heads[level][slot];
        while id != NONE {
            let next = self.nodes[id as usize].next;
            self.unlink(id);
            self.cascades += 1;
            let deadline = self.nodes[id as usize].deadline;
            if deadline <= self.now {
                self.fired += 1;
                expired.push((id, self.nodes[id as usize].kind));
            } else {
                let (l, s) = self.place(deadline);
                self.link(id, l, s);
            }
            id = next;
        }
    }

    /// The (level, slot) a deadline hangs in, seen from the current
    /// tick: the lowest level whose span covers the delta, slotted by
    /// the deadline's digits at that level. Deltas beyond the top
    /// level's horizon alias into the top level and re-cascade until
    /// their delta fits — arbitrary deadlines stay exact.
    fn place(&self, deadline: u64) -> (usize, usize) {
        let delta = deadline - self.now;
        let mut level = WHEEL_LEVELS - 1;
        for l in 0..WHEEL_LEVELS {
            if delta < 1u64 << (SLOT_BITS * (l as u32 + 1)) {
                level = l;
                break;
            }
        }
        let slot = ((deadline >> (SLOT_BITS * level as u32)) & (WHEEL_SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    fn link(&mut self, id: u32, level: usize, slot: usize) {
        let head = self.heads[level][slot];
        {
            let n = &mut self.nodes[id as usize];
            n.level = level as u8;
            n.slot = slot as u8;
            n.prev = NONE;
            n.next = head;
            n.armed = true;
        }
        if head != NONE {
            self.nodes[head as usize].prev = id;
        }
        self.heads[level][slot] = id;
        self.level_armed[level] += 1;
        self.armed += 1;
    }

    fn unlink(&mut self, id: u32) {
        let (prev, next, level, slot) = {
            let n = &self.nodes[id as usize];
            debug_assert!(n.armed, "unlink of idle node");
            (n.prev, n.next, n.level as usize, n.slot as usize)
        };
        if prev != NONE {
            self.nodes[prev as usize].next = next;
        } else {
            self.heads[level][slot] = next;
        }
        if next != NONE {
            self.nodes[next as usize].prev = prev;
        }
        let n = &mut self.nodes[id as usize];
        n.armed = false;
        n.prev = NONE;
        n.next = NONE;
        self.level_armed[level] -= 1;
        self.armed -= 1;
    }
}

impl Invariant for TimerWheel {
    /// Wheel well-formedness:
    ///
    /// 1. every slot list is doubly linked and acyclic, and every node
    ///    on it is armed with matching (level, slot) fields;
    /// 2. per-level armed counts equal the list lengths, and their sum
    ///    is the global armed count;
    /// 3. every armed deadline is in the future, and hangs in the slot
    ///    its digits at that level select;
    /// 4. fired + cancelled + armed balances against every arm ever
    ///    linked (checked structurally: no node is on two lists, which
    ///    the per-node armed flag plus count equality imply).
    fn wf(&self) -> VerifResult {
        let mut seen_armed = 0usize;
        for level in 0..WHEEL_LEVELS {
            let mut level_count = 0usize;
            for slot in 0..WHEEL_SLOTS {
                let mut id = self.heads[level][slot];
                let mut prev = NONE;
                let mut steps = 0usize;
                while id != NONE {
                    check(
                        steps <= self.nodes.len(),
                        "timer_wheel",
                        format_args!("cycle in level {level} slot {slot}"),
                    )?;
                    let n = &self.nodes[id as usize];
                    check(
                        n.armed,
                        "timer_wheel",
                        format_args!("idle node {id} linked in level {level} slot {slot}"),
                    )?;
                    check(
                        n.level as usize == level && n.slot as usize == slot,
                        "timer_wheel",
                        format_args!(
                            "node {id} thinks it is in level {} slot {}",
                            n.level, n.slot
                        ),
                    )?;
                    check(
                        n.prev == prev,
                        "timer_wheel",
                        format_args!("node {id} back-link broken"),
                    )?;
                    check(
                        n.deadline > self.now,
                        "timer_wheel",
                        format_args!(
                            "node {id} deadline {} not after now {}",
                            n.deadline, self.now
                        ),
                    )?;
                    let digit = ((n.deadline >> (SLOT_BITS * level as u32))
                        & (WHEEL_SLOTS as u64 - 1)) as usize;
                    check(
                        digit == slot,
                        "timer_wheel",
                        format_args!("node {id} deadline {} hashes to slot {digit}", n.deadline),
                    )?;
                    prev = id;
                    id = n.next;
                    steps += 1;
                    level_count += 1;
                }
            }
            check(
                level_count == self.level_armed[level],
                "timer_wheel",
                format_args!(
                    "level {level} lists hold {level_count} nodes but count says {}",
                    self.level_armed[level]
                ),
            )?;
            seen_armed += level_count;
        }
        check(
            seen_armed == self.armed,
            "timer_wheel",
            format_args!("lists hold {seen_armed} nodes but armed = {}", self.armed),
        )?;
        let flagged = self.nodes.iter().filter(|n| n.armed).count();
        check(
            flagged == self.armed,
            "timer_wheel",
            format_args!("{flagged} nodes flagged armed but armed = {}", self.armed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_spec::rng::XorShift64Star;

    fn drain(w: &mut TimerWheel, to: u64) -> Vec<(u32, u8)> {
        let mut out = Vec::new();
        w.advance(to, &mut out);
        out
    }

    #[test]
    fn arm_fire_roundtrip() {
        let mut w = TimerWheel::new(8);
        w.arm(3, 7, 10);
        assert!(w.is_armed(3));
        assert_eq!(w.deadline(3), Some(10));
        assert!(w.is_wf());
        assert_eq!(drain(&mut w, 9), vec![]);
        assert_eq!(drain(&mut w, 10), vec![(3, 7)]);
        assert!(!w.is_armed(3));
        assert_eq!(w.fired(), 1);
        assert!(w.is_wf());
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut w = TimerWheel::new(4);
        w.arm(0, 1, 5);
        w.arm(1, 2, 5);
        assert!(w.cancel(0));
        assert!(!w.cancel(0), "double cancel is a no-op");
        assert_eq!(drain(&mut w, 20), vec![(1, 2)]);
        assert_eq!(w.cancelled(), 1);
        assert!(w.is_wf());
    }

    #[test]
    fn rearm_moves_the_deadline() {
        let mut w = TimerWheel::new(2);
        w.arm(0, 1, 5);
        w.arm(0, 9, 300); // keepalive refresh: same id, later deadline
        assert_eq!(w.armed(), 1);
        assert_eq!(drain(&mut w, 299), vec![]);
        assert_eq!(drain(&mut w, 300), vec![(0, 9)]);
        assert!(w.is_wf());
    }

    #[test]
    fn past_deadlines_clamp_to_next_tick() {
        let mut w = TimerWheel::new(2);
        assert_eq!(drain(&mut w, 100), vec![]);
        w.arm(0, 4, 7); // already in the past
        assert_eq!(w.deadline(0), Some(101));
        assert_eq!(drain(&mut w, 101), vec![(0, 4)]);
    }

    #[test]
    fn cascades_cross_level_boundaries_exactly() {
        let mut w = TimerWheel::new(4);
        // One timer per level: deltas of 63, 64, 64^2+5, 64^3+17.
        w.arm(0, 0, 63);
        w.arm(1, 1, 64);
        w.arm(2, 2, 64 * 64 + 5);
        w.arm(3, 3, 64 * 64 * 64 + 17);
        assert!(w.is_wf());
        let fired = drain(&mut w, 64 * 64 * 64 + 17);
        assert_eq!(fired, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert!(w.cascades() >= 3, "higher levels cascaded down");
        assert!(w.is_wf());
    }

    #[test]
    fn idle_skip_is_cheap_and_exact() {
        // A deadline past the whole level-2 horizon still fires exactly,
        // and the skip logic must not touch intermediate empty ticks.
        let mut w = TimerWheel::new(2);
        let far = 64u64 * 64 * 64 * 7 + 123;
        w.arm(0, 5, far);
        assert_eq!(drain(&mut w, far - 1), vec![]);
        assert_eq!(drain(&mut w, far), vec![(0, 5)]);
        assert_eq!(w.now(), far);
    }

    #[test]
    fn wrap_past_all_four_levels_fires_exactly_once() {
        // Beyond 64^4 the top level aliases and the node re-cascades
        // through the wrap; the deadline still fires exactly.
        let mut w = TimerWheel::new(3);
        let horizon = 64u64.pow(4);
        w.arm(0, 1, horizon + 7);
        w.arm(1, 2, 2 * horizon + 9);
        w.arm(2, 3, 100);
        let fired = drain(&mut w, 2 * horizon + 9);
        assert_eq!(fired, vec![(2, 3), (0, 1), (1, 2)]);
        assert_eq!(w.fired(), 3);
        assert_eq!(w.armed(), 0);
        assert!(w.is_wf());
    }

    #[test]
    fn cancel_after_cascade_does_not_fire() {
        let mut w = TimerWheel::new(2);
        w.arm(0, 1, 64 + 20); // starts in level 1
        assert_eq!(drain(&mut w, 64), vec![], "cascaded into level 0 at 64");
        assert!(w.cascades() >= 1);
        assert!(w.cancel(0), "cancel after the node moved levels");
        assert_eq!(drain(&mut w, 1000), vec![]);
        assert_eq!(w.fired(), 0);
        assert!(w.is_wf());
    }

    /// The satellite property test: against a flat sorted-list oracle,
    /// random arm/cancel/re-arm traffic fires every surviving timer
    /// exactly once, in deadline order, including deltas that cross all
    /// four levels and cancels after cascades.
    #[test]
    fn property_wheel_matches_sorted_list_oracle() {
        let mut rng = XorShift64Star::new(0x1775_0BA5);
        for round in 0..8 {
            let cap = 256usize;
            let mut w = TimerWheel::new(cap);
            // Oracle: deadline per id, None when cancelled/unarmed.
            let mut oracle: Vec<Option<(u64, u8)>> = vec![None; cap];
            let mut fired: Vec<(u64, u32, u8)> = Vec::new();
            let mut expired = Vec::new();
            let horizon: u64 = match round % 3 {
                0 => 200,                     // level-0/1 churn
                1 => 64 * 64 * 3,             // level-2 cascades
                _ => 64u64.pow(3) * 2 + 1717, // deep wrap incl. level 3
            };
            let mut t = 0u64;
            for _ in 0..600 {
                match rng.below(10) {
                    // Arm / re-arm a random id at a random future delta.
                    0..=5 => {
                        let id = rng.below(cap) as u32;
                        let delta = 1 + rng.below(horizon as usize) as u64;
                        let kind = rng.below(3) as u8;
                        w.arm(id, kind, t + delta);
                        oracle[id as usize] = Some((t + delta, kind));
                    }
                    // Cancel a random id.
                    6..=7 => {
                        let id = rng.below(cap) as u32;
                        assert_eq!(
                            w.cancel(id),
                            oracle[id as usize].is_some(),
                            "cancel visibility must match the oracle"
                        );
                        oracle[id as usize] = None;
                    }
                    // Advance by a random stretch.
                    _ => {
                        let step = 1 + rng.below((horizon / 4).max(2) as usize) as u64;
                        t += step;
                        expired.clear();
                        w.advance(t, &mut expired);
                        for &(id, kind) in &expired {
                            let (dl, k) = oracle[id as usize]
                                .take()
                                .expect("wheel fired a timer the oracle had retired");
                            assert_eq!(k, kind);
                            assert!(dl <= t, "fired before its deadline");
                            fired.push((dl, id, kind));
                        }
                        // Everything the oracle says is due must have fired.
                        for (id, o) in oracle.iter().enumerate() {
                            if let Some((dl, _)) = o {
                                assert!(*dl > t, "timer {id} due at {dl} missed at {t}");
                            }
                        }
                        assert!(
                            fired.windows(2).all(|p| p[0].0 <= p[1].0),
                            "fired out of deadline order"
                        );
                    }
                }
            }
            w.wf().unwrap_or_else(|e| panic!("round {round}: {e:?}"));
            // Drain the rest: every survivor fires exactly once.
            let survivors = oracle.iter().filter(|o| o.is_some()).count();
            let max_dl = oracle.iter().flatten().map(|(d, _)| *d).max().unwrap_or(t);
            expired.clear();
            w.advance(max_dl.max(t), &mut expired);
            assert_eq!(expired.len(), survivors, "round {round}");
            assert_eq!(w.armed(), 0);
            assert!(w.is_wf());
        }
    }
}
