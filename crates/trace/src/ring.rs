//! The fixed-capacity per-CPU event ring.

use atmo_spec::harness::{check, Obligations, VerifResult};

use crate::event::KernelEvent;

/// A bounded ring of `(sequence, event)` pairs.
///
/// `head` is the sequence number of the *next* event to be pushed;
/// `tail` is the sequence number of the oldest retained event. Both are
/// monotone `u64`s over the ring's lifetime. The backing store is
/// allocated once at construction ("boot") and never grows: when the
/// ring is full, a push overwrites the oldest slot, advances `tail` and
/// increments the explicit `dropped` counter. A push therefore never
/// blocks and never allocates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRing {
    slots: Vec<Option<(u64, KernelEvent)>>,
    head: u64,
    tail: u64,
    dropped: u64,
}

impl EventRing {
    /// A ring retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity (an event ring must hold events).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event ring needs capacity");
        EventRing {
            slots: vec![None; capacity],
            head: 0,
            tail: 0,
            dropped: 0,
        }
    }

    /// Slots in the backing store.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Sequence number of the next push.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Sequence number of the oldest retained event.
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Events overwritten before they could be read.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events (`head − tail`).
    pub fn len(&self) -> usize {
        (self.head - self.tail) as usize
    }

    /// `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Appends `ev`, overwriting the oldest event when full.
    pub fn push(&mut self, ev: KernelEvent) {
        let cap = self.slots.len() as u64;
        if self.head - self.tail == cap {
            self.tail += 1;
            self.dropped += 1;
        }
        let idx = (self.head % cap) as usize;
        self.slots[idx] = Some((self.head, ev));
        self.head += 1;
    }

    /// Retained events, oldest first, with their sequence numbers.
    pub fn iter(&self) -> impl Iterator<Item = (u64, KernelEvent)> + '_ {
        let cap = self.slots.len() as u64;
        (self.tail..self.head).map(move |seq| {
            let (s, ev) = self.slots[(seq % cap) as usize].expect("retained slot populated");
            debug_assert_eq!(s, seq);
            (s, ev)
        })
    }

    /// Ring well-formedness: index coherence, `tail ≤ head`,
    /// `head − tail ≤ capacity`, every retained slot carries its own
    /// sequence number, and `dropped` accounts exactly for the advanced
    /// tail (overwrite is the only way the tail moves).
    pub fn wf(&self) -> VerifResult {
        let cap = self.slots.len() as u64;
        check(cap > 0, "trace_ring", "zero-capacity ring")?;
        check(
            self.tail <= self.head,
            "trace_ring",
            format_args!("tail {} ahead of head {}", self.tail, self.head),
        )?;
        check(
            self.head - self.tail <= cap,
            "trace_ring",
            format_args!(
                "ring holds {} events over capacity {cap}",
                self.head - self.tail
            ),
        )?;
        check(
            self.dropped == self.tail,
            "trace_ring",
            format_args!(
                "dropped counter {} disagrees with advanced tail {}",
                self.dropped, self.tail
            ),
        )?;
        // One obligation per retained slot, tallied: `check` runs only for
        // the first slot that fails.
        let mut idx = (self.tail % cap) as usize;
        for seq in self.tail..self.head {
            let slot = &self.slots[idx];
            if !matches!(slot, Some((s, _)) if *s == seq) {
                Obligations::record_n(seq - self.tail);
                return check(
                    false,
                    "trace_ring",
                    format_args!("slot for sequence {seq} holds {slot:?}"),
                );
            }
            idx += 1;
            if idx == self.slots.len() {
                idx = 0;
            }
        }
        Obligations::record_n(self.head - self.tail);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SyscallKind;

    fn ev(i: usize) -> KernelEvent {
        KernelEvent::PtMap { va: i, frames: 1 }
    }

    #[test]
    fn push_and_iterate_in_order() {
        let mut r = EventRing::new(8);
        for i in 0..5 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        let vas: Vec<usize> = r
            .iter()
            .map(|(_, e)| match e {
                KernelEvent::PtMap { va, .. } => va,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(vas, vec![0, 1, 2, 3, 4]);
        assert!(r.wf().is_ok());
    }

    #[test]
    fn overflow_overwrites_oldest_and_counts_drops() {
        let mut r = EventRing::new(4);
        for i in 0..10 {
            r.push(ev(i));
            assert!(r.wf().is_ok(), "{:?}", r.wf());
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.head(), 10);
        assert_eq!(r.tail(), 6);
        let first = r.iter().next().unwrap();
        assert_eq!(first.0, 6, "oldest retained sequence");
    }

    #[test]
    fn wf_names_the_corrupt_slot_of_a_wrapped_ring() {
        let mut r = EventRing::new(5);
        for i in 0..13 {
            r.push(ev(i));
        }
        // Retained: sequences 8..13 in slots 3, 4, 0, 1, 2.
        assert_eq!((r.tail(), r.tail() % 5), (8, 3));
        assert!(r.wf().is_ok(), "{:?}", r.wf());
        for seq in r.tail()..r.head() {
            let mut bad = r.clone();
            let slot = (seq % 5) as usize;
            bad.slots[slot] = Some((seq + 5, ev(0)));
            let e = bad.wf().unwrap_err();
            assert_eq!(e.subsystem, "trace_ring");
            assert!(
                e.detail
                    .starts_with(&format!("slot for sequence {seq} holds")),
                "{e}"
            );
        }
        let mut empty_slot = r.clone();
        empty_slot.slots[1] = None;
        let e = empty_slot.wf().unwrap_err();
        assert_eq!(e.detail, "slot for sequence 11 holds None");
    }

    #[test]
    fn sequences_are_monotone_across_kinds() {
        let mut r = EventRing::new(16);
        r.push(KernelEvent::SyscallEnter {
            kind: SyscallKind::Yield,
        });
        r.push(ev(1));
        let seqs: Vec<u64> = r.iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![0, 1]);
    }
}
