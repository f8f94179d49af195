//! The fixed-capacity per-CPU event ring, kept as counts.

/// A bounded per-CPU event ring, kept as its counts.
///
/// `head` is the sequence number of the *next* event to be pushed;
/// `tail` is the sequence number of the oldest event a ring of
/// `capacity` slots would still retain. Both are monotone `u64`s over
/// the ring's lifetime. The ring holds no slots: no reader ever read a
/// retained event, so recording one would only cost a store and a cache
/// line per event. The counts are those of a ring that overwrites its
/// oldest slot when full — each push past capacity advances `tail` and
/// counts one `dropped` event — so they are exact functions of the
/// events pushed and the capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRing {
    capacity: u64,
    head: u64,
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
            capacity: capacity as u64,
            head: 0,
        }
    }

    /// Counts `n` more pushed events.
    pub fn push_n(&mut self, n: u64) {
        self.head += n;
    }

    /// Sequence number of the next push.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Sequence number of the oldest retained event.
    pub fn tail(&self) -> u64 {
        self.head.saturating_sub(self.capacity)
    }

    /// Events overwritten before they could be read (overwrite is the
    /// only way the tail moves).
    pub fn dropped(&self) -> u64 {
        self.tail()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_overwrites_oldest_and_counts_drops() {
        let mut r = EventRing::new(4);
        r.push_n(3);
        assert_eq!((r.tail(), r.dropped()), (0, 0), "not yet full");
        r.push_n(7);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.head(), 10);
        assert_eq!(r.tail(), 6, "oldest retained sequence");
    }
}
