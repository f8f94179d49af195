//! The write set: the keys one step wrote — its *guarantee* (Zhao &
//! Sanán). The kernel's subsystems record a key at the sites that hand
//! out mutable access to the object it names.

/// How many keys live inline: more than one system call of the
/// benchmark's workloads writes per component.
const INLINE: usize = 8;

/// The keys written since the last [`clear`](Self::clear), each once, in
/// first-write order. Recording allocates nothing up to eight keys;
/// more spill into a buffer that clearing keeps, so a steady stream of
/// steps allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct WriteSet<K> {
    inline: [K; INLINE],
    len: usize,
    spill: Vec<K>,
}

impl<K: Copy + PartialEq> WriteSet<K> {
    /// The recorded keys, in first-write order.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.inline[..self.len].iter().chain(&self.spill).copied()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records `key` (a no-op when it is already recorded).
    pub fn record(&mut self, key: K) {
        if self.iter().any(|k| k == key) {
            return;
        }
        match self.inline.get_mut(self.len) {
            Some(slot) => {
                *slot = key;
                self.len += 1;
            }
            None => self.spill.push(key),
        }
    }

    /// Forgets every key (keeps the spill buffer).
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}
