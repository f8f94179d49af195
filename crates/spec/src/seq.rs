//! Persistent, mathematical sequences (the analogue of Verus `Seq<T>`).
//!
//! Kernel specifications use sequences for ordered abstract state — e.g.
//! the ghost `path` of a container (the chain of its direct and indirect
//! parents, Listing 2 of the paper) or the list of physical pages handed
//! out by `mmap`. Operations are persistent: they return a new sequence and
//! leave the receiver untouched, exactly like Verus spec-level sequences.
//!
//! The representation is a shared (`Arc`) vector with copy-on-write, which
//! makes the common ghost-state idiom — clone the old abstract state, apply
//! one update, compare — cheap.

use std::fmt;
use std::sync::Arc;

/// A persistent sequence with Verus `Seq` semantics.
///
/// # Examples
///
/// ```
/// use atmo_spec::Seq;
///
/// let path = Seq::empty().push(1usize).push(2).push(3);
/// assert_eq!(path.len(), 3);
/// assert_eq!(path[2], 3);
/// assert_eq!(path.subrange(0, 2), Seq::from_slice(&[1, 2]));
/// ```
pub struct Seq<T> {
    items: Arc<Vec<T>>,
}

impl<T: Clone> Seq<T> {
    /// Returns the empty sequence.
    pub fn empty() -> Self {
        Seq {
            items: Arc::new(Vec::new()),
        }
    }

    /// Builds a sequence from a slice.
    pub fn from_slice(items: &[T]) -> Self {
        Seq {
            items: Arc::new(items.to_vec()),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the sequence has no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` when both handles share one vector (so they are equal, and
    /// `clone_from` between them is free).
    pub fn ptr_eq(&self, other: &Seq<T>) -> bool {
        Arc::ptr_eq(&self.items, &other.items)
    }

    /// Returns the element at `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds — the Verus counterpart would have
    /// rejected the access statically.
    // Named after Verus `Seq::index`; `ops::Index` is also implemented.
    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, i: usize) -> &T {
        &self.items[i]
    }

    /// Returns a new sequence with `item` appended.
    pub fn push(&self, item: T) -> Self {
        let mut v = (*self.items).clone();
        v.push(item);
        Seq { items: Arc::new(v) }
    }

    /// Returns a new sequence with index `i` replaced by `item`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn update(&self, i: usize, item: T) -> Self {
        let mut v = (*self.items).clone();
        v[i] = item;
        Seq { items: Arc::new(v) }
    }

    /// Returns the subsequence `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics when `start > end` or `end > len`.
    pub fn subrange(&self, start: usize, end: usize) -> Self {
        Seq {
            items: Arc::new(self.items[start..end].to_vec()),
        }
    }

    /// Returns the concatenation `self + other`.
    pub fn add(&self, other: &Seq<T>) -> Self {
        let mut v = (*self.items).clone();
        v.extend_from_slice(&other.items);
        Seq { items: Arc::new(v) }
    }

    /// Returns the sequence without its last element.
    ///
    /// # Panics
    ///
    /// Panics on the empty sequence.
    pub fn drop_last(&self) -> Self {
        assert!(!self.is_empty(), "drop_last on empty Seq");
        self.subrange(0, self.len() - 1)
    }

    /// Returns the last element.
    ///
    /// # Panics
    ///
    /// Panics on the empty sequence.
    pub fn last(&self) -> &T {
        self.items.last().expect("last on empty Seq")
    }

    /// Returns the first element.
    ///
    /// # Panics
    ///
    /// Panics on the empty sequence.
    pub fn first(&self) -> &T {
        self.items.first().expect("first on empty Seq")
    }

    /// Iterator over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Returns a plain vector copy of the elements.
    pub fn to_vec(&self) -> Vec<T> {
        (*self.items).clone()
    }
}

impl<T: Clone + PartialEq> Seq<T> {
    /// `true` when some element equals `item` (Verus `Seq::contains`).
    pub fn contains(&self, item: &T) -> bool {
        self.items.contains(item)
    }

    /// Index of the first occurrence of `item`, if any.
    pub fn index_of(&self, item: &T) -> Option<usize> {
        self.items.iter().position(|x| x == item)
    }

    /// `true` when no element occurs twice (the paper's trusted
    /// "unique sequence" axioms are stated over this predicate).
    pub fn no_duplicates(&self) -> bool {
        for i in 0..self.items.len() {
            for j in (i + 1)..self.items.len() {
                if self.items[i] == self.items[j] {
                    return false;
                }
            }
        }
        true
    }

    /// Returns the sequence with the first occurrence of `item` removed.
    ///
    /// Mirrors the trusted axiom from §5 of the paper: removing an element
    /// from a unique sequence keeps it unique (tested below rather than
    /// axiomatized).
    pub fn remove_first(&self, item: &T) -> Self {
        match self.index_of(item) {
            None => self.clone(),
            Some(i) => {
                let mut v = (*self.items).clone();
                v.remove(i);
                Seq { items: Arc::new(v) }
            }
        }
    }
}

impl<T: Clone + Ord> Seq<T> {
    /// Returns the set of elements (Verus `Seq::to_set`).
    pub fn to_set(&self) -> crate::Set<T> {
        self.iter().cloned().collect()
    }
}

impl<T> Clone for Seq<T> {
    fn clone(&self) -> Self {
        Seq {
            items: Arc::clone(&self.items),
        }
    }

    /// Keeps the handle when both already share one vector: no refcount
    /// traffic for a value that did not change.
    fn clone_from(&mut self, source: &Self) {
        if !Arc::ptr_eq(&self.items, &source.items) {
            self.items = Arc::clone(&source.items);
        }
    }
}

impl<T: PartialEq> PartialEq for Seq<T> {
    fn eq(&self, other: &Self) -> bool {
        *self.items == *other.items
    }
}

impl<T: Eq> Eq for Seq<T> {}

impl<T: Clone> Default for Seq<T> {
    fn default() -> Self {
        Seq::empty()
    }
}

impl<T> std::ops::Index<usize> for Seq<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.items[i]
    }
}

impl<T: fmt::Debug> fmt::Debug for Seq<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.items.iter()).finish()
    }
}

impl<T: Clone> FromIterator<T> for Seq<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Seq {
            items: Arc::new(iter.into_iter().collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_len_zero() {
        let s: Seq<u32> = Seq::empty();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn push_is_persistent() {
        let a = Seq::empty().push(1).push(2);
        let b = a.push(3);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 3);
        assert_eq!(b[2], 3);
    }

    #[test]
    fn update_replaces_single_index() {
        let a = Seq::from_slice(&[1, 2, 3]);
        let b = a.update(1, 9);
        assert_eq!(a[1], 2);
        assert_eq!(b[1], 9);
        assert_eq!(b[0], 1);
        assert_eq!(b[2], 3);
    }

    #[test]
    fn subrange_matches_slice() {
        let a = Seq::from_slice(&[10, 20, 30, 40]);
        assert_eq!(a.subrange(1, 3), Seq::from_slice(&[20, 30]));
        assert_eq!(a.subrange(0, 0), Seq::empty());
    }

    #[test]
    fn path_subrange_identity() {
        // The container-tree path invariant from the paper relies on
        // subrange/push interaction: (p.push(x)).subrange(0, p.len()) == p.
        let p = Seq::from_slice(&[1usize, 2, 3]);
        let q = p.push(4);
        assert_eq!(q.subrange(0, p.len()), p);
        assert_eq!(*q.last(), 4);
    }

    #[test]
    fn contains_and_index_of() {
        let a = Seq::from_slice(&[5, 6, 7]);
        assert!(a.contains(&6));
        assert!(!a.contains(&8));
        assert_eq!(a.index_of(&7), Some(2));
        assert_eq!(a.index_of(&8), None);
    }

    #[test]
    fn no_duplicates_detects_repeats() {
        assert!(Seq::from_slice(&[1, 2, 3]).no_duplicates());
        assert!(!Seq::from_slice(&[1, 2, 1]).no_duplicates());
        assert!(Seq::<u32>::empty().no_duplicates());
    }

    #[test]
    fn remove_first_preserves_uniqueness() {
        // The paper trusts this as an axiom (§5 item 6); here it is a test.
        let a = Seq::from_slice(&[1, 2, 3, 4]);
        let b = a.remove_first(&3);
        assert!(b.no_duplicates());
        assert_eq!(b, Seq::from_slice(&[1, 2, 4]));
    }

    #[test]
    fn add_concatenates() {
        let a = Seq::from_slice(&[1, 2]);
        let b = Seq::from_slice(&[3]);
        assert_eq!(a.add(&b), Seq::from_slice(&[1, 2, 3]));
    }

    #[test]
    fn to_set_deduplicates() {
        let a = Seq::from_slice(&[1, 2, 2, 3]);
        let s = a.to_set();
        assert_eq!(s.len(), 3);
        assert!(s.contains(&2));
    }

    #[test]
    fn drop_last_and_last() {
        let a = Seq::from_slice(&[1, 2, 3]);
        assert_eq!(*a.last(), 3);
        assert_eq!(a.drop_last(), Seq::from_slice(&[1, 2]));
    }

    #[test]
    #[should_panic]
    fn index_out_of_bounds_panics() {
        let a = Seq::from_slice(&[1]);
        let _ = a[1];
    }
}
