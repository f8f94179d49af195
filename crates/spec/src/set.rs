//! Mathematical sets (the analogue of Verus `Set<T>`).
//!
//! Sets carry most of Atmosphere's abstract reasoning: the `subtree` of a
//! container (all reachable children, Listing 2), `page_closure()` of every
//! subsystem (§4.2), the allocator's free/allocated/mapped/merged page
//! sets, and the thread/process sets `T_A`, `P_A`, ... of the
//! non-interference proof (§4.3).
//!
//! A `Set` is a shared handle (`Arc`) on an ordered tree; cloning it is
//! O(1) and the clone is a value: nothing done to the original afterwards
//! changes it. Updates come in two forms:
//!
//! * **Spec expressions**, `&self -> Self` ([`Set::insert`],
//!   [`Set::remove`], [`Set::union`], [`Set::intersect`],
//!   [`Set::difference`], [`Set::filter`]): build a new set and leave
//!   `self` alone, as a postcondition such as
//!   `free_after == free_before.remove(&p)` needs. Each call copies the
//!   whole set, O(n).
//! * **Ghost-state steps**, `&mut self` ([`Set::insert_mut`],
//!   [`Set::remove_mut`], [`Set::union_mut`], [`Set::difference_mut`]):
//!   update the set a kernel object carries, or an accumulator, in place.
//!   O(log n) per element touched while no other handle shares the tree;
//!   when a snapshot taken earlier still does, the first step after it
//!   copies the tree once (copy-on-write) and the snapshot keeps the value
//!   it was taken at.
//!
//! Never write `s = s.insert(..)` or `s = s.union(..)`: it is the O(n)
//! form where the O(log n) one applies (`tests/ghost_update_scan.rs`
//! rejects it in kernel code). Build a set from many elements with
//! `collect()`.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A set with Verus `Set` semantics.
///
/// # Examples
///
/// ```
/// use atmo_spec::Set;
///
/// let closure = Set::empty().insert(0x1000usize).insert(0x2000);
/// assert!(closure.contains(&0x1000));
/// assert!(closure.disjoint(&Set::empty().insert(0x3000)));
/// ```
pub struct Set<T: Ord> {
    items: Arc<BTreeSet<T>>,
}

impl<T: Ord + Clone> Set<T> {
    /// Returns the empty set.
    pub fn empty() -> Self {
        Set {
            items: Arc::new(BTreeSet::new()),
        }
    }

    /// Builds a set from a slice (duplicates collapse).
    pub fn from_slice(items: &[T]) -> Self {
        Set {
            items: Arc::new(items.iter().cloned().collect()),
        }
    }

    /// Cardinality of the set.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` when both handles share one tree (so they are equal, and
    /// `clone_from` between them is free).
    pub fn ptr_eq(&self, other: &Set<T>) -> bool {
        Arc::ptr_eq(&self.items, &other.items)
    }

    /// Membership test.
    pub fn contains(&self, item: &T) -> bool {
        self.items.contains(item)
    }

    /// Returns `self ∪ {item}`.
    pub fn insert(&self, item: T) -> Self {
        let mut s = (*self.items).clone();
        s.insert(item);
        Set { items: Arc::new(s) }
    }

    /// Returns `self ∖ {item}`.
    pub fn remove(&self, item: &T) -> Self {
        let mut s = (*self.items).clone();
        s.remove(item);
        Set { items: Arc::new(s) }
    }

    /// Returns `self ∪ other`.
    pub fn union(&self, other: &Set<T>) -> Self {
        let mut s = (*self.items).clone();
        s.extend(other.items.iter().cloned());
        Set { items: Arc::new(s) }
    }

    /// Adds `item` in place (copy-on-write, see the module docs).
    pub fn insert_mut(&mut self, item: T) {
        Arc::make_mut(&mut self.items).insert(item);
    }

    /// Removes `item` in place (copy-on-write, see the module docs).
    pub fn remove_mut(&mut self, item: &T) {
        Arc::make_mut(&mut self.items).remove(item);
    }

    /// Adds every element of `other` in place: O(|other| · log n).
    pub fn union_mut(&mut self, other: &Set<T>) {
        Arc::make_mut(&mut self.items).extend(other.items.iter().cloned());
    }

    /// Removes every element of `other` in place: O(|other| · log n).
    pub fn difference_mut(&mut self, other: &Set<T>) {
        let items = Arc::make_mut(&mut self.items);
        for x in other.items.iter() {
            items.remove(x);
        }
    }

    /// Returns `self ∩ other`.
    pub fn intersect(&self, other: &Set<T>) -> Self {
        Set {
            items: Arc::new(self.items.intersection(&other.items).cloned().collect()),
        }
    }

    /// Returns `self ∖ other`.
    pub fn difference(&self, other: &Set<T>) -> Self {
        Set {
            items: Arc::new(self.items.difference(&other.items).cloned().collect()),
        }
    }

    /// `true` when every element of `self` is in `other`.
    pub fn subset_of(&self, other: &Set<T>) -> bool {
        self.items.is_subset(&other.items)
    }

    /// `true` when `self ∩ other = ∅`.
    ///
    /// Pairwise disjointness of `page_closure()` sets is the heart of the
    /// paper's memory-safety argument (§4.2).
    pub fn disjoint(&self, other: &Set<T>) -> bool {
        self.items.is_disjoint(&other.items)
    }

    /// Iterator over the elements in ascending order.
    pub fn iter(&self) -> std::collections::btree_set::Iter<'_, T> {
        self.items.iter()
    }

    /// Returns the elements as a sorted vector.
    pub fn to_vec(&self) -> Vec<T> {
        self.items.iter().cloned().collect()
    }

    /// Returns the subset of elements satisfying `pred`.
    pub fn filter(&self, pred: impl Fn(&T) -> bool) -> Self {
        Set {
            items: Arc::new(self.items.iter().filter(|x| pred(x)).cloned().collect()),
        }
    }

    /// Returns an arbitrary element, if any (Verus `Set::choose`).
    pub fn choose(&self) -> Option<&T> {
        self.items.iter().next()
    }
}

impl<T: Ord> Clone for Set<T> {
    fn clone(&self) -> Self {
        Set {
            items: Arc::clone(&self.items),
        }
    }

    /// Keeps the handle when both already share one tree: no refcount
    /// traffic for a value that did not change.
    fn clone_from(&mut self, source: &Self) {
        if !Arc::ptr_eq(&self.items, &source.items) {
            self.items = Arc::clone(&source.items);
        }
    }
}

impl<T: Ord> PartialEq for Set<T> {
    fn eq(&self, other: &Self) -> bool {
        *self.items == *other.items
    }
}

impl<T: Ord> Eq for Set<T> {}

impl<T: Ord + Clone> Default for Set<T> {
    fn default() -> Self {
        Set::empty()
    }
}

impl<T: Ord + fmt::Debug> fmt::Debug for Set<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.items.iter()).finish()
    }
}

impl<T: Ord + Clone> FromIterator<T> for Set<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Set {
            items: Arc::new(iter.into_iter().collect()),
        }
    }
}

impl<'a, T: Ord> IntoIterator for &'a Set<T> {
    type Item = &'a T;
    type IntoIter = std::collections::btree_set::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// Checks that every pair of sets in `closures` is disjoint.
///
/// This is the executable form of the paper's "all objects in the kernel
/// are pairwise disjoint in memory" obligation, applied at one level of the
/// subsystem hierarchy (§4.2, bottom-up recursive memory reasoning).
pub fn pairwise_disjoint<T: Ord + Clone>(closures: &[Set<T>]) -> bool {
    disjoint_union(closures).is_some()
}

/// The union of `closures` when they are pairwise disjoint, `None` when
/// two of them overlap. Sets are pairwise disjoint exactly when their
/// sizes sum to their union's, `Σ|Sᵢ| = |⋃Sᵢ|`: one union instead of a
/// comparison per pair.
pub fn disjoint_union<T: Ord + Clone>(closures: &[Set<T>]) -> Option<Set<T>> {
    let union = union_all(closures);
    let sizes: usize = closures.iter().map(Set::len).sum();
    (sizes == union.len()).then_some(union)
}

/// Returns the union of all sets in `closures`.
pub fn union_all<T: Ord + Clone>(closures: &[Set<T>]) -> Set<T> {
    closures.iter().flatten().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set() {
        let s: Set<u32> = Set::empty();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert!(!s.contains(&1));
    }

    #[test]
    fn insert_remove_roundtrip() {
        let s = Set::empty().insert(1).insert(2);
        assert!(s.contains(&1) && s.contains(&2));
        let t = s.remove(&1);
        assert!(!t.contains(&1));
        assert!(s.contains(&1), "persistence: original unchanged");
    }

    #[test]
    fn insert_idempotent() {
        let s = Set::empty().insert(7).insert(7);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_intersect_difference() {
        let a = Set::from_slice(&[1, 2, 3]);
        let b = Set::from_slice(&[3, 4]);
        assert_eq!(a.union(&b), Set::from_slice(&[1, 2, 3, 4]));
        assert_eq!(a.intersect(&b), Set::from_slice(&[3]));
        assert_eq!(a.difference(&b), Set::from_slice(&[1, 2]));
    }

    #[test]
    fn subset_and_disjoint() {
        let a = Set::from_slice(&[1, 2]);
        let b = Set::from_slice(&[1, 2, 3]);
        let c = Set::from_slice(&[4, 5]);
        assert!(a.subset_of(&b));
        assert!(!b.subset_of(&a));
        assert!(a.disjoint(&c));
        assert!(!a.disjoint(&b));
    }

    #[test]
    fn pairwise_disjoint_detects_overlap() {
        let a = Set::from_slice(&[1, 2]);
        let b = Set::from_slice(&[3]);
        let c = Set::from_slice(&[2, 4]);
        assert!(pairwise_disjoint(&[a.clone(), b.clone()]));
        assert!(!pairwise_disjoint(&[a.clone(), b.clone(), c.clone()]));
        assert_eq!(disjoint_union(&[a.clone(), b.clone()]), Some(a.union(&b)));
        assert_eq!(disjoint_union(&[a, b, c]), None);
        assert!(pairwise_disjoint::<u32>(&[]));
    }

    #[test]
    fn union_all_collects_everything() {
        let parts = [
            Set::from_slice(&[1]),
            Set::from_slice(&[2, 3]),
            Set::from_slice(&[4]),
        ];
        assert_eq!(union_all(&parts), Set::from_slice(&[1, 2, 3, 4]));
    }

    #[test]
    fn filter_selects_subset() {
        let s = Set::from_slice(&[1, 2, 3, 4, 5]);
        assert_eq!(s.filter(|x| x % 2 == 0), Set::from_slice(&[2, 4]));
    }

    #[test]
    fn choose_on_empty_is_none() {
        let s: Set<u32> = Set::empty();
        assert!(s.choose().is_none());
        assert_eq!(Set::from_slice(&[9]).choose(), Some(&9));
    }
}
