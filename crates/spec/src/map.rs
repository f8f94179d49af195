//! Mathematical maps (the analogue of Verus `Map<K, V>`).
//!
//! Maps express the central abstract states of the paper: the abstract page
//! table is a `Map<VAddr, MapEntry>` (Listing 1, line 3), and the flat
//! permission stores of every subsystem are `Map<Ptr, PointsTo<T>>`
//! (Listing 2). The *tracked* (linear) variant used to store permissions
//! is [`crate::PermMap`].
//!
//! A `Map` is a shared handle (`Arc`) on an ordered tree; cloning it is
//! O(1) and the clone is a value: nothing done to the original afterwards
//! changes it. Updates come in two forms:
//!
//! * **Spec expressions**, `&self -> Self` ([`Map::insert`],
//!   [`Map::remove`], [`Map::union_prefer_right`], [`Map::restrict`]):
//!   build a new map and leave `self` alone, as a postcondition such as
//!   `post == pre.insert(va, e)` needs. Each call copies the whole map,
//!   O(n).
//! * **Ghost-state steps**, `&mut self` ([`Map::insert_mut`],
//!   [`Map::remove_mut`]): update the map a kernel object carries, in
//!   place, as Verus does for tracked maps. O(log n) while no other handle
//!   shares the tree; when a snapshot taken earlier still does, the first
//!   step after it copies the tree once (copy-on-write) and the snapshot
//!   keeps the value it was taken at.
//!
//! Never write `m = m.insert(..)`: it is the O(n) form where the O(log n)
//! one applies (`tests/ghost_update_scan.rs` rejects it in kernel code).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::Set;

/// A map with Verus `Map` semantics.
///
/// # Examples
///
/// ```
/// use atmo_spec::Map;
///
/// let m = Map::empty().insert(0x1000usize, "page-a").insert(0x2000, "page-b");
/// assert_eq!(m.index(&0x1000), Some(&"page-a"));
/// assert_eq!(m.remove(&0x1000).len(), 1);
/// assert_eq!(m.len(), 2); // the spec form leaves `m` alone
///
/// let snapshot = m.clone();
/// let mut live = m;
/// live.remove_mut(&0x1000); // the in-place form
/// assert_eq!((live.len(), snapshot.len()), (1, 2));
/// ```
pub struct Map<K: Ord, V> {
    items: Arc<BTreeMap<K, V>>,
}

impl<K: Ord + Clone, V: Clone> Map<K, V> {
    /// Returns the empty map.
    pub fn empty() -> Self {
        Map {
            items: Arc::new(BTreeMap::new()),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` when `k` is in the domain.
    pub fn contains_key(&self, k: &K) -> bool {
        self.items.contains_key(k)
    }

    /// Looks up `k`.
    pub fn index(&self, k: &K) -> Option<&V> {
        self.items.get(k)
    }

    /// Returns the domain as a [`Set`].
    pub fn dom(&self) -> Set<K> {
        self.items.keys().cloned().collect()
    }

    /// Returns a new map with `k ↦ v` added or replaced.
    pub fn insert(&self, k: K, v: V) -> Self {
        let mut m = (*self.items).clone();
        m.insert(k, v);
        Map { items: Arc::new(m) }
    }

    /// Returns a new map with `k` removed.
    pub fn remove(&self, k: &K) -> Self {
        let mut m = (*self.items).clone();
        m.remove(k);
        Map { items: Arc::new(m) }
    }

    /// Adds or replaces `k ↦ v` in place (copy-on-write, see the module
    /// docs).
    pub fn insert_mut(&mut self, k: K, v: V) {
        Arc::make_mut(&mut self.items).insert(k, v);
    }

    /// The value at `k` for an in-place update, `None` when `k` is
    /// absent (copy-on-write, see the module docs).
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        Arc::make_mut(&mut self.items).get_mut(k)
    }

    /// Removes `k` in place (copy-on-write, see the module docs).
    pub fn remove_mut(&mut self, k: &K) {
        Arc::make_mut(&mut self.items).remove(k);
    }

    /// The value at `k` for an in-place update, `V::default()` inserted
    /// first when `k` is absent (copy-on-write, see the module docs).
    pub fn entry_mut(&mut self, k: K) -> &mut V
    where
        V: Default,
    {
        Arc::make_mut(&mut self.items).entry(k).or_default()
    }

    /// Returns `self` overridden by `other` (Verus `union_prefer_right`).
    pub fn union_prefer_right(&self, other: &Map<K, V>) -> Self {
        let mut m = (*self.items).clone();
        for (k, v) in other.items.iter() {
            m.insert(k.clone(), v.clone());
        }
        Map { items: Arc::new(m) }
    }

    /// Returns the map restricted to keys satisfying `pred`.
    pub fn restrict(&self, pred: impl Fn(&K) -> bool) -> Self {
        Map {
            items: Arc::new(
                self.items
                    .iter()
                    .filter(|(k, _)| pred(k))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            ),
        }
    }

    /// Iterator over `(key, value)` pairs in key order.
    pub fn iter(&self) -> std::collections::btree_map::Iter<'_, K, V> {
        self.items.iter()
    }

    /// Iterator over keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.items.keys()
    }

    /// Iterator over values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.items.values()
    }
}

impl<K: Ord + Clone, V: Clone + PartialEq> Map<K, V> {
    /// `true` when every entry of `self` appears identically in `other`
    /// (Verus `submap_of`).
    pub fn submap_of(&self, other: &Map<K, V>) -> bool {
        self.items
            .iter()
            .all(|(k, v)| other.items.get(k) == Some(v))
    }

    /// `true` when the two maps agree on every key they share.
    pub fn agrees(&self, other: &Map<K, V>) -> bool {
        self.items.iter().all(|(k, v)| match other.items.get(k) {
            None => true,
            Some(w) => v == w,
        })
    }
}

impl<K: Ord, V> Clone for Map<K, V> {
    fn clone(&self) -> Self {
        Map {
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

impl<K: Ord, V: PartialEq> PartialEq for Map<K, V> {
    fn eq(&self, other: &Self) -> bool {
        *self.items == *other.items
    }
}

impl<K: Ord, V: Eq> Eq for Map<K, V> {}

impl<K: Ord + Clone, V: Clone> Default for Map<K, V> {
    fn default() -> Self {
        Map::empty()
    }
}

impl<K: Ord + fmt::Debug, V: fmt::Debug> fmt::Debug for Map<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.items.iter()).finish()
    }
}

impl<K: Ord + Clone, V: Clone> FromIterator<(K, V)> for Map<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        Map {
            items: Arc::new(iter.into_iter().collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map() {
        let m: Map<u32, u32> = Map::empty();
        assert!(m.is_empty());
        assert!(!m.contains_key(&0));
        assert_eq!(m.index(&0), None);
    }

    #[test]
    fn insert_then_lookup() {
        let m = Map::empty().insert(1, "a").insert(2, "b");
        assert_eq!(m.index(&1), Some(&"a"));
        assert_eq!(m.index(&2), Some(&"b"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn insert_replaces() {
        let m = Map::empty().insert(1, "a").insert(1, "b");
        assert_eq!(m.index(&1), Some(&"b"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn remove_is_persistent() {
        let m = Map::empty().insert(1, "a");
        let n = m.remove(&1);
        assert!(m.contains_key(&1));
        assert!(!n.contains_key(&1));
    }

    #[test]
    fn dom_matches_keys() {
        let m = Map::empty().insert(3, ()).insert(1, ()).insert(2, ());
        assert_eq!(m.dom(), Set::from_slice(&[1, 2, 3]));
    }

    #[test]
    fn union_prefer_right_overrides() {
        let a = Map::empty().insert(1, "a").insert(2, "a");
        let b = Map::empty().insert(2, "b").insert(3, "b");
        let u = a.union_prefer_right(&b);
        assert_eq!(u.index(&1), Some(&"a"));
        assert_eq!(u.index(&2), Some(&"b"));
        assert_eq!(u.index(&3), Some(&"b"));
    }

    #[test]
    fn submap_and_agrees() {
        let a = Map::empty().insert(1, "x");
        let b = Map::empty().insert(1, "x").insert(2, "y");
        let c = Map::empty().insert(1, "z");
        assert!(a.submap_of(&b));
        assert!(!b.submap_of(&a));
        assert!(a.agrees(&b));
        assert!(!a.agrees(&c));
    }

    #[test]
    fn restrict_filters_domain() {
        let m = Map::empty().insert(1, "a").insert(2, "b").insert(3, "c");
        let r = m.restrict(|k| *k != 2);
        assert_eq!(r.len(), 2);
        assert!(!r.contains_key(&2));
    }
}
