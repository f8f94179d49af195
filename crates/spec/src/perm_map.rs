//! Flat permission storage: the `PermMap<T>`.
//!
//! The paper's key architectural choice (§4.1) is to store the permissions
//! for *every* node of every recursive kernel data structure in a single
//! flat map at the top of the owning subsystem — e.g.
//! `ProcessManager::thrd_perms: Tracked<Map<ThrdPtr, PointsTo<Thread>>>`
//! (Listing 2). The global view turns recursive invariants into flat,
//! quantifier-only ones, decouples structural from non-structural proofs,
//! and permits up-and-down traversal of trees.
//!
//! `PermMap<T>` is that tracked map. It is linear (not `Clone`), its
//! entries are linear, and it maintains the *address coherence* invariant
//! the proofs rely on: the key of every entry equals the address of the
//! stored permission (`forall p. dom.contains(p) ==> perms[p].addr() == p`).

use std::collections::BTreeMap;
use std::fmt;

use crate::{Map, PointsTo, Set};

/// A flat, linear map from raw addresses to [`PointsTo`] permissions.
pub struct PermMap<T> {
    perms: BTreeMap<usize, PointsTo<T>>,
}

impl<T> PermMap<T> {
    /// Returns an empty permission map.
    pub fn new() -> Self {
        PermMap {
            perms: BTreeMap::new(),
        }
    }

    /// Number of permissions held.
    pub fn len(&self) -> usize {
        self.perms.len()
    }

    /// `true` when no permissions are held.
    pub fn is_empty(&self) -> bool {
        self.perms.is_empty()
    }

    /// `true` when a permission for `ptr` is held.
    pub fn contains(&self, ptr: usize) -> bool {
        self.perms.contains_key(&ptr)
    }

    /// The domain of held permissions (Verus `perms@.dom()`).
    pub fn dom(&self) -> Set<usize> {
        self.perms.keys().copied().collect()
    }

    /// Deposits a permission (Verus `tracked_insert`).
    ///
    /// # Panics
    ///
    /// Panics when the key does not equal the permission's address (the
    /// address-coherence invariant) or when a permission for the address is
    /// already held (linearity: a second permission for the same object
    /// cannot exist).
    pub fn tracked_insert(&mut self, ptr: usize, perm: PointsTo<T>) {
        assert_eq!(
            perm.addr(),
            ptr,
            "PermMap key must equal permission address"
        );
        let prev = self.perms.insert(ptr, perm);
        assert!(
            prev.is_none(),
            "duplicate permission for {ptr:#x}: linearity violated"
        );
    }

    /// Withdraws the permission for `ptr` (Verus `tracked_remove`).
    ///
    /// # Panics
    ///
    /// Panics when no permission for `ptr` is held.
    pub fn tracked_remove(&mut self, ptr: usize) -> PointsTo<T> {
        self.perms
            .remove(&ptr)
            .unwrap_or_else(|| panic!("no permission held for {ptr:#x}"))
    }

    /// Immutably borrows the permission for `ptr` (Verus `tracked_borrow`,
    /// Listing 1 line 36).
    ///
    /// # Panics
    ///
    /// Panics when no permission for `ptr` is held.
    pub fn tracked_borrow(&self, ptr: usize) -> &PointsTo<T> {
        self.perms
            .get(&ptr)
            .unwrap_or_else(|| panic!("no permission held for {ptr:#x}"))
    }

    /// Mutably borrows the permission for `ptr` (trusted setter analogue).
    ///
    /// # Panics
    ///
    /// Panics when no permission for `ptr` is held.
    pub fn tracked_borrow_mut(&mut self, ptr: usize) -> &mut PointsTo<T> {
        self.perms
            .get_mut(&ptr)
            .unwrap_or_else(|| panic!("no permission held for {ptr:#x}"))
    }

    /// The ghost value of the object at `ptr`, when a permission for it
    /// is held.
    pub fn get(&self, ptr: usize) -> Option<&T> {
        self.perms.get(&ptr).map(PointsTo::value)
    }

    /// Convenience: the ghost value of the object at `ptr`.
    ///
    /// # Panics
    ///
    /// Panics when no permission is held or the object is uninitialized.
    pub fn value(&self, ptr: usize) -> &T {
        self.tracked_borrow(ptr).value()
    }

    /// Iterator over `(addr, permission)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &PointsTo<T>)> {
        self.perms.iter().map(|(k, v)| (*k, v))
    }

    /// Checks the address-coherence and initialization invariants:
    /// every entry's key equals its permission's address, and every held
    /// permission is initialized (kernel objects are always constructed
    /// before their permission enters a subsystem's flat map).
    pub fn wf(&self) -> bool {
        self.perms
            .iter()
            .all(|(k, p)| p.addr() == *k && p.is_init())
    }
}

impl<T: Clone> PermMap<T> {
    /// The abstract view: a spec-level [`Map`] from address to ghost value.
    ///
    /// Refinement relations are stated against this view.
    pub fn view(&self) -> Map<usize, T> {
        self.perms
            .iter()
            .filter(|(_, p)| p.is_init())
            .map(|(k, p)| (*k, p.value().clone()))
            .collect()
    }
}

impl<T> Default for PermMap<T> {
    fn default() -> Self {
        PermMap::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for PermMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.perms.iter().map(|(k, v)| (format!("{k:#x}"), v)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PPtr;

    fn obj(addr: usize, v: u64) -> PointsTo<u64> {
        PointsTo::new_init(addr, v)
    }

    #[test]
    fn insert_borrow_remove_roundtrip() {
        let mut pm = PermMap::new();
        pm.tracked_insert(0x1000, obj(0x1000, 7));
        assert!(pm.contains(0x1000));
        assert_eq!(*pm.value(0x1000), 7);
        let perm = pm.tracked_remove(0x1000);
        assert_eq!(*perm.value(), 7);
        assert!(!pm.contains(0x1000));
    }

    #[test]
    fn dom_reflects_membership() {
        let mut pm = PermMap::new();
        pm.tracked_insert(0x1000, obj(0x1000, 1));
        pm.tracked_insert(0x2000, obj(0x2000, 2));
        assert_eq!(pm.dom(), Set::from_slice(&[0x1000, 0x2000]));
        assert_eq!(pm.len(), 2);
    }

    #[test]
    #[should_panic(expected = "key must equal")]
    fn key_address_mismatch_rejected() {
        let mut pm = PermMap::new();
        pm.tracked_insert(0x1000, obj(0x2000, 1));
    }

    #[test]
    #[should_panic(expected = "linearity")]
    fn duplicate_permission_rejected() {
        let mut pm = PermMap::new();
        pm.tracked_insert(0x1000, obj(0x1000, 1));
        pm.tracked_insert(0x1000, obj(0x1000, 2));
    }

    #[test]
    #[should_panic(expected = "no permission")]
    fn missing_permission_rejected() {
        let pm: PermMap<u64> = PermMap::new();
        let _ = pm.tracked_borrow(0x1000);
    }

    #[test]
    fn view_projects_ghost_values() {
        let mut pm = PermMap::new();
        pm.tracked_insert(0x1000, obj(0x1000, 1));
        pm.tracked_insert(0x2000, obj(0x2000, 2));
        let v = pm.view();
        assert_eq!(v.index(&0x1000), Some(&1));
        assert_eq!(v.index(&0x2000), Some(&2));
    }

    #[test]
    fn borrow_through_pointer_uses_flat_map() {
        // The Listing 1 idiom: fetch the permission from the flat map, then
        // dereference the raw pointer through it.
        let mut pm = PermMap::new();
        pm.tracked_insert(0x7000, obj(0x7000, 99));
        let t_ptr = 0x7000usize;
        let perm = pm.tracked_borrow(t_ptr);
        assert_eq!(perm.addr(), t_ptr);
        assert!(perm.is_init());
        let p = PPtr::<u64>::from_usize(t_ptr);
        assert_eq!(*p.borrow(perm), 99);
    }

    #[test]
    fn wf_detects_healthy_map() {
        let mut pm = PermMap::new();
        pm.tracked_insert(0x1000, obj(0x1000, 1));
        assert!(pm.wf());
    }

    #[test]
    fn mutation_via_borrow_mut() {
        let mut pm = PermMap::new();
        pm.tracked_insert(0x1000, obj(0x1000, 1));
        let p = PPtr::<u64>::from_usize(0x1000);
        p.write(pm.tracked_borrow_mut(0x1000), 5);
        assert_eq!(*pm.value(0x1000), 5);
    }
}
