//! Permissioned pointers: `PPtr<T>` and `PointsTo<T>`.
//!
//! This is the core of the paper's *pointer-centric design* (§4.1). Kernel
//! data structures hold raw addresses (`PPtr<T>` is a wrapper around a
//! `usize`, freely copyable, allowed to form cycles, reverse edges, and all
//! the other non-linear shapes a C kernel would use). Every *access*
//! through a pointer, however, must present the matching linear permission
//! `PointsTo<T>`:
//!
//! * a permission is created exactly once, when the object's backing memory
//!   is allocated;
//! * it cannot be duplicated (no `Clone`), so at most one owner can write;
//! * it is consumed on deallocation, so dangling pointers cannot be
//!   dereferenced (temporal safety);
//! * it records the pointee's address and initialization state, so a
//!   permission for one object can never authorize access to another
//!   (type + spatial safety).
//!
//! Following Verus, the permission also *carries the ghost value* of the
//! pointee: updates through the pointer are reflected in the permission's
//! state, which is what the proofs quantify over. In this executable
//! reproduction the permission carries the real value, which makes the
//! semantics identical while keeping the simulation self-contained.
//!
//! Address/ownership mismatches are reported by panicking: they correspond
//! to verification errors that Verus would reject at compile time, so any
//! such panic in a test run is a refuted proof obligation, not a legitimate
//! runtime error.

use std::fmt;
use std::marker::PhantomData;

/// A raw, copyable pointer to a `T` in simulated kernel memory.
///
/// Equality and ordering are on the address, so `PPtr`s can key the flat
/// permission maps of §4.1.
pub struct PPtr<T> {
    addr: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> PPtr<T> {
    /// Creates a pointer from a raw address (Verus `PPtr::from_usize`).
    pub fn from_usize(addr: usize) -> Self {
        PPtr {
            addr,
            _marker: PhantomData,
        }
    }

    /// Returns the raw address.
    pub fn addr(&self) -> usize {
        self.addr
    }

    /// Returns the null pointer (address 0); never carries a permission.
    pub fn null() -> Self {
        PPtr::from_usize(0)
    }

    /// `true` when this is the null pointer.
    pub fn is_null(&self) -> bool {
        self.addr == 0
    }

    /// Immutably borrows the pointee through its permission.
    ///
    /// # Panics
    ///
    /// Panics ("verification failure") when the permission is for a
    /// different address or the pointee is uninitialized — both conditions
    /// Verus discharges statically (Listing 1, line 37 of the paper).
    pub fn borrow<'a>(&self, perm: &'a PointsTo<T>) -> &'a T {
        assert_eq!(
            perm.addr, self.addr,
            "PointsTo address does not match pointer"
        );
        perm.value
            .as_deref()
            .expect("borrow through uninitialized PointsTo")
    }

    /// Mutably borrows the pointee through its permission.
    ///
    /// The analogue of the paper's trusted setter functions (§5, item 7):
    /// Verus lacks general `&mut` support for tracked data, so Atmosphere
    /// routes mutation through a small trusted API; this is that API.
    ///
    /// # Panics
    ///
    /// Panics on address mismatch or uninitialized pointee.
    pub fn borrow_mut<'a>(&self, perm: &'a mut PointsTo<T>) -> &'a mut T {
        assert_eq!(
            perm.addr, self.addr,
            "PointsTo address does not match pointer"
        );
        perm.value
            .as_deref_mut()
            .expect("borrow_mut through uninitialized PointsTo")
    }

    /// Writes `value` through the pointer, initializing or overwriting.
    ///
    /// # Panics
    ///
    /// Panics on address mismatch.
    pub fn write(&self, perm: &mut PointsTo<T>, value: T) {
        assert_eq!(
            perm.addr, self.addr,
            "PointsTo address does not match pointer"
        );
        perm.value = Some(Box::new(value));
    }

    /// Moves the pointee out, leaving the permission uninitialized.
    ///
    /// # Panics
    ///
    /// Panics on address mismatch or uninitialized pointee.
    pub fn take(&self, perm: &mut PointsTo<T>) -> T {
        assert_eq!(
            perm.addr, self.addr,
            "PointsTo address does not match pointer"
        );
        *perm
            .value
            .take()
            .expect("take through uninitialized PointsTo")
    }

    /// Replaces the pointee, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics on address mismatch or uninitialized pointee.
    pub fn replace(&self, perm: &mut PointsTo<T>, value: T) -> T {
        assert_eq!(
            perm.addr, self.addr,
            "PointsTo address does not match pointer"
        );
        let slot = perm
            .value
            .as_deref_mut()
            .expect("replace through uninitialized PointsTo");
        std::mem::replace(slot, value)
    }
}

impl<T> PPtr<T>
where
    T: Copy,
{
    /// Reads the pointee by copy.
    ///
    /// # Panics
    ///
    /// Panics on address mismatch or uninitialized pointee.
    pub fn read(&self, perm: &PointsTo<T>) -> T {
        *self.borrow(perm)
    }
}

impl<T> Clone for PPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for PPtr<T> {}

impl<T> PartialEq for PPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.addr == other.addr
    }
}

impl<T> Eq for PPtr<T> {}

impl<T> PartialOrd for PPtr<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for PPtr<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.addr.cmp(&other.addr)
    }
}

impl<T> std::hash::Hash for PPtr<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.addr.hash(state);
    }
}

impl<T> fmt::Debug for PPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PPtr({:#x})", self.addr)
    }
}

/// The linear permission to access a `T` through a [`PPtr<T>`].
///
/// Not `Clone`: at most one permission exists per live object. Created by
/// the trusted allocation primitives (the page allocator in `atmo-mem`) and
/// consumed on deallocation.
///
/// The pointee is kept out of line: the permission itself is an address
/// and one pointer (the paper's permissions are ghost and the object lives
/// in its page), so a [`PermMap`](crate::PermMap) node costs 16 bytes per
/// entry whatever `T` is and moving a permission never copies the object.
#[derive(Debug)]
pub struct PointsTo<T> {
    addr: usize,
    value: Option<Box<T>>,
}

const _: () = assert!(std::mem::size_of::<PointsTo<[u64; 512]>>() <= 16);

impl<T> PointsTo<T> {
    /// Creates an *uninitialized* permission for the object at `addr`.
    ///
    /// **Trusted primitive**: in Verus this is produced by the memory
    /// allocator together with the pointer; forging one elsewhere would be
    /// unsound. In this reproduction only `atmo-mem`'s page-to-object
    /// conversion and test fixtures may call it.
    pub fn new_uninit(addr: usize) -> Self {
        assert_ne!(addr, 0, "cannot create a permission for the null address");
        PointsTo { addr, value: None }
    }

    /// Creates an initialized permission (trusted, allocator-only).
    pub fn new_init(addr: usize, value: T) -> Self {
        assert_ne!(addr, 0, "cannot create a permission for the null address");
        PointsTo {
            addr,
            value: Some(Box::new(value)),
        }
    }

    /// Address this permission is for (Verus `perm@.addr()`).
    pub fn addr(&self) -> usize {
        self.addr
    }

    /// `true` when the pointee has been initialized (Verus `is_init`).
    pub fn is_init(&self) -> bool {
        self.value.is_some()
    }

    /// `true` when the pointee is uninitialized.
    pub fn is_uninit(&self) -> bool {
        self.value.is_none()
    }

    /// The ghost view of the pointee (Verus `perm@.value()`).
    ///
    /// # Panics
    ///
    /// Panics when the pointee is uninitialized.
    pub fn value(&self) -> &T {
        self.value
            .as_deref()
            .expect("value() on uninitialized PointsTo")
    }

    /// Consumes the permission, releasing the pointee (deallocation).
    ///
    /// Returns the final value, if initialized. After this the address can
    /// never be dereferenced again — temporal safety by construction.
    pub fn into_value(self) -> Option<T> {
        self.value.map(|v| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh<T>(addr: usize) -> (PPtr<T>, PointsTo<T>) {
        (PPtr::from_usize(addr), PointsTo::new_uninit(addr))
    }

    #[test]
    fn write_then_borrow() {
        let (p, mut perm) = fresh::<u64>(0x1000);
        assert!(perm.is_uninit());
        p.write(&mut perm, 42);
        assert!(perm.is_init());
        assert_eq!(*p.borrow(&perm), 42);
        assert_eq!(*perm.value(), 42);
    }

    #[test]
    fn take_leaves_uninit() {
        let (p, mut perm) = fresh::<u64>(0x1000);
        p.write(&mut perm, 7);
        assert_eq!(p.take(&mut perm), 7);
        assert!(perm.is_uninit());
    }

    #[test]
    fn replace_returns_old() {
        let (p, mut perm) = fresh::<u64>(0x2000);
        p.write(&mut perm, 1);
        assert_eq!(p.replace(&mut perm, 2), 1);
        assert_eq!(p.read(&perm), 2);
    }

    #[test]
    fn borrow_mut_updates_ghost_state() {
        let (p, mut perm) = fresh::<Vec<u32>>(0x3000);
        p.write(&mut perm, vec![1]);
        p.borrow_mut(&mut perm).push(2);
        assert_eq!(p.borrow(&perm), &vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn wrong_permission_is_rejected() {
        // A permission for one address cannot authorize access to another:
        // this is the executable form of the check on Listing 1 line 37.
        let (_p1, mut perm1) = fresh::<u64>(0x1000);
        let (p2, _perm2) = fresh::<u64>(0x2000);
        p2.write(&mut perm1, 3);
    }

    #[test]
    #[should_panic(expected = "uninitialized")]
    fn uninitialized_borrow_is_rejected() {
        let (p, perm) = fresh::<u64>(0x1000);
        let _ = p.borrow(&perm);
    }

    #[test]
    #[should_panic]
    fn null_permission_cannot_exist() {
        let _ = PointsTo::<u64>::new_uninit(0);
    }

    #[test]
    fn pointers_are_plain_addresses() {
        let a: PPtr<u64> = PPtr::from_usize(0x1000);
        let b = a; // Copy
        assert_eq!(a, b);
        assert_eq!(a.addr(), 0x1000);
        assert!(PPtr::<u64>::null().is_null());
    }

    #[test]
    fn into_value_consumes_permission() {
        let (p, mut perm) = fresh::<String>(0x4000);
        p.write(&mut perm, "obj".into());
        let v = perm.into_value();
        assert_eq!(v.as_deref(), Some("obj"));
        // `perm` is gone: the borrow checker enforces temporal safety.
    }
}
