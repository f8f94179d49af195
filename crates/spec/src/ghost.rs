//! `Ghost<T>` and `Tracked<T>` wrappers.
//!
//! Verus distinguishes *ghost* data (specification-only, freely duplicable,
//! erased at compile time) from *tracked* data (proof-level but linear —
//! it obeys the full Rust ownership discipline and is how permissions are
//! carried around). Atmosphere uses `Ghost` for abstract state stored
//! alongside concrete fields (e.g. `PageTable::map`, `Container::path`)
//! and `Tracked` for the flat permission maps (`ProcessManager::thrd_perms`
//! etc., Listing 2 of the paper).
//!
//! In this executable reproduction, ghost data is carried at runtime so the
//! harness can check refinement; it is still "ghost" in the sense that no
//! executable decision is ever allowed to read it (enforced by review
//! convention, as in the paper's trusted-spec discipline, and exercised by
//! tests that mutate ghost state and observe unchanged executable
//! behaviour).

/// Specification-only data stored next to executable state.
///
/// Freely clonable, like Verus `Ghost<T>`: duplicating a mathematical value
/// is always sound.
///
/// # Examples
///
/// ```
/// use atmo_spec::{Ghost, Map};
///
/// let abstract_pt: Ghost<Map<usize, usize>> = Ghost::new(Map::empty());
/// let copy = abstract_pt.clone();
/// assert_eq!(*copy, *abstract_pt);
/// ```
#[derive(Debug, PartialEq, Eq, Default)]
pub struct Ghost<T>(T);

impl<T: Clone> Clone for Ghost<T> {
    fn clone(&self) -> Self {
        Ghost(self.0.clone())
    }

    /// Delegates to the value's own `clone_from`, so a shared handle
    /// stays shared.
    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0)
    }
}

impl<T> Ghost<T> {
    /// Wraps a specification value.
    pub fn new(value: T) -> Self {
        Ghost(value)
    }

    /// Returns the specification value by reference (Verus `@`).
    pub fn view(&self) -> &T {
        &self.0
    }

    /// Replaces the specification value.
    ///
    /// Ghost state may be updated freely by proof code; it never influences
    /// executable behaviour.
    pub fn assign(&mut self, value: T) {
        self.0 = value;
    }

    /// Unwraps the specification value.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> std::ops::Deref for Ghost<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Ghost<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Linear proof data: obeys full ownership, cannot be duplicated.
///
/// The container for permissions ([`crate::PointsTo`], [`crate::PermMap`]).
/// Deliberately **not** `Clone` — duplicating a permission would let two
/// owners alias the same memory, which is exactly what the linear type
/// discipline rules out.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct Tracked<T>(T);

impl<T> Tracked<T> {
    /// Wraps a linear proof value.
    pub fn new(value: T) -> Self {
        Tracked(value)
    }

    /// Immutably borrows the proof value (Verus `tracked_borrow`).
    // The name deliberately mirrors Verus' tracked API, not std::borrow.
    #[allow(clippy::should_implement_trait)]
    pub fn borrow(&self) -> &T {
        &self.0
    }

    /// Mutably borrows the proof value.
    ///
    /// Verus itself has limited `&mut` support and routes mutation through
    /// trusted setter functions (§5, item 7 of the paper); this method is
    /// the equivalent trusted primitive.
    // The name deliberately mirrors Verus' tracked API.
    #[allow(clippy::should_implement_trait)]
    pub fn borrow_mut(&mut self) -> &mut T {
        &mut self.0
    }

    /// Consumes the wrapper, yielding the proof value.
    pub fn get(self) -> T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghost_is_clonable_and_transparent() {
        let g = Ghost::new(41);
        let h = g.clone();
        assert_eq!(*g + 1, 42);
        assert_eq!(h, g);
    }

    #[test]
    fn ghost_assign_updates() {
        let mut g = Ghost::new(1);
        g.assign(2);
        assert_eq!(*g.view(), 2);
        assert_eq!(g.into_inner(), 2);
    }

    #[test]
    fn tracked_moves_linearly() {
        let t = Tracked::new(String::from("perm"));
        // Borrow, then consume; the borrow checker forbids using `t` after.
        assert_eq!(t.borrow(), "perm");
        let inner = t.get();
        assert_eq!(inner, "perm");
    }

    #[test]
    fn tracked_borrow_mut_mutates() {
        let mut t = Tracked::new(7);
        *t.borrow_mut() = 8;
        assert_eq!(*t.borrow(), 8);
    }
}
