//! Verification substrate for the Atmosphere reproduction.
//!
//! The Atmosphere paper verifies its kernel with [Verus], an SMT-based
//! verifier for Rust. Verus provides three families of artefacts that the
//! kernel's proofs are written against:
//!
//! 1. **Ghost collections** — mathematical `Map`, `Set` and `Seq` types used
//!    to express abstract kernel state (e.g. the abstract page table is a
//!    `Map<VAddr, MapEntry>`).
//! 2. **Ghost/tracked wrappers** — `Ghost<T>` (freely duplicable
//!    specification data) and `Tracked<T>` (linear, borrow-checked proof
//!    data).
//! 3. **Linear permission pointers** — `PPtr<T>` (a raw address) paired with
//!    `PointsTo<T>` (an affine permission that both authorizes access
//!    through the pointer and carries the ghost value of the pointee).
//!
//! This crate reproduces all three families as *executable* Rust. Instead
//! of discharging verification conditions statically with Z3, the same
//! conditions are evaluated at runtime by the test and refinement harnesses
//! (see [`harness`]): every specification function, invariant and
//! refinement relation from the paper exists here as an ordinary function
//! returning `bool`, and the harness asserts them around every kernel
//! transition.
//!
//! Linearity — the property Verus gets from Rust's borrow checker — is
//! preserved by construction: [`PointsTo`] is not `Clone`, is consumed by
//! deallocation, and every dereference must present the matching permission.
//!
//! [Verus]: https://github.com/verus-lang/verus

pub mod fold;
pub mod ghost;
pub mod harness;
pub mod map;
pub mod perm_map;
pub mod ptr;
pub mod rng;
pub mod seq;
pub mod set;
pub mod storage;
pub mod sync;
pub mod write_set;

pub use fold::{splitmix64, RefFold, SetFold};
pub use ghost::{Ghost, Tracked};
pub use harness::{InvariantViolation, VerifResult};
pub use map::Map;
pub use perm_map::PermMap;
pub use ptr::{PPtr, PointsTo};
pub use rng::XorShift64Star;
pub use seq::Seq;
pub use set::Set;
pub use storage::{AbstractKv, KvOp};
pub use sync::{into_inner_recovering, lock_recovering};
pub use write_set::WriteSet;

/// Asserts a verification condition.
///
/// Mirrors a Verus `assert(...)`: in a verified build the condition is
/// discharged statically and erased; here it is checked in debug/test
/// builds and compiled out of release builds (so, like ghost code, it adds
/// no overhead to the benchmarked hot paths).
#[macro_export]
macro_rules! vassert {
    ($cond:expr $(, $msg:expr)?) => {
        debug_assert!($cond $(, $msg)?)
    };
}

/// Asserts a function precondition (a Verus `requires` clause).
#[macro_export]
macro_rules! requires {
    ($cond:expr $(, $msg:expr)?) => {
        debug_assert!($cond $(, $msg)?)
    };
}

/// Asserts a function postcondition (a Verus `ensures` clause).
#[macro_export]
macro_rules! ensures {
    ($cond:expr $(, $msg:expr)?) => {
        debug_assert!($cond $(, $msg)?)
    };
}
