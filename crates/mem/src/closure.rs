//! `page_closure()` — the paper's memory-accounting backbone (§4.2).
//!
//! "For each data structure in the kernel, we implement the
//! `page_closure()` specification function, which returns a set of pages
//! used by the data structure and all objects owned by it." Subsystems
//! maintain their closure hierarchically: each proves its children's
//! closures pairwise disjoint and its own closure equal to their union,
//! so kernel-wide disjointness and leak freedom follow without global
//! per-object invariants.

use atmo_spec::harness::{check, VerifResult};
use atmo_spec::set::disjoint_union;
use atmo_spec::Set;

use crate::meta::PagePtr;

/// A kernel data structure that owns physical pages.
pub trait PageClosure {
    /// The set of pages used by this structure and everything it owns
    /// (directly or via tracked permissions).
    fn page_closure(&self) -> Set<PagePtr>;
}

/// Checks one level of the bottom-up memory argument: the children's
/// closures are pairwise disjoint and their union equals the parent's
/// closure.
///
/// `subsystem` names the level for diagnostics (e.g. `"vm"` for the
/// virtual-memory subsystem owning all page tables and IOMMU tables).
pub fn closure_partition_wf(
    subsystem: &'static str,
    parent: &Set<PagePtr>,
    children: &[Set<PagePtr>],
) -> VerifResult {
    let union = disjoint_union(children);
    check(union.is_some(), subsystem, "child page closures overlap")?;
    check(
        union.as_ref() == Some(parent),
        subsystem,
        "union of child closures differs from the subsystem closure",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Table {
        pages: Vec<PagePtr>,
    }

    impl PageClosure for Table {
        fn page_closure(&self) -> Set<PagePtr> {
            self.pages.iter().copied().collect()
        }
    }

    #[test]
    fn partition_accepts_disjoint_cover() {
        let a = Table {
            pages: vec![0x1000, 0x2000],
        };
        let b = Table {
            pages: vec![0x3000],
        };
        let parent = a.page_closure().union(&b.page_closure());
        assert!(closure_partition_wf("vm", &parent, &[a.page_closure(), b.page_closure()]).is_ok());
    }

    #[test]
    fn partition_rejects_overlap() {
        let a = Table {
            pages: vec![0x1000, 0x2000],
        };
        let b = Table {
            pages: vec![0x2000], // overlaps: double use of one page
        };
        let parent = a.page_closure().union(&b.page_closure());
        let r = closure_partition_wf("vm", &parent, &[a.page_closure(), b.page_closure()]);
        assert!(r.unwrap_err().detail.contains("overlap"));
    }

    #[test]
    fn partition_rejects_leak() {
        // The parent claims a page no child owns — a leak.
        let a = Table {
            pages: vec![0x1000],
        };
        let parent = a.page_closure().insert(0x9000);
        let r = closure_partition_wf("vm", &parent, &[a.page_closure()]);
        assert!(r.unwrap_err().detail.contains("union"));
    }
}
