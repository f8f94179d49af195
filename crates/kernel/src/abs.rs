//! The abstract kernel state Ψ.
//!
//! Specifications in the paper quantify over the kernel state before and
//! after a transition (`Ψ` and `Ψ'` in Listing 1). [`AbstractKernel`] is
//! that state: a pure, comparable value assembled from the abstract views
//! of every subsystem — the process manager's object maps, each process's
//! abstract address space, and the allocator's page sets.

use atmo_hw::addr::PAGE_SIZE_4K;
use atmo_mem::{PagePtr, PageSet, PageSize};
use atmo_pm::manager::PmView;
use atmo_pm::{Container, Endpoint, Process, Thread};
use atmo_ptable::MapEntry;
use atmo_spec::{Map, Set};

use crate::vm::AsId;

/// One process's abstract address space: va → (entry, size).
pub type AbsSpace = Map<usize, (MapEntry, PageSize)>;

/// The abstract kernel state Ψ.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbstractKernel {
    /// Process-manager object maps (containers, processes, threads,
    /// endpoints) and the root container.
    pub pm: PmView,
    /// Abstract address spaces, keyed by address-space id.
    pub spaces: Map<AsId, AbsSpace>,
    /// The allocator's free 4 KiB pages.
    pub free_4k: PageSet,
    /// Pages backing kernel objects and page tables.
    pub allocated: PageSet,
    /// Mapped user block heads.
    pub mapped: PageSet,
}

impl AbstractKernel {
    /// The domain of live threads (`Ψ.thread_dom()`, Listing 1).
    pub fn thread_dom(&self) -> Set<usize> {
        self.pm.threads.dom()
    }

    /// A thread's abstract state (`Ψ.get_thread(t_ptr)`).
    pub fn get_thread(&self, t: usize) -> Option<&Thread> {
        self.pm.threads.index(&t)
    }

    /// A container's abstract state (`Ψ.get_cntr(c_ptr)`).
    pub fn get_container(&self, c: usize) -> Option<&Container> {
        self.pm.containers.index(&c)
    }

    /// A process's abstract state.
    pub fn get_process(&self, p: usize) -> Option<&Process> {
        self.pm.processes.index(&p)
    }

    /// An endpoint's abstract state.
    pub fn get_endpoint(&self, e: usize) -> Option<&Endpoint> {
        self.pm.endpoints.index(&e)
    }

    /// A process's abstract address space
    /// (`Ψ.get_address_space(proc_ptr)`, Listing 1). Empty when the
    /// process or its space is unknown.
    pub fn get_address_space(&self, proc_ptr: usize) -> AbsSpace {
        match self.pm.processes.index(&proc_ptr) {
            Some(p) => self
                .spaces
                .index(&p.addr_space)
                .cloned()
                .unwrap_or_default(),
            None => Map::empty(),
        }
    }

    /// A thread's endpoint descriptor table
    /// (`Ψ.get_thrd_edpt_descriptors(t_ptr)`, §4.3).
    pub fn get_thrd_edpt_descriptors(&self, t: usize) -> Vec<Option<usize>> {
        self.pm
            .threads
            .index(&t)
            .map(|th| th.edpt_descriptors.to_vec())
            .unwrap_or_default()
    }

    /// `Ψ.page_is_free(page)` (Listing 1 line 22).
    pub fn page_is_free(&self, page: PagePtr) -> bool {
        self.free_4k.contains(&page)
    }
}

// ----- representation-independent space views --------------------------

pub use atmo_ptable::space_covering;

/// Expands every entry of `space` into its per-4 KiB coverage: a
/// `Size2M`/`Size1G` entry becomes `frames()` consecutive 4 KiB entries
/// with `frame = head + offset` and the huge bit cleared. Two spaces
/// mapping the same frames with the same permissions normalize
/// identically regardless of representation — this is the view the
/// batched `Mmap`/`Munmap` specs and the promotion-equivalence fuzz
/// compare (§4.3 adapted to superpages).
pub fn normalize_space_4k(space: &AbsSpace) -> Map<usize, MapEntry> {
    let mut items = Vec::new();
    for (base, (e, sz)) in space.iter() {
        for k in 0..sz.frames() {
            let mut flags = e.flags;
            flags.huge = false;
            items.push((
                *base + k * PAGE_SIZE_4K,
                MapEntry {
                    frame: e.frame + k * PAGE_SIZE_4K,
                    flags,
                },
            ));
        }
    }
    items.into_iter().collect()
}

// ----- frame-condition helpers used by every transition spec -----------

/// All threads unchanged between Ψ and Ψ' (Listing 1 lines 7–11).
pub fn threads_unchanged(pre: &AbstractKernel, post: &AbstractKernel) -> bool {
    pre.pm.threads == post.pm.threads
}

/// All threads except those in `except` unchanged.
pub fn threads_unchanged_except(
    pre: &AbstractKernel,
    post: &AbstractKernel,
    except: &[usize],
) -> bool {
    let pred = |k: &usize| !except.contains(k);
    pre.pm.threads.restrict(pred) == post.pm.threads.restrict(pred)
}

/// All containers except those in `except` unchanged.
pub fn containers_unchanged_except(
    pre: &AbstractKernel,
    post: &AbstractKernel,
    except: &[usize],
) -> bool {
    let pred = |k: &usize| !except.contains(k);
    pre.pm.containers.restrict(pred) == post.pm.containers.restrict(pred)
}

/// All processes except those in `except` unchanged.
pub fn processes_unchanged_except(
    pre: &AbstractKernel,
    post: &AbstractKernel,
    except: &[usize],
) -> bool {
    let pred = |k: &usize| !except.contains(k);
    pre.pm.processes.restrict(pred) == post.pm.processes.restrict(pred)
}

/// All endpoints except those in `except` unchanged.
pub fn endpoints_unchanged_except(
    pre: &AbstractKernel,
    post: &AbstractKernel,
    except: &[usize],
) -> bool {
    let pred = |k: &usize| !except.contains(k);
    pre.pm.endpoints.restrict(pred) == post.pm.endpoints.restrict(pred)
}

/// All address spaces except those in `except` unchanged (Listing 1
/// lines 13–18 generalize this per-address; spaces are compared whole
/// here and per-address in the mmap spec).
pub fn spaces_unchanged_except(
    pre: &AbstractKernel,
    post: &AbstractKernel,
    except: &[AsId],
) -> bool {
    let pred = |k: &AsId| !except.contains(k);
    pre.spaces.restrict(pred) == post.spaces.restrict(pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_pm::manager::PmView;

    fn empty_abs() -> AbstractKernel {
        AbstractKernel {
            pm: PmView {
                root: 0x1000,
                containers: Map::empty(),
                processes: Map::empty(),
                threads: Map::empty(),
                endpoints: Map::empty(),
            },
            spaces: Map::empty(),
            free_4k: PageSet::default(),
            allocated: PageSet::default(),
            mapped: PageSet::default(),
        }
    }

    #[test]
    fn empty_state_accessors() {
        let a = empty_abs();
        assert!(a.thread_dom().is_empty());
        assert!(a.get_thread(1).is_none());
        assert!(a.get_address_space(1).is_empty());
        assert!(a.get_thrd_edpt_descriptors(1).is_empty());
        assert!(!a.page_is_free(0x1000));
    }

    #[test]
    fn frame_helpers_detect_changes() {
        let a = empty_abs();
        let mut b = a.clone();
        assert!(threads_unchanged(&a, &b));
        b.pm.threads
            .insert_mut(0x3000, Thread::new(0x2000, 0x1000, 0));
        assert!(!threads_unchanged(&a, &b));
        assert!(threads_unchanged_except(&a, &b, &[0x3000]));
        assert!(!threads_unchanged_except(&a, &b, &[0x4000]));
    }

    #[test]
    fn space_helpers_restrict_properly() {
        let a = empty_abs();
        let mut b = a.clone();
        b.spaces.insert_mut(5, Map::empty());
        assert!(spaces_unchanged_except(&a, &b, &[5]));
        assert!(!spaces_unchanged_except(&a, &b, &[]));
    }
}
