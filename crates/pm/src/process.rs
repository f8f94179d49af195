//! Processes and the per-container process trees (§3).
//!
//! "Inside each container, the processes form a separate process tree,
//! which allows parent-child tracking of all processes in the same
//! container." The layout mirrors the container tree: internal child
//! lists, reverse parent pointers, and a ghost ancestor `path` for
//! non-recursive specifications.

use atmo_spec::harness::{check, VerifResult};
use atmo_spec::{Ghost, PermMap, Seq};

use crate::container::Container;
use crate::staticlist::StaticList;
use crate::types::{CtnrPtr, ProcPtr, ThrdPtr, MAX_CHILD_PROCESSES, MAX_PROC_THREADS};

/// A process kernel object (one per 4 KiB page).
#[derive(Debug, PartialEq, Eq)]
pub struct Process {
    /// The container this process belongs to (never changes).
    pub owning_container: CtnrPtr,
    /// Parent process within the same container; `None` for the
    /// container's top-level processes.
    pub parent: Option<ProcPtr>,
    /// Direct child processes.
    pub children: StaticList<ProcPtr, MAX_CHILD_PROCESSES>,
    /// Threads of this process.
    pub threads: StaticList<ThrdPtr, MAX_PROC_THREADS>,
    /// Ghost: ancestor processes from the container's top level.
    pub path: Ghost<Seq<ProcPtr>>,
    /// Opaque address-space identifier; the kernel maps it to a page
    /// table. Two processes never share an identifier.
    pub addr_space: usize,
}

impl Clone for Process {
    fn clone(&self) -> Self {
        Process {
            owning_container: self.owning_container,
            parent: self.parent,
            children: self.children,
            threads: self.threads,
            path: self.path.clone(),
            addr_space: self.addr_space,
        }
    }

    /// Field by field, so a ghost path both sides share keeps its
    /// handle. Exhaustive: a new field does not compile until it is
    /// copied here.
    fn clone_from(&mut self, source: &Self) {
        let Process {
            owning_container,
            parent,
            children,
            threads,
            path,
            addr_space,
        } = self;
        *owning_container = source.owning_container;
        *parent = source.parent;
        *children = source.children;
        *threads = source.threads;
        path.clone_from(&source.path);
        *addr_space = source.addr_space;
    }
}

impl Process {
    /// A fresh process in `container` under `parent`.
    pub fn new(
        container: CtnrPtr,
        parent: Option<ProcPtr>,
        parent_path: Seq<ProcPtr>,
        addr_space: usize,
    ) -> Self {
        let path = match parent {
            Some(p) => parent_path.push(p),
            None => Seq::empty(),
        };
        Process {
            owning_container: container,
            parent,
            children: StaticList::new(),
            threads: StaticList::new(),
            path: Ghost::new(path),
            addr_space,
        }
    }
}

/// Structural invariant of all per-container process trees, stated flat
/// over the process and container permission maps.
pub fn process_forest_wf(cntrs: &PermMap<Container>, procs: &PermMap<Process>) -> VerifResult {
    let pdom = procs.dom();
    for (p_ptr, perm) in procs.iter() {
        let p = perm.value();

        // Containment: the owning container exists and lists the process.
        check(
            cntrs.contains(p.owning_container),
            "process_tree",
            format_args!("process {p_ptr:#x} owned by unknown container"),
        )?;
        let cntr = cntrs.value(p.owning_container);
        check(
            cntr.owned_procs.contains(&p_ptr),
            "process_tree",
            format_args!("container does not record process {p_ptr:#x}"),
        )?;

        check(
            p.children.no_duplicates() && p.threads.no_duplicates(),
            "process_tree",
            format_args!("process {p_ptr:#x} has duplicate children or threads"),
        )?;
        for child in p.children.iter() {
            check(
                pdom.contains(&child),
                "process_tree",
                format_args!("child process {child:#x} not in the map"),
            )?;
            let c = procs.value(child);
            check(
                c.parent == Some(p_ptr),
                "process_tree",
                format_args!("child {child:#x} does not point back to {p_ptr:#x}"),
            )?;
            check(
                c.owning_container == p.owning_container,
                "process_tree",
                format_args!("child {child:#x} crossed container boundary"),
            )?;
        }

        match p.parent {
            None => {
                check(
                    cntr.root_procs.contains(&p_ptr),
                    "process_tree",
                    format_args!("top-level process {p_ptr:#x} missing from container roots"),
                )?;
                check(
                    p.path.is_empty(),
                    "process_tree",
                    format_args!("top-level process {p_ptr:#x} with nonempty path"),
                )?;
            }
            Some(par) => {
                check(
                    pdom.contains(&par),
                    "process_tree",
                    format_args!("parent {par:#x} of {p_ptr:#x} not in the map"),
                )?;
                check(
                    procs.value(par).children.contains(&p_ptr),
                    "process_tree",
                    format_args!("parent {par:#x} does not list {p_ptr:#x}"),
                )?;
                check(
                    *p.path.view() == procs.value(par).path.push(par),
                    "process_tree",
                    format_args!("path of {p_ptr:#x} is not parent path + parent"),
                )?;
            }
        }
        check(
            !p.path.contains(&p_ptr),
            "process_tree",
            format_args!("process {p_ptr:#x} on its own path (cycle)"),
        )?;
    }

    // Container-side ghost sets only name live processes of that container,
    // and every root-process entry is live and parentless.
    for (c_ptr, perm) in cntrs.iter() {
        let c = perm.value();
        for p in c.owned_procs.iter() {
            check(
                pdom.contains(p) && procs.value(*p).owning_container == c_ptr,
                "process_tree",
                format_args!("container {c_ptr:#x} claims foreign/dead process {p:#x}"),
            )?;
        }
        for p in c.root_procs.iter() {
            check(
                pdom.contains(&p) && procs.value(p).parent.is_none(),
                "process_tree",
                format_args!("container {c_ptr:#x} lists invalid root process {p:#x}"),
            )?;
        }
    }

    // Address spaces are private: no two processes share one.
    let mut seen = std::collections::BTreeSet::new();
    for (p_ptr, perm) in procs.iter() {
        check(
            seen.insert(perm.value().addr_space),
            "process_tree",
            format_args!("process {p_ptr:#x} shares an address space"),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_spec::{PointsTo, Set};

    fn one_container_two_procs() -> (PermMap<Container>, PermMap<Process>) {
        let c_ptr = 0x1000;
        let p1 = 0x2000;
        let p2 = 0x3000;

        let mut c = Container::new_root(100, Set::empty());
        c.root_procs.push(p1);
        c.owned_procs.assign(Set::from_slice(&[p1, p2]));

        let mut proc1 = Process::new(c_ptr, None, Seq::empty(), 1);
        proc1.children.push(p2);
        let proc2 = Process::new(c_ptr, Some(p1), Seq::empty(), 2);

        let mut cm = PermMap::new();
        cm.tracked_insert(c_ptr, PointsTo::new_init(c_ptr, c));
        let mut pmap = PermMap::new();
        pmap.tracked_insert(p1, PointsTo::new_init(p1, proc1));
        pmap.tracked_insert(p2, PointsTo::new_init(p2, proc2));
        (cm, pmap)
    }

    #[test]
    fn two_process_tree_is_wf() {
        let (cm, pm) = one_container_two_procs();
        assert!(process_forest_wf(&cm, &pm).is_ok());
    }

    #[test]
    fn detects_cross_container_child() {
        let (mut cm, mut pm) = one_container_two_procs();
        // Add a second container and move p2's ownership there without
        // relinking: the child crosses the boundary.
        let c2 = 0x5000;
        cm.tracked_insert(
            c2,
            PointsTo::new_init(c2, {
                let mut c = Container::new_child(0x1000, &Seq::empty(), 1, 10, Set::empty());
                c.owned_procs.assign(Set::from_slice(&[0x3000]));
                c
            }),
        );
        let ptr = atmo_spec::PPtr::<Process>::from_usize(0x3000);
        ptr.borrow_mut(pm.tracked_borrow_mut(0x3000))
            .owning_container = c2;
        assert!(process_forest_wf(&cm, &pm).is_err());
    }

    #[test]
    fn detects_shared_address_space() {
        let (cm, mut pm) = one_container_two_procs();
        let ptr = atmo_spec::PPtr::<Process>::from_usize(0x3000);
        ptr.borrow_mut(pm.tracked_borrow_mut(0x3000)).addr_space = 1;
        let err = process_forest_wf(&cm, &pm).unwrap_err();
        assert!(err.detail.contains("address space"));
    }

    #[test]
    fn detects_missing_root_listing() {
        let (mut cm, pm) = one_container_two_procs();
        let ptr = atmo_spec::PPtr::<Container>::from_usize(0x1000);
        ptr.borrow_mut(cm.tracked_borrow_mut(0x1000)).root_procs = StaticList::new();
        assert!(process_forest_wf(&cm, &pm).is_err());
    }

    #[test]
    fn detects_ghost_set_staleness() {
        let (mut cm, pm) = one_container_two_procs();
        let ptr = atmo_spec::PPtr::<Container>::from_usize(0x1000);
        ptr.borrow_mut(cm.tracked_borrow_mut(0x1000))
            .owned_procs
            .assign(Set::from_slice(&[0x2000, 0x3000, 0x9999]));
        assert!(process_forest_wf(&cm, &pm).is_err());
    }
}
