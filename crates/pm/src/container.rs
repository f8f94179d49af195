//! Containers and the container tree (§3, §4.1).
//!
//! A container is a group of processes with a guaranteed memory quota and
//! CPU-core reservation. Containers form one unbounded tree rooted at the
//! boot container; each node stores its direct children (internal-storage
//! list) and a reverse pointer to its parent — the pointer-centric layout
//! of Listing 2 — plus two ghost fields that make *non-recursive*
//! specifications possible:
//!
//! * `path` — the sequence of ancestors from the root (paper:  "direct and
//!   indirect parents");
//! * `subtree` — the set of all reachable descendants.
//!
//! [`container_tree_wf`] is the structural invariant. It is stated flat
//! over the container permission map, including the paper's
//! `resolve_path_wf` ("for any node *n* at depth *d* on the path of
//! container *c*, *c*'s subpath from the root to *d* equals the path of
//! *n*") and the bidirectional path/subtree duality that replaces
//! recursive subtree reasoning.

use std::collections::BTreeMap;

use atmo_spec::harness::{check, Invariant, VerifResult};
use atmo_spec::{Ghost, PermMap, Seq, Set};

use crate::staticlist::StaticList;
use crate::types::{
    CpuId, CtnrPtr, EdptPtr, ProcPtr, ThrdPtr, MAX_CHILD_CONTAINERS, MAX_CHILD_PROCESSES,
};

/// A container kernel object (one per 4 KiB page).
#[derive(Debug, PartialEq, Eq)]
pub struct Container {
    /// Parent container; `None` only for the root.
    pub parent: Option<CtnrPtr>,
    /// Direct children (internal storage, Listing 2 line 10).
    pub children: StaticList<CtnrPtr, MAX_CHILD_CONTAINERS>,
    /// Distance from the root (root = 0).
    pub depth: usize,
    /// Ghost: ancestors from the root, excluding `self`.
    pub path: Ghost<Seq<CtnrPtr>>,
    /// Ghost: every container reachable below this one.
    pub subtree: Ghost<Set<CtnrPtr>>,
    /// Top-level processes of this container (process-tree roots).
    pub root_procs: StaticList<ProcPtr, MAX_CHILD_PROCESSES>,
    /// Ghost: all processes belonging to this container.
    pub owned_procs: Ghost<Set<ProcPtr>>,
    /// Ghost: all threads belonging to this container.
    pub owned_thrds: Ghost<Set<ThrdPtr>>,
    /// Ghost: all endpoints charged to this container.
    pub owned_edpts: Ghost<Set<EdptPtr>>,
    /// Total page reservation (the container quota, §3).
    pub quota: usize,
    /// Pages currently charged: kernel objects, user mappings, and the
    /// reservations passed to child containers.
    pub used: usize,
    /// CPU cores reserved for this container's threads.
    pub owned_cpus: Set<CpuId>,
}

impl Clone for Container {
    fn clone(&self) -> Self {
        Container {
            parent: self.parent,
            children: self.children,
            depth: self.depth,
            path: self.path.clone(),
            subtree: self.subtree.clone(),
            root_procs: self.root_procs,
            owned_procs: self.owned_procs.clone(),
            owned_thrds: self.owned_thrds.clone(),
            owned_edpts: self.owned_edpts.clone(),
            quota: self.quota,
            used: self.used,
            owned_cpus: self.owned_cpus.clone(),
        }
    }

    /// Field by field, so a ghost set both sides share keeps its handle
    /// (a replica replaying a gauge-only write touches no refcount).
    /// Exhaustive: a new field does not compile until it is copied here.
    fn clone_from(&mut self, source: &Self) {
        let Container {
            parent,
            children,
            depth,
            path,
            subtree,
            root_procs,
            owned_procs,
            owned_thrds,
            owned_edpts,
            quota,
            used,
            owned_cpus,
        } = self;
        *parent = source.parent;
        *children = source.children;
        *depth = source.depth;
        path.clone_from(&source.path);
        subtree.clone_from(&source.subtree);
        *root_procs = source.root_procs;
        owned_procs.clone_from(&source.owned_procs);
        owned_thrds.clone_from(&source.owned_thrds);
        owned_edpts.clone_from(&source.owned_edpts);
        *quota = source.quota;
        *used = source.used;
        owned_cpus.clone_from(&source.owned_cpus);
    }
}

impl Container {
    /// A fresh container below `parent` (ghost state supplied by the
    /// caller, who has the flat view needed to compute it).
    pub fn new_child(
        parent: CtnrPtr,
        parent_path: &Seq<CtnrPtr>,
        depth: usize,
        quota: usize,
        cpus: Set<CpuId>,
    ) -> Self {
        Container {
            parent: Some(parent),
            children: StaticList::new(),
            depth,
            path: Ghost::new(parent_path.push(parent)),
            subtree: Ghost::new(Set::empty()),
            root_procs: StaticList::new(),
            owned_procs: Ghost::new(Set::empty()),
            owned_thrds: Ghost::new(Set::empty()),
            owned_edpts: Ghost::new(Set::empty()),
            quota,
            used: 0,
            owned_cpus: cpus,
        }
    }

    /// The boot (root) container.
    pub fn new_root(quota: usize, cpus: Set<CpuId>) -> Self {
        Container {
            parent: None,
            children: StaticList::new(),
            depth: 0,
            path: Ghost::new(Seq::empty()),
            subtree: Ghost::new(Set::empty()),
            root_procs: StaticList::new(),
            owned_procs: Ghost::new(Set::empty()),
            owned_thrds: Ghost::new(Set::empty()),
            owned_edpts: Ghost::new(Set::empty()),
            quota,
            used: 0,
            owned_cpus: cpus,
        }
    }

    /// Remaining quota available for new charges.
    pub fn quota_available(&self) -> usize {
        self.quota.saturating_sub(self.used)
    }
}

/// The container tree's structural invariant (closed spec function of
/// Listing 3), stated flat over the permission map.
pub fn container_tree_wf(root: CtnrPtr, cntrs: &PermMap<Container>) -> VerifResult {
    check(
        cntrs.contains(root),
        "container_tree",
        "root not in the map",
    )?;
    let root_c = cntrs.value(root);
    check(
        root_c.parent.is_none() && root_c.depth == 0 && root_c.path.is_empty(),
        "container_tree",
        "root has a parent, nonzero depth or nonempty path",
    )?;

    let dom = cntrs.dom();
    for c_ptr in dom.iter() {
        let c = cntrs.value(*c_ptr);

        // Child lists are duplicate-free and reverse pointers agree.
        check(
            c.children.no_duplicates(),
            "container_tree",
            format_args!("container {c_ptr:#x} has duplicate children"),
        )?;
        for child in c.children.iter() {
            check(
                dom.contains(&child),
                "container_tree",
                format_args!("child {child:#x} of {c_ptr:#x} not in the map"),
            )?;
            check(
                cntrs.value(child).parent == Some(*c_ptr),
                "container_tree",
                format_args!("child {child:#x} does not point back to {c_ptr:#x}"),
            )?;
        }

        match c.parent {
            None => {
                check(
                    *c_ptr == root,
                    "container_tree",
                    format_args!("non-root container {c_ptr:#x} has no parent"),
                )?;
            }
            Some(p) => {
                check(
                    dom.contains(&p),
                    "container_tree",
                    format_args!("parent {p:#x} of {c_ptr:#x} not in the map"),
                )?;
                let parent = cntrs.value(p);
                check(
                    parent.children.contains(c_ptr),
                    "container_tree",
                    format_args!("parent {p:#x} does not list child {c_ptr:#x}"),
                )?;
                check(
                    c.depth == parent.depth + 1,
                    "container_tree",
                    format_args!("depth of {c_ptr:#x} is not parent depth + 1"),
                )?;
                check(
                    *c.path.view() == parent.path.push(p),
                    "container_tree",
                    format_args!("path of {c_ptr:#x} is not parent path + parent"),
                )?;
            }
        }

        // The paper's resolve_path_wf: each prefix of a node's path is the
        // path of the ancestor at that depth — checked without recursion
        // thanks to the flat map.
        check(
            c.path.len() == c.depth,
            "container_tree",
            format_args!("path length of {c_ptr:#x} differs from its depth"),
        )?;
        for d in 0..c.path.len() {
            let anc = *c.path.index(d);
            check(
                dom.contains(&anc),
                "container_tree",
                format_args!("ancestor {anc:#x} of {c_ptr:#x} not in the map"),
            )?;
            check(
                c.path.subrange(0, d) == *cntrs.value(anc).path.view(),
                "container_tree",
                format_args!("path prefix of {c_ptr:#x} at depth {d} mismatches ancestor"),
            )?;
        }
        check(
            !c.path.contains(c_ptr),
            "container_tree",
            format_args!("container {c_ptr:#x} appears on its own path (cycle)"),
        )?;
    }

    // Path/subtree duality: a.subtree ∋ b  ⟺  b.path ∋ a. This single flat
    // biconditional replaces all recursive subtree reasoning (§4.3). It is
    // checked as one direction plus a count: the checks above make every
    // path a repeat-free list of live containers (a container on a path
    // twice would sit on its own path), so the pairs b.path ∋ a number
    // Σ|path|, the pairs a.subtree ∋ b number Σ|subtree|, and an
    // inclusion between two relations of equal size is an equality.
    let (mut subtrees, mut paths) = (0, 0);
    for a in dom.iter() {
        let a_sub = cntrs.value(*a).subtree.view();
        subtrees += a_sub.len();
        paths += cntrs.value(*a).path.len();
        for b in a_sub.iter() {
            // Subtrees may only name live containers (otherwise the
            // duality would vacuously skip dangling entries).
            check(
                dom.contains(b),
                "container_tree",
                format_args!("subtree of {a:#x} names dead container {b:#x}"),
            )?;
            check(
                cntrs.value(*b).path.contains(a),
                "container_tree",
                format_args!("subtree/path duality violated for ({a:#x}, {b:#x})"),
            )?;
        }
    }
    check(
        subtrees == paths,
        "container_tree",
        format_args!(
            "subtree/path duality violated: {subtrees} subtree entries, {paths} path entries"
        ),
    )
}

/// Quota well-formedness: charges never exceed reservations, and the sum
/// of child reservations plus local charges equals `used`. Local charges
/// are tracked explicitly in ghost bookkeeping by the manager; here we
/// check the inequality form that holds unconditionally.
pub fn quota_wf(cntrs: &PermMap<Container>) -> VerifResult {
    for (ptr, perm) in cntrs.iter() {
        let c = perm.value();
        check(
            c.used <= c.quota,
            "container_quota",
            format_args!("container {ptr:#x} uses {} of quota {}", c.used, c.quota),
        )?;
        let child_quota: usize = c.children.iter().map(|ch| cntrs.value(ch).quota).sum();
        check(
            child_quota <= c.used,
            "container_quota",
            format_args!("container {ptr:#x} children reserve more than its recorded use"),
        )?;
    }
    Ok(())
}

/// CPU-reservation well-formedness: the CPU sets of any two containers are
/// disjoint (cores are *passed*, not shared — this is what makes per-core
/// scheduling non-interfering).
pub fn cpu_partition_wf(cntrs: &PermMap<Container>) -> VerifResult {
    let mut owner: BTreeMap<CpuId, CtnrPtr> = BTreeMap::new();
    for (p, c) in cntrs.iter() {
        for &cpu in c.value().owned_cpus.iter() {
            let first = *owner.entry(cpu).or_insert(p);
            check(
                first == p,
                "container_cpus",
                format_args!("containers {first:#x} and {p:#x} share a CPU"),
            )?;
        }
    }
    Ok(())
}

/// Convenience wrapper bundling a root pointer with a permission map so
/// tree checks can be expressed as a single [`Invariant`].
pub struct ContainerTree<'a> {
    /// Root container pointer.
    pub root: CtnrPtr,
    /// Flat permission map holding every container.
    pub cntrs: &'a PermMap<Container>,
}

impl Invariant for ContainerTree<'_> {
    fn wf(&self) -> VerifResult {
        container_tree_wf(self.root, self.cntrs)?;
        quota_wf(self.cntrs)?;
        cpu_partition_wf(self.cntrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atmo_spec::PointsTo;

    /// Builds a flat map with a root (0x1000) and two children (0x2000,
    /// 0x3000), one grandchild (0x4000) under 0x2000.
    fn sample_tree() -> (CtnrPtr, PermMap<Container>) {
        let root = 0x1000;
        let a = 0x2000;
        let b = 0x3000;
        let ga = 0x4000;

        let mut r = Container::new_root(1000, Set::from_slice(&[0, 1]));
        r.children.push(a);
        r.children.push(b);
        r.subtree.assign(Set::from_slice(&[a, b, ga]));
        r.used = 300;

        let mut ca = Container::new_child(root, &Seq::empty(), 1, 200, Set::from_slice(&[2]));
        ca.children.push(ga);
        ca.subtree.assign(Set::from_slice(&[ga]));
        ca.used = 50;

        let cb = Container::new_child(root, &Seq::empty(), 1, 100, Set::from_slice(&[3]));

        let cga = Container::new_child(a, &Seq::empty().push(root), 2, 50, Set::empty());

        let mut m = PermMap::new();
        m.tracked_insert(root, PointsTo::new_init(root, r));
        m.tracked_insert(a, PointsTo::new_init(a, ca));
        m.tracked_insert(b, PointsTo::new_init(b, cb));
        m.tracked_insert(ga, PointsTo::new_init(ga, cga));
        (root, m)
    }

    #[test]
    fn sample_tree_is_wf() {
        let (root, m) = sample_tree();
        assert!(container_tree_wf(root, &m).is_ok());
        assert!(quota_wf(&m).is_ok());
        assert!(cpu_partition_wf(&m).is_ok());
        assert!(ContainerTree { root, cntrs: &m }.is_wf());
    }

    #[test]
    fn detects_broken_reverse_pointer() {
        let (root, mut m) = sample_tree();
        // 0x4000's parent claims 0x3000, but 0x3000 does not list it.
        m.tracked_borrow_mut(0x4000).value().clone().parent.unwrap();
        let ptr = atmo_spec::PPtr::<Container>::from_usize(0x4000);
        ptr.borrow_mut(m.tracked_borrow_mut(0x4000)).parent = Some(0x3000);
        assert!(container_tree_wf(root, &m).is_err());
    }

    #[test]
    fn detects_wrong_path() {
        let (root, mut m) = sample_tree();
        let ptr = atmo_spec::PPtr::<Container>::from_usize(0x4000);
        ptr.borrow_mut(m.tracked_borrow_mut(0x4000))
            .path
            .assign(Seq::from_slice(&[0x1000, 0x3000]));
        assert!(container_tree_wf(root, &m).is_err());
    }

    #[test]
    fn detects_subtree_drift() {
        let (root, mut m) = sample_tree();
        // Remove the grandchild from the root's subtree: duality breaks.
        let ptr = atmo_spec::PPtr::<Container>::from_usize(0x1000);
        ptr.borrow_mut(m.tracked_borrow_mut(0x1000))
            .subtree
            .assign(Set::from_slice(&[0x2000, 0x3000]));
        let err = container_tree_wf(root, &m).unwrap_err();
        assert!(err.detail.contains("duality"));
    }

    #[test]
    fn detects_cycle_via_path() {
        let (root, mut m) = sample_tree();
        let ptr = atmo_spec::PPtr::<Container>::from_usize(0x2000);
        {
            let c = ptr.borrow_mut(m.tracked_borrow_mut(0x2000));
            c.path.assign(Seq::from_slice(&[0x1000, 0x2000]));
            c.depth = 2;
        }
        assert!(container_tree_wf(root, &m).is_err());
    }

    #[test]
    fn detects_quota_overrun() {
        let (_root, mut m) = sample_tree();
        let ptr = atmo_spec::PPtr::<Container>::from_usize(0x3000);
        ptr.borrow_mut(m.tracked_borrow_mut(0x3000)).used = 101;
        assert!(quota_wf(&m).is_err());
    }

    #[test]
    fn detects_cpu_sharing() {
        let (_root, mut m) = sample_tree();
        let ptr = atmo_spec::PPtr::<Container>::from_usize(0x3000);
        ptr.borrow_mut(m.tracked_borrow_mut(0x3000)).owned_cpus = Set::from_slice(&[2]);
        assert!(cpu_partition_wf(&m).is_err());
    }

    #[test]
    fn quota_available_saturates() {
        let mut c = Container::new_root(10, Set::empty());
        c.used = 4;
        assert_eq!(c.quota_available(), 6);
        c.used = 12; // transiently inconsistent
        assert_eq!(c.quota_available(), 0);
    }
}
