//! Flat vs. recursive reasoning — the paper's key design ablation (§4.1,
//! §6.2), executable.
//!
//! Atmosphere stores ghost `path`/`subtree` state so that specifications
//! over unbounded trees are *flat* (single quantifiers over the permission
//! map). The alternative — what a hierarchical-ownership design must do —
//! recomputes reachability by walking the tree recursively. This module
//! implements both versions of the same two queries so the ablation
//! benchmark can measure the gap directly:
//!
//! * **subtree** — all containers reachable below a node: ghost-set
//!   lookup (O(1) + copy) vs. recursive child-list walk (O(n));
//! * **tree validation** — the full structural check: the flat
//!   `container_tree_wf` (quantifier-style loops over the map) vs. a
//!   recursive descent that re-derives paths and subtree sets top-down,
//!   the shape whose SMT encoding the paper shows does not scale.

use atmo_spec::{PermMap, Set};

use crate::container::Container;
use crate::types::CtnrPtr;

/// Flat subtree query: read the ghost set maintained by the operations.
pub fn flat_subtree(cntrs: &PermMap<Container>, c: CtnrPtr) -> Set<CtnrPtr> {
    cntrs.value(c).subtree.view().clone()
}

/// Recursive subtree query: walk the children lists (the
/// hierarchical-ownership formulation).
pub fn recursive_subtree(cntrs: &PermMap<Container>, c: CtnrPtr) -> Set<CtnrPtr> {
    let mut acc = Set::empty();
    fn walk(cntrs: &PermMap<Container>, c: CtnrPtr, acc: &mut Set<CtnrPtr>) {
        for child in cntrs.value(c).children.iter() {
            acc.insert_mut(child);
            walk(cntrs, child, acc);
        }
    }
    walk(cntrs, c, &mut acc);
    acc
}

/// Flat validation: parent/child, depth, path-prefix and subtree/path
/// duality checked as direct loops over the flat map (the
/// `container_tree_wf` style).
pub fn flat_tree_check(root: CtnrPtr, cntrs: &PermMap<Container>) -> bool {
    crate::container::container_tree_wf(root, cntrs).is_ok()
}

/// Recursive validation: descend from the root, re-deriving each node's
/// expected path and subtree from its parent's, and compare — the
/// unrolled-induction shape.
pub fn recursive_tree_check(root: CtnrPtr, cntrs: &PermMap<Container>) -> bool {
    fn descend(
        cntrs: &PermMap<Container>,
        c: CtnrPtr,
        expected_path: &atmo_spec::Seq<CtnrPtr>,
        expected_depth: usize,
        visited: &mut usize,
    ) -> Option<Set<CtnrPtr>> {
        let node = cntrs.value(c);
        *visited += 1;
        if node.depth != expected_depth || *node.path.view() != *expected_path {
            return None;
        }
        let child_path = expected_path.push(c);
        let mut subtree = Set::empty();
        for child in node.children.iter() {
            if !cntrs.contains(child) || cntrs.value(child).parent != Some(c) {
                return None;
            }
            let child_sub = descend(cntrs, child, &child_path, expected_depth + 1, visited)?;
            subtree.union_mut(&child_sub);
            subtree.insert_mut(child);
        }
        // The ghost subtree must equal the recursively derived one.
        if *node.subtree.view() != subtree {
            return None;
        }
        Some(subtree)
    }
    let mut visited = 0;
    let ok = descend(cntrs, root, &atmo_spec::Seq::empty(), 0, &mut visited).is_some();
    ok && visited == cntrs.len()
}

/// Builds a container tree of `n` nodes (plus the root) in the given
/// shape for ablation runs: `fanout = 1` produces a chain (worst case for
/// recursion depth), larger fanouts produce bushy trees.
pub fn build_tree(n: usize, fanout: usize) -> (CtnrPtr, PermMap<Container>) {
    use atmo_spec::PointsTo;

    assert!(fanout >= 1);
    let addr = |i: usize| 0x10_0000 + i * 0x1000;
    let root = addr(0);
    let mut cntrs: PermMap<Container> = PermMap::new();
    cntrs.tracked_insert(
        root,
        PointsTo::new_init(root, Container::new_root(usize::MAX / 2, Set::empty())),
    );

    for i in 1..=n {
        let me = addr(i);
        let parent = addr((i - 1) / fanout);
        let (parent_path, parent_depth) = {
            let p = cntrs.value(parent);
            (p.path.view().clone(), p.depth)
        };
        let child = Container::new_child(parent, &parent_path, parent_depth + 1, 1, Set::empty());
        cntrs.tracked_insert(me, PointsTo::new_init(me, child));
        {
            let perm = cntrs.tracked_borrow_mut(parent);
            atmo_spec::PPtr::<Container>::from_usize(parent)
                .borrow_mut(perm)
                .children
                .push(me);
        }
        // Maintain ancestor ghost subtrees (the flat design's O(depth)
        // update).
        let mut ancestors = parent_path.to_vec();
        ancestors.push(parent);
        for anc in ancestors {
            let perm = cntrs.tracked_borrow_mut(anc);
            let a = atmo_spec::PPtr::<Container>::from_usize(anc).borrow_mut(perm);
            a.subtree.insert_mut(me);
        }
    }
    (root, cntrs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_subtree_queries_agree() {
        for fanout in [1, 2, 4] {
            let (root, cntrs) = build_tree(30, fanout);
            assert_eq!(
                flat_subtree(&cntrs, root),
                recursive_subtree(&cntrs, root),
                "fanout {fanout}"
            );
        }
    }

    #[test]
    fn both_checks_accept_well_formed_trees() {
        for fanout in [1, 3] {
            let (root, cntrs) = build_tree(40, fanout);
            assert!(flat_tree_check(root, &cntrs), "flat, fanout {fanout}");
            assert!(
                recursive_tree_check(root, &cntrs),
                "recursive, fanout {fanout}"
            );
        }
    }

    #[test]
    fn both_checks_reject_corrupt_subtree() {
        let (root, mut cntrs) = build_tree(20, 2);
        let victim = 0x10_0000 + 5 * 0x1000;
        let perm = cntrs.tracked_borrow_mut(victim);
        let c = atmo_spec::PPtr::<Container>::from_usize(victim).borrow_mut(perm);
        c.subtree.insert_mut(0xdead_b000);
        assert!(!flat_tree_check(root, &cntrs));
        assert!(!recursive_tree_check(root, &cntrs));
    }

    #[test]
    fn recursive_check_detects_unreachable_nodes() {
        // An orphan node never visited by the descent.
        let (root, mut cntrs) = build_tree(10, 2);
        let orphan = 0x99_0000;
        cntrs.tracked_insert(
            orphan,
            atmo_spec::PointsTo::new_init(
                orphan,
                Container::new_child(root, &atmo_spec::Seq::empty(), 1, 1, Set::empty()),
            ),
        );
        assert!(!recursive_tree_check(root, &cntrs));
    }

    #[test]
    fn chain_tree_has_expected_depth() {
        let (root, cntrs) = build_tree(16, 1);
        let deepest = 0x10_0000 + 16 * 0x1000;
        assert_eq!(cntrs.value(deepest).depth, 16);
        assert_eq!(flat_subtree(&cntrs, root).len(), 16);
    }
}
