//! Intrusive doubly-linked free lists over the page array.
//!
//! The allocator keeps one list per size class (4 KiB / 2 MiB / 1 GiB,
//! §4.2). List nodes are *not* separately allocated: they live inside the
//! page metadata array ([`crate::meta::ListNode`]), and the `prev` reverse
//! pointer makes unlinking an arbitrary page O(1) — the operation superpage
//! merging depends on ("remove merged 4KB pages from the list of free 4KB
//! pages ... constant-time removal").
//!
//! This is exactly the kind of non-linear pointer structure the paper's
//! flat-permission design exists to verify: the structure is a web of raw
//! frame addresses; well-formedness ([`FreeList::wf`]) is checked as a
//! flat, global property of the page array rather than by recursive
//! reasoning: one walk per list, plus a per-member predicate the
//! allocator uses to tie each member to its page state.

use crate::meta::{ListNode, PagePtr};

/// Storage that resolves a page pointer to its embedded list node.
///
/// Implemented by the allocator's page array, which packs each node into
/// two frame indices, so nodes are read and written by value; test
/// fixtures provide toy stores.
pub trait NodeStore {
    /// The node embedded in page `p`.
    fn node(&self, p: PagePtr) -> ListNode;
    /// Overwrites the node embedded in page `p`.
    fn set_node(&mut self, p: PagePtr, node: ListNode);
}

/// A doubly-linked list threaded through a [`NodeStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FreeList {
    head: Option<PagePtr>,
    tail: Option<PagePtr>,
    len: usize,
}

impl FreeList {
    /// An empty list.
    pub const fn new() -> Self {
        FreeList {
            head: None,
            tail: None,
            len: 0,
        }
    }

    /// Number of pages on the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First page on the list, if any.
    pub fn head(&self) -> Option<PagePtr> {
        self.head
    }

    /// Pushes `p` at the front.
    ///
    /// The caller guarantees `p` is not already on any list (the allocator
    /// enforces this through page states; debug builds re-check).
    pub fn push_front(&mut self, store: &mut impl NodeStore, p: PagePtr) {
        // A page already on a list would have a live node or be the head;
        // this O(1) check catches double-insertion without an O(n) scan.
        debug_assert!(
            store.node(p) == ListNode::default() && self.head != Some(p),
            "page {p:#x} appears to already be on a free list"
        );
        store.set_node(
            p,
            ListNode {
                prev: None,
                next: self.head,
            },
        );
        if let Some(old) = self.head {
            let next = store.node(old).next;
            store.set_node(
                old,
                ListNode {
                    prev: Some(p),
                    next,
                },
            );
        } else {
            self.tail = Some(p);
        }
        self.head = Some(p);
        self.len += 1;
    }

    /// Pops the front page.
    pub fn pop_front(&mut self, store: &mut impl NodeStore) -> Option<PagePtr> {
        let p = self.head?;
        self.unlink(store, p);
        Some(p)
    }

    /// Unlinks an arbitrary page in O(1) using its stored `prev`/`next`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics when `p`'s node is not coherently linked
    /// into this list.
    pub fn unlink(&mut self, store: &mut impl NodeStore, p: PagePtr) {
        let node = store.node(p);
        match node.prev {
            Some(prev) => {
                let before = store.node(prev);
                debug_assert_eq!(before.next, Some(p), "prev/next mismatch");
                store.set_node(
                    prev,
                    ListNode {
                        prev: before.prev,
                        next: node.next,
                    },
                );
            }
            None => {
                debug_assert_eq!(self.head, Some(p), "unlink of non-member head");
                self.head = node.next;
            }
        }
        match node.next {
            Some(next) => {
                let after = store.node(next);
                debug_assert_eq!(after.prev, Some(p), "next/prev mismatch");
                store.set_node(
                    next,
                    ListNode {
                        prev: node.prev,
                        next: after.next,
                    },
                );
            }
            None => {
                debug_assert_eq!(self.tail, Some(p), "unlink of non-member tail");
                self.tail = node.prev;
            }
        }
        store.set_node(p, ListNode::default());
        self.len -= 1;
    }

    /// Iterates over the list front to back.
    pub fn iter<'a>(&self, store: &'a impl NodeStore) -> FreeListIter<'a, impl NodeStore> {
        FreeListIter {
            store,
            cur: self.head,
            remaining: self.len + 1,
        }
    }

    /// Checks well-formedness in one forward walk that allocates nothing:
    /// every visited page satisfies `member` (checked before its node is
    /// read), the walk visits exactly `len` pages and terminates, reverse
    /// pointers are coherent, and the tail is the last visited page.
    ///
    /// A coherent `prev` chain visits no page twice: a repeat would need
    /// one node to carry two different `prev` pointers.
    pub fn wf(
        &self,
        store: &impl NodeStore,
        member: impl Fn(PagePtr) -> bool,
    ) -> Result<(), ListFault> {
        let mut seen = 0usize;
        let mut prev: Option<PagePtr> = None;
        let mut cur = self.head;
        while let Some(p) = cur {
            if seen >= self.len {
                return Err(ListFault::Incoherent); // longer than len: cycle or count drift
            }
            if !member(p) {
                return Err(ListFault::NotMember(p));
            }
            let node = store.node(p);
            if node.prev != prev {
                return Err(ListFault::Incoherent);
            }
            prev = Some(p);
            cur = node.next;
            seen += 1;
        }
        if seen == self.len && self.tail == prev {
            Ok(())
        } else {
            Err(ListFault::Incoherent)
        }
    }
}

/// Why [`FreeList::wf`] rejected a list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListFault {
    /// The links do not form a `len`-long doubly-linked list ending at
    /// the tail.
    Incoherent,
    /// A page on the list fails the member predicate.
    NotMember(PagePtr),
}

/// Iterator over a [`FreeList`].
pub struct FreeListIter<'a, S: NodeStore> {
    store: &'a S,
    cur: Option<PagePtr>,
    remaining: usize,
}

impl<'a, S: NodeStore> Iterator for FreeListIter<'a, S> {
    type Item = PagePtr;

    fn next(&mut self) -> Option<PagePtr> {
        if self.remaining == 0 {
            return None; // bounded: never loops forever on a corrupt list
        }
        self.remaining -= 1;
        let p = self.cur?;
        self.cur = self.store.node(p).next;
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct ToyStore {
        nodes: BTreeMap<PagePtr, ListNode>,
    }

    impl NodeStore for ToyStore {
        fn node(&self, p: PagePtr) -> ListNode {
            *self.nodes.get(&p).expect("unknown page")
        }
        fn set_node(&mut self, p: PagePtr, node: ListNode) {
            self.nodes.insert(p, node);
        }
    }

    impl ToyStore {
        fn node_mut(&mut self, p: PagePtr) -> &mut ListNode {
            self.nodes.entry(p).or_default()
        }
    }

    fn store_with(pages: &[PagePtr]) -> ToyStore {
        let mut s = ToyStore::default();
        for &p in pages {
            s.nodes.insert(p, ListNode::default());
        }
        s
    }

    #[test]
    fn push_pop_lifo() {
        let mut s = store_with(&[0x1000, 0x2000, 0x3000]);
        let mut l = FreeList::new();
        l.push_front(&mut s, 0x1000);
        l.push_front(&mut s, 0x2000);
        l.push_front(&mut s, 0x3000);
        assert_eq!(l.len(), 3);
        assert_eq!(l.wf(&s, |_| true), Ok(()));
        assert_eq!(l.pop_front(&mut s), Some(0x3000));
        assert_eq!(l.pop_front(&mut s), Some(0x2000));
        assert_eq!(l.pop_front(&mut s), Some(0x1000));
        assert_eq!(l.pop_front(&mut s), None);
        assert_eq!(l.wf(&s, |_| true), Ok(()));
    }

    #[test]
    fn unlink_middle_is_constant_time_and_coherent() {
        let mut s = store_with(&[1, 2, 3]);
        let mut l = FreeList::new();
        for p in [3, 2, 1] {
            l.push_front(&mut s, p);
        }
        // List: 1 -> 2 -> 3. Unlink the middle element directly.
        l.unlink(&mut s, 2);
        assert_eq!(l.len(), 2);
        assert_eq!(l.wf(&s, |_| true), Ok(()));
        assert_eq!(l.iter(&s).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn unlink_head_and_tail() {
        let mut s = store_with(&[1, 2, 3]);
        let mut l = FreeList::new();
        for p in [3, 2, 1] {
            l.push_front(&mut s, p);
        }
        l.unlink(&mut s, 1); // head
        assert_eq!(l.head(), Some(2));
        l.unlink(&mut s, 3); // tail
        assert_eq!(l.wf(&s, |_| true), Ok(()));
        assert_eq!(l.iter(&s).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn wf_detects_corrupt_reverse_pointer() {
        let mut s = store_with(&[1, 2]);
        let mut l = FreeList::new();
        l.push_front(&mut s, 2);
        l.push_front(&mut s, 1);
        // Corrupt the reverse pointer.
        s.node_mut(2).prev = None;
        assert_eq!(l.wf(&s, |_| true), Err(ListFault::Incoherent));
    }

    #[test]
    fn wf_detects_cycle() {
        let mut s = store_with(&[1, 2]);
        let mut l = FreeList::new();
        l.push_front(&mut s, 2);
        l.push_front(&mut s, 1);
        // Introduce a cycle: 2 -> 1.
        s.node_mut(2).next = Some(1);
        assert_eq!(l.wf(&s, |_| true), Err(ListFault::Incoherent));
    }

    #[test]
    fn wf_names_the_first_non_member() {
        let mut s = store_with(&[1, 2, 3]);
        let mut l = FreeList::new();
        for p in [3, 2, 1] {
            l.push_front(&mut s, p);
        }
        assert_eq!(l.wf(&s, |p| p != 2), Err(ListFault::NotMember(2)));
        assert_eq!(l.wf(&s, |p| p < 4), Ok(()));
    }

    #[test]
    fn iter_is_bounded_on_corrupt_list() {
        let mut s = store_with(&[1]);
        let mut l = FreeList::new();
        l.push_front(&mut s, 1);
        // Self-cycle.
        s.node_mut(1).next = Some(1);
        // Iterator must terminate regardless.
        assert!(l.iter(&s).count() <= 2);
    }
}
