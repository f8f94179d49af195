//! Algebraic laws of the ghost collections.
//!
//! §5 of the paper lists ~700 lines of *trusted* axioms about sequences,
//! sets and maps that Verus lacks (e.g. "if we remove an element from a
//! unique sequence, the result sequence is still unique"). Here those
//! laws are tested against the executable collections with randomized
//! inputs instead of being trusted. Randomness comes from the
//! deterministic in-repo [`XorShift64Star`] generator.

use atmo_spec::{Map, Seq, Set, XorShift64Star};

const CASES: u64 = 64;

fn rng_for(test: u64, case: u64) -> XorShift64Star {
    XorShift64Star::new(0x5eed_3000 + test * 0x100 + case)
}

fn random_vec(rng: &mut XorShift64Star, max_len: usize, bound: u32) -> Vec<u32> {
    let len = rng.below(max_len + 1);
    (0..len).map(|_| rng.next_u32() % bound).collect()
}

// ----- Seq laws -----------------------------------------------------------

#[test]
fn seq_push_then_last() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let v = random_vec(&mut rng, 19, u32::MAX);
        let x = rng.next_u32();
        let s = Seq::from_slice(&v).push(x);
        assert_eq!(*s.last(), x);
        assert_eq!(s.len(), v.len() + 1);
        assert_eq!(s.drop_last(), Seq::from_slice(&v));
    }
}

#[test]
fn seq_subrange_composes() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let v = random_vec(&mut rng, 29, u32::MAX);
        let (a, b) = (rng.below(10).min(v.len()), rng.below(10).min(v.len()));
        let s = Seq::from_slice(&v);
        let (lo, hi) = (a.min(b), a.max(b));
        let sub = s.subrange(lo, hi);
        assert_eq!(sub.len(), hi - lo);
        for i in 0..sub.len() {
            assert_eq!(sub[i], v[lo + i]);
        }
    }
}

#[test]
fn unique_seq_remove_stays_unique() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        // The §5 axiom, as a test: build a duplicate-free sequence, remove
        // any element, uniqueness is preserved.
        let set: std::collections::BTreeSet<u32> =
            random_vec(&mut rng, 19, u32::MAX).into_iter().collect();
        let items: Vec<u32> = set.into_iter().collect();
        let s = Seq::from_slice(&items);
        assert!(s.no_duplicates());
        if !items.is_empty() {
            let victim = *rng.choose(&items);
            let removed = s.remove_first(&victim);
            assert!(removed.no_duplicates());
            assert_eq!(removed.len(), items.len() - 1);
            assert!(!removed.contains(&victim));
        }
    }
}

#[test]
fn seq_add_is_associative() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let a = random_vec(&mut rng, 9, u32::MAX);
        let b = random_vec(&mut rng, 9, u32::MAX);
        let c = random_vec(&mut rng, 9, u32::MAX);
        let (sa, sb, sc) = (
            Seq::from_slice(&a),
            Seq::from_slice(&b),
            Seq::from_slice(&c),
        );
        assert_eq!(sa.add(&sb).add(&sc), sa.add(&sb.add(&sc)));
    }
}

#[test]
fn seq_to_set_contains_exactly_elements() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let v = random_vec(&mut rng, 24, 50);
        let s = Seq::from_slice(&v).to_set();
        for x in &v {
            assert!(s.contains(x));
        }
        for x in s.iter() {
            assert!(v.contains(x));
        }
    }
}

// ----- Set laws -----------------------------------------------------------

#[test]
fn set_union_is_commutative_and_idempotent() {
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        let a = random_vec(&mut rng, 19, 60);
        let b = random_vec(&mut rng, 19, 60);
        let (sa, sb) = (Set::from_slice(&a), Set::from_slice(&b));
        assert_eq!(sa.union(&sb), sb.union(&sa));
        assert_eq!(sa.union(&sa), sa.clone());
        assert!(sa.subset_of(&sa.union(&sb)));
    }
}

#[test]
fn set_demorgan() {
    for case in 0..CASES {
        let mut rng = rng_for(7, case);
        // U \ (A ∪ B) == (U \ A) ∩ (U \ B)
        let a = random_vec(&mut rng, 14, 40);
        let b = random_vec(&mut rng, 14, 40);
        let u = random_vec(&mut rng, 29, 40);
        let (sa, sb, su) = (
            Set::from_slice(&a),
            Set::from_slice(&b),
            Set::from_slice(&u),
        );
        assert_eq!(
            su.difference(&sa.union(&sb)),
            su.difference(&sa).intersect(&su.difference(&sb))
        );
    }
}

#[test]
fn set_disjoint_iff_empty_intersection() {
    for case in 0..CASES {
        let mut rng = rng_for(8, case);
        let a = random_vec(&mut rng, 14, 30);
        let b = random_vec(&mut rng, 14, 30);
        let (sa, sb) = (Set::from_slice(&a), Set::from_slice(&b));
        assert_eq!(sa.disjoint(&sb), sa.intersect(&sb).is_empty());
    }
}

#[test]
fn set_insert_remove_inverse() {
    for case in 0..CASES {
        let mut rng = rng_for(9, case);
        let a = random_vec(&mut rng, 14, 30);
        let x = rng.next_u32() % 30;
        let s = Set::from_slice(&a);
        if !s.contains(&x) {
            assert_eq!(s.insert(x).remove(&x), s);
        } else {
            assert_eq!(s.remove(&x).insert(x), s);
        }
    }
}

// ----- Map laws -----------------------------------------------------------

fn random_pairs(rng: &mut XorShift64Star, max_len: usize, key_bound: u32) -> Vec<(u32, u32)> {
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|_| (rng.next_u32() % key_bound, rng.next_u32()))
        .collect()
}

#[test]
fn map_insert_shadows() {
    for case in 0..CASES {
        let mut rng = rng_for(10, case);
        let pairs = random_pairs(&mut rng, 14, 20);
        let (k, v1, v2) = (rng.next_u32() % 20, rng.next_u32(), rng.next_u32());
        let m: Map<u32, u32> = pairs.into_iter().collect();
        let m2 = m.insert(k, v1).insert(k, v2);
        assert_eq!(m2.index(&k), Some(&v2));
        assert_eq!(m2.len(), m.insert(k, v2).len());
    }
}

#[test]
fn map_dom_tracks_insert_remove() {
    for case in 0..CASES {
        let mut rng = rng_for(11, case);
        let pairs = random_pairs(&mut rng, 14, 20);
        let k = rng.next_u32() % 20;
        let m: Map<u32, u32> = pairs.into_iter().collect();
        assert_eq!(m.insert(k, 1).dom(), m.dom().insert(k));
        assert_eq!(m.remove(&k).dom(), m.dom().remove(&k));
    }
}

#[test]
fn map_union_prefer_right_really_prefers_right() {
    for case in 0..CASES {
        let mut rng = rng_for(12, case);
        let a = random_pairs(&mut rng, 9, 12);
        let b = random_pairs(&mut rng, 9, 12);
        let ma: Map<u32, u32> = a.into_iter().collect();
        let mb: Map<u32, u32> = b.into_iter().collect();
        let u = ma.union_prefer_right(&mb);
        for (k, v) in mb.iter() {
            assert_eq!(u.index(k), Some(v));
        }
        for (k, v) in ma.iter() {
            if !mb.contains_key(k) {
                assert_eq!(u.index(k), Some(v));
            }
        }
        assert_eq!(u.dom(), ma.dom().union(&mb.dom()));
    }
}

#[test]
fn map_restrict_then_submap() {
    for case in 0..CASES {
        let mut rng = rng_for(13, case);
        let pairs = random_pairs(&mut rng, 14, 20);
        let m: Map<u32, u32> = pairs.into_iter().collect();
        let r = m.restrict(|k| k % 2 == 0);
        assert!(r.submap_of(&m));
        assert!(r.agrees(&m));
        for k in r.keys() {
            assert!(k % 2 == 0);
        }
    }
}

// ----- in-place updates and the copy-on-write contract ---------------------

/// A random sequence of in-place `Set` steps reaches the same value as the
/// same sequence of spec-form steps, and a handle cloned at any point keeps
/// the value it was cloned at (what the refinement snapshots rely on).
#[test]
fn set_in_place_steps_equal_persistent_ones_and_leave_snapshots_alone() {
    for case in 0..CASES {
        let mut rng = rng_for(14, case);
        let mut live: Set<u32> = Set::empty();
        let mut model: Set<u32> = Set::empty();
        // (handle taken mid-sequence, its value rebuilt in a tree of its own).
        let mut snapshots: Vec<(Set<u32>, Set<u32>)> = Vec::new();
        for _ in 0..rng.range(20, 60) {
            let other: Set<u32> = random_vec(&mut rng, 5, 24).into_iter().collect();
            let x = rng.next_u32() % 24;
            match rng.below(4) {
                0 => {
                    live.insert_mut(x);
                    model = model.insert(x);
                }
                1 => {
                    live.remove_mut(&x);
                    model = model.remove(&x);
                }
                2 => {
                    live.union_mut(&other);
                    model = model.union(&other);
                }
                _ => {
                    live.difference_mut(&other);
                    model = model.difference(&other);
                }
            }
            assert_eq!(live, model);
            if rng.chance(1, 3) {
                snapshots.push((live.clone(), live.iter().copied().collect()));
            }
        }
        for (handle, value) in &snapshots {
            assert_eq!(handle, value, "a later step changed a snapshot");
        }
    }
}

/// The same for `Map::insert_mut` / `Map::remove_mut`.
#[test]
fn map_in_place_steps_equal_persistent_ones_and_leave_snapshots_alone() {
    for case in 0..CASES {
        let mut rng = rng_for(15, case);
        let mut live: Map<u32, u32> = Map::empty();
        let mut model: Map<u32, u32> = Map::empty();
        let mut snapshots: Vec<(Map<u32, u32>, Map<u32, u32>)> = Vec::new();
        for _ in 0..rng.range(20, 60) {
            let k = rng.next_u32() % 24;
            if rng.chance(2, 3) {
                let v = rng.next_u32();
                live.insert_mut(k, v);
                model = model.insert(k, v);
            } else {
                live.remove_mut(&k);
                model = model.remove(&k);
            }
            assert_eq!(live, model);
            if rng.chance(1, 3) {
                let rebuilt = live.iter().map(|(k, v)| (*k, *v)).collect();
                snapshots.push((live.clone(), rebuilt));
            }
        }
        for (handle, value) in &snapshots {
            assert_eq!(handle, value, "a later step changed a snapshot");
        }
    }
}
