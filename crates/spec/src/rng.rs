//! A tiny deterministic PRNG for randomized tests and workloads.
//!
//! The repository builds with no registry access, so nothing here may
//! depend on crates.io (`rand` and friends). This xorshift64* generator
//! (Vigna, "An experimental exploration of Marsaglia's xorshift
//! generators, scrambled") is 8 bytes of state, passes BigCrush except
//! MatrixRank, and — more importantly for a verification harness — is
//! *seeded and reproducible*: every randomized test names its seed, so
//! a failure replays exactly.

/// xorshift64* pseudo-random generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    /// A generator from `seed` (0 is remapped — xorshift state must be
    /// nonzero).
    pub fn new(seed: u64) -> Self {
        XorShift64Star {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The next 32 uniform bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics when `bound` is 0.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "empty range");
        // Modulo bias is < 2^-40 for the bounds used in tests.
        (self.next_u64() % bound as u64) as usize
    }

    /// A uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// `true` with probability `num / den`.
    ///
    /// # Panics
    ///
    /// Panics when `den` is 0.
    pub fn chance(&mut self, num: usize, den: usize) -> bool {
        self.below(den) < num
    }

    /// A uniformly chosen element of `items`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// An item of `items`, drawn with probability proportional to its
    /// `weight`.
    ///
    /// # Panics
    ///
    /// Panics when the weights sum to 0.
    pub fn weighted<T: Copy>(&mut self, items: &[T], weight: impl Fn(T) -> usize) -> T {
        let mut x = self.below(items.iter().map(|&item| weight(item)).sum());
        for &item in items {
            if x < weight(item) {
                return item;
            }
            x -= weight(item);
        }
        unreachable!("x is below the total weight")
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = XorShift64Star::new(42);
        let mut b = XorShift64Star::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_diverge() {
        let mut a = XorShift64Star::new(1);
        let mut b = XorShift64Star::new(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_seed_is_remapped_not_stuck() {
        let mut r = XorShift64Star::new(0);
        assert_ne!(r.next_u64(), 0);
        assert_ne!(r.next_u64(), r.next_u64());
    }

    #[test]
    fn below_respects_bound_and_covers_it() {
        let mut r = XorShift64Star::new(7);
        let mut seen = [false; 8];
        for _ in 0..512 {
            let v = r.below(8);
            assert!(v < 8);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn weighted_draws_only_weighted_items() {
        let mut r = XorShift64Star::new(5);
        let mut seen = [0; 3];
        for _ in 0..300 {
            seen[r.weighted(&[0, 1, 2], |i| i)] += 1;
        }
        assert!(seen[0] == 0 && 0 < seen[1] && seen[1] < seen[2], "{seen:?}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = XorShift64Star::new(9);
        let mut v: Vec<usize> = (0..16).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_ne!(v, sorted, "seed 9 produces a nontrivial permutation");
    }
}
