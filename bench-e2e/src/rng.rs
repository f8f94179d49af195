//! Seeded input generation. The benchmark owns its generator (rather than
//! borrowing `atmo_spec::rng`) so that a change to the repo's test PRNG can
//! never silently change the benchmark's op streams between commits.
//!
//! Op mixes are drawn as seeded *shuffles of a fixed multiset* ([`Deck`])
//! instead of independent draws: every deck-length block of ops has exactly
//! the stated composition, so the seed moves the order of the work but not
//! the amount of it. That is what lets modeled metrics carry sub-percent
//! bounds across seeds.

/// xorshift64* over a splitmix64-scrambled seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (one stream per
    /// modeled CPU / shard / purpose).
    pub fn new(seed: u64, stream: u64) -> Self {
        let s = splitmix64(seed ^ splitmix64(stream.wrapping_mul(0xA076_1D64_78BD_642F)));
        Rng(if s == 0 { 0x9E37_79B9_7F4A_7C15 } else { s })
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero. (Multiply-shift:
    /// bias below 2^-32 for the bounds used here, and no division.)
    pub fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        (((self.next_u64() >> 32) * bound as u64) >> 32) as usize
    }

    /// Uniform in `[lo, hi]`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A fixed multiset of cards (op codes, sizes) dealt in seeded random order, reshuffled
/// each time it runs out. Dealing allocates nothing.
#[derive(Clone, Debug)]
pub struct Deck {
    cards: Vec<u16>,
    next: usize,
}

impl Deck {
    /// A deck holding `count` copies of `code` for every `(code, count)`.
    pub fn new(composition: &[(u16, usize)]) -> Self {
        let mut cards = Vec::new();
        for &(code, count) in composition {
            cards.extend(std::iter::repeat_n(code, count));
        }
        assert!(!cards.is_empty(), "empty deck");
        let next = cards.len();
        Deck { cards, next }
    }

    pub fn len(&self) -> usize {
        self.cards.len()
    }

    pub fn deal(&mut self, rng: &mut Rng) -> u16 {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        let c = self.cards[self.next];
        self.next += 1;
        c
    }
}

/// Zipf(`s`) over `n` ranks by inverse-CDF lookup (table built once).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// A rank in `[0, n)`, rank 0 the most popular.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7, 3);
        let mut b = Rng::new(7, 3);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = Rng::new(7, 4);
        let mut d = Rng::new(8, 3);
        assert_ne!(xs[0], c.next_u64(), "streams are decorrelated");
        assert_ne!(xs[0], d.next_u64(), "seeds are decorrelated");
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(1, 0);
        for bound in [1usize, 2, 3, 17, 4096, 100_000] {
            for _ in 0..1000 {
                assert!(r.below(bound) < bound);
            }
        }
        for _ in 0..1000 {
            let v = r.between(5, 9);
            assert!((5..=9).contains(&v));
        }
    }

    #[test]
    fn deck_deals_its_exact_composition_every_block() {
        let mut r = Rng::new(42, 0);
        let mut d = Deck::new(&[(0, 10), (1, 5), (2, 1)]);
        assert_eq!(d.len(), 16);
        let mut first_block = Vec::new();
        for block in 0..8 {
            let mut counts = [0usize; 3];
            let mut cards = Vec::new();
            for _ in 0..16 {
                let c = d.deal(&mut r);
                counts[c as usize] += 1;
                cards.push(c);
            }
            assert_eq!(counts, [10, 5, 1], "block {block}");
            if block == 0 {
                first_block = cards;
            } else if block == 7 {
                assert_ne!(first_block, cards, "blocks are reshuffled");
            }
        }
        // And the dealt stream reproduces from the seed.
        let mut r2 = Rng::new(42, 0);
        let mut d2 = Deck::new(&[(0, 10), (1, 5), (2, 1)]);
        let again: Vec<u16> = (0..16).map(|_| d2.deal(&mut r2)).collect();
        let mut r3 = Rng::new(42, 0);
        let mut d3 = Deck::new(&[(0, 10), (1, 5), (2, 1)]);
        let thrice: Vec<u16> = (0..16).map(|_| d3.deal(&mut r3)).collect();
        assert_eq!(again, thrice);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut r = Rng::new(3, 0);
        let mut head = 0;
        for _ in 0..10_000 {
            let k = z.draw(&mut r);
            assert!(k < 1000);
            if k < 10 {
                head += 1;
            }
        }
        assert!(head > 3000, "top 1% of ranks draw >30% of mass, got {head}");
    }
}
