//! Dense page sets: the allocator's abstract views as frame bitmaps.
//!
//! §4.2 exposes the allocator to its proofs "as sets of free, allocated,
//! merged, and mapped pages". In Verus those sets are ghost state, updated
//! in place by the one transition that changes them. Here the three sets
//! the abstract kernel carries (free 4 KiB pages, allocated pages, mapped
//! block heads) are maintained the same way: the page array holds one
//! [`PageSet`] each, and the single writer of a frame's state flips the
//! frame's bit as it writes, so reading a view is a clone of a bitmap. The
//! allocator's `views-exact` equation ties each maintained set to the page
//! states. The other views (free superpage heads, merged frames) are built
//! on demand, one pass over the page states and one allocation each.
//!
//! A `PageSet` holds one bit per managed 4 KiB frame and offers the read
//! half of [`Set`]: [`contains`](PageSet::contains),
//! [`len`](PageSet::len), [`is_empty`](PageSet::is_empty), ascending
//! [`iter`](PageSet::iter), [`choose`](PageSet::choose) and
//! [`to_set`](PageSet::to_set) for spec expressions that build a new set.
//! It compares equal to a `Set<PagePtr>` with the same members, in both
//! directions.

use std::fmt;

use atmo_hw::addr::PAGE_SIZE_4K;
use atmo_spec::Set;

use crate::meta::PagePtr;

/// Frames per bitmap word.
pub(crate) const WORD_BITS: usize = u64::BITS as usize;

/// A set of 4 KiB frames of one allocator's managed range, as a bitmap.
///
/// # Examples
///
/// ```
/// use atmo_hw::boot::BootInfo;
/// use atmo_mem::PageAllocator;
///
/// let mut a = PageAllocator::new(&BootInfo::simulated(1, 1, ""));
/// let (p, _perm) = a.alloc_page_4k().unwrap();
/// assert!(a.allocated_pages().contains(&p));
/// assert!(!a.free_pages_4k().contains(&p));
/// assert_eq!(a.allocated_pages().iter().collect::<Vec<_>>(), vec![p]);
/// ```
#[derive(Clone, Default)]
pub struct PageSet {
    base: PagePtr,
    nframes: usize,
    words: Vec<u64>,
    len: usize,
}

impl PageSet {
    /// The empty set over the `nframes` frames starting at `base`.
    pub(crate) fn over(base: PagePtr, nframes: usize) -> Self {
        PageSet {
            base,
            nframes,
            words: vec![0; nframes.div_ceil(WORD_BITS)],
            len: 0,
        }
    }

    /// Adds the frame at index `i` of the range.
    #[inline]
    pub(crate) fn insert_index(&mut self, i: usize) {
        let (w, bit) = (i / WORD_BITS, 1u64 << (i % WORD_BITS));
        let word = self.words[w];
        self.words[w] = word | bit;
        self.len += usize::from(word & bit == 0);
    }

    /// Removes the frame at index `i` of the range.
    #[inline]
    pub(crate) fn remove_index(&mut self, i: usize) {
        let (w, bit) = (i / WORD_BITS, 1u64 << (i % WORD_BITS));
        let word = self.words[w];
        self.words[w] = word & !bit;
        self.len -= usize::from(word & bit != 0);
    }

    /// Bitmap word `w`: frames `64w .. 64w + 64` of the range, lowest
    /// frame in the lowest bit.
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// `true` when every frame of indices `start .. start + n` is a
    /// member: whole words compare against `u64::MAX`, the partial words
    /// at either end against a mask.
    pub(crate) fn contains_run(&self, start: usize, n: usize) -> bool {
        let end = start + n;
        let mut i = start;
        while i < end {
            let (w, lo) = (i / WORD_BITS, i % WORD_BITS);
            let take = (WORD_BITS - lo).min(end - i);
            let mask = (u64::MAX >> (WORD_BITS - take)) << lo;
            if self.words[w] & mask != mask {
                return false;
            }
            i += take;
        }
        true
    }

    /// Membership test. Frames outside the range, and pointers that are
    /// not 4 KiB-aligned, are not members.
    pub fn contains(&self, p: &PagePtr) -> bool {
        let Some(off) = p.checked_sub(self.base) else {
            return false;
        };
        let i = off / PAGE_SIZE_4K;
        off.is_multiple_of(PAGE_SIZE_4K)
            && i < self.nframes
            && self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Cardinality of the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterator over the members in ascending order.
    pub fn iter(&self) -> PageSetIter<'_> {
        PageSetIter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The lowest member, if any (the element [`Set::choose`] picks).
    pub fn choose(&self) -> Option<PagePtr> {
        self.iter().next()
    }

    /// The members as a [`Set`], for spec expressions that build a new set
    /// (`free_before.to_set().remove(&p)`).
    pub fn to_set(&self) -> Set<PagePtr> {
        self.iter().collect()
    }
}

/// Ascending iterator over a [`PageSet`].
pub struct PageSetIter<'a> {
    set: &'a PageSet,
    word: usize,
    bits: u64,
}

impl Iterator for PageSetIter<'_> {
    type Item = PagePtr;

    fn next(&mut self) -> Option<PagePtr> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.set.words.get(self.word)?;
        }
        let i = self.word * WORD_BITS + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.set.base + i * PAGE_SIZE_4K)
    }
}

impl PartialEq for PageSet {
    /// Equal members; two sets over the same range compare word by word.
    fn eq(&self, other: &Self) -> bool {
        if (self.base, self.nframes) == (other.base, other.nframes) {
            self.words == other.words
        } else {
            self.len == other.len && self.iter().eq(other.iter())
        }
    }
}

impl Eq for PageSet {}

impl PartialEq<Set<PagePtr>> for PageSet {
    fn eq(&self, other: &Set<PagePtr>) -> bool {
        self.len == other.len() && other.iter().all(|p| self.contains(p))
    }
}

impl PartialEq<PageSet> for Set<PagePtr> {
    fn eq(&self, other: &PageSet) -> bool {
        other == self
    }
}

impl fmt::Debug for PageSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: PagePtr = 0x20_0000;

    fn set_of(nframes: usize, idx: &[usize]) -> PageSet {
        let mut s = PageSet::over(BASE, nframes);
        for &i in idx {
            s.insert_index(i);
        }
        s
    }

    #[test]
    fn membership_respects_range_and_alignment() {
        let s = set_of(130, &[0, 63, 64, 129]);
        assert_eq!(s.len(), 4);
        for i in [0, 63, 64, 129] {
            assert!(s.contains(&(BASE + i * PAGE_SIZE_4K)));
        }
        assert!(!s.contains(&(BASE + PAGE_SIZE_4K)));
        assert!(!s.contains(&(BASE + 1)), "unaligned");
        assert!(!s.contains(&(BASE - PAGE_SIZE_4K)), "below the range");
        assert!(
            !s.contains(&(BASE + 130 * PAGE_SIZE_4K)),
            "beyond the range"
        );
        assert!(!s.contains(&0));
    }

    #[test]
    fn iteration_is_ascending_across_words() {
        let idx = [1, 2, 63, 64, 65, 127, 128, 199];
        let s = set_of(200, &idx);
        let want: Vec<PagePtr> = idx.iter().map(|i| BASE + i * PAGE_SIZE_4K).collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), want);
        assert_eq!(s.choose(), Some(BASE + PAGE_SIZE_4K));
        assert_eq!(s.to_set(), Set::from_slice(&want));
        assert_eq!(PageSet::default().iter().count(), 0);
        assert_eq!(set_of(200, &[]).choose(), None);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut s = set_of(10, &[3]);
        s.insert_index(3);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_is_idempotent() {
        let mut s = set_of(10, &[3, 4]);
        s.remove_index(3);
        s.remove_index(3);
        assert_eq!(s.len(), 1);
        assert_eq!(s, set_of(10, &[4]));
    }

    #[test]
    fn runs_are_tested_across_word_boundaries() {
        let s = set_of(300, &(10..270).collect::<Vec<_>>());
        assert!(s.contains_run(10, 260));
        assert!(s.contains_run(64, 128));
        assert!(s.contains_run(63, 2));
        assert!(s.contains_run(269, 1));
        assert!(!s.contains_run(9, 2));
        assert!(!s.contains_run(200, 71));
        let mut holed = s.clone();
        holed.remove_index(130);
        assert!(!holed.contains_run(10, 260));
        assert!(holed.contains_run(131, 139));
        assert!(holed.contains_run(10, 120));
    }

    #[test]
    fn equality_with_sets_both_ways() {
        let s = set_of(70, &[5, 66]);
        let same = Set::from_slice(&[BASE + 5 * PAGE_SIZE_4K, BASE + 66 * PAGE_SIZE_4K]);
        assert_eq!(s, same);
        assert_eq!(same, s);
        let other = same.insert(BASE);
        assert_ne!(s, other);
        assert_ne!(other, s);
        // Same size, different member (one outside the range).
        let outside = same.remove(&(BASE + 5 * PAGE_SIZE_4K)).insert(0x1000);
        assert_ne!(s, outside);
    }

    #[test]
    fn equality_between_ranges_compares_members() {
        assert_eq!(set_of(70, &[5]), set_of(70, &[5]));
        assert_ne!(set_of(70, &[5]), set_of(70, &[6]));
        assert_eq!(set_of(70, &[5]), set_of(700, &[5]));
        assert_eq!(set_of(70, &[]), PageSet::default());
        assert_ne!(set_of(70, &[5]), PageSet::default());
    }
}
