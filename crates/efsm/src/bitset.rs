//! A small growable bit set.
//!
//! Used for pause-point selections in the Esterel engine and for state
//! sets in EFSM analyses. Implemented over `u64` words; all operations
//! are value-semantic and allocation is amortized.

use std::fmt;

/// A set of small non-negative integers backed by `u64` words.
#[derive(PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct BitSet {
    words: Vec<u64>,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
        }
    }

    /// Copy `source` into this set's own words: no allocation when they
    /// already hold as many (a checkpoint restore into a kernel of the
    /// same shape).
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
    }
}

impl BitSet {
    /// The empty set.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Empty set with capacity for `bits` elements.
    pub fn with_capacity(bits: usize) -> Self {
        BitSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// Add zero words up to the one holding `bit`: rare once a set
    /// has its working size, so out of line.
    #[cold]
    fn grow(&mut self, bit: usize) {
        self.words.resize(bit / 64 + 1, 0);
    }

    /// Insert `bit`; returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, bit: usize) -> bool {
        if bit / 64 >= self.words.len() {
            self.grow(bit);
        }
        let w = &mut self.words[bit / 64];
        let mask = 1u64 << (bit % 64);
        let was = *w & mask != 0;
        *w |= mask;
        !was
    }

    /// Remove `bit`; returns whether it was present.
    pub fn remove(&mut self, bit: usize) -> bool {
        if bit / 64 >= self.words.len() {
            return false;
        }
        let w = &mut self.words[bit / 64];
        let mask = 1u64 << (bit % 64);
        let was = *w & mask != 0;
        *w &= !mask;
        was
    }

    /// Membership test.
    pub fn contains(&self, bit: usize) -> bool {
        self.words
            .get(bit / 64)
            .is_some_and(|w| w & (1u64 << (bit % 64)) != 0)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Remove all elements. Only non-zero words are stored to: a set
    /// cleared every instant is nearly empty, and the branch keeps the
    /// loop from compiling to a `memset` call.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            if *w != 0 {
                *w = 0;
            }
        }
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place difference (`self -= other`).
    pub fn difference_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// Does `self` intersect `other`?
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Intersection restricted to the half-open range `[lo, hi)`:
    /// does the set contain any element in the range? Masks the two end
    /// words and tests whole words in between.
    pub fn any_in_range(&self, lo: usize, hi: usize) -> bool {
        if lo >= hi {
            return false;
        }
        let (first, last) = (lo / 64, (hi - 1) / 64);
        let lo_mask = !0u64 << (lo % 64);
        let hi_mask = !0u64 >> (63 - (hi - 1) % 64);
        if first == last {
            return self.word(first) & lo_mask & hi_mask != 0;
        }
        let inner = self.words.get(first + 1..last.min(self.words.len()));
        self.word(first) & lo_mask != 0
            || inner.is_some_and(|ws| ws.iter().any(|w| *w != 0))
            || self.word(last) & hi_mask != 0
    }

    /// Iterate over members in increasing order. A walk costs one step
    /// per member plus one per word, not one per bit.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        Iter {
            words: self.words.iter().enumerate(),
            bits: 0,
            base: 0,
        }
    }

    /// The `i`-th backing word (bits `64*i .. 64*i+64`); words past the
    /// allocated length read as zero, so callers can compare against
    /// masks of any width without bounds bookkeeping.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// A canonical (trailing-zero-trimmed) copy, suitable as a map key.
    pub fn normalized(&self) -> BitSet {
        let mut words = self.words.clone();
        while words.last() == Some(&0) {
            words.pop();
        }
        BitSet { words }
    }
}

/// The members of a [`BitSet`] in increasing order (see
/// [`BitSet::iter`]): each word yields its set bits lowest first, by
/// `trailing_zeros`.
struct Iter<'a> {
    words: std::iter::Enumerate<std::slice::Iter<'a, u64>>,
    /// The current word's members not yet yielded.
    bits: u64,
    /// The index of the current word's bit 0.
    base: usize,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            let (i, &w) = self.words.next()?;
            (self.bits, self.base) = (w, i * 64);
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.base + b)
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, b) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut s = BitSet::new();
        for b in iter {
            s.insert(b);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<T: IntoIterator<Item = usize>>(&mut self, iter: T) {
        for b in iter {
            self.insert(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(100));
        assert!(s.contains(3));
        assert!(s.contains(100));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(!s.contains(3));
    }

    #[test]
    fn union_and_difference() {
        // Members in increasing order, and `len` counts what `iter`
        // yields.
        let members = |s: &BitSet| {
            let m: Vec<usize> = s.iter().collect();
            assert_eq!(s.len(), m.len(), "{m:?}");
            assert_eq!(s.is_empty(), m.is_empty(), "{m:?}");
            m
        };
        let a: BitSet = [1, 5, 64].into_iter().collect();
        let b: BitSet = [5, 6].into_iter().collect();
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(members(&u), vec![1, 5, 6, 64]);
        let mut d = u.clone();
        d.difference_with(&b);
        assert_eq!(members(&d), vec![1, 64]);
        // Both ends of a word, then a member past two all-zero words
        // (192..320).
        let mut e: BitSet = [191, 0, 127, 64, 63].into_iter().collect();
        assert_eq!(members(&e), vec![0, 63, 64, 127, 191]);
        e.insert(320);
        assert_eq!((e.word(3), e.word(4)), (0, 0));
        assert_eq!(members(&e), vec![0, 63, 64, 127, 191, 320]);
        // One full word of 64 members.
        e.union_with(&(384..448).collect());
        assert_eq!(e.word(6), !0);
        let full: Vec<usize> = [0, 63, 64, 127, 191, 320]
            .into_iter()
            .chain(384..448)
            .collect();
        assert_eq!(members(&e), full);
        e.difference_with(&a);
        assert_eq!(members(&e)[..3], [0, 63, 127]);
        e.clear();
        assert!(members(&e).is_empty());
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        e.insert(5);
        assert_eq!(members(&e), vec![5]);
    }

    #[test]
    fn range_queries() {
        let s: BitSet = [2, 9].into_iter().collect();
        assert!(s.any_in_range(0, 3));
        assert!(!s.any_in_range(3, 9));
        assert!(s.any_in_range(9, 10));
    }

    #[test]
    fn any_in_range_matches_bitwise_definition() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..2000 {
            let words = rng.gen_range(0..5);
            let density = f64::from(rng.gen_range(0..5u32)) / 20.0;
            let s: BitSet = (0..words * 64).filter(|_| rng.gen_bool(density)).collect();
            // Ends drawn near word boundaries, and past the last word.
            let mut end = || {
                let w: usize = rng.gen_range(0..7);
                (w * 64 + rng.gen_range(0..3)).saturating_sub(rng.gen_range(0..2))
            };
            let (lo, hi) = (end(), end());
            let bitwise = (lo..hi).any(|b| s.contains(b));
            assert_eq!(s.any_in_range(lo, hi), bitwise, "{s:?} [{lo}, {hi})");
        }
        let s: BitSet = [63, 64, 200].into_iter().collect();
        assert!(!s.any_in_range(64, 64), "empty range");
        assert!(!s.any_in_range(70, 10), "reversed range");
        assert!(s.any_in_range(0, 64) && s.any_in_range(64, 128));
        assert!(!s.any_in_range(65, 200) && s.any_in_range(65, 201));
        assert!(!s.any_in_range(201, 10_000), "past the last word");
    }

    #[test]
    fn normalized_is_canonical_key() {
        let mut a = BitSet::with_capacity(1000);
        a.insert(1);
        let b: BitSet = [1].into_iter().collect();
        assert_ne!(a, b); // different capacities
        assert_eq!(a.normalized(), b.normalized());
    }

    #[test]
    fn intersects() {
        let a: BitSet = [1, 2].into_iter().collect();
        let b: BitSet = [2, 3].into_iter().collect();
        let c: BitSet = [4].into_iter().collect();
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn debug_format() {
        let s: BitSet = [7, 1].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1,7}");
    }
}
