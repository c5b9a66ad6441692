//! A fixed-capacity vector stored inline, for allocation-free model
//! states.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// At most `N` elements in an inline `[T; N]` plus a length, so cloning
/// a state built from these is a plain memory copy. It derefs to the
/// slice of its live elements and compares, orders, hashes and prints
/// exactly as that slice does, hence exactly as a `Vec` holding the same
/// elements: fingerprints, canonical forms and counterexample text do
/// not depend on the representation. Slots past the length hold
/// `T::default()` and are never observed.
///
/// # Panics
///
/// Growing past `N` panics with a message naming the capacity; the
/// models reject parameters whose bounds exceed it (DESIGN.md §17).
#[derive(Clone, Copy)]
pub struct InlineVec<T, const N: usize> {
    buf: [T; N],
    len: u8,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    const LEN_FITS: () = assert!(N <= u8::MAX as usize, "InlineVec length is a u8");

    /// An empty vector.
    pub fn new() -> Self {
        let () = Self::LEN_FITS;
        InlineVec {
            buf: [T::default(); N],
            len: 0,
        }
    }

    /// Appends `x`.
    ///
    /// # Panics
    ///
    /// Panics if the vector already holds `N` elements.
    pub fn push(&mut self, x: T) {
        let len = usize::from(self.len);
        assert!(len < N, "InlineVec capacity {N} exceeded");
        self.buf[len] = x;
        self.len += 1;
    }

    /// Removes and returns the element at `i`, shifting the rest left.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn remove(&mut self, i: usize) -> T {
        let x = self[i];
        self.buf.copy_within(i + 1..usize::from(self.len), i);
        self.len -= 1;
        x
    }

    /// Keeps only the elements for which `keep` returns true, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut kept = 0;
        for i in 0..usize::from(self.len) {
            let x = self.buf[i];
            if keep(&x) {
                self.buf[kept] = x;
                kept += 1;
            }
        }
        self.len = kept as u8;
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.buf[..usize::from(self.len)]
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[..usize::from(self.len)]
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        for x in iter {
            v.push(x);
        }
        v
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a mut InlineVec<T, N> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: PartialOrd, const N: usize> PartialOrd for InlineVec<T, N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        (**self).partial_cmp(&**other)
    }
}

impl<T: Ord, const N: usize> Ord for InlineVec<T, N> {
    fn cmp(&self, other: &Self) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl<T: Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::explore::fingerprint;

    const CAP: usize = 8;

    /// Every observation the explorer makes of a state field agrees
    /// with the `Vec` holding the same elements.
    fn assert_agrees(iv: &InlineVec<u8, CAP>, v: &Vec<u8>, prev: &(InlineVec<u8, CAP>, Vec<u8>)) {
        assert_eq!(**iv, v[..]);
        assert_eq!(fingerprint(iv), fingerprint(v));
        assert_eq!(format!("{iv:?}"), format!("{v:?}"));
        assert_eq!(format!("{iv:#?}"), format!("{v:#?}"));
        assert_eq!(*iv == prev.0, *v == prev.1);
        assert_eq!(iv.cmp(&prev.0), v.cmp(&prev.1));
        assert_eq!(iv.partial_cmp(&prev.0), v.partial_cmp(&prev.1));
    }

    proptest! {
        /// Random push / remove / retain / sort / index-write sequences
        /// against a `Vec` oracle, every observation checked after
        /// every operation.
        #[test]
        fn matches_a_vec_oracle(ops in proptest::collection::vec((0u8..5, any::<u8>(), 0usize..CAP), 0..48)) {
            let mut iv: InlineVec<u8, CAP> = InlineVec::new();
            let mut v: Vec<u8> = Vec::new();
            for (op, x, i) in ops {
                let prev = (iv, v.clone());
                match op {
                    0 if v.len() < CAP => {
                        iv.push(x);
                        v.push(x);
                    }
                    1 if i < v.len() => prop_assert_eq!(iv.remove(i), v.remove(i)),
                    2 => {
                        iv.retain(|&e| e % 3 != x % 3);
                        v.retain(|&e| e % 3 != x % 3);
                    }
                    3 => {
                        iv.sort();
                        v.sort();
                    }
                    4 if i < v.len() => {
                        iv[i] = x;
                        v[i] = x;
                    }
                    _ => {}
                }
                assert_agrees(&iv, &v, &prev);
            }
            let collected: InlineVec<u8, CAP> = v.iter().copied().collect();
            prop_assert!(collected == iv);
        }
    }

    #[test]
    #[should_panic(expected = "InlineVec capacity 2 exceeded")]
    fn push_past_capacity_panics() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        for x in 0..3 {
            v.push(x);
        }
    }
}
