//! Dense bitsets over process ids, used for awareness/familiarity sets.

use ccsim::ProcId;
use std::fmt;

/// A set of processes, stored as a bitmap over `0..capacity`.
///
/// Awareness and familiarity sets (Definitions 1–2) are unioned on every
/// reading step of an analysed fragment, so the representation is a flat
/// `u64` bitmap: union is a word-wise OR.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct ProcSet {
    words: Vec<u64>,
}

impl ProcSet {
    /// An empty set with room for processes `0..capacity`.
    pub fn empty(capacity: usize) -> Self {
        ProcSet {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// The singleton `{p}` (Definition 2's base case `AW(p) = {p}`).
    pub fn singleton(capacity: usize, p: ProcId) -> Self {
        let mut s = Self::empty(capacity);
        s.insert(p);
        s
    }

    /// Insert a process. Returns whether the set changed.
    ///
    /// # Panics
    /// Panics if `p` exceeds the set's capacity.
    pub fn insert(&mut self, p: ProcId) -> bool {
        let (w, b) = (p.0 / 64, p.0 % 64);
        assert!(w < self.words.len(), "process {p} exceeds set capacity");
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Membership test.
    pub fn contains(&self, p: ProcId) -> bool {
        let (w, b) = (p.0 / 64, p.0 % 64);
        w < self.words.len() && self.words[w] & (1 << b) != 0
    }

    /// Union `other` into `self`. Returns whether `self` changed.
    pub fn union_with(&mut self, other: &ProcSet) -> bool {
        debug_assert_eq!(self.words.len(), other.words.len(), "capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let merged = *a | *b;
            changed |= merged != *a;
            *a = merged;
        }
        changed
    }

    /// Number of processes in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no process is in the set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterate the members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| {
                if w & (1u64 << b) != 0 {
                    Some(ProcId(wi * 64 + b))
                } else {
                    None
                }
            })
        })
    }

    /// How many members of `self` are missing from `other`
    /// (`|self \ other|`) — nonzero iff reading a variable with this
    /// familiarity set would expand `other`.
    pub fn count_missing_from(&self, other: &ProcSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }
}

impl fmt::Display for ProcSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<ProcId> for ProcSet {
    /// Collect into a set sized by the largest member.
    fn from_iter<T: IntoIterator<Item = ProcId>>(iter: T) -> Self {
        let ids: Vec<ProcId> = iter.into_iter().collect();
        let cap = ids.iter().map(|p| p.0 + 1).max().unwrap_or(0);
        let mut s = ProcSet::empty(cap.max(1));
        for p in ids {
            s.insert(p);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = ProcSet::empty(130);
        assert!(s.insert(ProcId(0)));
        assert!(s.insert(ProcId(64)));
        assert!(s.insert(ProcId(129)));
        assert!(!s.insert(ProcId(64)), "re-insert reports no change");
        assert!(s.contains(ProcId(129)));
        assert!(!s.contains(ProcId(1)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn union_and_subset() {
        let mut a = ProcSet::empty(10);
        a.insert(ProcId(1));
        let mut b = ProcSet::empty(10);
        b.insert(ProcId(1));
        b.insert(ProcId(5));
        assert_eq!(b.count_missing_from(&a), 1);
        assert!(a.union_with(&b), "union grows a");
        assert!(!a.union_with(&b), "second union is a no-op");
    }

    #[test]
    fn singleton_base_case() {
        let s = ProcSet::singleton(8, ProcId(3));
        assert_eq!(s.len(), 1);
        assert!(s.contains(ProcId(3)));
    }

    #[test]
    fn iteration_order() {
        let s: ProcSet = [ProcId(7), ProcId(2), ProcId(65)].into_iter().collect();
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![ProcId(2), ProcId(7), ProcId(65)]
        );
    }

    #[test]
    fn display() {
        let s: ProcSet = [ProcId(1), ProcId(3)].into_iter().collect();
        assert_eq!(s.to_string(), "{p1,p3}");
        assert_eq!(ProcSet::empty(4).to_string(), "{}");
    }

    #[test]
    #[should_panic(expected = "exceeds set capacity")]
    fn capacity_is_enforced() {
        ProcSet::empty(4).insert(ProcId(64));
    }
}
