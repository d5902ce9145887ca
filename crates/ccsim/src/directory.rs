//! Flat per-variable coherence directory.
//!
//! Real CC hardware avoids broadcast invalidation by keeping, per cache
//! line, a *directory* of which caches hold a copy. This module is the
//! simulator's equivalent: for every variable, a dense bitset of holder
//! processes plus one exclusive-owner slot. Compared to the map-based
//! per-process caches it replaced (kept as [`crate::reference`] for
//! differential testing), every cache query is an O(1) bit test and an
//! invalidation is a word-wise bitset clear — O(n_procs/64) words instead
//! of `n_procs` hash-map removals.

/// Sentinel for "no exclusive owner" in [`Directory::owner`].
const NO_OWNER: u32 = u32::MAX;

/// Per-variable holder bitsets and exclusive-owner slots.
///
/// Invariants maintained by [`crate::Memory`]'s protocol logic:
///
/// * the owner of a variable, when present, is also a holder;
/// * under write-back, an exclusively-owned variable has exactly one
///   holder (the owner); write-through never sets an owner.
#[derive(Debug)]
pub(crate) struct Directory {
    n_procs: usize,
    n_vars: usize,
    /// Words per variable: `ceil(n_procs / 64)`.
    words_per_var: usize,
    /// Holder bitsets, `n_vars * words_per_var` words; variable `v` owns
    /// words `v*words_per_var .. (v+1)*words_per_var`, process `p` is bit
    /// `p % 64` of word `p / 64` within that span.
    holders: Vec<u64>,
    /// Exclusive owner per variable ([`NO_OWNER`] = none).
    owner: Vec<u32>,
}

/// Manual `Clone` so that `clone_from` reuses the bitset and owner
/// buffers (no allocation when the shapes match, as they do when the
/// model checker recycles a popped world).
impl Clone for Directory {
    fn clone(&self) -> Self {
        Directory {
            n_procs: self.n_procs,
            n_vars: self.n_vars,
            words_per_var: self.words_per_var,
            holders: self.holders.clone(),
            owner: self.owner.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.n_procs = src.n_procs;
        self.n_vars = src.n_vars;
        self.words_per_var = src.words_per_var;
        self.holders.clone_from(&src.holders);
        self.owner.clone_from(&src.owner);
    }
}

impl Directory {
    /// A directory with all caches cold.
    pub(crate) fn new(n_vars: usize, n_procs: usize) -> Self {
        assert!(
            n_procs < NO_OWNER as usize,
            "process count exceeds directory owner encoding"
        );
        let words_per_var = n_procs.div_ceil(64).max(1);
        Directory {
            n_procs,
            n_vars,
            words_per_var,
            holders: vec![0; n_vars * words_per_var],
            owner: vec![NO_OWNER; n_vars],
        }
    }

    #[inline]
    fn word(&self, v: usize, p: usize) -> usize {
        v * self.words_per_var + p / 64
    }

    /// Does process `p` hold any copy of variable `v`?
    #[inline]
    pub(crate) fn holds(&self, p: usize, v: usize) -> bool {
        self.holders[self.word(v, p)] >> (p % 64) & 1 == 1
    }

    /// Does process `p` hold variable `v` exclusively?
    #[inline]
    pub(crate) fn holds_exclusive(&self, p: usize, v: usize) -> bool {
        self.owner[v] == p as u32
    }

    /// The exclusive owner of `v`, if any.
    #[cfg(test)]
    pub(crate) fn owner(&self, v: usize) -> Option<usize> {
        let o = self.owner[v];
        (o != NO_OWNER).then_some(o as usize)
    }

    /// Install a shared copy for `p` (no owner change).
    #[inline]
    pub(crate) fn set_shared(&mut self, p: usize, v: usize) {
        let w = self.word(v, p);
        self.holders[w] |= 1 << (p % 64);
    }

    /// Install (or upgrade to) an exclusive copy for `p`.
    #[inline]
    pub(crate) fn set_exclusive(&mut self, p: usize, v: usize) {
        self.set_shared(p, v);
        self.owner[v] = p as u32;
    }

    /// Downgrade the exclusive owner of `v` (if any) to a shared holder.
    /// O(1): the ex-owner's holder bit stays set.
    #[inline]
    pub(crate) fn downgrade_owner(&mut self, v: usize) {
        self.owner[v] = NO_OWNER;
    }

    /// Drop every copy of `v` except `p`'s: a word-wise bitset clear.
    /// `p`'s own holder bit and ownership (if it is the owner) survive.
    pub(crate) fn invalidate_others(&mut self, p: usize, v: usize) {
        let base = v * self.words_per_var;
        let keep_word = base + p / 64;
        let keep = self.holders[keep_word] & (1 << (p % 64));
        for w in &mut self.holders[base..base + self.words_per_var] {
            *w = 0;
        }
        self.holders[keep_word] = keep;
        if self.owner[v] != p as u32 {
            self.owner[v] = NO_OWNER;
        }
    }

    /// Drop every copy held by process `p` (its cache went away — a crash).
    /// O(n_vars): one bit clear per variable, plus an owner-slot clear
    /// where `p` was the exclusive owner.
    pub(crate) fn purge_proc(&mut self, p: usize) {
        let mask = !(1u64 << (p % 64));
        for v in 0..self.n_vars {
            self.holders[v * self.words_per_var + p / 64] &= mask;
            if self.owner[v] == p as u32 {
                self.owner[v] = NO_OWNER;
            }
        }
    }

    /// Number of processes holding a copy of `v`.
    pub(crate) fn holder_count(&self, v: usize) -> usize {
        let base = v * self.words_per_var;
        self.holders[base..base + self.words_per_var]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Number of variables process `p` holds a copy of. O(n_vars); used
    /// only by the test-facing [`crate::CacheView`].
    pub(crate) fn lines_held_by(&self, p: usize) -> usize {
        (0..self.n_vars).filter(|&v| self.holds(p, v)).count()
    }

    /// Number of processes this directory was sized for.
    pub(crate) fn n_procs(&self) -> usize {
        self.n_procs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_directory_holds_nothing() {
        let d = Directory::new(3, 130);
        assert_eq!(d.n_procs(), 130);
        for p in [0usize, 63, 64, 129] {
            for v in 0..3 {
                assert!(!d.holds(p, v));
                assert!(!d.holds_exclusive(p, v));
            }
        }
        assert_eq!(d.owner(0), None);
    }

    #[test]
    fn shared_and_exclusive_round_trip_across_word_boundaries() {
        let mut d = Directory::new(2, 130);
        d.set_shared(63, 1);
        d.set_shared(64, 1);
        d.set_exclusive(129, 0);
        assert!(d.holds(63, 1) && d.holds(64, 1));
        assert!(!d.holds(63, 0));
        assert!(d.holds(129, 0) && d.holds_exclusive(129, 0));
        assert_eq!(d.owner(0), Some(129));
        assert_eq!(d.holder_count(1), 2);
        assert_eq!(d.holder_count(0), 1);
    }

    #[test]
    fn invalidate_others_preserves_only_p() {
        let mut d = Directory::new(1, 200);
        for p in 0..200 {
            d.set_shared(p, 0);
        }
        d.set_exclusive(7, 0);
        d.invalidate_others(70, 0);
        assert_eq!(d.holder_count(0), 1);
        assert!(d.holds(70, 0));
        assert!(!d.holds(7, 0));
        assert_eq!(d.owner(0), None, "other-owned line loses its owner");
    }

    #[test]
    fn invalidate_others_keeps_own_exclusivity() {
        let mut d = Directory::new(1, 80);
        d.set_exclusive(65, 0);
        d.invalidate_others(65, 0);
        assert!(d.holds_exclusive(65, 0));
        assert_eq!(d.holder_count(0), 1);
    }

    #[test]
    fn downgrade_owner_keeps_holder_bit() {
        let mut d = Directory::new(1, 4);
        d.set_exclusive(2, 0);
        d.downgrade_owner(0);
        assert!(d.holds(2, 0));
        assert!(!d.holds_exclusive(2, 0));
        assert_eq!(d.owner(0), None);
    }

    #[test]
    fn lines_held_by_counts_per_process() {
        let mut d = Directory::new(5, 3);
        d.set_shared(1, 0);
        d.set_shared(1, 3);
        d.set_exclusive(1, 4);
        assert_eq!(d.lines_held_by(1), 3);
        assert_eq!(d.lines_held_by(0), 0);
    }
}
