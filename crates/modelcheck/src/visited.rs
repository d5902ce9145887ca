//! The visited set the explorers deduplicate configurations through.
//!
//! One [`Visited`] pairs a key discipline with one storage. The key is
//! chosen by [`Symmetry`] ([`crate::CheckConfig::symmetry`]): concrete
//! per-slot state ([`Symmetry::Off`]), the orbit under the declared
//! [`ccsim::SymmetryClass`]es ([`Symmetry::Quotient`]), or the
//! pre-optimization SipHash walk kept as an independent-hash-family
//! oracle ([`Symmetry::FullRehash`]). The storage is always one 64-bit
//! key per state in 64 mutex-striped [`KeySet`] shards, and every insert
//! locks its shard: the search runs the same code at any worker count,
//! and a lone worker's locks are never contended.

use crate::{state_key_concrete, state_key_full, state_key_quotient, Budgets, Symmetry};
use ccsim::Sim;
use std::sync::Mutex;

/// Shard count for the striped visited set. 64 keeps the per-shard
/// mutexes essentially uncontended for any plausible worker count while
/// the selector stays a single shift.
const SHARDS: usize = 64;

/// Slots a [`KeySet`] starts with.
const MIN_SLOTS: usize = 8;

/// A set of 64-bit keys in one flat open-addressing table: a
/// power-of-two `Vec<u64>` probed linearly from the key's low bits and
/// kept at most 3/4 full. An empty slot holds 0, so the key 0 is
/// recorded in a flag instead. One probe usually touches one cache line,
/// and the key is its own hash: callers must pass full-avalanche keys
/// (every state key is a `mix64` or SipHash output), whose low bits are
/// already uniform.
#[derive(Debug)]
pub(crate) struct KeySet {
    slots: Vec<u64>,
    /// Distinct keys stored, the key 0 included.
    len: usize,
    has_zero: bool,
}

impl KeySet {
    pub(crate) fn new() -> Self {
        KeySet {
            slots: vec![0; MIN_SLOTS],
            len: 0,
            has_zero: false,
        }
    }

    /// Record `key`, returning true if it was new.
    pub(crate) fn insert(&mut self, key: u64) -> bool {
        if key == 0 {
            let new = !self.has_zero;
            self.has_zero = true;
            self.len += usize::from(new);
            return new;
        }
        loop {
            let mask = self.slots.len() - 1;
            let mut i = key as usize & mask;
            while self.slots[i] != 0 {
                if self.slots[i] == key {
                    return false;
                }
                i = (i + 1) & mask;
            }
            // New: store it unless that would pass a 3/4 load (the key 0
            // counts too, which keeps `bytes() >= 32 * len / 3`).
            if 4 * (self.len + 1) <= 3 * self.slots.len() {
                self.slots[i] = key;
                self.len += 1;
                return true;
            }
            self.grow();
        }
    }

    /// Double the table and re-place every stored key.
    fn grow(&mut self) {
        let doubled = vec![0; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for key in old.into_iter().filter(|&k| k != 0) {
            let mut i = key as usize & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = key;
        }
    }

    /// Distinct keys stored.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes of the slot table: 8 per slot, occupied or not.
    pub(crate) fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u64>()
    }
}

/// Occupancy statistics of the visited set, reported at the end of an
/// exploration in [`crate::CheckReport`]. The set only ever grows, so
/// the end-of-run numbers are also the peak.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct VisitedStats {
    /// Distinct keys stored (equals `states_explored` after a run).
    pub entries: u64,
    /// Resident bytes of the backing tables: allocated slots (not
    /// occupancy) at 8 bytes each, one 64-bit key per slot. The tables
    /// are at most 3/4 full, so this is at least 32/3 bytes per entry.
    pub resident_bytes: u64,
    /// Entries in the most-occupied shard (the striping balance
    /// numerator; keys are full-avalanche hashes, so skew beyond a small
    /// factor indicates a key-function defect).
    pub shard_max: u64,
    /// Entries in the least-occupied shard.
    pub shard_min: u64,
}

impl VisitedStats {
    /// Max/min shard occupancy ratio (1.0 = perfectly balanced). Returns
    /// `None` when any shard is empty — skew is meaningless before the
    /// set outgrows the shard count.
    pub fn shard_skew(&self) -> Option<f64> {
        (self.shard_min > 0).then(|| self.shard_max as f64 / self.shard_min as f64)
    }
}

/// The visited set: 64 mutex-protected [`KeySet`] shards of 64-bit state
/// keys, selected by the key's top bits (the keys are full-avalanche
/// hashes, so any fixed bit range balances, and the shard's own index
/// uses the low bits). Exactly-once expansion rests on
/// [`Visited::insert`] being atomic per key, which the striped mutexes
/// provide.
pub(crate) struct Visited {
    symmetry: Symmetry,
    shards: Vec<Mutex<KeySet>>,
}

/// The shard a key belongs to.
fn shard_of(key: u64) -> usize {
    (key >> 58) as usize & (SHARDS - 1)
}

impl Visited {
    pub(crate) fn new(symmetry: Symmetry) -> Self {
        Visited {
            symmetry,
            shards: (0..SHARDS).map(|_| Mutex::new(KeySet::new())).collect(),
        }
    }

    /// The configuration's state key under this set's [`Symmetry`]; also
    /// the digest the deterministic counterexample re-search
    /// deduplicates by.
    pub(crate) fn key(&self, sim: &Sim, quota: u64, budgets: Budgets) -> u64 {
        match self.symmetry {
            Symmetry::Off => state_key_concrete(sim, quota, budgets),
            Symmetry::Quotient => state_key_quotient(sim, quota, budgets),
            Symmetry::FullRehash => state_key_full(sim, quota, budgets),
        }
    }

    /// Record a configuration, returning true if it was new. The
    /// per-shard lock is held only for the probe itself.
    pub(crate) fn insert(&self, sim: &Sim, quota: u64, budgets: Budgets) -> bool {
        let key = self.key(sim, quota, budgets);
        self.shards[shard_of(key)].lock().unwrap().insert(key)
    }

    /// End-of-run occupancy (also the peak — the set only grows).
    pub(crate) fn stats(&self) -> VisitedStats {
        let mut stats = VisitedStats {
            shard_min: u64::MAX,
            ..VisitedStats::default()
        };
        for s in &self.shards {
            let set = s.lock().unwrap();
            let n = set.len() as u64;
            stats.entries += n;
            stats.resident_bytes += set.bytes() as u64;
            stats.shard_max = stats.shard_max.max(n);
            stats.shard_min = stats.shard_min.min(n);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim::mix64;
    use std::collections::HashSet;

    /// Insert `keys` into a [`KeySet`] and a `HashSet` oracle, checking
    /// every answer, the length and the load bound after each insert.
    fn agree_with_oracle(keys: impl IntoIterator<Item = u64>) -> KeySet {
        let mut set = KeySet::new();
        let mut oracle = HashSet::new();
        for key in keys {
            assert_eq!(set.insert(key), oracle.insert(key), "insert {key:#x}");
            assert_eq!(set.len(), oracle.len());
            assert!(4 * set.len() <= 3 * set.slots.len(), "over 3/4 full");
        }
        for &key in &oracle {
            assert!(!set.insert(key), "stored key {key:#x} lost");
        }
        set
    }

    #[test]
    fn key_zero_is_stored_once() {
        let set = agree_with_oracle([0, 0, mix64(1), 0, mix64(1)]);
        assert_eq!(set.len(), 2);
        assert!(set.has_zero);
    }

    #[test]
    fn duplicates_are_rejected() {
        let keys: Vec<u64> = (0..50).map(mix64).collect();
        let set = agree_with_oracle(keys.iter().chain(&keys).chain(&keys).copied());
        assert_eq!(set.len(), 50);
    }

    #[test]
    fn growth_keeps_every_key_across_many_doublings() {
        // 3,001 keys from 8 slots is nine doublings (to 4,096 slots).
        // The keys come in pairs that agree on their low 40 bits, so
        // every pair lands on one home slot and probes past it.
        let keys = (1..=1500u64).flat_map(|i| [mix64(i), mix64(i) ^ 1 << 40]);
        let set = agree_with_oracle(keys.chain([0]));
        assert_eq!(set.len(), 3001);
        assert_eq!(set.slots.len(), 4096);
        assert_eq!(set.bytes(), 8 * set.slots.len());
    }

    #[test]
    fn resident_bytes_count_every_slot() {
        let mut visited = Visited::new(Symmetry::Off);
        let stats = visited.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.resident_bytes, (SHARDS * MIN_SLOTS * 8) as u64);
        for k in 1..=1000u64 {
            let key = mix64(k);
            visited.shards[shard_of(key)].get_mut().unwrap().insert(key);
        }
        let stats = visited.stats();
        assert_eq!(stats.entries, 1000);
        assert!(stats.resident_bytes >= stats.entries * 32 / 3);
    }
}
