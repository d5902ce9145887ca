//! The visited set the explorers deduplicate configurations through.
//!
//! One [`Visited`] pairs a key discipline with one storage. The key is
//! chosen by [`Symmetry`] ([`crate::CheckConfig::symmetry`]): concrete
//! per-slot state ([`Symmetry::Off`]), the orbit under the declared
//! [`ccsim::SymmetryClass`]es ([`Symmetry::Quotient`]), or the
//! pre-optimization SipHash walk kept as an independent-hash-family
//! oracle ([`Symmetry::FullRehash`]). The storage is always one 64-bit
//! key per state in a 64-way striped hash set, so the sequential
//! explorer (where the striping is simply uncontended) and the parallel
//! one report comparable occupancy numbers.

use crate::{state_key_concrete, state_key_full, state_key_quotient, Budgets, Symmetry};
use ccsim::{FxBuildHasher, Sim};
use std::collections::HashSet;
use std::sync::Mutex;

/// Shard count for the striped visited set. 64 keeps the per-shard
/// mutexes essentially uncontended for any plausible worker count while
/// the selector stays a single shift.
const SHARDS: usize = 64;

/// Occupancy statistics of the visited set, reported at the end of an
/// exploration in [`crate::CheckReport`]. The set only ever grows, so
/// the end-of-run numbers are also the peak.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct VisitedStats {
    /// Distinct keys stored (equals `states_explored` after a run).
    pub entries: u64,
    /// Approximate resident bytes of the backing tables: allocated
    /// capacity (not occupancy) at 9 bytes per slot — an 8-byte key plus
    /// one control byte, the std hash-table layout.
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

/// The visited set: 64 mutex-protected shards of 64-bit state keys,
/// selected by the key's top bits (the keys are full-avalanche hashes,
/// so any fixed bit range balances). Exactly-once expansion rests on
/// [`Visited::insert`] being atomic per key, which the striped mutexes
/// provide. `scratch` is a caller-owned buffer (one per explorer /
/// worker) the quotient key serializes into, keeping the hot path
/// allocation-free.
pub(crate) struct Visited {
    symmetry: Symmetry,
    shards: Vec<Mutex<HashSet<u64, FxBuildHasher>>>,
}

impl Visited {
    pub(crate) fn new(symmetry: Symmetry) -> Self {
        Visited {
            symmetry,
            shards: (0..SHARDS)
                .map(|_| Mutex::new(HashSet::default()))
                .collect(),
        }
    }

    /// The configuration's state key under this set's [`Symmetry`]; also
    /// the digest the deterministic counterexample re-search
    /// deduplicates by.
    pub(crate) fn key(
        &self,
        sim: &Sim,
        quota: u64,
        budgets: Budgets,
        scratch: &mut Vec<u64>,
    ) -> u64 {
        match self.symmetry {
            Symmetry::Off => state_key_concrete(sim, quota, budgets),
            Symmetry::Quotient => state_key_quotient(sim, quota, budgets, scratch),
            Symmetry::FullRehash => state_key_full(sim, quota, budgets),
        }
    }

    /// Record a configuration, returning true if it was new. The
    /// per-shard lock is held only for the probe itself.
    pub(crate) fn insert(
        &self,
        sim: &Sim,
        quota: u64,
        budgets: Budgets,
        scratch: &mut Vec<u64>,
    ) -> bool {
        let key = self.key(sim, quota, budgets, scratch);
        let shard = (key >> 58) as usize & (SHARDS - 1);
        self.shards[shard].lock().unwrap().insert(key)
    }

    /// Distinct configurations stored.
    pub(crate) fn len(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().len() as u64)
            .sum()
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
            stats.resident_bytes += set.capacity() as u64 * 9;
            stats.shard_max = stats.shard_max.max(n);
            stats.shard_min = stats.shard_min.min(n);
        }
        stats
    }
}
