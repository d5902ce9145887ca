//! The visited set the explorers deduplicate configurations through.
//!
//! One [`Visited`] pairs a key discipline with one storage. The key is
//! chosen by [`Symmetry`] ([`crate::CheckConfig::symmetry`]): concrete
//! per-slot state ([`Symmetry::Off`]), the orbit under the declared
//! [`ccsim::SymmetryClass`]es ([`Symmetry::Quotient`]), or the
//! pre-optimization SipHash walk kept as an independent-hash-family
//! oracle ([`Symmetry::FullRehash`]). The storage is always one 64-bit
//! key per state in 64 mutex-striped [`KeySet`] shards, bucketized
//! cuckoo tables at most 19/20 full, and every insert locks its shard:
//! the search runs the same code at any worker count, and a lone
//! worker's locks are never contended.

use crate::moves::Successor;
use crate::{
    patch_quotient_parts, quotient_inner, quotient_parts, state_key_concrete, state_key_full,
    state_key_quotient, Budgets, KeyParts, Symmetry,
};
use ccsim::Sim;
use std::sync::Mutex;

/// Shard count for the striped visited set. 64 keeps the per-shard
/// mutexes essentially uncontended for any plausible worker count while
/// the selector stays a single shift.
const SHARDS: usize = 64;

/// Keys per [`KeySet`] bucket: eight `u64`s fill one 64-byte line.
const BUCKET: usize = 8;

/// Slots a [`KeySet`] starts with: one bucket.
const MIN_SLOTS: usize = BUCKET;

/// A [`KeySet`] doubles before an insert would leave it more than
/// `MAX_LOAD_NUM / MAX_LOAD_DEN` (19/20) full.
const MAX_LOAD_NUM: usize = 19;
const MAX_LOAD_DEN: usize = 20;

/// Evictions one insert may chain before its [`KeySet`] doubles.
const MAX_KICKS: usize = 500;

/// Where a key stands in one bucket.
enum Probe {
    Found,
    Free(usize),
    Full,
}

/// Look `key` up in a bucket. A bucket fills from slot 0 up and never
/// frees a slot, so its keys are a prefix and their count is the first
/// free slot. The scan has no early exit: one branch-free pass over the
/// line measured faster than a branch per slot.
fn probe(bucket: &[u64; BUCKET], key: u64) -> Probe {
    let mut found = false;
    let mut used = 0;
    for &k in bucket {
        found |= k == key;
        used += usize::from(k != 0);
    }
    if found {
        Probe::Found
    } else if used < BUCKET {
        Probe::Free(used)
    } else {
        Probe::Full
    }
}

/// The slots of a [`KeySet`]: a power of two of buckets of eight keys,
/// starting at the first 64-byte boundary of a `Vec<u64>` one bucket
/// longer, so each bucket is one cache line. (A `Vec` of 64-byte-aligned
/// buckets would get its alignment from the allocator instead, whose
/// aligned allocations leave holes in the heap: about 0.7 MiB more peak
/// RSS over repeated explorations of the f-array `A_f` at n=2 with one
/// crash.) An empty slot holds 0.
#[derive(Debug)]
struct Buckets {
    slots: Vec<u64>,
    /// Index in `slots` of bucket 0's first slot.
    base: usize,
    /// `len - 1` for a power-of-two `len` of buckets.
    mask: usize,
}

impl Buckets {
    fn new(len: usize) -> Self {
        let slots = vec![0; (len + 1) * BUCKET];
        let misaligned = slots.as_ptr() as usize % 64;
        Buckets {
            base: (64 - misaligned) % 64 / std::mem::size_of::<u64>(),
            slots,
            mask: len - 1,
        }
    }

    fn len(&self) -> usize {
        self.mask + 1
    }

    fn get(&self, b: usize) -> &[u64; BUCKET] {
        let at = self.base + b * BUCKET;
        self.slots[at..at + BUCKET].try_into().unwrap()
    }

    fn get_mut(&mut self, b: usize) -> &mut [u64; BUCKET] {
        let at = self.base + b * BUCKET;
        (&mut self.slots[at..at + BUCKET]).try_into().unwrap()
    }

    /// The key's first and second bucket.
    fn of(&self, key: u64) -> (usize, usize) {
        (
            key as usize & self.mask,
            key.rotate_right(32) as usize & self.mask,
        )
    }
}

/// A set of 64-bit keys in a bucketized cuckoo table of [`Buckets`],
/// kept at most 19/20 full. A key may sit in one of two buckets: its
/// first from its low bits, its second from its bits 32 up, which stay
/// clear of the top 6 bits that [`Visited`] shards by. An insert into
/// two full buckets evicts a key to its other bucket, and so on down a
/// bounded chain; a chain that hits its limit doubles the table.
/// Lookups read the first bucket first, and a first bucket with a free
/// slot means the key is absent: a key goes to its second bucket only
/// once its first is full, and a full bucket stays full. The key 0
/// marks an empty slot, so it is recorded in a flag instead. The key is
/// its own hash: callers must pass full-avalanche keys (every state key
/// is a `mix64` or SipHash output), whose bits are already uniform.
#[derive(Debug)]
pub(crate) struct KeySet {
    buckets: Buckets,
    /// Distinct keys stored, the key 0 included.
    len: usize,
    has_zero: bool,
}

impl KeySet {
    pub(crate) fn new() -> Self {
        KeySet {
            buckets: Buckets::new(MIN_SLOTS / BUCKET),
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
        let (first, second) = self.buckets.of(key);
        let free = match probe(self.buckets.get(first), key) {
            Probe::Found => return false,
            Probe::Free(i) => Some((first, i)),
            Probe::Full => match probe(self.buckets.get(second), key) {
                Probe::Found => return false,
                Probe::Free(i) => Some((second, i)),
                Probe::Full => None,
            },
        };
        // New: the key 0 counts toward the load too, which keeps
        // `19 * bytes() >= 160 * len`.
        self.len += 1;
        let over_load = MAX_LOAD_DEN * self.len > MAX_LOAD_NUM * self.slots();
        match free {
            Some((b, i)) if !over_load => self.buckets.get_mut(b)[i] = key,
            _ => {
                if over_load {
                    self.grow();
                }
                self.place(key);
            }
        }
        true
    }

    /// Store `key`, absent from the table, evicting keys to their other
    /// bucket while both of the one in hand are full. A chain of
    /// [`MAX_KICKS`] evictions doubles the table and then places the key
    /// still in hand. The victim slot turns with the chain and with bits
    /// of the key in hand that index no bucket, so a chain is
    /// deterministic yet rarely revisits a slot.
    fn place(&mut self, mut key: u64) {
        loop {
            let (first, second) = self.buckets.of(key);
            for b in [first, second] {
                if let Probe::Free(i) = probe(self.buckets.get(b), key) {
                    self.buckets.get_mut(b)[i] = key;
                    return;
                }
            }
            let mut at = second;
            for kick in 0..MAX_KICKS {
                let victim = ((key >> 26) as usize).wrapping_add(kick) % BUCKET;
                key = std::mem::replace(&mut self.buckets.get_mut(at)[victim], key);
                let (first, second) = self.buckets.of(key);
                at = if at == first { second } else { first };
                if let Probe::Free(i) = probe(self.buckets.get(at), key) {
                    self.buckets.get_mut(at)[i] = key;
                    return;
                }
            }
            assert!(
                8 * self.len >= self.slots(),
                "visited keys are not full-avalanche: {} keys overflow two \
                 buckets of a {}-slot table",
                self.len,
                self.slots()
            );
            self.grow();
        }
    }

    /// Double the table and re-place every stored key.
    fn grow(&mut self) {
        let doubled = Buckets::new(2 * self.buckets.len());
        let old = std::mem::replace(&mut self.buckets, doubled);
        for key in old.slots.into_iter().filter(|&k| k != 0) {
            self.place(key);
        }
    }

    /// Distinct keys stored.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Key slots in the table, occupied or not.
    fn slots(&self) -> usize {
        self.buckets.len() * BUCKET
    }

    /// Bytes of the table's slots: 8 per slot, occupied or not. The
    /// alignment pad of one bucket is not counted.
    pub(crate) fn bytes(&self) -> usize {
        self.slots() * std::mem::size_of::<u64>()
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
    /// are at most 19/20 full, so this is at least 160/19 (about 8.4)
    /// bytes per entry.
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

/// Entries of a worker's [`SeenFilter`]: 32 KiB of keys.
const FILTER_SLOTS: usize = 4096;

/// A worker's direct-mapped cache of state keys it has inserted into the
/// [`Visited`] set or found there. Keys never leave the set, so a hit
/// proves a duplicate at any worker count and spares the shard mutex and
/// the table probe; a miss proves nothing and goes to the set, so
/// exactly-once expansion still rests on [`Visited::insert`] alone. An
/// empty slot holds 0, so the key 0 never hits.
pub(crate) struct SeenFilter {
    slots: Box<[u64; FILTER_SLOTS]>,
}

impl SeenFilter {
    pub(crate) fn new() -> Self {
        SeenFilter {
            slots: Box::new([0; FILTER_SLOTS]),
        }
    }

    /// True if `key` is known to be in the set.
    #[inline]
    pub(crate) fn contains(&self, key: u64) -> bool {
        key != 0 && self.slots[key as usize % FILTER_SLOTS] == key
    }

    /// Remember `key`, which is in the set, in place of its slot's key.
    #[inline]
    pub(crate) fn note(&mut self, key: u64) {
        self.slots[key as usize % FILTER_SLOTS] = key;
    }
}

/// The visited set: 64 mutex-protected [`KeySet`] shards of 64-bit state
/// keys, selected by the key's top 6 bits (the keys are full-avalanche
/// hashes, so any fixed bit range balances, and the shard's own bucket
/// indices use the bits below). Exactly-once expansion rests on
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

    /// The state key of `succ`, a successor of `sim` written as a patch
    /// on it ([`Successor::NONE`] for `sim` itself), under this set's
    /// [`Symmetry`]; also the digest the deterministic counterexample
    /// re-search deduplicates by. The [`Symmetry::FullRehash`] baseline
    /// walks a built world, so it takes [`Successor::NONE`] only.
    pub(crate) fn key(&self, sim: &Sim, succ: &Successor, quota: u64, budgets: Budgets) -> u64 {
        match self.symmetry {
            Symmetry::Off => state_key_concrete(sim, succ, quota, budgets),
            Symmetry::Quotient => state_key_quotient(quotient_inner(sim, succ, quota), budgets),
            Symmetry::FullRehash => {
                debug_assert!(succ.overlay == ccsim::Overlay::NONE);
                state_key_full(sim, quota, budgets)
            }
        }
    }

    /// The state key of `sim` and the [`KeyParts`] its successors' keys
    /// patch (zero unless this set keys by [`Symmetry::Quotient`]).
    pub(crate) fn keyed(&self, sim: &Sim, quota: u64, budgets: Budgets) -> (u64, KeyParts) {
        match self.symmetry {
            Symmetry::Quotient => {
                let parts = quotient_parts(sim, quota);
                (state_key_quotient(parts.inner, budgets), parts)
            }
            _ => (
                self.key(sim, &Successor::NONE, quota, budgets),
                KeyParts::default(),
            ),
        }
    }

    /// [`Visited::keyed`] for `succ`, a successor of `sim` written as a
    /// patch on it, given `parts`, the [`KeyParts`] of `sim`. Under
    /// [`Symmetry::Quotient`] the successor's parts are `parts` patched
    /// with what the move changed, so the key costs O(1) in the number of
    /// processes; the other disciplines key `succ` directly.
    #[inline]
    pub(crate) fn patched(
        &self,
        sim: &Sim,
        parts: KeyParts,
        succ: &Successor,
        quota: u64,
        budgets: Budgets,
    ) -> (u64, KeyParts) {
        match self.symmetry {
            Symmetry::Quotient => {
                let parts = patch_quotient_parts(sim, parts, succ, quota);
                (state_key_quotient(parts.inner, budgets), parts)
            }
            _ => (self.key(sim, succ, quota, budgets), parts),
        }
    }

    /// Record a state key, returning true if it was new. The per-shard
    /// lock is held only for the probe itself.
    pub(crate) fn insert(&self, key: u64) -> bool {
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
            assert!(20 * set.len() <= 19 * set.slots(), "over 19/20 full");
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
        // every pair shares its first bucket.
        let keys = (1..=1500u64).flat_map(|i| [mix64(i), mix64(i) ^ 1 << 40]);
        let set = agree_with_oracle(keys.chain([0]));
        assert_eq!(set.len(), 3001);
        assert_eq!(set.slots(), 4096);
        assert_eq!(set.bytes(), 8 * set.slots());
    }

    #[test]
    fn keys_forced_into_two_buckets_kick_and_then_double() {
        // Every key has first bucket 1 and second bucket 2 while the
        // table has 4 buckets: 24 keys need only 32 slots by load, but
        // their two buckets hold 16, so inserts chain evictions until
        // the kick limit doubles the table, where bits 2 and 34 split
        // them over four buckets.
        let fixed = 1 | 2 << 32;
        let free = !(3 | 3 << 32);
        let keys: Vec<u64> = (1..=24u64).map(|i| mix64(i) & free | fixed).collect();
        let set = agree_with_oracle(keys.iter().copied());
        assert_eq!(set.len(), 24);
        assert_eq!(set.slots(), 64);
        for &key in &keys {
            let (first, second) = set.buckets.of(key);
            assert!(
                set.buckets.get(first).contains(&key) || set.buckets.get(second).contains(&key)
            );
        }
    }

    #[test]
    #[should_panic(expected = "not full-avalanche")]
    fn keys_that_share_both_buckets_at_every_size_fail_loudly() {
        // Bits 26 to 31 index no bucket below 2^26 buckets, so nine such
        // keys overflow bucket 0 however far the table doubles.
        let mut set = KeySet::new();
        for i in 1..=9u64 {
            set.insert(i << 26);
        }
    }

    #[test]
    fn one_shards_worth_of_keys_fills_8192_slots() {
        // The most-occupied shard of the `mc-farray` instance (the
        // f-array `A_f`, n=2, one crash) holds 7,503 keys, which share
        // their top 6 bits; 7,503 / 8,192 is under 19/20.
        let shard = 0b101101 << 58;
        let keys = (1..=7503u64).map(|i| mix64(i) >> 6 | shard);
        let set = agree_with_oracle(keys);
        assert_eq!(set.len(), 7503);
        assert_eq!(set.slots(), 8192);
        assert_eq!(set.bytes(), 65536);
    }

    #[test]
    fn buckets_are_cache_line_aligned() {
        let mut set = KeySet::new();
        for key in (1..=1000).map(mix64) {
            set.insert(key);
            let bucket_0 = set.buckets.get(0).as_ptr();
            assert_eq!(bucket_0 as usize % 64, 0);
        }
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
        assert!(19 * stats.resident_bytes >= 160 * stats.entries);
    }
}
