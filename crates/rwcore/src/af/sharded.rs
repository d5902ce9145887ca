//! A sharded `A_f` read path: per-shard lock instances behind a global
//! writer gate, with batched reader admission.
//!
//! The ROADMAP's north star is "millions of readers", and a single `A_f`
//! instance caps read throughput in two ways: every reader traverses the
//! same `Θ(log(n/f))` counter tree, and every traversal hammers the same
//! cache lines. [`ShardedAfRwLock`] removes both costs from the common
//! path:
//!
//! * **Sharding.** The lock holds an array of independent `A_f`
//!   instances, one per shard, each padded to its own cache lines. A
//!   reader touches exactly one shard, picked by a thread-local slot, so
//!   readers on different shards share no data at all.
//! * **Batched admission.** Each shard runs the underlying `A_f`
//!   protocol through a single *batch slot*: the first reader to arrive
//!   at an idle shard (the batch *leader*) performs one `A_f` reader
//!   entry on behalf of everyone, then opens the batch; readers arriving
//!   while the batch is open join with one CAS on the shard's gate word.
//!   The last member out performs the single `A_f` reader exit. A
//!   thundering herd of readers thus costs **one** counter-tree
//!   traversal per batch instead of one per reader.
//! * **Writer gate.** Writers serialize on a tournament mutex, raise a
//!   per-shard *writer-pending* flag (plain writes, owned by the gate
//!   holder — same argument as [`crate::GatedAfLock`]'s gate), then
//!   acquire every shard's `A_f` write lock **in fixed ascending shard
//!   order**. Readers hold at most one shard and writers are serialized,
//!   so the fixed order makes shard-acquisition deadlock impossible.
//!
//! # Gate-word protocol
//!
//! Each shard has one 64-bit gate word: a member count in the low bits
//! plus [`OPEN`] and [`DRAIN`] flag bits.
//!
//! | transition | by | meaning |
//! |---|---|---|
//! | `0 → 1` | leader | batch claimed; leader runs the `A_f` entry |
//! | `∨ OPEN` | leader | entry done; members may proceed |
//! | `w → w+1` | joiner | join the batch (before or after `OPEN`) |
//! | `w → w−1` | exiter | leave (other members remain) |
//! | `OPEN∣1 → DRAIN` | last exiter | batch closing; runs the `A_f` exit |
//! | `DRAIN → 0` | last exiter | exit done (plain store); shard idle |
//!
//! `DRAIN` is load-bearing: the underlying batch slot is a *single*
//! reader id, whose lock/unlock calls must never overlap. If the last
//! exiter dropped the gate to `0` before running the `A_f` exit, a new
//! leader could claim the slot and start the next entry while the old
//! exit is still in flight. `DRAIN` holds fresh leaders (and joiners)
//! off until the exit has fully retired.
//!
//! A joiner may slip into an open batch after a writer raises the
//! pending flag (it checks the flag, then CASes). That is benign for
//! Mutual Exclusion — a batch with members always holds the shard's
//! `A_f` read lock, so the writer is still excluded — and bounded for
//! writer progress: each such reader joins at most once per flag check,
//! and the flag halts all later arrivals.
//!
//! # Properties and trade-offs
//!
//! Mutual Exclusion is inherited from the per-shard `A_f` instances: a
//! writer holds *every* shard's write lock, and any reader in the CS is
//! a member of some shard's batch, which holds that shard's read lock.
//! The writer-pending flag gives writers preference, so (like the gated
//! variant) reader starvation-freedom is traded away; batch admission
//! gives readers `O(1)` fast-path entry in exchange for a reader exit
//! that is a CAS retry loop (bounded only by batch churn, not by the
//! adversary-proof f-array argument — this variant is an engineering
//! point, not a member of the paper's `A_f` family). Writer passages
//! cost `shards × Θ(f)` — the price of the sharded read path.

use crate::af::real::RawAfLock;
use crate::config::{AfConfig, FPolicy};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use wmutex::{wait_until, IdMutex, Patience, TournamentLock};

/// Member count mask of the gate word.
const COUNT_MASK: u64 = (1 << 32) - 1;
/// Gate flag: the batch leader has completed the `A_f` entry.
const OPEN: u64 = 1 << 32;
/// Gate flag: the last member is running the `A_f` exit; the shard is
/// closed to new leaders until the gate returns to 0.
const DRAIN: u64 = 1 << 33;

/// One shard: an independent single-slot `A_f` instance plus its gate
/// word and writer-pending flag, padded so shards never share a cache
/// line (128 bytes covers the common 64-byte line and the 128-byte
/// prefetch pairs on recent x86).
#[repr(align(128))]
#[derive(Debug)]
struct Shard {
    /// The shard's `A_f` instance, driven through reader id 0 (the batch
    /// slot) and writer id 0 (writers are serialized by the outer gate).
    inner: RawAfLock,
    /// The batch gate word (see the module docs).
    gate: AtomicU64,
    /// 1 while a writer wants or holds the shards. Plain stores suffice:
    /// only the outer-gate holder writes it.
    wp: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            inner: RawAfLock::new(AfConfig {
                readers: 1,
                writers: 1,
                policy: FPolicy::One,
            }),
            gate: AtomicU64::new(0),
            wp: AtomicU64::new(0),
        }
    }
}

/// Round-robin source for thread shard slots (process-wide: threads get
/// stable, distinct slots regardless of how many locks they touch).
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's shard slot, assigned round-robin on first use.
fn thread_slot() -> usize {
    THREAD_SLOT.with(|slot| {
        let v = slot.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
        slot.set(v);
        v
    })
}

/// The sharded `A_f` reader-writer lock (see the module docs).
///
/// # Contract
/// Reader entry/exit pairs must be issued from the same thread (the
/// shard is picked by a thread-local slot). Writer ids `0..writers`
/// follow the usual one-thread-at-a-time rule. Reader ids passed through
/// the [`crate::RawRwLock`] facade are ignored — any number of threads
/// may read concurrently.
#[derive(Debug)]
pub struct ShardedAfRwLock {
    shards: Vec<Shard>,
    /// The outer writer gate.
    wl: TournamentLock,
}

impl ShardedAfRwLock {
    /// Build a lock with `shards` shards for `writers` writer processes.
    ///
    /// # Panics
    /// Panics if `shards` or `writers` is zero.
    pub fn new(shards: usize, writers: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(writers > 0, "need at least one writer");
        ShardedAfRwLock {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            wl: TournamentLock::new(writers),
        }
    }

    /// A lock sized to the host: one shard per detected CPU (at least
    /// two, so the sharded structure is exercised even on tiny hosts).
    pub fn with_auto_shards(writers: usize) -> Self {
        let n = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Self::new(n.max(2), writers)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard the calling thread maps to.
    pub fn shard_of_current_thread(&self) -> usize {
        thread_slot() % self.shards.len()
    }

    /// Reader entry on an explicit shard. Prefer [`Self::read_lock`];
    /// this is the building block (and the test seam): it is
    /// [`Self::try_read_lock_shard`] with [`Patience::Forever`]. The
    /// matching [`Self::read_unlock_shard`] must target the same shard.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn read_lock_shard(&self, shard: usize) {
        let entered = self.try_read_lock_shard(shard, Patience::Forever);
        debug_assert!(entered, "Patience::Forever never runs out");
    }

    /// Reader exit on an explicit shard (pairs with
    /// [`Self::read_lock_shard`]).
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn read_unlock_shard(&self, shard: usize) {
        let sh = &self.shards[shard];
        let mut last = false;
        wait_until(Patience::Forever, || {
            let w = sh.gate.load(Ordering::SeqCst);
            debug_assert!(
                w & OPEN != 0 && w & COUNT_MASK >= 1,
                "unlock without a matching lock (gate {w:#x})"
            );
            // The last member out closes the batch instead of leaving.
            last = w == OPEN | 1;
            let next = if last { DRAIN } else { w - 1 };
            sh.gate
                .compare_exchange(w, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        });
        if last {
            // Retire the underlying passage before reopening the shard.
            sh.inner.reader_unlock(0);
            sh.gate.store(0, Ordering::SeqCst);
        }
    }

    /// Reader entry on an explicit shard with bounded admission: each
    /// failed admission (writer-pending flag raised, batch draining, gate
    /// CAS lost) spends `patience`. The attempt gives up only *before* it
    /// has CASed into a batch — after a successful gate transition the
    /// reader is committed (at worst it rides out the single writer
    /// passage that slipped in behind its admission check), so a `false`
    /// return leaves no residue anywhere: in particular the reader never
    /// withdraws from inside the shard's `A_f` instance. Pair a `true`
    /// with [`Self::read_unlock_shard`] on the same shard.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    #[inline]
    pub fn try_read_lock_shard(&self, shard: usize, patience: Patience) -> bool {
        let sh = &self.shards[shard];
        let mut joined = 0;
        let admitted = wait_until(patience, || {
            // Writer preference: arrivals hold off while a writer is
            // pending, so the shard's batch can drain. While an exit is
            // retiring (DRAIN) the shard reopens only at gate = 0.
            if sh.wp.load(Ordering::SeqCst) != 0 {
                return false;
            }
            let w = sh.gate.load(Ordering::SeqCst);
            if w & DRAIN != 0 {
                return false;
            }
            debug_assert!(w & COUNT_MASK < COUNT_MASK, "batch member overflow");
            joined = w;
            // Claim the idle batch (0 → 1) or join the in-flight one.
            sh.gate
                .compare_exchange(w, w + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        });
        if !admitted {
            return false;
        }
        if joined == 0 {
            sh.inner.reader_lock(0); // committed: leader
            sh.gate.fetch_or(OPEN, Ordering::SeqCst);
        } else if joined & OPEN == 0 {
            // Joined while the leader is still running the A_f entry;
            // wait for it to open the batch.
            wait_until(Patience::Forever, || {
                sh.gate.load(Ordering::SeqCst) & OPEN != 0
            });
        }
        true // committed: batch member
    }

    /// Reader entry on the calling thread's shard.
    pub fn read_lock(&self) {
        self.read_lock_shard(self.shard_of_current_thread());
    }

    /// Bounded reader entry on the calling thread's shard (see
    /// [`Self::try_read_lock_shard`]).
    pub fn try_read_lock(&self, patience: Patience) -> bool {
        self.try_read_lock_shard(self.shard_of_current_thread(), patience)
    }

    /// Reader exit on the calling thread's shard.
    pub fn read_unlock(&self) {
        self.read_unlock_shard(self.shard_of_current_thread());
    }

    /// Writer entry: [`Self::try_write_lock`] with [`Patience::Forever`].
    ///
    /// # Panics
    /// Panics if `writer_id` is out of range.
    pub fn write_lock(&self, writer_id: usize) {
        let entered = self.try_write_lock(writer_id, Patience::Forever);
        debug_assert!(entered, "Patience::Forever never runs out");
    }

    /// Writer exit: release every shard, clear the flags, release the
    /// outer gate.
    ///
    /// # Panics
    /// Panics if `writer_id` is out of range.
    pub fn write_unlock(&self, writer_id: usize) {
        for sh in &self.shards {
            sh.inner.writer_unlock(0);
        }
        for sh in &self.shards {
            sh.wp.store(0, Ordering::SeqCst);
        }
        self.wl.unlock(writer_id);
    }

    /// Writer entry with bounded waits: serialize on the outer gate,
    /// flag every shard, then acquire each shard's write lock in
    /// ascending shard order, every wait spending its own copy of
    /// `patience`. When one runs out the attempt rolls itself back
    /// completely — the timed-out shard burns its epoch, shards already
    /// won are released in reverse order, every writer-pending flag is
    /// cleared, and the outer gate is dropped — so a `false` return
    /// leaves the lock exactly as acquirable as before the call. Pair a
    /// `true` with [`Self::write_unlock`].
    ///
    /// # Panics
    /// Panics if `writer_id` is out of range.
    #[inline]
    pub fn try_write_lock(&self, writer_id: usize, patience: Patience) -> bool {
        if !self.wl.try_lock(writer_id, patience) {
            return false;
        }
        for sh in &self.shards {
            sh.wp.store(1, Ordering::SeqCst);
        }
        // Fixed ascending order. Readers hold at most one shard and
        // never block while holding it, and writers are serialized
        // above, so no cycle in the wait-for graph is possible.
        for (k, sh) in self.shards.iter().enumerate() {
            if !sh.inner.try_writer_lock(0, patience) {
                // Shard `k` timed out and already unwound itself; the
                // shards below it are fully held and need a real release.
                for held in self.shards[..k].iter().rev() {
                    held.inner.writer_unlock(0);
                }
                for flagged in &self.shards {
                    flagged.wp.store(0, Ordering::SeqCst);
                }
                self.wl.unlock(writer_id);
                return false;
            }
        }
        true
    }
}

impl crate::baselines::real::RawRwLock for ShardedAfRwLock {
    fn reader_lock(&self, _id: usize) {
        self.read_lock();
    }
    fn reader_unlock(&self, _id: usize) {
        self.read_unlock();
    }
    fn writer_lock(&self, id: usize) {
        self.write_lock(id);
    }
    fn writer_unlock(&self, id: usize) {
        self.write_unlock(id);
    }
    fn name(&self) -> &'static str {
        "a_f-sharded"
    }
    fn effective_shards(&self) -> Option<usize> {
        Some(self.shards())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn uncontended_read_passages() {
        let lock = ShardedAfRwLock::new(4, 1);
        for _ in 0..100 {
            lock.read_lock();
            lock.read_unlock();
        }
    }

    #[test]
    fn uncontended_write_passages() {
        let lock = ShardedAfRwLock::new(4, 2);
        for _ in 0..100 {
            lock.write_lock(1);
            lock.write_unlock(1);
        }
    }

    #[test]
    fn readers_share_a_shard_batch() {
        // Two entries on the same shard before either exit: the second
        // must join the first's batch rather than deadlock.
        let lock = ShardedAfRwLock::new(2, 1);
        lock.read_lock_shard(0);
        lock.read_lock_shard(0);
        assert_eq!(
            lock.shards[0].gate.load(Ordering::SeqCst),
            OPEN | 2,
            "two members in one open batch"
        );
        lock.read_unlock_shard(0);
        lock.read_unlock_shard(0);
        assert_eq!(lock.shards[0].gate.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn readers_on_distinct_shards_are_independent() {
        let lock = ShardedAfRwLock::new(2, 1);
        lock.read_lock_shard(0);
        lock.read_lock_shard(1);
        assert_eq!(lock.shards[0].gate.load(Ordering::SeqCst), OPEN | 1);
        assert_eq!(lock.shards[1].gate.load(Ordering::SeqCst), OPEN | 1);
        lock.read_unlock_shard(1);
        lock.read_unlock_shard(0);
    }

    /// Satellite test: the writer gate acquires shards in fixed
    /// ascending order, so a writer blocked on a reader-held shard `k`
    /// already owns every shard below `k` — and because readers hold at
    /// most one shard and writers are serialized, the acquisition graph
    /// is acyclic (no deadlock). Observed here through behavior: with a
    /// reader parked on the *last* shard, the writer must already have
    /// locked shard 0 (a probe reader on shard 0 cannot get in), and
    /// releasing the parked reader lets everyone finish.
    #[test]
    fn writer_gate_acquires_shards_in_fixed_order() {
        let lock = Arc::new(ShardedAfRwLock::new(3, 1));
        lock.read_lock_shard(2); // park a batch on the last shard

        let writer_in_cs = Arc::new(AtomicBool::new(false));
        let writer = {
            let (lock, flag) = (Arc::clone(&lock), Arc::clone(&writer_in_cs));
            std::thread::spawn(move || {
                lock.write_lock(0);
                flag.store(true, Ordering::SeqCst);
                lock.write_unlock(0);
            })
        };
        // Give the writer time to raise the flags and take shards 0..2.
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            !writer_in_cs.load(Ordering::SeqCst),
            "writer entered the CS past a reader-held shard"
        );
        for s in 0..3 {
            assert_eq!(
                lock.shards[s].wp.load(Ordering::SeqCst),
                1,
                "writer-pending flag raised on shard {s}"
            );
        }

        // A probe reader on shard 0 must be blocked: the writer already
        // owns shard 0's write lock (ascending order) and wp holds it
        // out regardless.
        let probe_done = Arc::new(AtomicBool::new(false));
        let probe = {
            let (lock, flag) = (Arc::clone(&lock), Arc::clone(&probe_done));
            std::thread::spawn(move || {
                lock.read_lock_shard(0);
                flag.store(true, Ordering::SeqCst);
                lock.read_unlock_shard(0);
            })
        };
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            !probe_done.load(Ordering::SeqCst),
            "probe reader entered shard 0 during a writer's acquisition"
        );

        // Release the parked reader: writer completes, then the probe.
        lock.read_unlock_shard(2);
        writer.join().unwrap();
        assert!(writer_in_cs.load(Ordering::SeqCst));
        probe.join().unwrap();
        assert!(probe_done.load(Ordering::SeqCst));
    }

    #[test]
    fn thread_slots_are_stable_and_distinct() {
        let lock = Arc::new(ShardedAfRwLock::new(8, 1));
        let s1 = lock.shard_of_current_thread();
        assert_eq!(lock.shard_of_current_thread(), s1, "slot is sticky");
        let lock2 = Arc::clone(&lock);
        let s2 = std::thread::spawn(move || lock2.shard_of_current_thread())
            .join()
            .unwrap();
        // Different threads get different round-robin slots; with 8
        // shards and two fresh slots they can still collide only if the
        // process has already consumed many slots — allow that, but the
        // value must be in range.
        assert!(s1 < 8 && s2 < 8);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardedAfRwLock::new(0, 1);
    }

    #[test]
    fn try_paths_uncontended() {
        let lock = ShardedAfRwLock::new(2, 2);
        assert!(lock.try_read_lock_shard(0, Patience::Spins(64)));
        lock.read_unlock_shard(0);
        assert!(lock.try_write_lock(1, Patience::Spins(64)));
        lock.write_unlock(1);
        assert!(lock.try_read_lock(Patience::Spins(64)));
        lock.read_unlock();
    }

    #[test]
    fn try_write_times_out_on_a_reader_held_shard_and_rolls_back() {
        let lock = ShardedAfRwLock::new(3, 2);
        lock.read_lock_shard(2); // park a batch on the last shard

        // The writer wins the outer gate and shards 0 and 1, then times
        // out on shard 2 and must unwind everything.
        assert!(!lock.try_write_lock(0, Patience::Spins(256)));
        for s in 0..3 {
            assert_eq!(
                lock.shards[s].wp.load(Ordering::SeqCst),
                0,
                "writer-pending flag left raised on shard {s}"
            );
        }
        // No residue: another reader batch can open on shard 0, and the
        // parked batch is untouched.
        assert!(lock.try_read_lock_shard(0, Patience::Spins(1 << 16)));
        lock.read_unlock_shard(0);
        lock.read_unlock_shard(2);

        // With the reader gone, both a bounded and a plain writer pass.
        assert!(lock.try_write_lock(0, Patience::Spins(1 << 16)));
        lock.write_unlock(0);
        lock.write_lock(1);
        lock.write_unlock(1);
    }

    #[test]
    fn try_read_times_out_while_a_writer_holds() {
        let lock = ShardedAfRwLock::new(2, 1);
        lock.write_lock(0);
        assert!(!lock.try_read_lock_shard(0, Patience::Spins(256)));
        assert!(!lock.try_read_lock_shard(1, Patience::Spins(256)));
        assert!(!lock.try_read_lock(Patience::Until(Instant::now())));
        lock.write_unlock(0);
        // A failed attempt left no trace on the gates.
        lock.read_lock_shard(0);
        lock.read_unlock_shard(0);
    }

    /// A timed-out writer rolls back with one epoch per shard it
    /// reached: the held shard below the reader's is released, the
    /// reader's shard burns the epoch it timed out in, and the shard
    /// above is never touched.
    #[test]
    fn deadline_write_spends_at_most_one_epoch_per_shard() {
        let lock = ShardedAfRwLock::new(3, 1);
        lock.read_lock_shard(1);
        let epochs = |lock: &ShardedAfRwLock| -> Vec<u64> {
            lock.shards.iter().map(|sh| sh.inner.wseq()).collect()
        };
        let before = epochs(&lock);
        let deadline = Instant::now() + Duration::from_millis(5);
        assert!(!lock.try_write_lock(0, Patience::Until(deadline)));
        let advanced: Vec<u64> = epochs(&lock)
            .iter()
            .zip(&before)
            .map(|(after, before)| after - before)
            .collect();
        assert_eq!(advanced, [1, 1, 0], "epochs advanced per shard");
        lock.read_unlock_shard(1);
        lock.write_lock(0);
        lock.write_unlock(0);
    }

    /// The sharded reader gives up only before its gate CAS, so a
    /// timed-out attempt never withdraws from inside a shard's `A_f`
    /// instance (the withdrawal race of ROADMAP item 1 cannot reach it):
    /// the inner `C[0]` and `W[0]` stay 0 and the gate word is unchanged.
    #[test]
    fn timed_out_reader_leaves_the_shard_instance_untouched() {
        let lock = ShardedAfRwLock::new(2, 1);
        lock.write_lock(0);
        for patience in [
            Patience::Spins(256),
            Patience::Until(Instant::now() + Duration::from_millis(5)),
        ] {
            for (s, sh) in lock.shards.iter().enumerate() {
                let gate = sh.gate.load(Ordering::SeqCst);
                assert!(!lock.try_read_lock_shard(s, patience));
                assert_eq!(sh.inner.group_counts(0), (0, 0), "shard {s}: C[0], W[0]");
                assert_eq!(sh.gate.load(Ordering::SeqCst), gate, "shard {s}: gate");
            }
        }
        lock.write_unlock(0);
    }

    #[test]
    fn deadline_write_succeeds_once_the_reader_leaves() {
        let lock = Arc::new(ShardedAfRwLock::new(2, 1));
        lock.read_lock_shard(1);
        let writer = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(30);
                let ok = lock.try_write_lock(0, Patience::Until(deadline));
                if ok {
                    lock.write_unlock(0);
                }
                ok
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        lock.read_unlock_shard(1);
        assert!(writer.join().unwrap(), "deadline writer should get in");
    }
}
