//! Real-atomics mutual-exclusion locks.
//!
//! [`TournamentLock`] is the paper's `WL` substrate: an m-process
//! starvation-free mutex from reads and writes only, with `Θ(log m)` RMRs
//! per passage in the CC model — a tournament tree of two-process Peterson
//! competitions. (The paper cites Yang–Anderson \[21\]; a Peterson
//! tournament has the same CC-model RMR complexity and the same
//! starvation-freedom/Bounded-Exit properties, which is all `WL` must
//! provide. Yang–Anderson additionally achieves the bound in the DSM
//! model, which none of the paper's results measure.)

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// How long a bounded entry section may wait before it withdraws.
///
/// Every wait of the real locks is one [`wait_until`] call, which takes
/// one: the blocking entry points pass [`Patience::Forever`], and the
/// `try_*` entry points pass whatever the caller chose. The budget is
/// `Copy` and each wait spends its own copy, so [`Patience::Spins`]
/// bounds every wait separately, while [`Patience::Until`] is one
/// deadline for the whole entry section. The entry sections that take one are `#[inline]`, so
/// the compiler can fold `Forever` away in a blocking entry's copy.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Patience {
    /// Wait until admitted; the entry section never withdraws.
    Forever,
    /// Withdraw at the first failed re-read after this many failed
    /// re-reads in one wait loop.
    Spins(u64),
    /// Withdraw at the first failed re-read after this instant.
    Until(Instant),
}

impl Patience {
    /// Spend one failed re-read of the awaited word; returns whether the
    /// wait may continue.
    #[inline]
    fn spend(&mut self) -> bool {
        match self {
            Patience::Forever => true,
            Patience::Spins(0) => false,
            Patience::Spins(left) => {
                *left -= 1;
                true
            }
            Patience::Until(deadline) => Instant::now() < *deadline,
        }
    }
}

/// Failed re-reads one [`wait_until`] call pauses with a spin hint
/// before it starts yielding its time slice.
const SPINS_BEFORE_YIELD: u32 = 64;

/// The one wait loop of every real lock: evaluate `cond` until it holds
/// or `patience` runs out, and return whether it held.
///
/// `cond` is evaluated first, so a wait that need not wait costs one
/// evaluation. After each `false` the loop spends one failed re-read of
/// `patience` and then pauses: a spin hint for the call's first 64
/// failed re-reads, and [`std::thread::yield_now`] after that. A local
/// spin costs no RMRs in the CC model, but on a host with more threads
/// than CPUs a thread that keeps spinning burns the time slice of the
/// thread it waits for; the yield hands that slice over. `cond` may do
/// more than read — a CAS retry loop puts each attempt inside it.
///
/// Always inlined, so a blocking caller's [`Patience::Forever`] folds
/// away and an uncontended entry pays only for `cond`.
///
/// # Examples
/// ```
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use wmutex::{wait_until, Patience};
/// let flag = AtomicBool::new(false);
/// assert!(!wait_until(Patience::Spins(10), || flag.load(Ordering::Acquire)));
/// flag.store(true, Ordering::Release);
/// assert!(wait_until(Patience::Forever, || flag.load(Ordering::Acquire)));
/// ```
#[inline(always)]
pub fn wait_until(mut patience: Patience, mut cond: impl FnMut() -> bool) -> bool {
    let mut spins = 0;
    while !cond() {
        if !patience.spend() {
            return false;
        }
        if spins < SPINS_BEFORE_YIELD {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
    true
}

/// A mutual-exclusion lock shared by a fixed set of registered processes,
/// addressed by dense ids `0..processes()`.
///
/// Each id must be used by at most one thread at a time; [`IdMutex::unlock`]
/// must only be called by the id currently holding the lock.
pub trait IdMutex: Send + Sync {
    /// Acquire the lock on behalf of process `id` (blocking, local-spin).
    fn lock(&self, id: usize);
    /// Release the lock held by process `id`.
    fn unlock(&self, id: usize);
    /// Number of registered processes.
    fn processes(&self) -> usize;
    /// Short implementation name for bench tables.
    fn name(&self) -> &'static str;
}

/// One two-process Peterson competition node.
#[derive(Debug)]
struct Node {
    /// `flag[side]`: side wants (or holds) the node.
    flag: [AtomicBool; 2],
    /// Tie-breaker: the side that wrote `turn` last waits.
    turn: AtomicUsize,
}

impl Node {
    fn new() -> Self {
        Node {
            flag: [AtomicBool::new(false), AtomicBool::new(false)],
            turn: AtomicUsize::new(0),
        }
    }

    /// Peterson's entry: raise our flag, yield the tie, and wait while
    /// the rival wants the node and we wrote `turn` last. Each failed
    /// re-read of the rival's `(flag, turn)` pair spends `patience`; when
    /// it runs out our flag is cleared again by the same Release store as
    /// [`Node::release`] (so the rival — who re-reads it on every spin
    /// iteration — proceeds exactly as after a normal release) and `false`
    /// is returned: the node is not held. The entry's stores and loads are
    /// SeqCst: each flag and turn store must be ordered before the loads
    /// that follow it.
    #[inline]
    fn acquire(&self, side: usize, patience: Patience) -> bool {
        self.flag[side].store(true, Ordering::SeqCst);
        self.turn.store(side, Ordering::SeqCst);
        let won = wait_until(patience, || {
            !self.flag[1 - side].load(Ordering::SeqCst) || self.turn.load(Ordering::SeqCst) != side
        });
        if !won {
            self.flag[side].store(false, Ordering::Release);
        }
        won
    }

    /// Peterson's exit. Release: the rival's SeqCst load that sees the
    /// cleared flag synchronizes with it, so our critical section happens
    /// before the rival's. No later load of ours must be ordered after it.
    fn release(&self, side: usize) {
        self.flag[side].store(false, Ordering::Release);
    }
}

/// An m-process tournament mutex from reads and writes only: `Θ(log m)`
/// RMRs per passage in the CC model, starvation-free, bounded exit.
///
/// Every process owns a leaf of a complete binary tree and acquires the
/// lock by winning the Peterson competition at each internal node on its
/// leaf-to-root path bottom-up; release is top-down, so a successor from
/// the same subtree can never reach a node before its current holder has
/// released it.
///
/// Only Peterson's entry is SeqCst: one `flag` and one `turn` store per
/// level, each a full fence on x86. `unlock` and the abort path's flag
/// clears are Release stores, which on x86 are plain stores, so an
/// uncontended passage makes `2·⌈log2 m⌉` full-fence stores.
///
/// # Examples
/// ```
/// use wmutex::{IdMutex, TournamentLock};
/// let m = TournamentLock::new(4);
/// m.lock(2);
/// m.unlock(2);
/// ```
#[derive(Debug)]
pub struct TournamentLock {
    m: usize,
    width: usize,
    /// Internal nodes, heap indices `1..width` (slot 0 unused).
    nodes: Vec<Node>,
}

impl TournamentLock {
    /// Create a tournament lock for `m` processes.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "a mutex needs at least one process");
        let width = m.next_power_of_two();
        TournamentLock {
            m,
            width,
            nodes: (0..width).map(|_| Node::new()).collect(),
        }
    }

    /// Tree depth (`⌈log2 m⌉`): the number of competitions per passage.
    pub fn levels(&self) -> usize {
        self.width.trailing_zeros() as usize
    }

    /// The internal node and side process `p` uses at climb level `level`
    /// (level 0 is adjacent to the leaves).
    fn arena(&self, p: usize, level: usize) -> (usize, usize) {
        let leaf = self.width + p;
        (leaf >> (level + 1), (leaf >> level) & 1)
    }

    /// Climb the tree, winning the Peterson competition at each node on
    /// the leaf-to-root path; each node's wait gets its own copy of
    /// `patience`. When one runs out, withdraw — release every node
    /// already won, top-down — and return `false` with no residue in
    /// shared memory. The abort path is bounded: one flag-clear write per
    /// level won plus the timed-out node's own. [`IdMutex::lock`] is this
    /// climb with [`Patience::Forever`].
    ///
    /// # Panics
    /// Panics if `id >= processes()`.
    #[inline]
    pub fn try_lock(&self, id: usize, patience: Patience) -> bool {
        assert!(id < self.m, "process id {id} out of range");
        for level in 0..self.levels() {
            let (node, side) = self.arena(id, level);
            if !self.nodes[node].acquire(side, patience) {
                // `acquire` already cleared the timed-out node; release
                // the won levels below it in top-down order.
                for lower in (0..level).rev() {
                    let (n, s) = self.arena(id, lower);
                    self.nodes[n].release(s);
                }
                return false;
            }
        }
        true
    }
}

impl IdMutex for TournamentLock {
    fn lock(&self, id: usize) {
        let won = self.try_lock(id, Patience::Forever);
        debug_assert!(won, "Patience::Forever never runs out");
    }

    fn unlock(&self, id: usize) {
        // Top-down: release each node before any node below it, so no
        // successor from our subtree can reach a node we still hold.
        for level in (0..self.levels()).rev() {
            let (node, side) = self.arena(id, level);
            self.nodes[node].release(side);
        }
    }

    fn processes(&self) -> usize {
        self.m
    }

    fn name(&self) -> &'static str {
        "tournament"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::UnsafeCell;
    use std::sync::Arc;

    fn hammer(lock: Arc<dyn IdMutex>, threads: usize, iters: u64) {
        struct SendCell(UnsafeCell<u64>);
        unsafe impl Send for SendCell {}
        unsafe impl Sync for SendCell {}
        let counter = Arc::new(SendCell(UnsafeCell::new(0)));

        let mut handles = Vec::new();
        for id in 0..threads {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..iters {
                    lock.lock(id);
                    // Unsynchronized increment: only correct under mutual
                    // exclusion, so violations surface as lost updates.
                    unsafe {
                        *counter.0.get() += 1;
                    }
                    lock.unlock(id);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            unsafe { *counter.0.get() },
            threads as u64 * iters,
            "{} lost updates",
            lock.name()
        );
    }

    #[test]
    fn tournament_mutual_exclusion() {
        for threads in [1usize, 2, 3, 4, 7] {
            hammer(Arc::new(TournamentLock::new(threads)), threads, 2_000);
        }
    }

    #[test]
    fn try_lock_times_out_against_a_holder_and_leaves_no_residue() {
        let m = Arc::new(TournamentLock::new(4));
        m.lock(0);
        // p3 sits in the other subtree: it wins its level-0 node and times
        // out at the root, so the withdrawal must unwind a won level too.
        assert!(
            !m.try_lock(3, Patience::Spins(1_000)),
            "holder present: must time out"
        );
        m.unlock(0);
        // No stale flag left behind: every process can still pass.
        for id in 0..4 {
            assert!(
                m.try_lock(id, Patience::Spins(1_000)),
                "uncontended try_lock must win"
            );
            m.unlock(id);
        }
    }

    #[test]
    fn try_lock_withdrawal_unparks_a_blocked_rival() {
        // p1 holds; p0 times out; p1's release then lets p0 through — and
        // a thread blocked *behind* p0's aborted attempt is not stranded.
        let m = Arc::new(TournamentLock::new(2));
        m.lock(1);
        assert!(!m.try_lock(0, Patience::Spins(100)));
        let contender = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                m.lock(0);
                m.unlock(0);
            })
        };
        m.unlock(1);
        contender.join().unwrap();
    }

    #[test]
    fn try_lock_excludes_like_lock_under_contention() {
        struct SendCell(UnsafeCell<u64>);
        unsafe impl Send for SendCell {}
        unsafe impl Sync for SendCell {}
        let lock = Arc::new(TournamentLock::new(4));
        let counter = Arc::new(SendCell(UnsafeCell::new(0)));
        let mut handles = Vec::new();
        for id in 0..4 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut acquired = 0u64;
                while acquired < 500 {
                    if lock.try_lock(id, Patience::Spins(50)) {
                        unsafe {
                            *counter.0.get() += 1;
                        }
                        lock.unlock(id);
                        acquired += 1;
                    }
                }
                acquired
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(unsafe { *counter.0.get() }, total, "lost updates");
        assert_eq!(total, 4 * 500);
    }

    /// `wait_until` evaluated with a `cond` that first holds at its
    /// `holds_at`-th evaluation (never, if `None`): the result and how
    /// many times `cond` ran.
    fn evaluations(patience: Patience, holds_at: Option<u64>) -> (bool, u64) {
        let mut n = 0;
        let held = wait_until(patience, || {
            n += 1;
            Some(n) == holds_at
        });
        (held, n)
    }

    #[test]
    fn wait_until_evaluates_once_per_failed_re_read() {
        for patience in [
            Patience::Forever,
            Patience::Spins(0),
            Patience::Until(Instant::now()),
        ] {
            assert_eq!(
                evaluations(patience, Some(1)),
                (true, 1),
                "{patience:?}: a cond already true is evaluated once"
            );
        }
        for n in [0, 1, 2, 100] {
            assert_eq!(
                evaluations(Patience::Spins(n), None),
                (false, n + 1),
                "Spins({n}) allows n failed re-reads, then runs out"
            );
            assert_eq!(evaluations(Patience::Spins(n), Some(n + 1)), (true, n + 1));
        }
        assert_eq!(
            evaluations(Patience::Until(Instant::now()), None),
            (false, 1),
            "a passed deadline runs out at the first failed check"
        );
        // Past the spin bound the loop yields, and still stops as soon
        // as `cond` holds.
        assert_eq!(evaluations(Patience::Forever, Some(500)), (true, 500));
    }

    #[test]
    fn tournament_single_process_is_free() {
        let m = TournamentLock::new(1);
        assert_eq!(m.levels(), 0, "m=1: no competitions");
        m.lock(0);
        m.unlock(0);
    }

    #[test]
    fn arena_assignment_pairs_siblings() {
        let m = TournamentLock::new(4);
        // Leaves 4..8; level 0 nodes: p0,p1 -> node 2; p2,p3 -> node 3.
        assert_eq!(m.arena(0, 0), (2, 0));
        assert_eq!(m.arena(1, 0), (2, 1));
        assert_eq!(m.arena(2, 0), (3, 0));
        assert_eq!(m.arena(3, 0), (3, 1));
        // Level 1: everyone meets at the root.
        assert_eq!(m.arena(0, 1).0, 1);
        assert_eq!(m.arena(3, 1).0, 1);
        assert_ne!(
            m.arena(1, 1).1,
            m.arena(2, 1).1,
            "subtrees take opposite sides"
        );
    }

    #[test]
    fn levels_is_ceil_log2() {
        assert_eq!(TournamentLock::new(2).levels(), 1);
        assert_eq!(TournamentLock::new(3).levels(), 2);
        assert_eq!(TournamentLock::new(8).levels(), 3);
        assert_eq!(TournamentLock::new(9).levels(), 4);
    }

    #[test]
    fn reacquisition_by_same_process() {
        let m = TournamentLock::new(3);
        for _ in 0..100 {
            m.lock(1);
            m.unlock(1);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_panics() {
        TournamentLock::new(2).lock(2);
    }
}
