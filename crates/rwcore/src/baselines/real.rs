//! Real-atomics baseline reader-writer locks.
//!
//! These are the comparison points of experiment E7/E8:
//!
//! * [`CentralizedRwLock`] — the textbook single-word lock with CAS retry
//!   loops. Its reader *exit* is a CAS loop, so an adversary can charge an
//!   exiting reader `Θ(n)` RMRs (it does not satisfy Bounded Exit), which
//!   is exactly the failure mode the paper's tradeoff formalises.
//! * [`FaaRwLock`] — a read-indicator lock whose reader exit is a single
//!   fetch-and-add: `O(1)` RMRs, *escaping* the `Ω(log n)` bound by using
//!   an operation outside the read/write/CAS model (§6, Bhatt–Jayanti).
//! * [`MutexRwLock`] — treats every passage as exclusive via the
//!   tournament mutex: correct, but readers lose all parallelism.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use wmutex::{wait_until, IdMutex, Patience, TournamentLock};

/// Entry/exit sections of a reader-writer lock for registered processes.
/// Implemented by the `A_f` lock and every baseline so experiments can
/// sweep implementations uniformly.
pub trait RawRwLock: Send + Sync {
    /// Reader entry section.
    fn reader_lock(&self, id: usize);
    /// Reader exit section.
    fn reader_unlock(&self, id: usize);
    /// Writer entry section.
    fn writer_lock(&self, id: usize);
    /// Writer exit section.
    fn writer_unlock(&self, id: usize);
    /// Short implementation name for bench tables.
    fn name(&self) -> &'static str;
    /// The shard count the instance actually runs with (sharded
    /// variants only; they may cap a requested count at the CPU count,
    /// and report tables surface the effective value). `None` for
    /// unsharded locks.
    fn effective_shards(&self) -> Option<usize> {
        None
    }
}

impl RawRwLock for crate::af::real::RawAfLock {
    fn reader_lock(&self, id: usize) {
        Self::reader_lock(self, id);
    }
    fn reader_unlock(&self, id: usize) {
        Self::reader_unlock(self, id);
    }
    fn writer_lock(&self, id: usize) {
        Self::writer_lock(self, id);
    }
    fn writer_unlock(&self, id: usize) {
        Self::writer_unlock(self, id);
    }
    fn name(&self) -> &'static str {
        "a_f"
    }
}

const WRITER_BIT: u64 = 1 << 62;

/// The textbook centralized reader-writer lock: one word holding a reader
/// count and a writer bit, manipulated by CAS retry loops.
///
/// Violates Bounded Exit: under contention an exiting reader's CAS can
/// fail unboundedly often — the behaviour the Theorem-5 adversary
/// amplifies in experiment E7.
#[derive(Debug, Default)]
pub struct CentralizedRwLock {
    state: AtomicU64,
}

impl CentralizedRwLock {
    /// A fresh unlocked lock.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RawRwLock for CentralizedRwLock {
    fn reader_lock(&self, _id: usize) {
        wait_until(Patience::Forever, || {
            let s = self.state.load(Ordering::SeqCst);
            s & WRITER_BIT == 0
                && self
                    .state
                    .compare_exchange(s, s + 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
        });
    }

    fn reader_unlock(&self, _id: usize) {
        wait_until(Patience::Forever, || {
            let s = self.state.load(Ordering::SeqCst);
            debug_assert!(s & !WRITER_BIT > 0, "unlock without lock");
            self.state
                .compare_exchange(s, s - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        });
    }

    fn writer_lock(&self, _id: usize) {
        wait_until(Patience::Forever, || {
            self.state
                .compare_exchange(0, WRITER_BIT, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        });
    }

    fn writer_unlock(&self, _id: usize) {
        self.state.store(0, Ordering::SeqCst);
    }

    fn name(&self) -> &'static str {
        "centralized-cas"
    }
}

/// A read-indicator lock whose reader exit is one fetch-and-add.
///
/// Writers serialize on a tournament mutex, raise a flag, and wait for the
/// indicator to drain; readers that see the flag back out and wait. The
/// reader exit section is a single FAA — `O(1)` RMRs regardless of
/// contention, demonstrating that the paper's lower bound is specific to
/// the read/write/CAS model.
#[derive(Debug)]
pub struct FaaRwLock {
    /// In-CS reader count (the read indicator).
    readers: AtomicI64,
    /// 1 while a writer wants or holds the CS.
    writer_flag: AtomicI64,
    /// Serializes writers.
    wl: TournamentLock,
}

impl FaaRwLock {
    /// A lock for `m` writer processes (reader ids are unbounded).
    pub fn new(writers: usize) -> Self {
        FaaRwLock {
            readers: AtomicI64::new(0),
            writer_flag: AtomicI64::new(0),
            wl: TournamentLock::new(writers),
        }
    }
}

impl RawRwLock for FaaRwLock {
    fn reader_lock(&self, _id: usize) {
        loop {
            self.readers.fetch_add(1, Ordering::SeqCst);
            if self.writer_flag.load(Ordering::SeqCst) == 0 {
                return;
            }
            // A writer is active: back out and wait for it to finish.
            self.readers.fetch_sub(1, Ordering::SeqCst);
            wait_until(Patience::Forever, || {
                self.writer_flag.load(Ordering::SeqCst) == 0
            });
        }
    }

    fn reader_unlock(&self, _id: usize) {
        // The whole exit section: one FAA.
        self.readers.fetch_sub(1, Ordering::SeqCst);
    }

    fn writer_lock(&self, id: usize) {
        self.wl.lock(id);
        self.writer_flag.store(1, Ordering::SeqCst);
        wait_until(Patience::Forever, || {
            self.readers.load(Ordering::SeqCst) == 0
        });
    }

    fn writer_unlock(&self, id: usize) {
        self.writer_flag.store(0, Ordering::SeqCst);
        self.wl.unlock(id);
    }

    fn name(&self) -> &'static str {
        "faa-indicator"
    }
}

/// A reader-writer lock that grants every passage exclusive access through
/// one tournament mutex: readers are treated as writers.
#[derive(Debug)]
pub struct MutexRwLock {
    readers: usize,
    mutex: TournamentLock,
}

impl MutexRwLock {
    /// A lock for `n` readers and `m` writers (mutex over `n + m` ids).
    pub fn new(readers: usize, writers: usize) -> Self {
        MutexRwLock {
            readers,
            mutex: TournamentLock::new(readers + writers),
        }
    }
}

impl RawRwLock for MutexRwLock {
    fn reader_lock(&self, id: usize) {
        self.mutex.lock(id);
    }
    fn reader_unlock(&self, id: usize) {
        self.mutex.unlock(id);
    }
    fn writer_lock(&self, id: usize) {
        self.mutex.lock(self.readers + id);
    }
    fn writer_unlock(&self, id: usize) {
        self.mutex.unlock(self.readers + id);
    }
    fn name(&self) -> &'static str {
        "mutex-only"
    }
}
