//! The typed, RAII front-end: [`AfRwLock<T>`] with per-process handles and
//! read/write guards.

use crate::af::real::RawAfLock;
use crate::config::AfConfig;
use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use wmutex::Patience;

/// A reader-writer lock protecting a `T`, backed by the paper's `A_f`
/// algorithm.
///
/// Unlike `std::sync::RwLock`, the process set is fixed at construction
/// (the algorithm's RMR bounds are functions of `n` and `m`) and each
/// thread must first claim a [`ReaderHandle`] or [`WriterHandle`] for a
/// distinct process id.
///
/// # Examples
/// ```
/// use rwcore::{AfConfig, AfRwLock};
/// let lock = AfRwLock::new(AfConfig::new(2, 1), 0u64);
/// let mut writer = lock.writer(0)?;
/// *writer.write() = 7;
/// let mut reader = lock.reader(1)?;
/// assert_eq!(*reader.read(), 7);
/// # Ok::<(), rwcore::HandleError>(())
/// ```
pub struct AfRwLock<T> {
    raw: RawAfLock,
    /// One claim flag per reader id, then one per writer id.
    claims: Vec<AtomicBool>,
    data: UnsafeCell<T>,
}

// SAFETY: the lock protocol guarantees readers only hold `&T` while no
// writer holds `&mut T` (Mutual Exclusion, Theorem 18).
unsafe impl<T: Send> Send for AfRwLock<T> {}
unsafe impl<T: Send + Sync> Sync for AfRwLock<T> {}

/// Error returned when claiming a handle fails.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum HandleError {
    /// The process id is outside the configured range.
    OutOfRange {
        /// The requested id.
        id: usize,
        /// The number of configured processes of that role.
        limit: usize,
    },
    /// The process id already has a live handle.
    AlreadyClaimed {
        /// The requested id.
        id: usize,
    },
}

impl fmt::Display for HandleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandleError::OutOfRange { id, limit } => {
                write!(f, "process id {id} out of range (limit {limit})")
            }
            HandleError::AlreadyClaimed { id } => {
                write!(f, "process id {id} already has a live handle")
            }
        }
    }
}

impl std::error::Error for HandleError {}

impl<T> AfRwLock<T> {
    /// Create a lock protecting `value`.
    ///
    /// # Panics
    /// Panics if the configuration has zero readers or writers.
    pub fn new(cfg: AfConfig, value: T) -> Self {
        let raw = RawAfLock::new(cfg);
        let claims = (0..cfg.readers + cfg.writers)
            .map(|_| AtomicBool::new(false))
            .collect();
        AfRwLock {
            raw,
            claims,
            data: UnsafeCell::new(value),
        }
    }

    /// The lock's configuration.
    pub fn config(&self) -> &AfConfig {
        self.raw.config()
    }

    /// The underlying raw lock (for benchmarking entry/exit sections
    /// directly).
    pub fn raw(&self) -> &RawAfLock {
        &self.raw
    }

    fn claim(&self, slot: usize, id: usize) -> Result<(), HandleError> {
        if self.claims[slot].swap(true, Ordering::SeqCst) {
            Err(HandleError::AlreadyClaimed { id })
        } else {
            Ok(())
        }
    }

    /// Claim the reader handle for reader process `id`.
    ///
    /// # Errors
    /// Fails if `id ≥ n` or the handle is already claimed. Dropping the
    /// handle releases the claim.
    pub fn reader(&self, id: usize) -> Result<ReaderHandle<'_, T>, HandleError> {
        let n = self.config().readers;
        if id >= n {
            return Err(HandleError::OutOfRange { id, limit: n });
        }
        self.claim(id, id)?;
        Ok(ReaderHandle { lock: self, id })
    }

    /// Claim the writer handle for writer process `id`.
    ///
    /// # Errors
    /// Fails if `id ≥ m` or the handle is already claimed. Dropping the
    /// handle releases the claim.
    pub fn writer(&self, id: usize) -> Result<WriterHandle<'_, T>, HandleError> {
        let m = self.config().writers;
        if id >= m {
            return Err(HandleError::OutOfRange { id, limit: m });
        }
        self.claim(self.config().readers + id, id)?;
        Ok(WriterHandle { lock: self, id })
    }

    /// Consume the lock and return the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for AfRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AfRwLock")
            .field("config", self.config())
            .field("data", &"<locked>")
            .finish()
    }
}

/// A claimed reader process id. `read` requires `&mut self`, so one handle
/// cannot start overlapping passages.
#[derive(Debug)]
pub struct ReaderHandle<'a, T> {
    lock: &'a AfRwLock<T>,
    id: usize,
}

impl<'a, T> ReaderHandle<'a, T> {
    /// Execute the reader entry section and return a shared guard.
    pub fn read(&mut self) -> ReadGuard<'_, T> {
        self.lock.raw.reader_lock(self.id);
        ReadGuard {
            lock: self.lock,
            id: self.id,
        }
    }

    /// Bounded acquisition: like [`ReaderHandle::read`], but withdraw and
    /// return `None` once `patience` runs out in the wait for the
    /// admission word (see [`RawAfLock::try_reader_lock`]). The
    /// withdrawal is not yet harmless: beside two other readers of its
    /// group it can let a writer into the CS with one of them (the
    /// withdrawal race, ROADMAP item 1).
    pub fn try_read(&mut self, patience: Patience) -> Option<ReadGuard<'_, T>> {
        self.lock
            .raw
            .try_reader_lock(self.id, patience)
            .then(|| ReadGuard {
                lock: self.lock,
                id: self.id,
            })
    }

    /// This handle's reader process id.
    pub fn id(&self) -> usize {
        self.id
    }
}

impl<'a, T> Drop for ReaderHandle<'a, T> {
    fn drop(&mut self) {
        self.lock.claims[self.id].store(false, Ordering::SeqCst);
    }
}

/// A claimed writer process id.
#[derive(Debug)]
pub struct WriterHandle<'a, T> {
    lock: &'a AfRwLock<T>,
    id: usize,
}

impl<'a, T> WriterHandle<'a, T> {
    /// Execute the writer entry section and return an exclusive guard.
    pub fn write(&mut self) -> WriteGuard<'_, T> {
        self.lock.raw.writer_lock(self.id);
        WriteGuard {
            lock: self.lock,
            id: self.id,
        }
    }

    /// Bounded acquisition: like [`WriterHandle::write`], but each wait
    /// loop spends its own copy of `patience`, and the attempt withdraws
    /// and returns `None` when one runs out (see
    /// [`RawAfLock::try_writer_lock`]).
    pub fn try_write(&mut self, patience: Patience) -> Option<WriteGuard<'_, T>> {
        self.lock
            .raw
            .try_writer_lock(self.id, patience)
            .then(|| WriteGuard {
                lock: self.lock,
                id: self.id,
            })
    }

    /// This handle's writer process id.
    pub fn id(&self) -> usize {
        self.id
    }
}

impl<'a, T> Drop for WriterHandle<'a, T> {
    fn drop(&mut self) {
        let slot = self.lock.config().readers + self.id;
        self.lock.claims[slot].store(false, Ordering::SeqCst);
    }
}

/// Shared access to the protected value; releases the reader passage on
/// drop (Bounded Exit: the exit section never blocks).
#[derive(Debug)]
pub struct ReadGuard<'a, T> {
    lock: &'a AfRwLock<T>,
    id: usize,
}

impl<'a, T> Deref for ReadGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: no writer can be in the CS while a reader holds a guard.
        unsafe { &*self.lock.data.get() }
    }
}

impl<'a, T> Drop for ReadGuard<'a, T> {
    fn drop(&mut self) {
        self.lock.raw.reader_unlock(self.id);
    }
}

/// Exclusive access to the protected value; releases the writer passage on
/// drop.
#[derive(Debug)]
pub struct WriteGuard<'a, T> {
    lock: &'a AfRwLock<T>,
    id: usize,
}

impl<'a, T> Deref for WriteGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the writer is alone in the CS.
        unsafe { &*self.lock.data.get() }
    }
}

impl<'a, T> DerefMut for WriteGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the writer is alone in the CS.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<'a, T> Drop for WriteGuard<'a, T> {
    fn drop(&mut self) {
        self.lock.raw.writer_unlock(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FPolicy;

    #[test]
    fn guarded_reads_and_writes() {
        let lock = AfRwLock::new(AfConfig::new(2, 1), vec![1, 2, 3]);
        {
            let mut w = lock.writer(0).unwrap();
            w.write().push(4);
        }
        let mut r = lock.reader(0).unwrap();
        assert_eq!(r.read().len(), 4);
    }

    #[test]
    fn handle_claims_are_exclusive_until_drop() {
        let lock = AfRwLock::new(AfConfig::new(2, 1), ());
        let h = lock.reader(0).unwrap();
        assert_eq!(
            lock.reader(0).unwrap_err(),
            HandleError::AlreadyClaimed { id: 0 }
        );
        drop(h);
        lock.reader(0).unwrap();
    }

    #[test]
    fn out_of_range_ids_are_rejected() {
        let lock = AfRwLock::new(AfConfig::new(2, 1), ());
        assert_eq!(
            lock.reader(2).unwrap_err(),
            HandleError::OutOfRange { id: 2, limit: 2 }
        );
        assert_eq!(
            lock.writer(1).unwrap_err(),
            HandleError::OutOfRange { id: 1, limit: 1 }
        );
    }

    #[test]
    fn reader_and_writer_ids_claim_independently() {
        let lock = AfRwLock::new(AfConfig::new(2, 2), ());
        let _r0 = lock.reader(0).unwrap();
        let _w0 = lock.writer(0).unwrap(); // same numeric id, different role
        let _r1 = lock.reader(1).unwrap();
        let _w1 = lock.writer(1).unwrap();
    }

    #[test]
    fn concurrent_threads_via_scoped_handles() {
        let cfg = AfConfig {
            readers: 4,
            writers: 2,
            policy: FPolicy::SqrtN,
        };
        let lock = AfRwLock::new(cfg, 0u64);
        std::thread::scope(|s| {
            for w in 0..2 {
                let lock = &lock;
                s.spawn(move || {
                    let mut h = lock.writer(w).unwrap();
                    for _ in 0..200 {
                        *h.write() += 1;
                    }
                });
            }
            for r in 0..4 {
                let lock = &lock;
                s.spawn(move || {
                    let mut h = lock.reader(r).unwrap();
                    let mut last = 0;
                    for _ in 0..200 {
                        let v = *h.read();
                        assert!(v >= last, "counter went backwards");
                        last = v;
                    }
                });
            }
        });
        assert_eq!(lock.into_inner(), 400);
    }

    #[test]
    fn try_read_and_try_write_uncontended() {
        let lock = AfRwLock::new(AfConfig::new(2, 1), 7u64);
        let mut w = lock.writer(0).unwrap();
        {
            let mut g = w
                .try_write(Patience::Spins(1_000))
                .expect("uncontended try_write");
            *g += 1;
        }
        let mut r = lock.reader(0).unwrap();
        assert_eq!(
            *r.try_read(Patience::Spins(1_000))
                .expect("uncontended try_read"),
            8
        );
    }

    #[test]
    fn try_write_times_out_while_a_reader_holds() {
        let lock = AfRwLock::new(AfConfig::new(2, 1), ());
        let mut r = lock.reader(0).unwrap();
        let g = r.read();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = lock.writer(0).unwrap();
                assert!(
                    w.try_write(Patience::Spins(200)).is_none(),
                    "reader in CS: must time out"
                );
                assert!(
                    w.try_write(Patience::Until(std::time::Instant::now()))
                        .is_none(),
                    "expired deadline: must give up"
                );
            });
        });
        drop(g);
        // The withdrawals left no residue: a normal write still succeeds.
        let mut w = lock.writer(0).unwrap();
        drop(w.write());
    }

    #[test]
    fn try_read_times_out_while_a_writer_holds() {
        let lock = AfRwLock::new(AfConfig::new(2, 1), ());
        let mut w = lock.writer(0).unwrap();
        let g = w.write();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut r = lock.reader(0).unwrap();
                assert!(
                    r.try_read(Patience::Spins(200)).is_none(),
                    "writer in CS: must time out"
                );
            });
        });
        drop(g);
        let mut r = lock.reader(0).unwrap();
        drop(r.read());
    }

    #[test]
    fn deadline_read_succeeds_once_the_writer_leaves() {
        let lock = AfRwLock::new(AfConfig::new(2, 1), ());
        let mut w = lock.writer(0).unwrap();
        let g = w.write();
        std::thread::scope(|s| {
            let t = s.spawn(|| {
                let mut r = lock.reader(0).unwrap();
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
                assert!(r.try_read(Patience::Until(deadline)).is_some());
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(g);
            t.join().unwrap();
        });
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut lock = AfRwLock::new(AfConfig::new(1, 1), 5);
        *lock.get_mut() += 1;
        assert_eq!(lock.into_inner(), 6);
    }

    #[test]
    fn error_display() {
        assert!(HandleError::AlreadyClaimed { id: 3 }
            .to_string()
            .contains("3"));
        assert!(HandleError::OutOfRange { id: 9, limit: 4 }
            .to_string()
            .contains("limit 4"));
    }
}
