//! The busy-forbidden protocol: a reader-writer lock with per-thread
//! cloned handles and `O(1)` uncontended reads.
//!
//! Modeled on Groote–Laveaux–van Spaendonck, *"The Busy-Forbidden
//! Protocol"* (arXiv:2111.02706): each reader owns a private,
//! cache-padded pair of flags, `busy` (written by the reader) and
//! `forbidden` (written by writers). A reader enters by raising `busy`
//! and checking that `forbidden` is down; a writer excludes readers by
//! raising every `forbidden` flag and waiting for every `busy` flag to
//! drop. The uncontended read path is one store and one load on a cache
//! line nobody else writes — the competitive bar [`crate::af::sharded`]
//! aims at from within a tree-counter design.
//!
//! Correctness hinges on a per-slot Dekker-style store-load handshake
//! under `SeqCst`:
//!
//! * reader: `busy := 1`, then load `forbidden`;
//! * writer: `forbidden := 1`, then load `busy`.
//!
//! In any sequentially consistent execution of the two handshakes at
//! least one side observes the other's raised flag — it is impossible
//! for the reader to read `forbidden == 0` *and* the writer to read
//! `busy == 0` — so either the reader backs off or the writer waits.
//! (Both fences are load-bearing; with acquire/release alone both loads
//! may see the pre-handshake zeros.) Writers serialize on a tournament
//! mutex, so one `forbidden` writer per slot at a time.
//!
//! Trade-offs relative to the `A_f` family: reader entry is not
//! starvation-free (a stream of writers can hold `forbidden` up
//! forever), writer entry costs `Θ(n)` RMRs (one handshake per reader
//! slot), and the lock needs a slot per reader — the protocol buys its
//! `O(1)` reads with writer-side linear work, a point *outside* the
//! paper's `f(n)` frontier but squarely on its trade-off axis.

use std::sync::atomic::{AtomicU64, Ordering};
use wmutex::{wait_until, IdMutex, Patience, TournamentLock};

/// One reader's private flag pair, padded to its own cache line(s).
#[repr(align(128))]
#[derive(Debug)]
struct Control {
    /// Raised by the owning reader while it wants or holds the CS.
    busy: AtomicU64,
    /// Raised by a writer to forbid the owning reader from entering.
    forbidden: AtomicU64,
}

/// The busy-forbidden reader-writer lock (see the module docs).
///
/// Reader ids `0..readers` act through their private slot — the usual
/// one-thread-per-id contract. Writer ids `0..writers` serialize on an
/// internal tournament mutex.
#[derive(Debug)]
pub struct BusyForbiddenLock {
    controls: Vec<Control>,
    wl: TournamentLock,
}

impl BusyForbiddenLock {
    /// A lock for `n` readers and `m` writers.
    ///
    /// # Panics
    /// Panics if `readers` or `writers` is zero.
    pub fn new(readers: usize, writers: usize) -> Self {
        assert!(readers > 0, "need at least one reader");
        assert!(writers > 0, "need at least one writer");
        BusyForbiddenLock {
            controls: (0..readers)
                .map(|_| Control {
                    busy: AtomicU64::new(0),
                    forbidden: AtomicU64::new(0),
                })
                .collect(),
            wl: TournamentLock::new(writers),
        }
    }

    /// Number of reader slots.
    pub fn readers(&self) -> usize {
        self.controls.len()
    }
}

impl crate::baselines::real::RawRwLock for BusyForbiddenLock {
    fn reader_lock(&self, id: usize) {
        let c = &self.controls[id];
        loop {
            // Dekker handshake, reader side: raise busy, then check
            // forbidden. SeqCst keeps the store globally ordered before
            // the load.
            c.busy.store(1, Ordering::SeqCst);
            if c.forbidden.load(Ordering::SeqCst) == 0 {
                return;
            }
            // A writer won the handshake: back out so it can proceed,
            // and wait for it to lower the flag.
            c.busy.store(0, Ordering::SeqCst);
            wait_until(Patience::Forever, || {
                c.forbidden.load(Ordering::SeqCst) == 0
            });
        }
    }

    fn reader_unlock(&self, id: usize) {
        self.controls[id].busy.store(0, Ordering::SeqCst);
    }

    fn writer_lock(&self, id: usize) {
        self.wl.lock(id);
        // Dekker handshake, writer side, fanned out over every slot:
        // raise all forbidden flags first, then await all busy flags.
        for c in &self.controls {
            c.forbidden.store(1, Ordering::SeqCst);
        }
        for c in &self.controls {
            wait_until(Patience::Forever, || c.busy.load(Ordering::SeqCst) == 0);
        }
    }

    fn writer_unlock(&self, id: usize) {
        for c in &self.controls {
            c.forbidden.store(0, Ordering::SeqCst);
        }
        self.wl.unlock(id);
    }

    fn name(&self) -> &'static str {
        "busy-forbidden"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::real::RawRwLock;

    #[test]
    fn uncontended_passages() {
        let lock = BusyForbiddenLock::new(2, 1);
        lock.reader_lock(0);
        lock.reader_unlock(0);
        lock.writer_lock(0);
        lock.writer_unlock(0);
    }

    #[test]
    fn readers_are_concurrent() {
        // All readers in the CS at once: no writer, so nothing forbids.
        let lock = BusyForbiddenLock::new(3, 1);
        for r in 0..3 {
            lock.reader_lock(r);
        }
        for r in 0..3 {
            lock.reader_unlock(r);
        }
    }

    #[test]
    #[should_panic(expected = "at least one reader")]
    fn zero_readers_rejected() {
        BusyForbiddenLock::new(0, 1);
    }
}
