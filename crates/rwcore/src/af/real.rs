//! The real-atomics `A_f` reader-writer lock (Algorithm 1 of the paper).
//!
//! Line numbers in comments refer to the paper's pseudo-code. Readers are
//! statically partitioned into `f(n)` groups; each group consolidates its
//! in-passage count (`C[i]`) and waiting count (`W[i]`) in f-array
//! counters; writers serialize on the tournament mutex `WL` and handshake
//! with readers through the `(seq, opcode)` signal words `RSIG` and
//! `WSIG[i]`.

use crate::config::{AfConfig, GroupSlot};
use crate::sig::{Opcode, Signal};
use fcounter::FArray;
use std::sync::atomic::{AtomicU64, Ordering};
use wmutex::{IdMutex, Patience, TournamentLock};

/// The raw (data-less) `A_f` lock: entry/exit sections for registered
/// reader and writer process ids.
///
/// Per Theorem 18 the lock guarantees Mutual Exclusion, Bounded Exit,
/// Deadlock Freedom, Concurrent Entering and freedom from reader
/// starvation, with writer passages in `Θ(f(n))` RMRs and reader passages
/// in `Θ(log(n/f(n)))` RMRs (CC model).
///
/// # Memory orderings
/// Every reader-side access and every f-array access is SeqCst. On the
/// writer side only the two Dekker stores to `RSIG` (lines 11 and 18)
/// and the `WL` tournament's entry are SeqCst; the `WSIG[i]` and `WSEQ`
/// stores are Relaxed and the exit store to `RSIG` (line 26) is Release.
/// An uncontended writer passage therefore makes `2·⌈log2 m⌉ + 2`
/// full-fence stores whatever `f(n)` is. DESIGN.md, "Memory orderings of
/// the real writer passage", gives the argument for each weaker access.
///
/// # Contract
/// Each reader id in `0..cfg.readers` and writer id in `0..cfg.writers`
/// must be used by at most one thread at a time, and lock/unlock calls
/// must be properly paired. The typed [`crate::AfRwLock`] wrapper enforces
/// this with handles and guards.
///
/// A slot's passage *may* be handed between threads mid-flight — thread A
/// calls `reader_lock(i)` and thread B later calls `reader_unlock(i)` —
/// provided the handoff is synchronized (a happens-before edge from A's
/// return to B's call, and exclusion of any other use of slot `i` in
/// between). This works because the real lock, unlike the simulated one,
/// keeps no thread-local per-slot state: the f-array `add` reads its leaf
/// back from shared memory, so the exit path is position-independent.
/// [`crate::ShardedAfRwLock`] relies on this: its batch leader locks a
/// shard's slot 0 and the last batch member out unlocks it, with the
/// shard's gate word providing the synchronization.
#[derive(Debug)]
pub struct RawAfLock {
    cfg: AfConfig,
    /// Non-empty reader groups (`g ≤ f(n)`, see [`AfConfig::occupied_groups`]).
    groups: usize,
    /// Reader `r`'s group and leaf, [`AfConfig::group_of`] computed once
    /// per reader so that a passage does no division.
    slots: Box<[GroupSlot]>,
    /// `C[i]`: readers of group i currently inside a passage (line 1).
    c: Vec<FArray>,
    /// `W[i]`: readers of group i waiting to be signalled (line 1).
    w: Vec<FArray>,
    /// `WL`: the m-process writer mutex (line 2).
    wl: TournamentLock,
    /// `WSEQ`: the writer-passage sequence number (line 3).
    wseq: AtomicU64,
    /// `WSIG[i]`: group-i readers → writer signal word (line 4).
    wsig: Vec<AtomicU64>,
    /// `RSIG`: writer → readers signal word (line 4).
    rsig: AtomicU64,
}

impl RawAfLock {
    /// Build a lock for the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration has zero readers or writers.
    pub fn new(cfg: AfConfig) -> Self {
        cfg.validate();
        let groups = cfg.occupied_groups();
        RawAfLock {
            cfg,
            groups,
            slots: (0..cfg.readers).map(|r| cfg.group_of(r)).collect(),
            c: (0..groups)
                .map(|g| FArray::new(cfg.group_population(g)))
                .collect(),
            w: (0..groups)
                .map(|g| FArray::new(cfg.group_population(g)))
                .collect(),
            wl: TournamentLock::new(cfg.writers),
            wseq: AtomicU64::new(0),
            wsig: (0..groups)
                .map(|_| AtomicU64::new(Signal::new(0, Opcode::Bot).pack()))
                .collect(),
            rsig: AtomicU64::new(Signal::new(0, Opcode::Nop).pack()),
        }
    }

    /// The lock's configuration.
    pub fn config(&self) -> &AfConfig {
        &self.cfg
    }

    /// Number of non-empty reader groups actually maintained.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Reader `reader_id`'s group and leaf: one table load.
    ///
    /// # Panics
    /// Panics if `reader_id` is out of range.
    #[inline]
    fn slot(&self, reader_id: usize) -> GroupSlot {
        match self.slots.get(reader_id) {
            Some(&slot) => slot,
            None => panic!(
                "reader id {reader_id} out of range (n = {})",
                self.cfg.readers
            ),
        }
    }

    fn rsig(&self) -> Signal {
        Signal::unpack(self.rsig.load(Ordering::SeqCst))
    }

    fn wsig(&self, i: usize) -> Signal {
        Signal::unpack(self.wsig[i].load(Ordering::SeqCst))
    }

    /// `HelpWCS(seq)` for group `i` (lines 50–54): if every in-passage
    /// group-i reader is waiting, signal the writer it may enter the CS.
    ///
    /// **Reproduction note.** The paper's line 51 reads `C[i]` and then
    /// `W[i]`. Our model checker found a 71-step execution (n = 3, f = 1)
    /// in which the two non-atomic reads return equal values that were
    /// never simultaneously true — a reader's `C` increment lands between
    /// them — letting the writer enter the CS alongside a reader. Reading
    /// `W[i]` *first* is sound: while `WSIG[i] = <seq, WAIT>` no reader
    /// decrements `W[i]` (decrements happen only after the writer's exit
    /// changes `RSIG`), so `W` is non-decreasing across the two reads, and
    /// `C ≥ W` holds at every instant (each reader increments `C` before
    /// `W`); hence `w(t1) = c(t2)` forces `C(t2) = W(t2)` — a true
    /// instant at which every in-passage group-i reader is waiting. See
    /// DESIGN.md, "Reproduction findings".
    fn help_wcs(&self, seq: u64, i: usize) {
        let waiting = self.w[i].read();
        if self.c[i].read() == waiting {
            // Line 52: exactly one such CAS can succeed for this passage.
            let _ = self.wsig[i].compare_exchange(
                Signal::new(seq, Opcode::Wait).pack(),
                Signal::new(seq, Opcode::Cs).pack(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
    }

    /// Reader entry section (lines 31–38), blocking: [`Self::try_reader_lock`]
    /// with [`Patience::Forever`].
    ///
    /// # Panics
    /// Panics if `reader_id` is out of range.
    pub fn reader_lock(&self, reader_id: usize) {
        let entered = self.try_reader_lock(reader_id, Patience::Forever);
        debug_assert!(entered, "Patience::Forever never runs out");
    }

    /// Reader entry section (lines 31–38) with a bounded line-36 wait:
    /// each failed re-read of `RSIG` spends `patience`. When it runs out
    /// the reader *withdraws*: it retracts its waiting count and runs the
    /// normal exit section (retracting `C[i]` and performing the
    /// exit-signal duties). Returns whether the lock was acquired; after
    /// `false`, do **not** call [`RawAfLock::reader_unlock`].
    ///
    /// **Known defect: the withdrawal race.** The retraction of `W[i]`
    /// while `RSIG` still says `WAIT` breaks the premise of `HelpWCS`'s
    /// `W`-then-`C` read order (DESIGN.md finding F1). With three readers
    /// of one group — a helper, a CS occupant and this withdrawer — the
    /// helper can read `W` before the withdrawal and `C` after it, see
    /// `C = W`, and admit the writer beside the occupant. A bounded
    /// attempt is therefore *not* indistinguishable from a passage that
    /// never reached the CS; see ROADMAP item 1 and the committed
    /// witnesses under `results/`.
    ///
    /// # Panics
    /// Panics if `reader_id` is out of range.
    #[inline]
    pub fn try_reader_lock(&self, reader_id: usize, mut patience: Patience) -> bool {
        let GroupSlot { group: i, leaf } = self.slot(reader_id);
        self.c[i].add(leaf, 1); // line 31
        let sig = self.rsig(); // line 32
        if sig.op == Opcode::Wait {
            // lines 33–38: a writer demands we wait for its passage `sig.seq`.
            self.w[i].add(leaf, 1); // line 34
            self.help_wcs(sig.seq, i); // line 35
            let wait_word = Signal::new(sig.seq, Opcode::Wait).pack();
            while self.rsig.load(Ordering::SeqCst) == wait_word {
                if !patience.spend() {
                    // Withdraw: W first (preserving the C ≥ W invariant),
                    // then the whole exit section — its helping duties
                    // make sure the writer we abandoned is not stranded.
                    self.w[i].add(leaf, -1);
                    self.reader_unlock(reader_id);
                    return false;
                }
                std::hint::spin_loop(); // line 36 (WSEQ never repeats: ≤2 RMRs)
            }
            self.w[i].add(leaf, -1); // line 37
        }
        true
    }

    /// Reader exit section (lines 40–49).
    ///
    /// # Panics
    /// Panics if `reader_id` is out of range.
    pub fn reader_unlock(&self, reader_id: usize) {
        let GroupSlot { group: i, leaf } = self.slot(reader_id);
        self.c[i].add(leaf, -1); // line 40
        let sig = self.rsig(); // line 41
        match sig.op {
            Opcode::Preentry
                // lines 42–46: a writer asked to be told when C[i] hits 0.
                if self.c[i].read() == 0 => {
                    let _ = self.wsig[i].compare_exchange(
                        Signal::new(sig.seq, Opcode::Bot).pack(),
                        Signal::new(sig.seq, Opcode::Proceed).pack(),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    ); // line 45
                }
            Opcode::Wait => self.help_wcs(sig.seq, i), // lines 47–48
            _ => {}
        }
    }

    /// Writer entry section (lines 6–23), blocking: [`Self::try_writer_lock`]
    /// with [`Patience::Forever`].
    ///
    /// # Panics
    /// Panics if `writer_id` is out of range.
    pub fn writer_lock(&self, writer_id: usize) {
        let entered = self.try_writer_lock(writer_id, Patience::Forever);
        debug_assert!(entered, "Patience::Forever never runs out");
    }

    /// Writer entry section (lines 6–23) with bounded waits: each wait
    /// loop (the `WL` tournament nodes and the two per-group signal
    /// waits) spends its own copy of `patience`. When one runs out the
    /// writer withdraws; if it had already armed this passage's signals,
    /// the withdrawal runs the normal exit section — burning the
    /// abandoned epoch, since readers may already be parked on (or armed
    /// to help) its sequence number — before releasing `WL`. Returns
    /// whether the lock was acquired; after `false`, do **not** call
    /// [`RawAfLock::writer_unlock`].
    ///
    /// # Panics
    /// Panics if `writer_id` is out of range.
    #[inline]
    pub fn try_writer_lock(&self, writer_id: usize, patience: Patience) -> bool {
        if !self.wl.try_lock(writer_id, patience) {
            return false; // line 6 timed out: no signal state touched yet
        }
        // Relaxed: only the `WL` holder touches `WSEQ`, and `WL`'s handoff
        // orders the previous holder's line-25 store before this load.
        let seq = self.wseq.load(Ordering::Relaxed);
        // Lines 7–9: arm WSIG[i] for this passage. Relaxed: a reader CASes
        // WSIG[i] only with a `seq` it read from the line-11 store below,
        // which publishes these stores.
        for i in 0..self.groups {
            self.wsig[i].store(Signal::new(seq, Opcode::Bot).pack(), Ordering::Relaxed);
        }
        // Line 11: ask exiting readers to report empty groups. SeqCst: a
        // Dekker store, ordered before the line-14 `C[i]` reads.
        self.rsig
            .store(Signal::new(seq, Opcode::Preentry).pack(), Ordering::SeqCst);
        // Lines 12–17: verify no readers are still waiting on a previous
        // passage, group by group.
        for i in 0..self.groups {
            // line 14
            if !self.await_group(writer_id, i, Signal::new(seq, Opcode::Proceed), patience) {
                return false;
            }
            // Line 16. Relaxed, like lines 7–9: the line-18 store publishes it.
            self.wsig[i].store(Signal::new(seq, Opcode::Wait).pack(), Ordering::Relaxed);
        }
        // Line 18: from now on, arriving readers wait for us. SeqCst: a
        // Dekker store, ordered before the line-21 `C[i]` reads.
        self.rsig
            .store(Signal::new(seq, Opcode::Wait).pack(), Ordering::SeqCst);
        // Lines 19–23: wait for in-flight readers to clear the CS.
        (0..self.groups)
            .all(|i| self.await_group(writer_id, i, Signal::new(seq, Opcode::Cs), patience))
    }

    /// Lines 14 and 21: if group `i` has readers in a passage, wait until
    /// `WSIG[i]` reads `until`. When `patience` runs out, burn the epoch
    /// through the exit section and return `false`. Always inlined, so
    /// the blocking `writer_lock` keeps the call-free body its two inline
    /// wait loops had, with `Patience::Forever` folded away.
    #[inline(always)]
    fn await_group(
        &self,
        writer_id: usize,
        i: usize,
        until: Signal,
        mut patience: Patience,
    ) -> bool {
        if self.c[i].read() > 0 {
            while self.wsig(i) != until {
                if !patience.spend() {
                    self.writer_unlock(writer_id); // burn the epoch
                    return false;
                }
                std::hint::spin_loop();
            }
        }
        true
    }

    /// Writer exit section (lines 25–27).
    ///
    /// # Panics
    /// Panics if `writer_id` is out of range.
    pub fn writer_unlock(&self, writer_id: usize) {
        // Line 25. Relaxed, as in the entry section: `WL` orders `WSEQ`.
        let seq = self.wseq.load(Ordering::Relaxed);
        self.wseq.store(seq + 1, Ordering::Relaxed);
        // Line 26: release waiting readers and reset for the next passage.
        // Release: parked readers acquire it. A reader load that returns
        // it is coherence-ordered before the next writer's SeqCst line-11
        // and line-18 stores, so it still precedes them in the SC order.
        self.rsig
            .store(Signal::new(seq + 1, Opcode::Nop).pack(), Ordering::Release);
        self.wl.unlock(writer_id); // line 27
    }
}

/// Read-only probes of the shared words, for tests in this crate.
#[cfg(test)]
impl RawAfLock {
    /// `WSEQ`: the number of writer epochs ended so far, burnt ones included.
    pub(crate) fn wseq(&self) -> u64 {
        self.wseq.load(Ordering::SeqCst)
    }

    /// `(C[i], W[i])` for group `i`.
    pub(crate) fn group_counts(&self, i: usize) -> (i64, i64) {
        (self.c[i].read(), self.w[i].read())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FPolicy;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn uncontended_reader_passage() {
        let lock = RawAfLock::new(AfConfig::new(4, 1));
        for _ in 0..100 {
            lock.reader_lock(2);
            lock.reader_unlock(2);
        }
    }

    #[test]
    fn uncontended_writer_passage() {
        let lock = RawAfLock::new(AfConfig::new(4, 2));
        for _ in 0..100 {
            lock.writer_lock(1);
            lock.writer_unlock(1);
        }
    }

    #[test]
    fn readers_overlap_in_cs() {
        // Two readers hold the lock simultaneously: acquire both before
        // releasing either. Deadlock here would hang the test (harness
        // timeout) — Concurrent Entering says this must complete.
        let lock = RawAfLock::new(AfConfig::new(2, 1));
        lock.reader_lock(0);
        lock.reader_lock(1);
        lock.reader_unlock(1);
        lock.reader_unlock(0);
    }

    #[test]
    fn writer_waits_for_reader() {
        let lock = Arc::new(RawAfLock::new(AfConfig::new(2, 1)));
        lock.reader_lock(0);
        let l2 = Arc::clone(&lock);
        let waited = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let w2 = Arc::clone(&waited);
        let t = std::thread::spawn(move || {
            l2.writer_lock(0);
            assert!(
                w2.load(Ordering::SeqCst),
                "writer entered before reader left"
            );
            l2.writer_unlock(0);
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        waited.store(true, Ordering::SeqCst);
        lock.reader_unlock(0);
        t.join().unwrap();
    }

    #[test]
    fn reader_waits_for_writer() {
        let lock = Arc::new(RawAfLock::new(AfConfig::new(2, 1)));
        lock.writer_lock(0);
        let l2 = Arc::clone(&lock);
        let released = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let r2 = Arc::clone(&released);
        let t = std::thread::spawn(move || {
            l2.reader_lock(1);
            assert!(
                r2.load(Ordering::SeqCst),
                "reader entered before writer left"
            );
            l2.reader_unlock(1);
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        released.store(true, Ordering::SeqCst);
        lock.writer_unlock(0);
        t.join().unwrap();
    }

    /// A deadline wait against a reader in the CS burns the writer's
    /// epoch once — one withdrawal, not one per retry — and leaves
    /// nothing that blocks a writer once the reader leaves.
    #[test]
    fn deadline_writer_burns_exactly_one_epoch() {
        let lock = RawAfLock::new(AfConfig::new(2, 1));
        lock.reader_lock(0);
        let before = lock.wseq();
        let deadline = Instant::now() + Duration::from_millis(5);
        assert!(
            !lock.try_writer_lock(0, Patience::Until(deadline)),
            "reader in CS: must time out"
        );
        assert!(Instant::now() >= deadline, "gave up before the deadline");
        assert_eq!(lock.wseq(), before + 1, "one timed-out attempt, one epoch");
        lock.reader_unlock(0);
        lock.writer_lock(0);
        lock.writer_unlock(0);
        assert_eq!(lock.wseq(), before + 2);
    }

    /// `WSEQ` counts every writer passage while `WL` passes among three
    /// writers and two readers run beside them. Its load and store are
    /// Relaxed and rely on `WL`'s handoff alone: a writer that read a
    /// stale `WSEQ` would reuse a sequence number and lose an increment.
    /// The five threads oversubscribe a small host, and the readers yield
    /// after every passage, so writers are often preempted at arbitrary
    /// points: a line-25 store moved after the `WL` release then loses
    /// increments within one run.
    #[test]
    fn wseq_counts_every_passage_across_wl_handoffs() {
        const WRITERS: usize = 3;
        let lock = RawAfLock::new(AfConfig::new(2, WRITERS));
        let writers_done = std::sync::atomic::AtomicUsize::new(0);
        let spin = |rng: &mut ccsim::Prng| {
            for _ in 0..rng.below(16) {
                std::hint::spin_loop();
            }
        };
        let passages: usize = std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (lock, writers_done) = (&lock, &writers_done);
                    s.spawn(move || {
                        let mut rng = ccsim::Prng::new(0x5E9_0000 + w as u64);
                        let passes = 300_000 + rng.below(1_000);
                        for _ in 0..passes {
                            lock.writer_lock(w);
                            lock.writer_unlock(w);
                            spin(&mut rng);
                        }
                        writers_done.fetch_add(1, Ordering::SeqCst);
                        passes
                    })
                })
                .collect();
            for r in 0..2 {
                let (lock, writers_done) = (&lock, &writers_done);
                s.spawn(move || {
                    let mut rng = ccsim::Prng::new(0x5E9_0100 + r as u64);
                    while writers_done.load(Ordering::SeqCst) < WRITERS {
                        lock.reader_lock(r);
                        lock.reader_unlock(r);
                        spin(&mut rng);
                        std::thread::yield_now();
                    }
                });
            }
            writers.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(lock.wseq(), passages as u64, "one epoch per passage");
    }

    /// The slot table is `group_of`, and readers that share a group never
    /// share a leaf.
    #[test]
    fn slot_table_matches_group_of() {
        let policies = FPolicy::NAMED.into_iter().chain([FPolicy::Groups(3)]);
        for policy in policies {
            for n in 1..=64 {
                let cfg = AfConfig::new(n, 1).with_policy(policy);
                let lock = RawAfLock::new(cfg);
                let mut leaves: Vec<Vec<usize>> = vec![Vec::new(); lock.groups()];
                for r in 0..n {
                    let slot = lock.slot(r);
                    assert_eq!(slot, cfg.group_of(r), "{policy} n={n} r={r}");
                    leaves[slot.group].push(slot.leaf);
                }
                for (g, group) in leaves.iter_mut().enumerate() {
                    let population = group.len();
                    group.sort_unstable();
                    group.dedup();
                    assert_eq!(group.len(), population, "{policy} n={n} group {g}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_reader_id_panics() {
        RawAfLock::new(AfConfig::new(2, 1)).reader_lock(2);
    }
}
