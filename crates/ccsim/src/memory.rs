//! Sequentially-consistent shared memory with exact RMR accounting.

use crate::cache::{Mode, Protocol};
use crate::directory::Directory;
use crate::fxhash::{mix64, FxHasher};
use crate::layout::Layout;
use crate::op::Op;
use crate::value::{ProcId, Value, VarId};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Salt for per-variable Zobrist signatures, so a variable-slot signature
/// can never collide with a process-slot signature built in `sim.rs`.
const VAR_SALT: u64 = 0x5eed_0000_0000_0001;

/// The Zobrist signature of "variable `v` currently holds `val`": a
/// full-avalanche hash of the (slot, value) pair. The memory's value
/// fingerprint is the XOR of one signature per variable, so changing one
/// variable updates the fingerprint in O(1): XOR out the old signature,
/// XOR in the new one.
#[inline]
pub(crate) fn slot_sig(v: usize, val: &Value) -> u64 {
    let mut h = FxHasher::with_seed(VAR_SALT ^ mix64(v as u64));
    val.hash(&mut h);
    h.finish()
}

/// The value half of [`Memory::apply`]: applied to a variable holding
/// `old`, `op` returns the first value to its process and leaves the
/// second in the variable. A read returns `old` and leaves it; a write
/// returns [`Value::Nil`]; a CAS returns `old` and installs its new value
/// only if `old` equals its expected one; an FAA returns `old` and adds.
/// Pure, so [`crate::Sim::step_effect`] predicts a step's values with
/// the very semantics `apply` executes.
///
/// # Panics
/// Panics if an FAA meets a non-integer value.
#[inline]
pub(crate) fn op_values(op: &Op, old: Value) -> (Value, Value) {
    match *op {
        Op::Read(_) => (old, old),
        Op::Write(_, val) => (Value::Nil, val),
        Op::Cas { expected, new, .. } => {
            if old == expected {
                (old, new)
            } else {
                (old, old)
            }
        }
        Op::Faa { delta, .. } => (old, Value::Int(old.expect_int() + delta)),
    }
}

/// The result of applying one shared-memory operation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct StepOutcome {
    /// The value returned to the process: the read value for reads, the
    /// prior value for CAS, [`Value::Nil`] for writes.
    pub response: Value,
    /// Whether the step incurred a remote memory reference under the
    /// configured coherence protocol.
    pub rmr: bool,
    /// Whether the step was *trivial* (did not change the value of the
    /// variable it accessed, §2). Failed CAS steps and writes of the
    /// current value are trivial.
    pub trivial: bool,
    /// The variable's value before the step.
    pub old: Value,
    /// The variable's value after the step.
    pub new: Value,
}

/// Simulated shared memory: authoritative variable values plus a flat
/// per-variable coherence directory, implementing the write-through
/// or write-back CC protocol as quoted in §2 of the paper.
///
/// The memory is sequentially consistent: steps are applied one at a time in
/// the order the scheduler chooses, and reads always return the latest
/// written value. RMRs are charged per the protocol rules:
///
/// * **Write-through** — a read hits iff the process holds a valid copy
///   (else RMR + install copy); a write always RMRs, invalidates all other
///   copies, and leaves the writer with a valid copy.
/// * **Write-back** — a read hits iff the process holds a copy in either
///   mode (else RMR, downgrading any Exclusive holder to Shared); a write
///   hits iff the process holds the line Exclusive (else RMR, invalidating
///   all other copies and installing Exclusive).
///
/// A CAS is treated as a *write* by the coherence protocol regardless of
/// whether it succeeds (real hardware issues a read-for-ownership), and as
/// both a reading and a writing step by the knowledge formalism.
///
/// Cache state is stored directory-style — per variable, a holders bitset
/// and an exclusive-owner slot — so `holds`/`holds_exclusive` queries are
/// O(1) bit tests and invalidating all other copies is an O(n_procs/64)
/// word-wise clear, never an O(n_procs) sweep over per-process maps. The
/// per-process view is still available through [`Memory::cache`]. The
/// pre-rewrite map-based core is preserved in [`crate::reference`] and a
/// randomized differential test asserts step-for-step equivalence.
#[derive(Debug)]
pub struct Memory {
    protocol: Protocol,
    values: Vec<Value>,
    dir: Directory,
    /// DSM home segments (unused by the CC protocols). Never written
    /// after construction, so every memory copied from this one shares
    /// the same slice.
    homes: Arc<[Option<usize>]>,
    /// Maintained XOR of [`slot_sig`] over all variables — the value part
    /// of the model checker's incremental configuration fingerprint,
    /// patched in O(1) by [`Memory::apply`] whenever a value changes.
    vals_fp: u64,
}

/// Manual `Clone` so that `clone_from` reuses the value and directory
/// buffers instead of allocating fresh ones (the home segments are
/// shared, not copied). [`crate::Sim::clone_world_into`] relies on it
/// when the model checker recycles a popped configuration.
impl Clone for Memory {
    fn clone(&self) -> Self {
        Memory {
            protocol: self.protocol,
            values: self.values.clone(),
            dir: self.dir.clone(),
            homes: Arc::clone(&self.homes),
            vals_fp: self.vals_fp,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.protocol = src.protocol;
        self.values.clone_from(&src.values);
        self.dir.clone_from(&src.dir);
        if !Arc::ptr_eq(&self.homes, &src.homes) {
            self.homes = Arc::clone(&src.homes);
        }
        self.vals_fp = src.vals_fp;
    }
}

impl Memory {
    /// Create a memory with the variables of `layout` (at their initial
    /// values) and `n_procs` cold caches.
    pub fn new(layout: &Layout, n_procs: usize, protocol: Protocol) -> Self {
        let values = layout.initial_values();
        let vals_fp = values
            .iter()
            .enumerate()
            .fold(0u64, |acc, (v, val)| acc ^ slot_sig(v, val));
        Memory {
            protocol,
            dir: Directory::new(values.len(), n_procs),
            values,
            homes: layout.home_assignments().into(),
            vals_fp,
        }
    }

    /// The coherence protocol in force.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Number of processes (caches).
    pub fn n_procs(&self) -> usize {
        self.dir.n_procs()
    }

    /// Number of shared variables.
    pub fn n_vars(&self) -> usize {
        self.values.len()
    }

    /// Inspect a variable's current value without simulating a step (no
    /// cache effects, no RMR). For harness assertions only.
    pub fn peek(&self, v: VarId) -> Value {
        self.values[v.0]
    }

    /// A read-only view of process `p`'s cache (for tests and metrics):
    /// which variables it holds, and in which mode.
    pub fn cache(&self, p: ProcId) -> CacheView<'_> {
        CacheView {
            dir: &self.dir,
            p: p.0,
        }
    }

    /// Number of processes currently holding a cached copy of `v` (always
    /// 0 under [`Protocol::Dsm`]). A popcount over the directory's holder
    /// bitset; useful for sharing metrics in experiments.
    pub fn holder_count(&self, v: VarId) -> usize {
        self.dir.holder_count(v.0)
    }

    /// Would `p` incur an RMR if it executed `op` now? Pure query used by
    /// adversarial schedulers; does not mutate anything.
    pub fn would_rmr(&self, p: ProcId, op: &Op) -> bool {
        let v = op.var().0;
        match (self.protocol, op) {
            (Protocol::WriteThrough, Op::Read(_)) => !self.dir.holds(p.0, v),
            // Write-through writes (and CAS, which needs ownership) always
            // go to main memory.
            (Protocol::WriteThrough, _) => true,
            (Protocol::WriteBack, Op::Read(_)) => !self.dir.holds(p.0, v),
            (Protocol::WriteBack, _) => !self.dir.holds_exclusive(p.0, v),
            // DSM: locality is static — an access is remote unless the
            // variable is homed at the accessing process.
            (Protocol::Dsm, _) => self.homes[v] != Some(p.0),
        }
    }

    /// Apply one operation by process `p`, updating values, the directory
    /// and returning the full outcome.
    ///
    /// # Panics
    /// Panics if `p` or the accessed variable is out of range.
    pub fn apply(&mut self, p: ProcId, op: &Op) -> StepOutcome {
        let v = op.var();
        assert!(p.0 < self.dir.n_procs(), "process {p} out of range");
        assert!(v.0 < self.values.len(), "variable {v} out of range");
        let old = self.values[v.0];
        let rmr = self.would_rmr(p, op);

        let (response, new) = op_values(op, old);
        self.values[v.0] = new;
        if old != new {
            self.vals_fp ^= slot_sig(v.0, &old) ^ slot_sig(v.0, &new);
        }

        // Coherence bookkeeping (no caches in the DSM model).
        if self.protocol == Protocol::Dsm {
            return StepOutcome {
                response,
                rmr,
                trivial: old == new,
                old,
                new,
            };
        }
        match (self.protocol, op.is_writing()) {
            (Protocol::WriteThrough, false) => {
                self.dir.set_shared(p.0, v.0);
            }
            (Protocol::WriteThrough, true) => {
                self.dir.invalidate_others(p.0, v.0);
                self.dir.set_shared(p.0, v.0);
            }
            (Protocol::WriteBack, false) => {
                if !self.dir.holds(p.0, v.0) {
                    // Miss: downgrade the exclusive holder (if any) to
                    // Shared — O(1), the directory just clears the owner
                    // slot — and install a Shared copy.
                    self.dir.downgrade_owner(v.0);
                    self.dir.set_shared(p.0, v.0);
                }
            }
            (Protocol::WriteBack, true) => {
                if !self.dir.holds_exclusive(p.0, v.0) {
                    self.dir.invalidate_others(p.0, v.0);
                }
                self.dir.set_exclusive(p.0, v.0);
            }
            (Protocol::Dsm, _) => unreachable!("handled by the early return above"),
        }

        StepOutcome {
            response,
            rmr,
            trivial: old == new,
            old,
            new,
        }
    }

    /// Process `p`'s cache was lost (a crash): drop every copy it holds
    /// from the coherence directory. Variable values — main memory — are
    /// untouched: under write-through memory is always current, and the
    /// simulator's write-back model keeps the authoritative value in
    /// `values` (an exclusive line only affects *future* RMR accounting),
    /// so losing a dirty line never loses a write that another process
    /// could already have observed.
    pub fn crash_invalidate(&mut self, p: ProcId) {
        assert!(p.0 < self.dir.n_procs(), "process {p} out of range");
        self.dir.purge_proc(p.0);
    }

    /// Hash the variable values (not cache state) into `h`. Used for
    /// model-checking fingerprints: cache state affects only RMR counts,
    /// never the values any step observes, so it is excluded from the
    /// explored state space.
    pub fn hash_values<H: Hasher>(&self, h: &mut H) {
        self.values.hash(h);
    }

    /// The maintained value fingerprint: XOR of a Zobrist signature per
    /// (variable, current value) pair. O(1) — [`Memory::apply`] keeps it
    /// current by patching the changed slot's signature. Crashes never
    /// touch it: [`Memory::crash_invalidate`] only purges the coherence
    /// directory, and cache state is deliberately outside the fingerprint.
    pub fn values_fingerprint(&self) -> u64 {
        self.vals_fp
    }

    /// Recompute [`Memory::values_fingerprint`] from scratch. Used as the
    /// debug-assert oracle for the maintained hash (and by tests).
    pub fn values_fingerprint_full(&self) -> u64 {
        self.values
            .iter()
            .enumerate()
            .fold(0u64, |acc, (v, val)| acc ^ slot_sig(v, val))
    }

    /// A snapshot of all variable values, in variable order.
    pub fn snapshot(&self) -> Vec<Value> {
        self.values.clone()
    }
}

/// A read-only, per-process view into the coherence directory,
/// answering the same queries the old per-process `Cache` struct did.
/// Obtained from [`Memory::cache`]; used by tests and metrics.
#[derive(Copy, Clone, Debug)]
pub struct CacheView<'a> {
    dir: &'a Directory,
    p: usize,
}

impl CacheView<'_> {
    /// The mode in which the variable is cached by this process, if at all.
    pub fn mode(&self, v: VarId) -> Option<Mode> {
        if self.dir.holds_exclusive(self.p, v.0) {
            Some(Mode::Exclusive)
        } else if self.dir.holds(self.p, v.0) {
            Some(Mode::Shared)
        } else {
            None
        }
    }

    /// True if this process holds any copy of `v`.
    pub fn holds(&self, v: VarId) -> bool {
        self.dir.holds(self.p, v.0)
    }

    /// True if this process holds `v` in [`Mode::Exclusive`].
    pub fn holds_exclusive(&self, v: VarId) -> bool {
        self.dir.holds_exclusive(self.p, v.0)
    }

    /// Number of lines currently held (O(n_vars) scan; test-facing only).
    pub fn len(&self) -> usize {
        self.dir.lines_held_by(self.p)
    }

    /// True if this process's cache is cold.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(protocol: Protocol) -> (Memory, VarId, VarId) {
        let mut l = Layout::new();
        let x = l.var("x", Value::Int(0));
        let y = l.var("y", Value::Nil);
        (Memory::new(&l, 3, protocol), x, y)
    }

    #[test]
    fn read_returns_value_and_write_updates() {
        let (mut m, x, _) = setup(Protocol::WriteBack);
        let out = m.apply(ProcId(0), &Op::Read(x));
        assert_eq!(out.response, Value::Int(0));
        assert!(out.trivial);
        m.apply(ProcId(0), &Op::write(x, 5));
        assert_eq!(m.peek(x), Value::Int(5));
    }

    #[test]
    fn cas_success_and_failure() {
        let (mut m, x, _) = setup(Protocol::WriteBack);
        let ok = m.apply(ProcId(0), &Op::cas(x, 0, 7));
        assert_eq!(ok.response, Value::Int(0), "CAS returns prior value");
        assert!(!ok.trivial);
        assert_eq!(m.peek(x), Value::Int(7));
        let fail = m.apply(ProcId(1), &Op::cas(x, 0, 9));
        assert_eq!(fail.response, Value::Int(7));
        assert!(fail.trivial, "failed CAS is a trivial step");
        assert_eq!(m.peek(x), Value::Int(7));
    }

    #[test]
    fn trivial_write_detected() {
        let (mut m, x, _) = setup(Protocol::WriteBack);
        let out = m.apply(ProcId(0), &Op::write(x, 0));
        assert!(out.trivial, "writing the current value is trivial");
    }

    #[test]
    fn write_back_read_caching() {
        let (mut m, x, _) = setup(Protocol::WriteBack);
        assert!(m.apply(ProcId(0), &Op::Read(x)).rmr, "cold read misses");
        assert!(!m.apply(ProcId(0), &Op::Read(x)).rmr, "warm read hits");
        // Another process writing invalidates our copy.
        m.apply(ProcId(1), &Op::write(x, 3));
        assert!(
            m.apply(ProcId(0), &Op::Read(x)).rmr,
            "invalidated read misses"
        );
    }

    #[test]
    fn write_back_exclusive_write_is_local() {
        let (mut m, x, _) = setup(Protocol::WriteBack);
        assert!(
            m.apply(ProcId(0), &Op::write(x, 1)).rmr,
            "first write misses"
        );
        assert!(
            !m.apply(ProcId(0), &Op::write(x, 2)).rmr,
            "write on an Exclusive line hits"
        );
        // A read by another process downgrades us to Shared...
        m.apply(ProcId(1), &Op::Read(x));
        assert_eq!(m.cache(ProcId(0)).mode(x), Some(Mode::Shared));
        // ...so our next write must re-acquire exclusivity.
        assert!(m.apply(ProcId(0), &Op::write(x, 3)).rmr);
    }

    #[test]
    fn write_back_spinning_is_local() {
        // The crux of local-spin algorithms: re-reading an unchanged variable
        // costs no RMRs until someone else writes it.
        let (mut m, x, _) = setup(Protocol::WriteBack);
        m.apply(ProcId(0), &Op::Read(x));
        for _ in 0..100 {
            assert!(!m.apply(ProcId(0), &Op::Read(x)).rmr);
        }
        m.apply(ProcId(2), &Op::write(x, 9));
        assert!(m.apply(ProcId(0), &Op::Read(x)).rmr);
    }

    #[test]
    fn write_through_every_write_rmrs() {
        let (mut m, x, _) = setup(Protocol::WriteThrough);
        assert!(m.apply(ProcId(0), &Op::write(x, 1)).rmr);
        assert!(
            m.apply(ProcId(0), &Op::write(x, 2)).rmr,
            "WT writes always RMR"
        );
        // But the writer keeps a valid copy for subsequent reads.
        assert!(!m.apply(ProcId(0), &Op::Read(x)).rmr);
    }

    #[test]
    fn write_through_read_caching() {
        let (mut m, x, _) = setup(Protocol::WriteThrough);
        assert!(m.apply(ProcId(0), &Op::Read(x)).rmr);
        assert!(!m.apply(ProcId(0), &Op::Read(x)).rmr);
        m.apply(ProcId(1), &Op::write(x, 1));
        assert!(
            m.apply(ProcId(0), &Op::Read(x)).rmr,
            "invalidated by writer"
        );
    }

    #[test]
    fn cas_acquires_exclusivity_even_on_failure() {
        let (mut m, x, _) = setup(Protocol::WriteBack);
        m.apply(ProcId(0), &Op::Read(x)); // p0 caches x Shared
        let out = m.apply(ProcId(1), &Op::cas(x, 99, 100)); // fails
        assert!(out.rmr);
        assert!(out.trivial);
        assert!(
            !m.cache(ProcId(0)).holds(x),
            "failed CAS still invalidates other copies"
        );
        assert!(m.cache(ProcId(1)).holds_exclusive(x));
    }

    #[test]
    fn faa_returns_prior_value_and_adds() {
        let (mut m, x, _) = setup(Protocol::WriteBack);
        let out = m.apply(ProcId(0), &Op::Faa { var: x, delta: 5 });
        assert_eq!(out.response, Value::Int(0), "FAA returns prior value");
        assert!(!out.trivial);
        assert!(out.rmr);
        assert_eq!(m.peek(x), Value::Int(5));
        let out = m.apply(ProcId(0), &Op::Faa { var: x, delta: -2 });
        assert!(!out.rmr, "FAA on an Exclusive line is local");
        assert_eq!(m.peek(x), Value::Int(3));
        let out = m.apply(ProcId(1), &Op::Faa { var: x, delta: 0 });
        assert!(out.trivial, "zero-delta FAA is trivial");
    }

    #[test]
    fn dsm_locality_is_static() {
        let mut l = Layout::new();
        let x = l.var_at("x", Value::Int(0), 0); // homed at p0
        let y = l.var("y", Value::Int(0)); // no home: remote to all
        let mut m = Memory::new(&l, 2, Protocol::Dsm);
        assert!(!m.apply(ProcId(0), &Op::Read(x)).rmr, "home read is local");
        assert!(
            !m.apply(ProcId(0), &Op::write(x, 1)).rmr,
            "home write is local"
        );
        assert!(
            m.apply(ProcId(1), &Op::Read(x)).rmr,
            "remote read is an RMR"
        );
        // Spinning on a remote variable costs an RMR per read: no caching.
        assert!(m.apply(ProcId(1), &Op::Read(x)).rmr);
        assert!(m.apply(ProcId(1), &Op::Read(x)).rmr);
        assert!(
            m.apply(ProcId(0), &Op::Read(y)).rmr,
            "homeless vars are remote"
        );
        assert!(m.apply(ProcId(1), &Op::Read(y)).rmr);
    }

    #[test]
    fn dsm_values_agree_with_cc() {
        // The protocol affects RMR accounting only — never values.
        let mut l = Layout::new();
        let x = l.var("x", Value::Int(0));
        let mut cc = Memory::new(&l, 2, Protocol::WriteBack);
        let mut dsm = Memory::new(&l, 2, Protocol::Dsm);
        let script = [
            (ProcId(0), Op::write(x, 3)),
            (ProcId(1), Op::cas(x, 3, 5)),
            (ProcId(0), Op::Faa { var: x, delta: 2 }),
            (ProcId(1), Op::Read(x)),
        ];
        for (p, op) in script {
            let a = cc.apply(p, &op);
            let b = dsm.apply(p, &op);
            assert_eq!(a.response, b.response, "op {op}");
            assert_eq!(a.new, b.new);
            assert_eq!(a.trivial, b.trivial);
        }
    }

    #[test]
    fn would_rmr_matches_apply() {
        let (mut m, x, y) = setup(Protocol::WriteBack);
        for op in [Op::Read(x), Op::write(y, 1), Op::cas(x, 0, 1)] {
            let predicted = m.would_rmr(ProcId(2), &op);
            let actual = m.apply(ProcId(2), &op).rmr;
            assert_eq!(predicted, actual, "op {op}");
        }
    }

    #[test]
    fn snapshot_and_peek_agree() {
        let (mut m, x, y) = setup(Protocol::WriteBack);
        m.apply(ProcId(0), &Op::write(x, 4));
        let snap = m.snapshot();
        assert_eq!(snap[x.0], m.peek(x));
        assert_eq!(snap[y.0], Value::Nil);
    }

    #[test]
    fn cache_view_len_and_modes() {
        let (mut m, x, y) = setup(Protocol::WriteBack);
        assert!(m.cache(ProcId(0)).is_empty());
        m.apply(ProcId(0), &Op::Read(x));
        m.apply(ProcId(0), &Op::write(y, 1));
        let view = m.cache(ProcId(0));
        assert_eq!(view.len(), 2);
        assert_eq!(view.mode(x), Some(Mode::Shared));
        assert_eq!(view.mode(y), Some(Mode::Exclusive));
        assert_eq!(m.cache(ProcId(1)).mode(y), None);
    }

    #[test]
    fn maintained_value_fingerprint_matches_full_recompute() {
        for protocol in [Protocol::WriteThrough, Protocol::WriteBack, Protocol::Dsm] {
            let (mut m, x, y) = setup(protocol);
            assert_eq!(m.values_fingerprint(), m.values_fingerprint_full());
            let script = [
                (ProcId(0), Op::write(x, 3)),
                (ProcId(1), Op::cas(x, 3, 5)),
                (ProcId(2), Op::cas(x, 99, 1)), // fails: no value change
                (ProcId(0), Op::Faa { var: x, delta: 2 }),
                (ProcId(1), Op::Read(y)),
                (ProcId(1), Op::Write(y, Value::Pair(1, 2))),
                (ProcId(0), Op::write(x, 7)), // trivial write (x already 7)
            ];
            for (p, op) in script {
                m.apply(p, &op);
                assert_eq!(
                    m.values_fingerprint(),
                    m.values_fingerprint_full(),
                    "{protocol:?} after {op}"
                );
            }
            // Crashes purge the directory only — the fingerprint is stable.
            let before = m.values_fingerprint();
            m.crash_invalidate(ProcId(1));
            assert_eq!(m.values_fingerprint(), before);
            assert_eq!(m.values_fingerprint(), m.values_fingerprint_full());
        }
    }

    #[test]
    fn value_fingerprint_distinguishes_slot_swaps() {
        // XOR composition must not be fooled by moving a value between
        // variables: signatures are salted per slot.
        let (mut a, x, y) = setup(Protocol::WriteBack);
        let (mut b, _, _) = setup(Protocol::WriteBack);
        a.apply(ProcId(0), &Op::write(x, 9)); // a: x=9, y=Nil
        b.apply(ProcId(0), &Op::Write(y, Value::Int(9)));
        b.apply(ProcId(0), &Op::Write(x, Value::Nil)); // b: x=Nil, y=9
        assert_ne!(a.values_fingerprint(), b.values_fingerprint());
    }

    #[test]
    fn coherence_with_many_procs_across_word_boundaries() {
        // 130 processes exercises multi-word holder bitsets.
        let mut l = Layout::new();
        let x = l.var("x", Value::Int(0));
        let mut m = Memory::new(&l, 130, Protocol::WriteBack);
        for p in 0..130 {
            m.apply(ProcId(p), &Op::Read(x));
        }
        assert_eq!(m.cache(ProcId(129)).mode(x), Some(Mode::Shared));
        // One write invalidates all 129 other copies.
        m.apply(ProcId(64), &Op::write(x, 1));
        for p in 0..130 {
            let holds = m.cache(ProcId(p)).holds(x);
            assert_eq!(holds, p == 64, "p{p}");
        }
        assert!(m.cache(ProcId(64)).holds_exclusive(x));
    }
}
