//! The original map-based coherence core, preserved verbatim.
//!
//! [`crate::Memory`] was rewritten as a flat per-variable directory (see
//! `directory.rs`); this module keeps the previous implementation — one
//! `HashMap<VarId, Mode>` cache per process, O(n_procs) sweeps on every
//! invalidation — so that:
//!
//! * the randomized differential test (`tests/differential_memory.rs`)
//!   can assert the rewrite preserves [`StepOutcome`] semantics exactly,
//!   operation by operation, under all three protocols; and
//! * the `perf_smoke` experiment can measure the before/after
//!   steps-per-second ratio on the same workload.
//!
//! Nothing else should depend on this module: it is not part of the
//! simulator's supported API and exists only as a verification oracle.

use crate::cache::{Cache, Mode, Protocol};
use crate::layout::Layout;
use crate::memory::StepOutcome;
use crate::op::Op;
use crate::value::{ProcId, Value, VarId};

/// The pre-directory [`crate::Memory`]: per-process hash-map caches.
///
/// Semantics are identical to [`crate::Memory`] by construction (this is
/// the code the rewrite replaced); only the cache representation — and
/// therefore the cost per step — differs.
#[derive(Clone, Debug)]
pub struct RefMemory {
    protocol: Protocol,
    values: Vec<Value>,
    caches: Vec<Cache>,
    homes: Vec<Option<usize>>,
}

impl RefMemory {
    /// Create a memory with the variables of `layout` (at their initial
    /// values) and `n_procs` cold caches.
    pub fn new(layout: &Layout, n_procs: usize, protocol: Protocol) -> Self {
        RefMemory {
            protocol,
            values: layout.initial_values(),
            caches: (0..n_procs).map(|_| Cache::new()).collect(),
            homes: layout.home_assignments().to_vec(),
        }
    }

    /// Would `p` incur an RMR if it executed `op` now?
    pub fn would_rmr(&self, p: ProcId, op: &Op) -> bool {
        let v = op.var();
        let cache = &self.caches[p.0];
        match (self.protocol, op) {
            (Protocol::WriteThrough, Op::Read(_)) => !cache.holds(v),
            (Protocol::WriteThrough, _) => true,
            (Protocol::WriteBack, Op::Read(_)) => !cache.holds(v),
            (Protocol::WriteBack, _) => !cache.holds_exclusive(v),
            (Protocol::Dsm, _) => self.homes[v.0] != Some(p.0),
        }
    }

    /// Apply one operation by process `p`; see [`crate::Memory::apply`].
    ///
    /// # Panics
    /// Panics if `p` or the accessed variable is out of range.
    pub fn apply(&mut self, p: ProcId, op: &Op) -> StepOutcome {
        let v = op.var();
        assert!(p.0 < self.caches.len(), "process {p} out of range");
        assert!(v.0 < self.values.len(), "variable {v} out of range");
        let old = self.values[v.0];
        let rmr = self.would_rmr(p, op);

        let (response, new) = match *op {
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
        };
        self.values[v.0] = new;

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
                self.caches[p.0].insert(v, Mode::Shared);
            }
            (Protocol::WriteThrough, true) => {
                self.invalidate_others(p, v);
                self.caches[p.0].insert(v, Mode::Shared);
            }
            (Protocol::WriteBack, false) => {
                if !self.caches[p.0].holds(v) {
                    for (i, c) in self.caches.iter_mut().enumerate() {
                        if i != p.0 {
                            c.downgrade(v);
                        }
                    }
                    self.caches[p.0].insert(v, Mode::Shared);
                }
            }
            (Protocol::WriteBack, true) => {
                if !self.caches[p.0].holds_exclusive(v) {
                    self.invalidate_others(p, v);
                }
                self.caches[p.0].insert(v, Mode::Exclusive);
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

    fn invalidate_others(&mut self, p: ProcId, v: VarId) {
        for (i, c) in self.caches.iter_mut().enumerate() {
            if i != p.0 {
                c.invalidate(v);
            }
        }
    }

    /// The cache of process `p` (for differential assertions).
    pub fn cache(&self, p: ProcId) -> &Cache {
        &self.caches[p.0]
    }

    /// A snapshot of all variable values, in variable order.
    pub fn snapshot(&self) -> Vec<Value> {
        self.values.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_core_basic_coherence() {
        let mut l = Layout::new();
        let x = l.var("x", Value::Int(0));
        let mut m = RefMemory::new(&l, 3, Protocol::WriteBack);
        assert!(m.apply(ProcId(0), &Op::Read(x)).rmr);
        assert!(!m.apply(ProcId(0), &Op::Read(x)).rmr);
        m.apply(ProcId(1), &Op::write(x, 3));
        assert!(m.cache(ProcId(1)).holds_exclusive(x));
        assert!(m.apply(ProcId(0), &Op::Read(x)).rmr);
        assert!(
            !m.cache(ProcId(1)).holds_exclusive(x),
            "reader downgrades the exclusive holder"
        );
    }
}
