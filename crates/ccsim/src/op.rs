//! Shared-memory operations: the three primitives the paper's model allows.

use crate::value::{Value, VarId};
use std::fmt;

/// A single shared-memory operation.
///
/// The paper's model (§2): in each step a process applies a read, write, or
/// compare-and-swap to one shared variable. `CAS(v, expected, new)` changes
/// `v` to `new` only if its current value equals `expected`, and returns the
/// value of `v` prior to its application.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// Read a variable; the response is its current value.
    Read(VarId),
    /// Write a value; the response is [`Value::Nil`].
    Write(VarId, Value),
    /// Compare-and-swap; the response is the value held *before* the step.
    Cas {
        /// The variable accessed.
        var: VarId,
        /// The value the variable must hold for the swap to occur.
        expected: Value,
        /// The value installed on success.
        new: Value,
    },
    /// Fetch-and-add on an integer variable; the response is the value held
    /// *before* the step.
    ///
    /// FAA is **outside** the paper's read/write/CAS model — the Ω(log)
    /// tradeoff of Theorem 5 does not apply to algorithms that use it (§6
    /// cites Bhatt–Jayanti's constant-RMR FAA lock). The simulator supports
    /// it so experiment E7 can demonstrate exactly that escape. Like CAS,
    /// an FAA step is both a reading and a writing step.
    Faa {
        /// The variable accessed (must hold [`Value::Int`]).
        var: VarId,
        /// The increment applied.
        delta: i64,
    },
}

impl Op {
    /// The variable this operation accesses.
    #[inline]
    pub fn var(&self) -> VarId {
        match *self {
            Op::Read(v) => v,
            Op::Write(v, _) => v,
            Op::Cas { var, .. } => var,
            Op::Faa { var, .. } => var,
        }
    }

    /// True for reads and CAS steps ("a CAS step is both a reading and a
    /// writing step", §2). Reading steps are the ones that can expand
    /// awareness sets (Definition 2).
    pub fn is_reading(&self) -> bool {
        matches!(self, Op::Read(_) | Op::Cas { .. } | Op::Faa { .. })
    }

    /// True for writes and CAS steps.
    pub fn is_writing(&self) -> bool {
        matches!(self, Op::Write(..) | Op::Cas { .. } | Op::Faa { .. })
    }

    /// Shorthand constructor for a CAS.
    pub fn cas(var: VarId, expected: impl Into<Value>, new: impl Into<Value>) -> Self {
        Op::Cas {
            var,
            expected: expected.into(),
            new: new.into(),
        }
    }

    /// Shorthand constructor for a write.
    pub fn write(var: VarId, value: impl Into<Value>) -> Self {
        Op::Write(var, value.into())
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Read(v) => write!(f, "read({v})"),
            Op::Write(v, x) => write!(f, "write({v}, {x})"),
            Op::Cas { var, expected, new } => write!(f, "cas({var}, {expected} -> {new})"),
            Op::Faa { var, delta } => write!(f, "faa({var}, {delta:+})"),
        }
    }
}

/// The kind of an operation, used when classifying steps (e.g. for the
/// Lemma-2 ordering of expanding steps: reads, then writes, then CAS).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum OpKind {
    /// A plain read.
    Read,
    /// A plain write.
    Write,
    /// A compare-and-swap.
    Cas,
    /// A fetch-and-add (model extension; see [`Op::Faa`]).
    Faa,
}

impl From<&Op> for OpKind {
    fn from(op: &Op) -> Self {
        match op {
            Op::Read(_) => OpKind::Read,
            Op::Write(..) => OpKind::Write,
            Op::Cas { .. } => OpKind::Cas,
            Op::Faa { .. } => OpKind::Faa,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reading_and_writing_classification() {
        let v = VarId(0);
        assert!(Op::Read(v).is_reading());
        assert!(!Op::Read(v).is_writing());
        assert!(!Op::write(v, 1).is_reading());
        assert!(Op::write(v, 1).is_writing());
        let c = Op::cas(v, 0, 1);
        assert!(c.is_reading(), "CAS is a reading step (§2)");
        assert!(c.is_writing(), "CAS is a writing step (§2)");
    }

    #[test]
    fn var_accessor() {
        assert_eq!(Op::Read(VarId(3)).var(), VarId(3));
        assert_eq!(Op::write(VarId(4), 0).var(), VarId(4));
        assert_eq!(Op::cas(VarId(5), 0, 1).var(), VarId(5));
    }

    #[test]
    fn kind_ordering_matches_lemma2_schedule() {
        // Lemma 2 schedules reads, then writes, then CAS steps.
        assert!(OpKind::Read < OpKind::Write);
        assert!(OpKind::Write < OpKind::Cas);
    }

    #[test]
    fn display() {
        assert_eq!(Op::Read(VarId(1)).to_string(), "read(v1)");
        assert_eq!(Op::write(VarId(1), 5).to_string(), "write(v1, 5)");
        assert_eq!(Op::cas(VarId(2), 0, 1).to_string(), "cas(v2, 0 -> 1)");
    }
}
