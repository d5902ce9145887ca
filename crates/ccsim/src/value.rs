//! Values stored in simulated shared-memory variables, and process identifiers.

use std::fmt;

/// Identifier of a simulated process.
///
/// Processes are numbered `0..P` within a [`crate::Sim`]. The paper's process
/// set is `{R_1..R_n, W_1..W_m}`; harnesses conventionally assign readers the
/// low ids and writers the high ids, but nothing in the simulator depends on
/// that.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ProcId(pub usize);

impl ProcId {
    /// The raw index of this process.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcId {
    fn from(i: usize) -> Self {
        ProcId(i)
    }
}

/// Identifier of a simulated shared variable, allocated by [`crate::Layout`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub usize);

impl VarId {
    /// The raw index of this variable.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A value held by a simulated shared variable.
///
/// The simulator is typed loosely: every variable holds a [`Value`], and
/// programs decode the variant they expect (helpers panic on a variant
/// mismatch, which indicates a bug in a simulated algorithm, never user
/// error). Equality on `Value` is exact structural equality; it determines
/// CAS success and step *triviality* (a step is trivial iff it does not
/// change the value of the variable it accesses, §2 of the paper).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Value {
    /// The distinguished "unset"/⊥ value.
    #[default]
    Nil,
    /// A signed integer.
    Int(i64),
    /// An ordered pair of integers, used for the paper's `<seq, opcode>`
    /// signal words (`RSIG`, `WSIG[i]`).
    Pair(i64, i64),
    /// A process identifier (used e.g. by mutual-exclusion algorithms that
    /// store process names in variables).
    Proc(ProcId),
    /// A boolean flag.
    Bool(bool),
}

impl Value {
    /// Decode an integer.
    ///
    /// # Panics
    /// Panics if the value is not [`Value::Int`].
    #[inline]
    pub fn expect_int(self) -> i64 {
        match self {
            Value::Int(i) => i,
            other => panic!("expected Value::Int, found {other:?}"),
        }
    }

    /// Decode a pair.
    ///
    /// # Panics
    /// Panics if the value is not [`Value::Pair`].
    #[inline]
    pub fn expect_pair(self) -> (i64, i64) {
        match self {
            Value::Pair(a, b) => (a, b),
            other => panic!("expected Value::Pair, found {other:?}"),
        }
    }

    /// Decode a boolean.
    ///
    /// # Panics
    /// Panics if the value is not [`Value::Bool`].
    pub fn expect_bool(self) -> bool {
        match self {
            Value::Bool(b) => b,
            other => panic!("expected Value::Bool, found {other:?}"),
        }
    }

    /// Decode a process id, treating [`Value::Nil`] as `None`.
    ///
    /// # Panics
    /// Panics if the value is neither [`Value::Proc`] nor [`Value::Nil`].
    pub fn expect_proc_opt(self) -> Option<ProcId> {
        match self {
            Value::Proc(p) => Some(p),
            Value::Nil => None,
            other => panic!("expected Value::Proc or Nil, found {other:?}"),
        }
    }

    /// True iff this is [`Value::Nil`].
    pub fn is_nil(self) -> bool {
        matches!(self, Value::Nil)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Nil => write!(f, "⊥"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Pair(a, b) => write!(f, "<{a},{b}>"),
            Value::Proc(p) => write!(f, "{p}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<(i64, i64)> for Value {
    fn from(p: (i64, i64)) -> Self {
        Value::Pair(p.0, p.1)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<ProcId> for Value {
    fn from(p: ProcId) -> Self {
        Value::Proc(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_equality_is_structural() {
        assert_eq!(Value::Int(3), Value::Int(3));
        assert_ne!(Value::Int(3), Value::Int(4));
        assert_ne!(Value::Int(0), Value::Nil);
        assert_eq!(Value::Pair(1, 2), Value::Pair(1, 2));
        assert_ne!(Value::Pair(1, 2), Value::Pair(2, 1));
    }

    #[test]
    fn decode_helpers_roundtrip() {
        assert_eq!(Value::from(7i64).expect_int(), 7);
        assert_eq!(Value::from((1, 2)).expect_pair(), (1, 2));
        assert!(Value::from(true).expect_bool());
        assert_eq!(Value::from(ProcId(3)).expect_proc_opt(), Some(ProcId(3)));
        assert_eq!(Value::Nil.expect_proc_opt(), None);
    }

    #[test]
    #[should_panic(expected = "expected Value::Int")]
    fn expect_int_panics_on_mismatch() {
        Value::Bool(true).expect_int();
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Nil.to_string(), "⊥");
        assert_eq!(Value::Pair(4, 1).to_string(), "<4,1>");
        assert_eq!(ProcId(2).to_string(), "p2");
        assert_eq!(VarId(5).to_string(), "v5");
    }

    #[test]
    fn default_is_nil() {
        assert!(Value::default().is_nil());
    }
}
