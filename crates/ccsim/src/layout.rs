//! Declaration of the shared variables used by a simulation.

use crate::value::{Value, VarId};

/// A registry of shared variables: their debug names and initial values.
///
/// Algorithms allocate their variables from a `Layout` before the simulation
/// starts (all shared variables hold their initial values in the initial
/// configuration `C_init`, §2). The layout is then handed to
/// [`crate::Memory::new`].
///
/// # Examples
/// ```
/// use ccsim::{Layout, Value};
/// let mut layout = Layout::new();
/// let wseq = layout.var("WSEQ", Value::Int(0));
/// let wsig = layout.array("WSIG", 4, Value::Pair(0, 0));
/// assert_eq!(layout.len(), 5);
/// assert_eq!(layout.name(wseq), "WSEQ");
/// assert_eq!(layout.name(wsig[2]), "WSIG[2]");
/// ```
#[derive(Clone, Debug, Default)]
pub struct Layout {
    names: Vec<String>,
    inits: Vec<Value>,
    homes: Vec<Option<usize>>,
}

impl Layout {
    /// Create an empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a single variable with the given debug name and initial value.
    /// Under the DSM protocol the variable has no home (remote to everyone);
    /// use [`Layout::var_at`] to place it in a process's segment.
    pub fn var(&mut self, name: impl Into<String>, init: Value) -> VarId {
        let id = VarId(self.names.len());
        self.names.push(name.into());
        self.inits.push(init);
        self.homes.push(None);
        id
    }

    /// Allocate a variable homed in process `home`'s memory segment: under
    /// [`crate::Protocol::Dsm`], accesses by `home` are local and all other
    /// accesses are RMRs. Ignored by the CC protocols.
    pub fn var_at(&mut self, name: impl Into<String>, init: Value, home: usize) -> VarId {
        let id = self.var(name, init);
        self.homes[id.0] = Some(home);
        id
    }

    /// The home process of a variable, if one was assigned.
    pub fn home(&self, v: VarId) -> Option<usize> {
        self.homes[v.0]
    }

    /// Allocate `len` variables named `name[0]..name[len-1]`, all with the
    /// same initial value.
    pub fn array(&mut self, name: &str, len: usize, init: Value) -> Vec<VarId> {
        (0..len)
            .map(|i| self.var(format!("{name}[{i}]"), init))
            .collect()
    }

    /// Number of variables allocated so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no variables have been allocated.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The debug name of a variable.
    ///
    /// # Panics
    /// Panics if `v` was not allocated from this layout.
    pub fn name(&self, v: VarId) -> &str {
        &self.names[v.0]
    }

    /// The initial value of a variable.
    ///
    /// # Panics
    /// Panics if `v` was not allocated from this layout.
    pub fn init(&self, v: VarId) -> Value {
        self.inits[v.0]
    }

    /// All initial values, in variable order.
    pub(crate) fn initial_values(&self) -> Vec<Value> {
        self.inits.clone()
    }

    /// All home assignments, in variable order.
    pub(crate) fn home_assignments(&self) -> &[Option<usize>] {
        &self.homes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_sequential_ids() {
        let mut l = Layout::new();
        let a = l.var("a", Value::Nil);
        let b = l.var("b", Value::Int(1));
        assert_eq!(a, VarId(0));
        assert_eq!(b, VarId(1));
        assert_eq!(l.init(b), Value::Int(1));
    }

    #[test]
    fn array_names_are_indexed() {
        let mut l = Layout::new();
        let c = l.array("C", 3, Value::Int(0));
        assert_eq!(c.len(), 3);
        assert_eq!(l.name(c[0]), "C[0]");
        assert_eq!(l.name(c[2]), "C[2]");
    }

    #[test]
    fn empty_layout() {
        let l = Layout::new();
        assert!(l.is_empty());
        assert_eq!(l.len(), 0);
    }
}
