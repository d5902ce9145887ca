//! Step traces: the execution fragments the knowledge formalism analyses.

use crate::op::Op;
use crate::program::{Phase, Role};
use crate::value::{ProcId, Value};
use std::fmt;

/// What happened in one scheduled step.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StepKind {
    /// A shared-memory operation was applied.
    Op {
        /// The operation.
        op: Op,
        /// The response delivered to the process.
        response: Value,
        /// Variable value before the step.
        old: Value,
        /// Variable value after the step.
        new: Value,
        /// Whether the step incurred an RMR.
        rmr: bool,
        /// Whether the step was trivial (left the value unchanged).
        trivial: bool,
    },
    /// The process left the remainder section and began its entry section.
    BeginPassage,
    /// The process left the critical section and began its exit section.
    BeginExit,
    /// The process crashed: local state and cached lines lost, program
    /// reset to the remainder section (shared memory survives).
    Crash,
    /// A system-wide crash: *every* process lost its local state and
    /// cached lines in one event (shared memory survives). Recorded once,
    /// conventionally against process 0.
    CrashAll,
    /// The process requested to abort its passage: its program switched
    /// onto the withdrawal path (it still takes steps to unwind).
    Abort,
}

/// One entry in a [`Trace`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct StepRecord {
    /// Global step index (within the `Sim`'s lifetime).
    pub index: u64,
    /// The process that took the step.
    pub proc: ProcId,
    /// The process's role.
    pub role: Role,
    /// The phase the process was in when the step was taken.
    pub phase: Phase,
    /// The action taken.
    pub kind: StepKind,
}

impl fmt::Display for StepRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            StepKind::Op {
                op,
                response,
                rmr,
                trivial,
                ..
            } => write!(
                f,
                "#{:<5} {} [{}/{}] {} -> {}{}{}",
                self.index,
                self.proc,
                self.role,
                self.phase,
                op,
                response,
                if *rmr { " RMR" } else { "" },
                if *trivial { " (trivial)" } else { "" },
            ),
            StepKind::BeginPassage => {
                write!(
                    f,
                    "#{:<5} {} [{}] begins passage",
                    self.index, self.proc, self.role
                )
            }
            StepKind::BeginExit => {
                write!(
                    f,
                    "#{:<5} {} [{}] leaves CS, begins exit",
                    self.index, self.proc, self.role
                )
            }
            StepKind::Crash => {
                write!(
                    f,
                    "#{:<5} {} [{}] CRASHES in {} (local state and cache lost)",
                    self.index, self.proc, self.role, self.phase
                )
            }
            StepKind::CrashAll => {
                write!(
                    f,
                    "#{:<5} SYSTEM-WIDE CRASH (every process loses local state and cache)",
                    self.index
                )
            }
            StepKind::Abort => {
                write!(
                    f,
                    "#{:<5} {} [{}] ABORTS its passage in {} (withdrawing)",
                    self.index, self.proc, self.role, self.phase
                )
            }
        }
    }
}

/// A recorded sequence of steps — an execution fragment in the paper's
/// sense, suitable for offline awareness/familiarity analysis.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    records: Vec<StepRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record.
    pub fn push(&mut self, r: StepRecord) {
        self.records.push(r);
    }

    /// All records, in schedule order.
    pub fn records(&self) -> &[StepRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, StepRecord> {
        self.records.iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a StepRecord;
    type IntoIter = std::slice::Iter<'a, StepRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl Extend<StepRecord> for Trace {
    fn extend<T: IntoIterator<Item = StepRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

impl FromIterator<StepRecord> for Trace {
    fn from_iter<T: IntoIterator<Item = StepRecord>>(iter: T) -> Self {
        Trace {
            records: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::VarId;

    fn op_record(index: u64, proc: usize, rmr: bool) -> StepRecord {
        StepRecord {
            index,
            proc: ProcId(proc),
            role: Role::Reader,
            phase: Phase::Entry,
            kind: StepKind::Op {
                op: Op::Read(VarId(0)),
                response: Value::Int(0),
                old: Value::Int(0),
                new: Value::Int(0),
                rmr,
                trivial: true,
            },
        }
    }

    #[test]
    fn collect_keeps_every_record_in_order() {
        let records = vec![
            op_record(0, 0, true),
            op_record(1, 0, false),
            op_record(2, 1, true),
            StepRecord {
                index: 3,
                proc: ProcId(0),
                role: Role::Reader,
                phase: Phase::Cs,
                kind: StepKind::BeginExit,
            },
        ];
        let t: Trace = records.iter().copied().collect();
        assert_eq!(t.len(), 4);
        assert_eq!(t.records(), records.as_slice());
    }

    #[test]
    fn display_is_nonempty() {
        let r = op_record(0, 0, true);
        assert!(r.to_string().contains("read"));
        assert!(r.to_string().contains("RMR"));
    }
}
