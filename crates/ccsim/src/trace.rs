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

impl StepRecord {
    /// The operation, if this was a memory step.
    pub fn op(&self) -> Option<&Op> {
        match &self.kind {
            StepKind::Op { op, .. } => Some(op),
            _ => None,
        }
    }

    /// Whether this step incurred an RMR.
    pub fn is_rmr(&self) -> bool {
        matches!(self.kind, StepKind::Op { rmr: true, .. })
    }
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

    /// Total RMRs charged to `p` in this trace.
    pub fn rmrs_of(&self, p: ProcId) -> u64 {
        self.records
            .iter()
            .filter(|r| r.proc == p && r.is_rmr())
            .count() as u64
    }

    /// Total memory steps taken by `p` in this trace.
    pub fn steps_of(&self, p: ProcId) -> u64 {
        self.records
            .iter()
            .filter(|r| r.proc == p && r.op().is_some())
            .count() as u64
    }
}

/// Aggregate statistics of a [`Trace`], per process.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TraceSummary {
    /// `(memory steps, RMRs)` per process id (dense, indexed by id).
    pub per_proc: Vec<(u64, u64)>,
    /// Total memory steps.
    pub steps: u64,
    /// Total RMRs.
    pub rmrs: u64,
    /// Non-trivial steps (the ones that define familiarity, Def. 1).
    pub non_trivial: u64,
}

impl Trace {
    /// Aggregate the trace into per-process and total counts.
    pub fn summary(&self) -> TraceSummary {
        let max_proc = self.records.iter().map(|r| r.proc.0 + 1).max().unwrap_or(0);
        let mut s = TraceSummary {
            per_proc: vec![(0, 0); max_proc],
            ..Default::default()
        };
        for r in &self.records {
            if let StepKind::Op { rmr, trivial, .. } = r.kind {
                s.steps += 1;
                s.per_proc[r.proc.0].0 += 1;
                if rmr {
                    s.rmrs += 1;
                    s.per_proc[r.proc.0].1 += 1;
                }
                if !trivial {
                    s.non_trivial += 1;
                }
            }
        }
        s
    }

    /// The sub-trace of one process's steps (preserving order and the
    /// original global indices).
    pub fn of_proc(&self, p: ProcId) -> Trace {
        Trace {
            records: self
                .records
                .iter()
                .filter(|r| r.proc == p)
                .copied()
                .collect(),
        }
    }

    /// The records that accessed a given variable.
    pub fn touching(&self, var: crate::value::VarId) -> Vec<&StepRecord> {
        self.records
            .iter()
            .filter(|r| r.op().map(|o| o.var()) == Some(var))
            .collect()
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
    fn rmr_and_step_counting() {
        let t: Trace = vec![
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
        ]
        .into_iter()
        .collect();
        assert_eq!(t.rmrs_of(ProcId(0)), 1);
        assert_eq!(t.steps_of(ProcId(0)), 2, "transitions are not memory steps");
        assert_eq!(t.rmrs_of(ProcId(1)), 1);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn display_is_nonempty() {
        let r = op_record(0, 0, true);
        assert!(r.to_string().contains("read"));
        assert!(r.to_string().contains("RMR"));
    }

    #[test]
    fn summary_aggregates() {
        let t: Trace = vec![
            op_record(0, 0, true),
            op_record(1, 0, false),
            op_record(2, 2, true),
        ]
        .into_iter()
        .collect();
        let s = t.summary();
        assert_eq!(s.steps, 3);
        assert_eq!(s.rmrs, 2);
        assert_eq!(s.per_proc.len(), 3);
        assert_eq!(s.per_proc[0], (2, 1));
        assert_eq!(s.per_proc[2], (1, 1));
        assert_eq!(s.non_trivial, 0, "all records here are trivial reads");
    }

    #[test]
    fn of_proc_and_touching_filter() {
        let t: Trace = vec![op_record(0, 0, true), op_record(1, 1, false)]
            .into_iter()
            .collect();
        assert_eq!(t.of_proc(ProcId(0)).len(), 1);
        assert_eq!(t.of_proc(ProcId(1)).len(), 1);
        assert_eq!(t.of_proc(ProcId(9)).len(), 0);
        assert_eq!(t.touching(VarId(0)).len(), 2, "both records read v0");
        assert_eq!(t.touching(VarId(1)).len(), 0);
    }

    #[test]
    fn empty_trace_summary() {
        let s = Trace::new().summary();
        assert_eq!(s.steps, 0);
        assert!(s.per_proc.is_empty());
    }
}
