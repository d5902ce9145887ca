//! Pluggable group counters for the simulated `A_f` machines.
//!
//! The paper builds `C[i]`/`W[i]` from Jayanti's f-array specifically to
//! get *bounded* (`O(log K)`-step) `add` operations — a CAS retry loop
//! would be linearizable too, but its step count is unbounded under
//! contention, which breaks Bounded Exit and lets the Theorem-5 adversary
//! charge readers `Θ(K)` RMRs. This module makes the counter choice a
//! parameter so experiment E13 can measure exactly that ablation.

use ccsim::{Layout, Memory, Op, SubMachine, SubStep, Value, VarId};
use fcounter::{AddMachine, ReadMachine, SimCounter, SimCounterHandle};
use std::hash::{Hash, Hasher};

/// Which counter implementation backs the group counters.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum CounterKind {
    /// The paper's choice: f-array, `O(log K)`-step wait-free `add`.
    #[default]
    FArray,
    /// Ablation: a single word updated by a CAS retry loop. Linearizable
    /// (so the lock stays *safe*), but `add` is unbounded under
    /// contention — Bounded Exit and the `Θ(log(n/f))` reader bound fail.
    CasLoop,
}

/// A group counter of either kind (shared descriptor).
#[derive(Copy, Clone, Debug)]
pub enum GroupCounter {
    /// Tree counter.
    FArray(SimCounter),
    /// Single-word counter.
    CasLoop(VarId),
}

impl GroupCounter {
    /// Allocate a counter of `kind` for `k` processes.
    pub fn allocate(layout: &mut Layout, name: &str, k: usize, kind: CounterKind) -> Self {
        match kind {
            CounterKind::FArray => GroupCounter::FArray(SimCounter::allocate(layout, name, k)),
            CounterKind::CasLoop => {
                GroupCounter::CasLoop(layout.var(name.to_string(), Value::Int(0)))
            }
        }
    }

    /// Number of registered processes (f-array) or `usize::MAX`
    /// (single-word counters have no process limit).
    pub fn processes(&self) -> usize {
        match self {
            GroupCounter::FArray(c) => c.processes(),
            GroupCounter::CasLoop(_) => usize::MAX,
        }
    }

    /// A per-process handle for leaf `leaf`.
    pub fn handle(&self, leaf: usize) -> GroupHandle {
        match self {
            GroupCounter::FArray(c) => GroupHandle::FArray(c.handle(leaf)),
            GroupCounter::CasLoop(v) => GroupHandle::CasLoop(*v),
        }
    }

    /// Start a read operation.
    pub fn read(&self) -> GroupReadMachine {
        match self {
            GroupCounter::FArray(c) => GroupReadMachine::FArray(c.read()),
            GroupCounter::CasLoop(v) => GroupReadMachine::CasLoop {
                var: *v,
                done: None,
            },
        }
    }

    /// Inspect the current value without simulating steps.
    pub fn peek(&self, mem: &Memory) -> i64 {
        match self {
            GroupCounter::FArray(c) => c.peek(mem),
            GroupCounter::CasLoop(v) => mem.peek(*v).expect_int(),
        }
    }

    /// The heap variable registered process `leaf` writes through
    /// (f-array), or `None` — single-word counters have no per-process
    /// slots. Used to declare per-reader *owned* variables for symmetry
    /// classes.
    pub fn leaf_var(&self, leaf: usize) -> Option<VarId> {
        match self {
            GroupCounter::FArray(c) => Some(c.leaf_var(leaf)),
            GroupCounter::CasLoop(_) => None,
        }
    }

    /// Whether two registered processes' leaves share a parent in the
    /// counter tree (always false for single-word counters, which have
    /// no tree). Sibling leaves are the unit of f-array reader symmetry:
    /// a refresh at their common parent reads its *own* side first, so
    /// swapping the two leaf values (together with their owners) is a
    /// transition automorphism — which no wider leaf permutation is.
    pub fn leaves_are_siblings(&self, a: usize, b: usize) -> bool {
        match self {
            GroupCounter::FArray(c) => c.leaves_are_siblings(a, b),
            GroupCounter::CasLoop(_) => false,
        }
    }
}

/// A per-process handle on a [`GroupCounter`].
#[derive(Copy, Clone, Debug)]
pub enum GroupHandle {
    /// Handle on a tree counter (owns the leaf mirror).
    FArray(SimCounterHandle),
    /// Handle on a single-word counter (stateless).
    CasLoop(VarId),
}

impl GroupHandle {
    /// Start an `add(delta)` operation.
    pub fn add(&mut self, delta: i64) -> GroupAddMachine {
        match self {
            GroupHandle::FArray(h) => GroupAddMachine::FArray(h.add(delta)),
            GroupHandle::CasLoop(v) => GroupAddMachine::CasLoop {
                var: *v,
                delta,
                pc: CasAddPc::Read,
            },
        }
    }

    /// This handle's current leaf contribution (f-array) or 0 (the
    /// single-word counter keeps no per-process state).
    pub fn mirror(&self) -> i64 {
        match self {
            GroupHandle::FArray(h) => h.mirror(),
            GroupHandle::CasLoop(_) => 0,
        }
    }

    /// Whether the handle carries no per-process state, i.e. whether a
    /// fresh handle behaves identically to one that has issued `add`s.
    /// F-array handles are *not* stateless (the leaf mirror accumulates);
    /// single-word handles are. Compositions that hand a lock passage
    /// from one process to another (e.g. the sharded batch slot) require
    /// stateless handles.
    pub fn is_stateless(&self) -> bool {
        matches!(self, GroupHandle::CasLoop(_))
    }
}

/// Retry-loop program counter of the CAS-loop add.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CasAddPc {
    /// Read the current value.
    Read,
    /// CAS `seen -> seen + delta`; on failure, back to `Read`.
    Cas {
        seen: i64,
    },
    Done,
}

/// Step machine for one `add` on either counter kind.
#[derive(Copy, Clone, Debug)]
pub enum GroupAddMachine {
    /// The wait-free tree walk.
    FArray(AddMachine),
    /// The unbounded retry loop.
    CasLoop {
        /// The counter word.
        var: VarId,
        /// The increment.
        delta: i64,
        /// Retry-loop program counter.
        pc: CasAddPc,
    },
}

impl SubMachine for GroupAddMachine {
    fn poll(&self) -> SubStep {
        match self {
            GroupAddMachine::FArray(m) => m.poll(),
            GroupAddMachine::CasLoop { var, delta, pc } => match pc {
                CasAddPc::Read => SubStep::Op(Op::Read(*var)),
                CasAddPc::Cas { seen } => SubStep::Op(Op::cas(*var, *seen, *seen + *delta)),
                CasAddPc::Done => SubStep::Done(Value::Nil),
            },
        }
    }

    fn resume(&mut self, response: Value) {
        match self {
            GroupAddMachine::FArray(m) => m.resume(response),
            GroupAddMachine::CasLoop { pc, .. } => {
                *pc = match *pc {
                    CasAddPc::Read => CasAddPc::Cas {
                        seen: response.expect_int(),
                    },
                    CasAddPc::Cas { seen } => {
                        if response.expect_int() == seen {
                            CasAddPc::Done
                        } else {
                            CasAddPc::Read // contention: retry (unbounded!)
                        }
                    }
                    CasAddPc::Done => panic!("GroupAddMachine resumed after completion"),
                };
            }
        }
    }

    fn fingerprint<H: Hasher + ?Sized>(&self, mut h: &mut H) {
        match self {
            GroupAddMachine::FArray(m) => {
                0u8.hash(&mut h);
                m.fingerprint(h);
            }
            GroupAddMachine::CasLoop { pc, delta, .. } => {
                1u8.hash(&mut h);
                pc.hash(&mut h);
                delta.hash(&mut h);
            }
        }
    }
}

/// Step machine for one `read` on either counter kind (1 step each).
#[derive(Copy, Clone, Debug)]
pub enum GroupReadMachine {
    /// Tree root read.
    FArray(ReadMachine),
    /// Single-word read.
    CasLoop {
        /// The counter word.
        var: VarId,
        /// The value, once read.
        done: Option<i64>,
    },
}

impl SubMachine for GroupReadMachine {
    fn poll(&self) -> SubStep {
        match self {
            GroupReadMachine::FArray(m) => m.poll(),
            GroupReadMachine::CasLoop { var, done } => match done {
                None => SubStep::Op(Op::Read(*var)),
                Some(v) => SubStep::Done(Value::Int(*v)),
            },
        }
    }

    fn resume(&mut self, response: Value) {
        match self {
            GroupReadMachine::FArray(m) => m.resume(response),
            GroupReadMachine::CasLoop { done, .. } => {
                assert!(done.is_none(), "GroupReadMachine resumed after completion");
                *done = Some(response.expect_int());
            }
        }
    }

    fn fingerprint<H: Hasher + ?Sized>(&self, mut h: &mut H) {
        match self {
            GroupReadMachine::FArray(m) => {
                0u8.hash(&mut h);
                m.fingerprint(h);
            }
            GroupReadMachine::CasLoop { done, .. } => {
                1u8.hash(&mut h);
                done.hash(&mut h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim::{ProcId, Protocol};

    fn drive(mem: &mut Memory, p: ProcId, m: &mut dyn SubMachine) -> (Value, u64) {
        let mut steps = 0;
        loop {
            match m.poll() {
                SubStep::Done(v) => return (v, steps),
                SubStep::Op(op) => {
                    let out = mem.apply(p, &op);
                    steps += 1;
                    m.resume(out.response);
                }
            }
        }
    }

    #[test]
    fn both_kinds_count_identically_solo() {
        for kind in [CounterKind::FArray, CounterKind::CasLoop] {
            let mut layout = Layout::new();
            let c = GroupCounter::allocate(&mut layout, "C", 4, kind);
            let mut mem = Memory::new(&layout, 4, Protocol::WriteBack);
            let mut h = c.handle(0);
            drive(&mut mem, ProcId(0), &mut h.add(3));
            drive(&mut mem, ProcId(0), &mut h.add(-1));
            let (v, steps) = drive(&mut mem, ProcId(0), &mut c.read());
            assert_eq!(v, Value::Int(2), "{kind:?}");
            assert_eq!(steps, 1, "{kind:?}: read is one step");
            assert_eq!(c.peek(&mem), 2);
        }
    }

    #[test]
    fn cas_loop_add_is_two_steps_uncontended() {
        let mut layout = Layout::new();
        let c = GroupCounter::allocate(&mut layout, "C", 8, CounterKind::CasLoop);
        let mut mem = Memory::new(&layout, 8, Protocol::WriteBack);
        let mut h = c.handle(5);
        let (_, steps) = drive(&mut mem, ProcId(5), &mut h.add(1));
        assert_eq!(steps, 2, "read + successful CAS");
    }

    #[test]
    fn cas_loop_retries_under_interference() {
        let mut layout = Layout::new();
        let c = GroupCounter::allocate(&mut layout, "C", 2, CounterKind::CasLoop);
        let mut mem = Memory::new(&layout, 2, Protocol::WriteBack);
        let mut h0 = c.handle(0);
        let mut m = h0.add(1);
        // p0 reads 0...
        if let SubStep::Op(op) = m.poll() {
            let out = mem.apply(ProcId(0), &op);
            m.resume(out.response);
        }
        // ...p1 sneaks a full add in...
        let mut h1 = c.handle(1);
        drive(&mut mem, ProcId(1), &mut h1.add(1));
        // ...so p0's CAS fails and it must retry (2 more steps minimum).
        let (_, remaining) = drive(&mut mem, ProcId(0), &mut m);
        assert!(remaining >= 3, "CAS fail + re-read + CAS, got {remaining}");
        assert_eq!(c.peek(&mem), 2);
    }

    #[test]
    fn farray_mirror_tracks_and_casloop_does_not() {
        let mut layout = Layout::new();
        let fa = GroupCounter::allocate(&mut layout, "A", 2, CounterKind::FArray);
        let cl = GroupCounter::allocate(&mut layout, "B", 2, CounterKind::CasLoop);
        let mut mem = Memory::new(&layout, 2, Protocol::WriteBack);
        let mut hf = fa.handle(0);
        let mut hc = cl.handle(0);
        drive(&mut mem, ProcId(0), &mut hf.add(2));
        drive(&mut mem, ProcId(0), &mut hc.add(2));
        assert_eq!(hf.mirror(), 2);
        assert_eq!(hc.mirror(), 0, "single-word handle is stateless");
    }
}
