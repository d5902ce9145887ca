//! The simulated f-array counter: the same algorithm as [`crate::FArray`],
//! expressed as `ccsim` step machines so RMRs can be counted and schedules
//! controlled adversarially.

use crate::tree::TreeShape;
use ccsim::{Layout, Memory, Op, SubMachine, SubStep, Value, VarId};
use std::hash::{Hash, Hasher};

/// Decode the sum component of a tree node's value: leaves hold
/// `Int(sum)`, internal nodes hold `Pair(version, sum)`.
fn sum_of(v: Value) -> i64 {
    match v {
        Value::Int(i) => i,
        Value::Pair(_, s) => s,
        other => panic!("f-array node holds unexpected value {other:?}"),
    }
}

/// Shared-memory descriptor of a simulated `K`-process f-array counter:
/// the tree shape and where its node variables start. `Copy`; every
/// process of the group holds one inside its machines.
#[derive(Copy, Clone, Debug)]
pub struct SimCounter {
    shape: TreeShape,
    /// The variable of heap slot 0 (a dummy). [`SimCounter::allocate`]
    /// takes the heap's variables from the layout back to back, so heap
    /// node `x` is the variable `base + x`.
    base: VarId,
}

impl SimCounter {
    /// Allocate the counter's variables: internal nodes init `Pair(0, 0)`,
    /// leaves init `Int(0)`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn allocate(layout: &mut Layout, name: &str, k: usize) -> Self {
        let shape = TreeShape::new(k);
        let base = VarId(layout.len());
        for x in 0..shape.heap_len() {
            let init = if x == 0 {
                Value::Nil // unused dummy slot
            } else if shape.is_leaf(x) {
                Value::Int(0)
            } else {
                Value::Pair(0, 0)
            };
            layout.var(format!("{name}.node[{x}]"), init);
        }
        SimCounter { shape, base }
    }

    /// Number of registered processes.
    pub fn processes(&self) -> usize {
        self.shape.leaves()
    }

    /// A per-process handle for leaf `leaf` (each leaf must be used by one
    /// simulated process only).
    ///
    /// # Panics
    /// Panics if `leaf >= processes()`.
    pub fn handle(&self, leaf: usize) -> SimCounterHandle {
        assert!(leaf < self.shape.leaves(), "leaf {leaf} out of range");
        SimCounterHandle {
            counter: *self,
            leaf,
            mirror: 0,
        }
    }

    /// Start a `read` operation (any process may read).
    pub fn read(&self) -> ReadMachine {
        ReadMachine {
            root: self.var(self.shape.root()),
            done: None,
        }
    }

    /// Inspect the counter's current value without simulating steps
    /// (test/assertion aid).
    pub fn peek(&self, mem: &Memory) -> i64 {
        sum_of(mem.peek(self.var(self.shape.root())))
    }

    /// The shared variable backing process `leaf`'s leaf — the location a
    /// symmetry declaration must list as owned by that process.
    ///
    /// # Panics
    /// Panics if `leaf >= processes()`.
    pub fn leaf_var(&self, leaf: usize) -> VarId {
        assert!(leaf < self.shape.leaves(), "leaf {leaf} out of range");
        self.var(self.shape.leaf(leaf))
    }

    /// Are `a` and `b` sibling leaves (same parent node)? Sibling leaves
    /// are the only pairs whose swap is a transition automorphism of the
    /// refresh (see [`AddMachine`]'s read order).
    pub fn leaves_are_siblings(&self, a: usize, b: usize) -> bool {
        a < self.shape.leaves()
            && b < self.shape.leaves()
            && a != b
            && self.shape.leaf(a) / 2 == self.shape.leaf(b) / 2
    }

    fn var(&self, heap: usize) -> VarId {
        VarId(self.base.0 + heap)
    }
}

/// A process's private handle on a [`SimCounter`]: remembers the current
/// value of its own (single-writer) leaf so an `add` needs no leaf read.
#[derive(Copy, Clone, Debug)]
pub struct SimCounterHandle {
    counter: SimCounter,
    leaf: usize,
    mirror: i64,
}

impl SimCounterHandle {
    /// Start an `add(delta)` operation. The handle's leaf mirror is updated
    /// immediately; the returned machine must then be driven to completion
    /// before the next operation on this handle starts.
    pub fn add(&mut self, delta: i64) -> AddMachine {
        self.mirror += delta;
        AddMachine {
            counter: self.counter,
            leaf_heap: self.counter.shape.leaf(self.leaf),
            new_leaf_value: self.mirror,
            pc: AddPc::WriteLeaf,
        }
    }

    /// Start a `read` operation.
    pub fn read(&self) -> ReadMachine {
        self.counter.read()
    }

    /// This process's current leaf contribution.
    pub fn mirror(&self) -> i64 {
        self.mirror
    }
}

/// Program counter of an [`AddMachine`]. `path_pos` indexes the bottom-up
/// path of internal nodes; `round` distinguishes the two refresh attempts.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum AddPc {
    WriteLeaf,
    ReadNode {
        path_pos: usize,
        round: u8,
    },
    ReadFirst {
        path_pos: usize,
        round: u8,
        node_old: Value,
    },
    ReadSecond {
        path_pos: usize,
        round: u8,
        node_old: Value,
        first_sum: i64,
    },
    Cas {
        path_pos: usize,
        round: u8,
        expected: Value,
        new: Value,
    },
    Done,
}

/// Step machine for one wait-free `add`: write own leaf, then
/// double-refresh each internal node up to the root. `Θ(log K)` steps.
///
/// At the leaf level (`path_pos == 0`) the refresh reads the process's
/// **own** leaf first and its sibling second; higher levels read
/// left-then-right. Addition is commutative, so the computed sum is
/// unchanged — but the own-first order makes swapping two sibling-leaf
/// processes a transition automorphism (each machine's next shared
/// access maps to the swapped machine's next shared access), which is
/// what lets f-array worlds declare reader symmetry classes.
///
/// The path is not stored: its node at `path_pos` is
/// `leaf_heap >> (path_pos + 1)` and its length is the tree depth
/// (see [`TreeShape::path_to_root`]), so the machine is `Copy`.
#[derive(Copy, Clone, Debug)]
pub struct AddMachine {
    counter: SimCounter,
    leaf_heap: usize,
    new_leaf_value: i64,
    pc: AddPc,
}

impl AddMachine {
    fn refresh_start(&self, path_pos: usize, round: u8) -> AddPc {
        if path_pos >= self.counter.shape.depth() as usize {
            debug_assert_eq!(round, 0);
            AddPc::Done
        } else {
            AddPc::ReadNode { path_pos, round }
        }
    }

    /// The internal node at bottom-up position `path_pos` of the path.
    fn path_node(&self, path_pos: usize) -> usize {
        self.leaf_heap >> (path_pos + 1)
    }

    /// The two children of the path node at `path_pos` in *read order*:
    /// own leaf first at the leaf level, left-then-right above it.
    fn children_in_read_order(&self, path_pos: usize) -> (usize, usize) {
        let (l, r) = self.counter.shape.children(self.path_node(path_pos));
        if path_pos == 0 && r == self.leaf_heap {
            (r, l)
        } else {
            (l, r)
        }
    }
}

impl SubMachine for AddMachine {
    fn poll(&self) -> SubStep {
        match &self.pc {
            AddPc::WriteLeaf => SubStep::Op(Op::write(
                self.counter.var(self.leaf_heap),
                self.new_leaf_value,
            )),
            AddPc::ReadNode { path_pos, .. } => {
                SubStep::Op(Op::Read(self.counter.var(self.path_node(*path_pos))))
            }
            AddPc::ReadFirst { path_pos, .. } => {
                let (first, _) = self.children_in_read_order(*path_pos);
                SubStep::Op(Op::Read(self.counter.var(first)))
            }
            AddPc::ReadSecond { path_pos, .. } => {
                let (_, second) = self.children_in_read_order(*path_pos);
                SubStep::Op(Op::Read(self.counter.var(second)))
            }
            AddPc::Cas {
                path_pos,
                expected,
                new,
                ..
            } => SubStep::Op(Op::Cas {
                var: self.counter.var(self.path_node(*path_pos)),
                expected: *expected,
                new: *new,
            }),
            AddPc::Done => SubStep::Done(Value::Nil),
        }
    }

    fn resume(&mut self, response: Value) {
        self.pc = match self.pc {
            AddPc::WriteLeaf => self.refresh_start(0, 0),
            AddPc::ReadNode { path_pos, round } => AddPc::ReadFirst {
                path_pos,
                round,
                node_old: response,
            },
            AddPc::ReadFirst {
                path_pos,
                round,
                node_old,
            } => AddPc::ReadSecond {
                path_pos,
                round,
                node_old,
                first_sum: sum_of(response),
            },
            AddPc::ReadSecond {
                path_pos,
                round,
                node_old,
                first_sum,
            } => {
                let (ver, _) = match node_old {
                    Value::Pair(v, s) => (v, s),
                    other => panic!("internal node held {other:?}"),
                };
                let sum = first_sum + sum_of(response);
                AddPc::Cas {
                    path_pos,
                    round,
                    expected: node_old,
                    new: Value::Pair(ver.wrapping_add(1), sum),
                }
            }
            AddPc::Cas {
                path_pos,
                round,
                expected,
                ..
            } => {
                let succeeded = response == expected;
                if !succeeded && round == 0 {
                    // Second refresh attempt on the same node.
                    AddPc::ReadNode { path_pos, round: 1 }
                } else {
                    self.refresh_start(path_pos + 1, 0)
                }
            }
            AddPc::Done => panic!("AddMachine resumed after completion"),
        };
    }

    fn fingerprint<H: Hasher + ?Sized>(&self, mut h: &mut H) {
        // Deliberately index-free: `leaf_heap` is a per-process constant
        // (the handle's leaf), so under the per-process fingerprint salt
        // it carries no information, and hashing it would make sibling
        // readers' otherwise-identical machines distinguishable — which
        // would defeat the f-array symmetry quotient.
        self.pc.hash(&mut h);
        self.new_leaf_value.hash(&mut h);
    }
}

/// Step machine for a constant-step `read`: one root load.
#[derive(Copy, Clone, Debug)]
pub struct ReadMachine {
    root: VarId,
    done: Option<i64>,
}

impl SubMachine for ReadMachine {
    fn poll(&self) -> SubStep {
        match self.done {
            None => SubStep::Op(Op::Read(self.root)),
            Some(v) => SubStep::Done(Value::Int(v)),
        }
    }

    fn resume(&mut self, response: Value) {
        assert!(self.done.is_none(), "ReadMachine resumed after completion");
        self.done = Some(sum_of(response));
    }

    fn fingerprint<H: Hasher + ?Sized>(&self, mut h: &mut H) {
        self.done.hash(&mut h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim::{ProcId, Protocol};

    /// Drive a sub-machine to completion as process `p`, returning
    /// `(result, steps, rmrs)`.
    fn drive(mem: &mut Memory, p: ProcId, m: &mut dyn SubMachine) -> (Value, u64, u64) {
        let mut steps = 0;
        let mut rmrs = 0;
        loop {
            match m.poll() {
                SubStep::Done(v) => return (v, steps, rmrs),
                SubStep::Op(op) => {
                    let out = mem.apply(p, &op);
                    steps += 1;
                    if out.rmr {
                        rmrs += 1;
                    }
                    m.resume(out.response);
                }
            }
        }
    }

    fn world(k: usize) -> (Memory, SimCounter) {
        let mut layout = Layout::new();
        let c = SimCounter::allocate(&mut layout, "C", k);
        let mem = Memory::new(&layout, k, Protocol::WriteBack);
        (mem, c)
    }

    #[test]
    fn sequential_adds_and_reads() {
        let (mut mem, c) = world(4);
        let mut handles: Vec<_> = (0..4).map(|i| c.handle(i)).collect();
        for (i, h) in handles.iter_mut().enumerate() {
            let mut add = h.add((i as i64) + 1);
            drive(&mut mem, ProcId(i), &mut add);
        }
        let (v, steps, _) = drive(&mut mem, ProcId(0), &mut c.read());
        assert_eq!(v, Value::Int(10));
        assert_eq!(steps, 1, "read is a single root load");
        assert_eq!(c.peek(&mem), 10);
    }

    #[test]
    fn add_steps_are_logarithmic() {
        for k in [1usize, 2, 4, 8, 64, 256] {
            let (mut mem, c) = world(k);
            let mut h = c.handle(0);
            let (_, steps, _) = drive(&mut mem, ProcId(0), &mut h.add(1));
            let depth = TreeShape::new(k).depth() as u64;
            // 1 leaf write + at most 2 refreshes x 4 steps per level.
            assert!(steps > 4 * depth, "k={k}: steps={steps}");
            assert!(steps <= 1 + 8 * depth, "k={k}: steps={steps}");
        }
    }

    #[test]
    fn single_process_counter_has_constant_add() {
        let (mut mem, c) = world(1);
        let mut h = c.handle(0);
        let (_, steps, _) = drive(&mut mem, ProcId(0), &mut h.add(5));
        assert_eq!(steps, 1, "k=1: add is just the leaf write");
        assert_eq!(c.peek(&mem), 5);
    }

    #[test]
    fn negative_deltas() {
        let (mut mem, c) = world(2);
        let mut h0 = c.handle(0);
        let mut h1 = c.handle(1);
        drive(&mut mem, ProcId(0), &mut h0.add(1));
        drive(&mut mem, ProcId(1), &mut h1.add(1));
        drive(&mut mem, ProcId(0), &mut h0.add(-1));
        assert_eq!(c.peek(&mem), 1);
        assert_eq!(h0.mirror(), 0);
    }

    #[test]
    fn interleaved_adds_converge() {
        // Interleave two adds step-by-step in every round-robin pattern;
        // the final root must always be the true sum (double-refresh).
        let (mut mem, c) = world(2);
        let mut h0 = c.handle(0);
        let mut h1 = c.handle(1);
        let mut m0 = h0.add(3);
        let mut m1 = h1.add(4);
        let mut turn = 0;
        loop {
            let (m, p): (&mut dyn SubMachine, ProcId) = if turn % 2 == 0 {
                (&mut m0, ProcId(0))
            } else {
                (&mut m1, ProcId(1))
            };
            turn += 1;
            match m.poll() {
                SubStep::Done(_) => {
                    if matches!(m0.poll(), SubStep::Done(_))
                        && matches!(m1.poll(), SubStep::Done(_))
                    {
                        break;
                    }
                }
                SubStep::Op(op) => {
                    let out = mem.apply(p, &op);
                    m.resume(out.response);
                }
            }
        }
        assert_eq!(c.peek(&mem), 7);
    }

    #[test]
    fn exhaustive_interleavings_of_two_adds() {
        // Enumerate *all* interleavings of two concurrent adds on k=2 via
        // binary schedule strings; every execution must end with root = 2.
        let shape_steps = {
            let (mut mem, c) = world(2);
            let mut h = c.handle(0);
            let (_, steps, _) = drive(&mut mem, ProcId(0), &mut h.add(1));
            steps as usize
        };
        let total = 2 * shape_steps;
        let mut schedules_tested = 0u32;
        for mask in 0u32..(1 << total) {
            if (mask.count_ones() as usize) != shape_steps {
                continue;
            }
            let (mut mem, c) = world(2);
            let mut h0 = c.handle(0);
            let mut h1 = c.handle(1);
            let mut m0 = h0.add(1);
            let mut m1 = h1.add(1);
            let mut ok = true;
            for bit in 0..total {
                let pick1 = (mask >> bit) & 1 == 1;
                let (m, p): (&mut dyn SubMachine, ProcId) = if pick1 {
                    (&mut m1, ProcId(1))
                } else {
                    (&mut m0, ProcId(0))
                };
                match m.poll() {
                    SubStep::Op(op) => {
                        let out = mem.apply(p, &op);
                        m.resume(out.response);
                    }
                    SubStep::Done(_) => {
                        // Schedule gave extra steps to a finished machine —
                        // drain the other machine instead.
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            // Machines may run different step counts (a successful first
            // refresh skips the second); drain both.
            while let SubStep::Op(op) = m0.poll() {
                let out = mem.apply(ProcId(0), &op);
                m0.resume(out.response);
            }
            while let SubStep::Op(op) = m1.poll() {
                let out = mem.apply(ProcId(1), &op);
                m1.resume(out.response);
            }
            assert_eq!(c.peek(&mem), 2, "schedule mask {mask:b}");
            schedules_tested += 1;
        }
        assert!(schedules_tested > 50, "tested {schedules_tested} schedules");
    }

    #[test]
    fn leaf_refresh_reads_own_leaf_first() {
        // k=2: both processes share one parent; each must read its own
        // leaf before its sibling's during the leaf-level refresh.
        let (mut mem, c) = world(2);
        for leaf in 0..2 {
            let mut h = c.handle(leaf);
            let mut m = h.add(1);
            // Step 1: leaf write. Step 2: parent read. Step 3: first
            // child read — must be the process's own leaf.
            for _ in 0..2 {
                let SubStep::Op(op) = m.poll() else {
                    panic!("add finished early")
                };
                let out = mem.apply(ProcId(leaf), &op);
                m.resume(out.response);
            }
            match m.poll() {
                SubStep::Op(Op::Read(v)) => {
                    assert_eq!(v, c.leaf_var(leaf), "leaf {leaf} reads own leaf first")
                }
                other => panic!("expected first child read, got {other:?}"),
            }
        }
    }

    #[test]
    fn node_x_is_the_layout_variable_named_node_x() {
        for k in 1..=9 {
            let mut layout = Layout::new();
            layout.var("before", Value::Nil); // the counter need not start at 0
            let c = SimCounter::allocate(&mut layout, "C", k);
            layout.var("after", Value::Nil);
            let shape = TreeShape::new(k);
            for x in 0..shape.heap_len() {
                assert_eq!(layout.name(c.var(x)), format!("C.node[{x}]"), "k={k}");
            }
            for leaf in 0..k {
                let m = c.handle(leaf).add(1);
                let path: Vec<usize> = (0..shape.depth() as usize)
                    .map(|pos| m.path_node(pos))
                    .collect();
                assert_eq!(path, shape.path_to_root(leaf).collect::<Vec<_>>(), "k={k}");
            }
        }
    }

    #[test]
    fn sibling_leaf_detection() {
        let (_, c) = world(4);
        assert!(c.leaves_are_siblings(0, 1));
        assert!(c.leaves_are_siblings(3, 2));
        assert!(!c.leaves_are_siblings(1, 2));
        assert!(!c.leaves_are_siblings(0, 0));
        let (_, c3) = world(3);
        assert!(c3.leaves_are_siblings(0, 1));
        assert!(!c3.leaves_are_siblings(1, 2), "pad leaf is not a partner");
    }

    #[test]
    #[should_panic(expected = "resumed after completion")]
    fn read_machine_guards_double_resume() {
        let (_, c) = world(2);
        let mut r = c.read();
        r.resume(Value::Pair(0, 0));
        r.resume(Value::Pair(0, 0));
    }
}
