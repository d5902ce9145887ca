//! Gate: branching a world allocates nothing in steady state.
//!
//! The model checker builds each configuration it has not seen before
//! with one world copy ([`Sim::clone_world_into`] over a recycled spare)
//! and one schedule entry, then probes Mutual Exclusion; a successor that
//! rejoins a known configuration costs only its state key, predicted
//! from its parent. Each test here builds every successor, with exactly
//! those calls and a state key, exploring a world depth-first twice
//! over: the first pass warms the visited set, the spare-world pool and
//! the frame stack, and the second pass retraces the same transitions.
//! Any allocation the second pass makes comes from the branching path
//! itself, and the gate allows fewer than one per 1,000 transitions.
//!
//! Allocations are counted per thread, so tests running in parallel do
//! not see each other's.

use rwlock_repro::*;
use std::alloc::{GlobalAlloc, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::hash::Hasher;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation
/// made by the calling thread.
struct CountingAlloc;

fn count_one() {
    // `try_with`: the slot is gone while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for each call; counting only bumps a
// thread-local `Cell`, which neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Each process runs one passage.
const QUOTA: u64 = 1;

/// Stop deepening once this many states are visited (siblings are still
/// scanned), which keeps each test under a second in a debug build.
const MAX_STATES: usize = 20_000;

/// A suspended configuration; its schedule entries are
/// `entries[next..end]`, and `start` is where they began.
struct Frame {
    sim: Sim,
    start: usize,
    next: usize,
    end: usize,
    crashes: u32,
}

/// A depth-first explorer that branches the way the model checker does
/// and keeps its buffers across passes.
struct Explorer {
    crash_budget: u32,
    quotient: bool,
    visited: HashSet<u64>,
    pool: Vec<Sim>,
    stack: Vec<Frame>,
    entries: Vec<SchedEntry>,
}

/// The schedule entries enabled in `sim`: a step for every process that
/// is mid-passage or has a passage left, and, while crashes remain, a
/// crash for every process outside its remainder section and the CS.
fn push_entries(sim: &Sim, crashes: u32, out: &mut Vec<SchedEntry>) {
    for p in sim.proc_ids() {
        if sim.poll(p) != Step::Remainder || sim.stats(p).passages < QUOTA {
            out.push(SchedEntry::Step(p));
        }
    }
    if crashes > 0 {
        for p in sim.proc_ids() {
            if !matches!(sim.phase(p), Phase::Remainder | Phase::Cs) {
                out.push(SchedEntry::Crash(p));
            }
        }
    }
}

/// The state key: the concrete fingerprint plus the capped passage
/// counts, or the symmetry quotient's canonical key with the capped
/// counts as annotations; then the crashes left.
fn state_key(sim: &Sim, quotient: bool, crashes: u32) -> u64 {
    let mut h = ccsim::FxHasher::default();
    if quotient {
        h.write_u64(
            sim.fingerprint_canonical_annotated(&ccsim::Overlay::NONE, |p| {
                sim.stats(p).passages.min(QUOTA)
            }),
        );
    } else {
        h.write_u64(sim.fingerprint());
        for p in sim.proc_ids() {
            h.write_u64(sim.stats(p).passages.min(QUOTA));
        }
    }
    h.write_u32(crashes);
    h.finish()
}

impl Explorer {
    fn new(crash_budget: u32, quotient: bool) -> Self {
        Explorer {
            crash_budget,
            quotient,
            visited: HashSet::new(),
            pool: Vec::new(),
            stack: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// A copy of `src` in a recycled world, or a fresh one if the pool is
    /// empty.
    fn branch(pool: &mut Vec<Sim>, src: &Sim) -> Sim {
        match pool.pop() {
            Some(mut spare) => {
                src.clone_world_into(&mut spare);
                spare
            }
            None => src.clone_world(),
        }
    }

    /// One exploration from `root`: `(transitions, allocations)`.
    fn pass(&mut self, root: &Sim) -> (u64, u64) {
        let before = allocations();
        let mut transitions = 0u64;
        self.visited.clear();
        let crashes = self.crash_budget;
        let key = state_key(root, self.quotient, crashes);
        self.visited.insert(key);
        push_entries(root, crashes, &mut self.entries);
        let sim = Self::branch(&mut self.pool, root);
        self.stack.push(Frame {
            sim,
            start: 0,
            next: 0,
            end: self.entries.len(),
            crashes,
        });
        while let Some(top) = self.stack.last_mut() {
            if top.next == top.end {
                self.entries.truncate(top.start);
                let done = self.stack.pop().expect("a frame is on the stack");
                self.pool.push(done.sim);
                continue;
            }
            let entry = self.entries[top.next];
            top.next += 1;
            let crashes = top.crashes - u32::from(entry.is_crash());
            let mut child = Self::branch(&mut self.pool, &top.sim);
            entry.apply(&mut child);
            transitions += 1;
            if let Err(v) = child.check_mutual_exclusion() {
                panic!("Mutual Exclusion violated: {v}");
            }
            let key = state_key(&child, self.quotient, crashes);
            if !self.visited.insert(key) || self.visited.len() >= MAX_STATES {
                self.pool.push(child);
                continue;
            }
            let start = self.entries.len();
            push_entries(&child, crashes, &mut self.entries);
            if self.entries.len() == start {
                self.pool.push(child);
                continue;
            }
            self.stack.push(Frame {
                sim: child,
                start,
                next: start,
                end: self.entries.len(),
                crashes,
            });
        }
        (transitions, allocations() - before)
    }
}

/// Explore `root` twice and check the second, warm pass.
fn assert_branching_is_allocation_free(label: &str, root: Sim, crash_budget: u32, quotient: bool) {
    let mut explorer = Explorer::new(crash_budget, quotient);
    let (cold_transitions, _) = explorer.pass(&root);
    let (transitions, allocations) = explorer.pass(&root);
    assert_eq!(transitions, cold_transitions, "{label}: passes diverged");
    assert!(
        transitions >= 100,
        "{label}: only {transitions} transitions"
    );
    assert!(
        allocations * 1_000 < transitions,
        "{label}: {allocations} allocations in {transitions} warm transitions ({:.3} per transition)",
        allocations as f64 / transitions as f64
    );
}

fn one_writer(readers: usize) -> AfConfig {
    AfConfig {
        readers,
        writers: 1,
        policy: FPolicy::One,
    }
}

#[test]
fn farray_af_world_with_a_crash_branches_without_allocating() {
    let root = af_world(one_writer(2), Protocol::WriteBack).sim;
    assert_branching_is_allocation_free("A_f(FArray) 2r+1w crash 1", root, 1, false);
}

#[test]
fn casloop_quotient_world_branches_without_allocating() {
    let root = af_world_custom(
        one_writer(3),
        Protocol::WriteBack,
        HelpOrder::WaitersFirst,
        CounterKind::CasLoop,
    )
    .sim;
    assert_branching_is_allocation_free("A_f(CasLoop) 3r+1w crash 1 quotient", root, 1, true);
}

#[test]
fn two_writer_af_world_branches_without_allocating() {
    // Two writers compete in the writer tournament.
    let root = af_world(AfConfig::new(1, 2), Protocol::WriteBack).sim;
    assert_branching_is_allocation_free("A_f(FArray) 1r+2w crash 1", root, 1, false);
}

#[test]
fn every_registered_sim_twin_branches_without_allocating() {
    for (id, lock) in LockRegistry::builtin().sim_entries() {
        let inst = &lock.instances()[0];
        let root = lock.build(inst, Protocol::WriteBack);
        let crashes = u32::from(lock.fault_support().crash);
        let label = format!("{id} {}", inst.label);
        assert_branching_is_allocation_free(&label, root, crashes, false);
    }
}

/// A Dekker-style flag lock written the way a user writes a program: it
/// only derives `Clone`. Each process owns one flag in `flags`, the
/// single writer's last. A reader raises its flag and backs off while
/// the writer's is up; the writer raises its flag and waits out each
/// reader's in turn.
#[derive(Clone)]
struct FlagLock {
    role: Role,
    me: usize,
    flags: Arc<[VarId]>,
    pc: u8,
    scan: usize,
}

impl Program for FlagLock {
    fn poll(&self) -> Step {
        let own = self.flags[self.me];
        match (self.pc, self.role) {
            (0, _) => Step::Remainder,
            (1, _) => Step::Op(Op::write(own, true)),
            (2, Role::Reader) => Step::Op(Op::Read(self.flags[self.flags.len() - 1])),
            (2, Role::Writer) => Step::Op(Op::Read(self.flags[self.scan])),
            (3, _) => Step::Cs,
            _ => Step::Op(Op::write(own, false)),
        }
    }
    fn resume(&mut self, response: Value) {
        self.pc = match (self.pc, self.role) {
            (0, _) => 1,
            (1, _) => 2,
            (2, Role::Reader) if response.expect_bool() => 4,
            (2, Role::Reader) => 3,
            (2, Role::Writer) if response.expect_bool() => 2,
            (2, Role::Writer) => {
                self.scan = (self.scan + 1) % self.me;
                if self.scan == 0 {
                    3
                } else {
                    2
                }
            }
            (3, _) => 5,
            (4, _) => 1,
            _ => 0,
        };
    }
    fn phase(&self) -> Phase {
        match self.pc {
            0 => Phase::Remainder,
            3 => Phase::Cs,
            5 => Phase::Exit,
            _ => Phase::Entry,
        }
    }
    fn role(&self) -> Role {
        self.role
    }
    fn on_crash(&mut self) {
        self.pc = 0;
        self.scan = 0;
    }
    fn fingerprint(&self, h: &mut dyn Hasher) {
        h.write_u8(self.pc);
        h.write_usize(self.scan);
    }
}

#[test]
fn derive_clone_program_world_branches_without_allocating() {
    let readers = 2;
    let mut layout = Layout::new();
    let flags: Arc<[VarId]> = layout.array("flag", readers + 1, Value::Bool(false)).into();
    let mem = Memory::new(&layout, readers + 1, Protocol::WriteBack);
    let procs = (0..=readers)
        .map(|me| {
            let role = if me < readers {
                Role::Reader
            } else {
                Role::Writer
            };
            Box::new(FlagLock {
                role,
                me,
                flags: Arc::clone(&flags),
                pc: 0,
                scan: 0,
            }) as Box<dyn Program>
        })
        .collect();
    let root = Sim::new(mem, procs);
    assert_branching_is_allocation_free("derive(Clone) flag lock 2r+1w crash 1", root, 1, false);
}
