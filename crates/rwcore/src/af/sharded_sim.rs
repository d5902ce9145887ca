//! Simulated counterpart of [`crate::ShardedAfRwLock`]: the same
//! gate-word protocol as explicit `ccsim` step machines over per-shard
//! simulated `A_f` instances, so the sharded composition's Mutual
//! Exclusion and Bounded Exit can be model-checked (structure-only — the
//! sim checks the *protocol*, not the real lock's memory orderings).
//!
//! Two deliberate divergences from the real lock, both forced by the
//! simulation model:
//!
//! * Per-shard instances use [`CounterKind::CasLoop`] group counters.
//!   The batch slot's entry runs in the leader's *process* while the
//!   exit runs in whichever member leaves last; f-array handles carry a
//!   per-process leaf mirror that cannot be handed across processes
//!   ([`AfReaderSim::at_cs`] enforces this). The real lock has no such
//!   state (its f-array reads the leaf back from shared memory), so the
//!   real thing keeps the paper's counters.
//! * A reader's shard is `id % shards` instead of a thread-local slot —
//!   simulated processes *are* the stable slots.

use crate::af::counters::CounterKind;
use crate::af::shared::{AfShared, HelpOrder};
use crate::af::sim::{AfReaderSim, AfWriterSim};
use crate::config::{AfConfig, FPolicy};
use crate::world::PidMap;
use ccsim::{
    sub, Layout, Memory, Op, Phase, Program, Protocol, Role, Sim, Step, SubMachine, Value, VarId,
};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use wmutex::SimTournament;

/// Gate-word bits (mirrors the real lock's constants).
const OPEN: i64 = 1 << 32;
/// See [`OPEN`].
const DRAIN: i64 = 1 << 33;

/// Shared variables of a simulated sharded lock: per-shard `A_f`
/// instances plus their gate and writer-pending words, and the outer
/// writer tournament.
#[derive(Debug)]
pub struct ShardedSimShared {
    /// One single-slot `A_f` instance per shard (CAS-loop counters; see
    /// the module docs).
    pub shards: Vec<Arc<AfShared>>,
    /// `SHGATE[s]`: the batch gate words, packed as integers.
    pub gates: Vec<VarId>,
    /// `SHWP[s]`: the writer-pending flags.
    pub wps: Vec<VarId>,
    /// `SHWL`: the outer m-writer tournament.
    pub wl: SimTournament,
}

impl ShardedSimShared {
    /// Allocate all shared variables for a `shards`-way lock with
    /// `writers` writer processes.
    ///
    /// # Panics
    /// Panics if `shards` or `writers` is zero.
    pub fn allocate(layout: &mut Layout, shards: usize, writers: usize) -> Arc<Self> {
        assert!(shards > 0, "need at least one shard");
        assert!(writers > 0, "need at least one writer");
        let per_shard = AfConfig {
            readers: 1,
            writers: 1,
            policy: FPolicy::One,
        };
        let instances = (0..shards)
            .map(|_| {
                AfShared::allocate_custom(
                    layout,
                    per_shard,
                    HelpOrder::WaitersFirst,
                    CounterKind::CasLoop,
                )
            })
            .collect();
        let gates = (0..shards)
            .map(|s| layout.var(format!("SHGATE[{s}]"), Value::Int(0)))
            .collect();
        let wps = (0..shards)
            .map(|s| layout.var(format!("SHWP[{s}]"), Value::Int(0)))
            .collect();
        let wl = SimTournament::allocate(layout, "SHWL", writers);
        Arc::new(ShardedSimShared {
            shards: instances,
            gates,
            wps,
            wl,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The gate word of shard `s` (harness inspection only).
    pub fn peek_gate(&self, mem: &Memory, s: usize) -> i64 {
        mem.peek(self.gates[s]).expect_int()
    }
}

/// Program counter of a simulated sharded reader.
#[derive(Clone, Debug)]
enum SrPc {
    Remainder,
    /// Read `SHWP[s]`; spin while a writer is pending.
    ReadWp,
    /// Read the gate to decide leader / joiner / back off.
    ReadGate,
    /// CAS `0 -> 1`: claim the batch.
    CasLeader,
    /// CAS `w -> w+1`: join the batch seen as `w`.
    CasJoin {
        w: i64,
    },
    /// Leader: driving the inner `A_f` entry on the batch slot.
    Entry(AfReaderSim),
    /// Leader: re-read the gate to learn the member count for `CasOpen`.
    ReadGateForOpen,
    /// Leader: CAS `w -> w|OPEN`: publish the entry.
    CasOpen {
        w: i64,
    },
    /// Joiner that arrived pre-`OPEN`: spin on the gate until it opens.
    AwaitOpen,
    /// In the critical section.
    Cs,
    /// Read the gate to decide decrement vs drain.
    ExitReadGate,
    /// CAS `OPEN|1 -> DRAIN`: last member out closes the batch.
    CasDrain,
    /// CAS `w -> w-1`: leave, other members remain.
    CasDec {
        w: i64,
    },
    /// Last member: driving the inner `A_f` exit on the batch slot.
    InnerExit(AfReaderSim),
    /// Write `0`: reopen the shard.
    ClearGate,
}

impl SrPc {
    fn discriminant(&self) -> u8 {
        match self {
            SrPc::Remainder => 0,
            SrPc::ReadWp => 1,
            SrPc::ReadGate => 2,
            SrPc::CasLeader => 3,
            SrPc::CasJoin { .. } => 4,
            SrPc::Entry(_) => 5,
            SrPc::ReadGateForOpen => 6,
            SrPc::CasOpen { .. } => 7,
            SrPc::AwaitOpen => 8,
            SrPc::Cs => 9,
            SrPc::ExitReadGate => 10,
            SrPc::CasDrain => 11,
            SrPc::CasDec { .. } => 12,
            SrPc::InnerExit(_) => 13,
            SrPc::ClearGate => 14,
        }
    }
}

/// The op an in-flight inner machine is waiting on. The wrapper only
/// holds an inner machine while it is mid-entry or mid-exit, where every
/// poll is an `Op` (`Remainder`/`Cs` boundaries are consumed inside the
/// wrapper's `resume`).
fn inner_op(m: &dyn Program) -> Op {
    match m.poll() {
        Step::Op(op) => op,
        _ => unreachable!("inner machine yielded a non-op mid-drive"),
    }
}

/// A simulated sharded reader process. Reader `id` acts on shard
/// `id % shards` — processes are their own stable "thread slots".
#[derive(Clone, Debug)]
pub struct ShardedReaderSim {
    shared: Arc<ShardedSimShared>,
    id: usize,
    shard: usize,
    pc: SrPc,
}

impl ShardedReaderSim {
    /// Build the machine for reader `id`.
    pub fn new(shared: Arc<ShardedSimShared>, id: usize) -> Self {
        let shard = id % shared.shard_count();
        ShardedReaderSim {
            shared,
            id,
            shard,
            pc: SrPc::Remainder,
        }
    }

    /// This reader's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The shard this reader acts on.
    pub fn shard(&self) -> usize {
        self.shard
    }

    fn gate(&self) -> VarId {
        self.shared.gates[self.shard]
    }

    /// A fresh inner machine for the shard's batch slot, kicked out of
    /// its remainder section (resp. parked in its CS for the exit path).
    fn batch_entry(&self) -> AfReaderSim {
        let mut m = AfReaderSim::new(Arc::clone(&self.shared.shards[self.shard]), 0);
        m.resume(Value::Nil); // Remainder -> start of the entry section
        m
    }

    fn batch_exit(&self) -> AfReaderSim {
        let mut m = AfReaderSim::at_cs(Arc::clone(&self.shared.shards[self.shard]), 0);
        m.resume(Value::Nil); // Cs -> start of the exit section
        m
    }
}

impl Program for ShardedReaderSim {
    fn poll(&self) -> Step {
        match &self.pc {
            SrPc::Remainder => Step::Remainder,
            SrPc::ReadWp => Step::Op(Op::Read(self.shared.wps[self.shard])),
            SrPc::ReadGate | SrPc::ReadGateForOpen | SrPc::AwaitOpen | SrPc::ExitReadGate => {
                Step::Op(Op::Read(self.gate()))
            }
            SrPc::CasLeader => Step::Op(Op::cas(self.gate(), 0, 1)),
            SrPc::CasJoin { w } => Step::Op(Op::cas(self.gate(), *w, *w + 1)),
            SrPc::Entry(m) | SrPc::InnerExit(m) => Step::Op(inner_op(m)),
            SrPc::CasOpen { w } => Step::Op(Op::cas(self.gate(), *w, *w | OPEN)),
            SrPc::Cs => Step::Cs,
            SrPc::CasDrain => Step::Op(Op::cas(self.gate(), OPEN | 1, DRAIN)),
            SrPc::CasDec { w } => Step::Op(Op::cas(self.gate(), *w, *w - 1)),
            SrPc::ClearGate => Step::Op(Op::write(self.gate(), 0)),
        }
    }

    fn resume(&mut self, response: Value) {
        self.pc = match std::mem::replace(&mut self.pc, SrPc::Remainder) {
            SrPc::Remainder => SrPc::ReadWp, // begin passage
            SrPc::ReadWp => {
                if response.expect_int() != 0 {
                    SrPc::ReadWp // writer pending: hold off
                } else {
                    SrPc::ReadGate
                }
            }
            SrPc::ReadGate => {
                let w = response.expect_int();
                if w & DRAIN != 0 {
                    SrPc::ReadWp // an exit is retiring; retry from the top
                } else if w == 0 {
                    SrPc::CasLeader
                } else {
                    SrPc::CasJoin { w }
                }
            }
            SrPc::CasLeader => {
                if response.expect_int() == 0 {
                    SrPc::Entry(self.batch_entry()) // claimed: run the entry
                } else {
                    SrPc::ReadWp
                }
            }
            SrPc::CasJoin { w } => {
                if response.expect_int() == w {
                    if w & OPEN != 0 {
                        SrPc::Cs // joined an open batch
                    } else {
                        SrPc::AwaitOpen // joined behind the leader
                    }
                } else {
                    SrPc::ReadWp
                }
            }
            SrPc::Entry(mut m) => {
                m.resume(response);
                if m.phase() == Phase::Cs {
                    // Inner entry complete. The machine is dropped: the
                    // exit will be reconstructed (by whoever leaves
                    // last) via `at_cs` — sound because the counters
                    // are stateless.
                    SrPc::ReadGateForOpen
                } else {
                    SrPc::Entry(m)
                }
            }
            SrPc::ReadGateForOpen => SrPc::CasOpen {
                w: response.expect_int(),
            },
            SrPc::CasOpen { w } => {
                if response.expect_int() == w {
                    SrPc::Cs
                } else {
                    SrPc::ReadGateForOpen // a member joined; re-read
                }
            }
            SrPc::AwaitOpen => {
                if response.expect_int() & OPEN != 0 {
                    SrPc::Cs
                } else {
                    SrPc::AwaitOpen
                }
            }
            SrPc::Cs => SrPc::ExitReadGate, // begin exit
            SrPc::ExitReadGate => {
                let w = response.expect_int();
                debug_assert!(w & OPEN != 0 && w & (OPEN - 1) >= 1, "exit without entry");
                if w == OPEN | 1 {
                    SrPc::CasDrain
                } else {
                    SrPc::CasDec { w }
                }
            }
            SrPc::CasDrain => {
                if response.expect_int() == OPEN | 1 {
                    SrPc::InnerExit(self.batch_exit()) // last one out
                } else {
                    SrPc::ExitReadGate
                }
            }
            SrPc::CasDec { w } => {
                if response.expect_int() == w {
                    SrPc::Remainder // passage complete
                } else {
                    SrPc::ExitReadGate
                }
            }
            SrPc::InnerExit(mut m) => {
                m.resume(response);
                if m.phase() == Phase::Remainder {
                    SrPc::ClearGate
                } else {
                    SrPc::InnerExit(m)
                }
            }
            SrPc::ClearGate => SrPc::Remainder, // passage complete
        };
    }

    fn phase(&self) -> Phase {
        match self.pc {
            SrPc::Remainder => Phase::Remainder,
            SrPc::ReadWp
            | SrPc::ReadGate
            | SrPc::CasLeader
            | SrPc::CasJoin { .. }
            | SrPc::Entry(_)
            | SrPc::ReadGateForOpen
            | SrPc::CasOpen { .. }
            | SrPc::AwaitOpen => Phase::Entry,
            SrPc::Cs => Phase::Cs,
            SrPc::ExitReadGate
            | SrPc::CasDrain
            | SrPc::CasDec { .. }
            | SrPc::InnerExit(_)
            | SrPc::ClearGate => Phase::Exit,
        }
    }

    fn role(&self) -> Role {
        Role::Reader
    }

    fn on_crash(&mut self) {
        // Local state (pc, any in-flight inner machine) is lost. An
        // abandoned batch claim leaves the gate nonzero forever — it
        // blocks writers, never admits one, so safety is conservative
        // (as with abandoned A_f counter increments).
        self.pc = SrPc::Remainder;
    }

    fn fingerprint(&self, mut h: &mut dyn Hasher) {
        self.shard.hash(&mut h);
        self.pc.discriminant().hash(&mut h);
        match &self.pc {
            SrPc::CasJoin { w } | SrPc::CasOpen { w } | SrPc::CasDec { w } => w.hash(&mut h),
            SrPc::Entry(m) | SrPc::InnerExit(m) => m.fingerprint(h),
            _ => {}
        }
    }
}

/// Program counter of a simulated sharded writer.
#[derive(Clone, Debug)]
enum SwPc {
    Remainder,
    /// `SHWL.Enter()`.
    OuterEnter(wmutex::EnterMachine),
    /// `SHWP[s] := 1` for each shard.
    SetWp {
        s: usize,
    },
    /// Driving shard `s`'s inner `A_f` writer entry.
    InnerEnter {
        s: usize,
    },
    /// In the critical section (holding every shard).
    Cs,
    /// Driving shard `s`'s inner `A_f` writer exit.
    InnerExit {
        s: usize,
    },
    /// `SHWP[s] := 0` for each shard.
    ClearWp {
        s: usize,
    },
    /// `SHWL.Exit()`.
    OuterExit(wmutex::ExitMachine),
}

impl SwPc {
    fn discriminant(&self) -> u8 {
        match self {
            SwPc::Remainder => 0,
            SwPc::OuterEnter(_) => 1,
            SwPc::SetWp { .. } => 2,
            SwPc::InnerEnter { .. } => 3,
            SwPc::Cs => 4,
            SwPc::InnerExit { .. } => 5,
            SwPc::ClearWp { .. } => 6,
            SwPc::OuterExit(_) => 7,
        }
    }
}

/// A simulated sharded writer process: outer tournament, pending flags,
/// then every shard's `A_f` write lock in ascending shard order.
///
/// The per-shard writer machines are *persistent* fields (not rebuilt
/// per state like the reader's batch machines): an `A_f` writer parks in
/// its CS holding a local sequence number that its exit section needs,
/// so the machine that entered shard `s` must be the one that exits it.
#[derive(Debug)]
pub struct ShardedWriterSim {
    shared: Arc<ShardedSimShared>,
    id: usize,
    pc: SwPc,
    inners: Vec<AfWriterSim>,
}

/// Manual `Clone` so `clone_from` (the model checker's recycling-pool hot
/// path, see [`ccsim::Sim::clone_world_into`]) copies the per-shard
/// writers into the existing `Vec` instead of allocating a new one.
impl Clone for ShardedWriterSim {
    fn clone(&self) -> Self {
        ShardedWriterSim {
            shared: Arc::clone(&self.shared),
            id: self.id,
            pc: self.pc.clone(),
            inners: self.inners.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        if !Arc::ptr_eq(&self.shared, &src.shared) {
            self.shared = Arc::clone(&src.shared);
        }
        self.id = src.id;
        self.pc = src.pc.clone();
        self.inners.clone_from(&src.inners);
    }
}

impl ShardedWriterSim {
    /// Build the machine for writer `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range for the outer tournament.
    pub fn new(shared: Arc<ShardedSimShared>, id: usize) -> Self {
        assert!(id < shared.wl.processes(), "writer id {id} out of range");
        let inners = shared
            .shards
            .iter()
            .map(|sh| AfWriterSim::new(Arc::clone(sh), 0))
            .collect();
        ShardedWriterSim {
            shared,
            id,
            pc: SwPc::Remainder,
            inners,
        }
    }

    /// This writer's id.
    pub fn id(&self) -> usize {
        self.id
    }

    fn shards(&self) -> usize {
        self.inners.len()
    }
}

impl Program for ShardedWriterSim {
    fn poll(&self) -> Step {
        match &self.pc {
            SwPc::Remainder => Step::Remainder,
            SwPc::OuterEnter(m) => Step::Op(sub::poll_op(m)),
            SwPc::SetWp { s } => Step::Op(Op::write(self.shared.wps[*s], 1)),
            SwPc::InnerEnter { s } | SwPc::InnerExit { s } => Step::Op(inner_op(&self.inners[*s])),
            SwPc::Cs => Step::Cs,
            SwPc::ClearWp { s } => Step::Op(Op::write(self.shared.wps[*s], 0)),
            SwPc::OuterExit(m) => Step::Op(sub::poll_op(m)),
        }
    }

    fn resume(&mut self, response: Value) {
        self.pc = match std::mem::replace(&mut self.pc, SwPc::Remainder) {
            SwPc::Remainder => {
                // Begin passage: the outer tournament (empty when m=1).
                let enter = self.shared.wl.enter(self.id);
                if matches!(enter.poll(), ccsim::SubStep::Done(_)) {
                    SwPc::SetWp { s: 0 }
                } else {
                    SwPc::OuterEnter(enter)
                }
            }
            SwPc::OuterEnter(mut m) => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => SwPc::SetWp { s: 0 },
                sub::Drive::Running => SwPc::OuterEnter(m),
            },
            SwPc::SetWp { s } => {
                if s + 1 < self.shards() {
                    SwPc::SetWp { s: s + 1 }
                } else {
                    // All flags raised: start shard 0's writer entry.
                    self.inners[0].resume(Value::Nil);
                    SwPc::InnerEnter { s: 0 }
                }
            }
            SwPc::InnerEnter { s } => {
                self.inners[s].resume(response);
                if self.inners[s].phase() == Phase::Cs {
                    if s + 1 < self.shards() {
                        // Fixed ascending order: next shard.
                        self.inners[s + 1].resume(Value::Nil);
                        SwPc::InnerEnter { s: s + 1 }
                    } else {
                        SwPc::Cs // all shards held
                    }
                } else {
                    SwPc::InnerEnter { s }
                }
            }
            SwPc::Cs => {
                // Begin exit: release shard 0 first (order is free here;
                // ascending keeps it symmetric with entry).
                self.inners[0].resume(Value::Nil);
                SwPc::InnerExit { s: 0 }
            }
            SwPc::InnerExit { s } => {
                self.inners[s].resume(response);
                if self.inners[s].phase() == Phase::Remainder {
                    if s + 1 < self.shards() {
                        self.inners[s + 1].resume(Value::Nil);
                        SwPc::InnerExit { s: s + 1 }
                    } else {
                        SwPc::ClearWp { s: 0 }
                    }
                } else {
                    SwPc::InnerExit { s }
                }
            }
            SwPc::ClearWp { s } => {
                if s + 1 < self.shards() {
                    SwPc::ClearWp { s: s + 1 }
                } else {
                    let exit = self.shared.wl.exit(self.id);
                    if matches!(exit.poll(), ccsim::SubStep::Done(_)) {
                        SwPc::Remainder
                    } else {
                        SwPc::OuterExit(exit)
                    }
                }
            }
            SwPc::OuterExit(mut m) => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => SwPc::Remainder,
                sub::Drive::Running => SwPc::OuterExit(m),
            },
        };
    }

    fn phase(&self) -> Phase {
        match self.pc {
            SwPc::Remainder => Phase::Remainder,
            SwPc::Cs => Phase::Cs,
            SwPc::InnerExit { .. } | SwPc::ClearWp { .. } | SwPc::OuterExit(_) => Phase::Exit,
            _ => Phase::Entry,
        }
    }

    fn role(&self) -> Role {
        Role::Writer
    }

    fn on_crash(&mut self) {
        self.pc = SwPc::Remainder;
        for inner in &mut self.inners {
            inner.on_crash();
        }
    }

    fn fingerprint(&self, mut h: &mut dyn Hasher) {
        self.pc.discriminant().hash(&mut h);
        match &self.pc {
            SwPc::OuterEnter(m) => m.fingerprint(h),
            SwPc::OuterExit(m) => m.fingerprint(h),
            SwPc::SetWp { s }
            | SwPc::InnerEnter { s }
            | SwPc::InnerExit { s }
            | SwPc::ClearWp { s } => s.hash(&mut h),
            SwPc::Remainder | SwPc::Cs => {}
        }
        // The parked inner machines are real state (each holds its
        // shard's passage epoch while the parent is in or past its CS).
        for inner in &self.inners {
            inner.fingerprint(h);
        }
    }
}

/// A wired-up simulated sharded world (same pid convention as
/// [`crate::af_world`]: readers `0..n`, writers `n..n+m`).
#[derive(Debug)]
pub struct ShardedWorld {
    /// The simulation.
    pub sim: Sim,
    /// The sharded lock's shared-variable descriptor.
    pub shared: Arc<ShardedSimShared>,
    /// Id conventions.
    pub pids: PidMap,
}

/// Build a simulated sharded-`A_f` world: `shards` shards, `readers`
/// reader processes (reader `r` acts on shard `r % shards`), `writers`
/// writer processes.
///
/// # Panics
/// Panics if any count is zero.
pub fn sharded_af_world(
    shards: usize,
    readers: usize,
    writers: usize,
    protocol: Protocol,
) -> ShardedWorld {
    assert!(readers > 0, "need at least one reader");
    let mut layout = Layout::new();
    let shared = ShardedSimShared::allocate(&mut layout, shards, writers);
    let pids = PidMap { readers, writers };
    let mem = Memory::new(&layout, pids.total(), protocol);
    let mut procs: Vec<Box<dyn Program>> = Vec::with_capacity(pids.total());
    for r in 0..readers {
        procs.push(Box::new(ShardedReaderSim::new(Arc::clone(&shared), r)));
    }
    for w in 0..writers {
        procs.push(Box::new(ShardedWriterSim::new(Arc::clone(&shared), w)));
    }
    ShardedWorld {
        sim: Sim::new(mem, procs),
        shared,
        pids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim::{run_random, run_round_robin, run_solo, Prng, RunConfig};

    #[test]
    fn round_robin_completes_all_passages() {
        for (shards, readers, writers) in [(1, 2, 1), (2, 2, 1), (2, 3, 2)] {
            let mut world = sharded_af_world(shards, readers, writers, Protocol::WriteBack);
            let rc = RunConfig {
                passages_per_proc: 3,
                ..Default::default()
            };
            let report = run_round_robin(&mut world.sim, &rc)
                .unwrap_or_else(|e| panic!("{shards}/{readers}/{writers}: {e}"));
            assert!(report.completed.iter().all(|&c| c == 3));
        }
    }

    #[test]
    fn random_schedules_safe() {
        for seed in 0..20 {
            let mut world = sharded_af_world(2, 3, 1, Protocol::WriteBack);
            let mut rng = Prng::new(seed);
            let rc = RunConfig {
                passages_per_proc: 3,
                ..Default::default()
            };
            run_random(&mut world.sim, &mut rng, &rc)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn second_reader_joins_the_batch() {
        // Both readers on shard 0 (1 shard): the leader opens the batch,
        // the second joins without touching the inner instance again.
        let mut world = sharded_af_world(1, 2, 1, Protocol::WriteBack);
        let (r0, r1) = (world.pids.reader(0), world.pids.reader(1));
        run_solo(&mut world.sim, r0, 1_000, |s| s.phase(r0) == Phase::Cs).unwrap();
        assert_eq!(world.shared.peek_gate(world.sim.mem(), 0), OPEN | 1);
        let inner_c = world.shared.shards[0].peek_c(world.sim.mem(), 0);
        assert_eq!(inner_c, 1, "one batch entry on the inner instance");
        run_solo(&mut world.sim, r1, 1_000, |s| s.phase(r1) == Phase::Cs).unwrap();
        assert_eq!(world.shared.peek_gate(world.sim.mem(), 0), OPEN | 2);
        assert_eq!(
            world.shared.shards[0].peek_c(world.sim.mem(), 0),
            1,
            "joining must not re-enter the inner instance"
        );
        // Exits: first leaves the batch, last drains it.
        run_solo(&mut world.sim, r0, 1_000, |s| {
            s.phase(r0) == Phase::Remainder
        })
        .unwrap();
        assert_eq!(world.shared.peek_gate(world.sim.mem(), 0), OPEN | 1);
        run_solo(&mut world.sim, r1, 1_000, |s| {
            s.phase(r1) == Phase::Remainder
        })
        .unwrap();
        assert_eq!(world.shared.peek_gate(world.sim.mem(), 0), 0);
        assert_eq!(world.shared.shards[0].peek_c(world.sim.mem(), 0), 0);
    }

    #[test]
    fn writer_blocks_reader_on_every_shard() {
        let mut world = sharded_af_world(2, 2, 1, Protocol::WriteBack);
        let w0 = world.pids.writer(0);
        run_solo(&mut world.sim, w0, 10_000, |s| s.phase(w0) == Phase::Cs).unwrap();
        for r in 0..2 {
            let pid = world.pids.reader(r);
            assert_eq!(
                run_solo(&mut world.sim, pid, 2_000, |s| s.phase(pid) == Phase::Cs),
                None,
                "reader {r} entered past the writer"
            );
        }
        assert!(world.sim.check_mutual_exclusion().is_ok());
        run_solo(&mut world.sim, w0, 10_000, |s| {
            s.phase(w0) == Phase::Remainder
        })
        .unwrap();
        for r in 0..2 {
            let pid = world.pids.reader(r);
            run_solo(&mut world.sim, pid, 2_000, |s| s.phase(pid) == Phase::Cs)
                .expect("reader enters after the writer exits");
        }
    }

    #[test]
    fn reader_blocks_writer_until_batch_drains() {
        let mut world = sharded_af_world(2, 2, 1, Protocol::WriteBack);
        let (r1, w0) = (world.pids.reader(1), world.pids.writer(0));
        // Reader 1 (shard 1) parks in the CS: the writer must stall at
        // shard 1 *after* having locked shard 0 (ascending order).
        run_solo(&mut world.sim, r1, 1_000, |s| s.phase(r1) == Phase::Cs).unwrap();
        assert_eq!(
            run_solo(&mut world.sim, w0, 10_000, |s| s.phase(w0) == Phase::Cs),
            None
        );
        assert_eq!(
            world.sim.mem().peek(world.shared.wps[0]),
            Value::Int(1),
            "writer-pending raised on shard 0"
        );
        // Reader 0 (shard 0) is now held out by the pending flag even
        // though its own shard's batch is idle.
        let r0 = world.pids.reader(0);
        assert_eq!(
            run_solo(&mut world.sim, r0, 2_000, |s| s.phase(r0) == Phase::Cs),
            None,
            "wp flag must hold fresh readers out"
        );
        // Batch drains; writer completes.
        run_solo(&mut world.sim, r1, 1_000, |s| {
            s.phase(r1) == Phase::Remainder
        })
        .unwrap();
        run_solo(&mut world.sim, w0, 10_000, |s| s.phase(w0) == Phase::Cs)
            .expect("writer proceeds once the batch drains");
        assert!(world.sim.check_mutual_exclusion().is_ok());
    }
}
