//! Simulated baseline locks: the centralized CAS lock and the FAA
//! read-indicator lock as `ccsim` machines, plus world builders.
//!
//! These exist so experiment E7 can put the same adversarial schedules to
//! `A_f` and to the baselines and compare reader-exit RMR costs:
//! the centralized lock's exit (a CAS retry loop) degrades linearly with
//! contention, while the FAA lock's exit is one step — below the
//! `Ω(log n)` bound, possible only because FAA is outside the model.

use crate::world::PidMap;
use ccsim::{
    sub, Layout, Memory, Op, Phase, Program, Protocol, Role, Sim, Step, SubMachine, SubStep, Value,
    VarId,
};
use std::hash::{Hash, Hasher};
use wmutex::SimTournament;

/// Sentinel added to the centralized state word while a writer holds the
/// lock (far above any reader count).
const WRITER: i64 = 1 << 40;

/// A wired-up simulated baseline world.
#[derive(Debug)]
pub struct BaselineWorld {
    /// The simulation (readers `ProcId(0..n)`, writers `ProcId(n..n+m)`).
    pub sim: Sim,
    /// Id conventions.
    pub pids: PidMap,
    /// The central state variable (for harness inspection); `None` for
    /// the mutex-only world.
    pub state: Option<VarId>,
}

#[derive(Clone, Debug)]
enum CrPc {
    Remainder,
    /// Spin: read the state word until no writer bit.
    ReadEntry,
    /// CAS `state: seen -> seen + 1`.
    CasInc {
        seen: i64,
    },
    Cs,
    /// Read the state word before decrementing.
    ReadExit,
    /// CAS `state: seen -> seen - 1`.
    CasDec {
        seen: i64,
    },
}

/// A reader of the centralized CAS lock.
#[derive(Clone, Debug)]
pub struct CentralReaderSim {
    state: VarId,
    pc: CrPc,
}

impl CentralReaderSim {
    /// Build a reader over the shared state word.
    pub fn new(state: VarId) -> Self {
        CentralReaderSim {
            state,
            pc: CrPc::Remainder,
        }
    }
}

impl Program for CentralReaderSim {
    fn poll(&self) -> Step {
        match self.pc {
            CrPc::Remainder => Step::Remainder,
            CrPc::ReadEntry | CrPc::ReadExit => Step::Op(Op::Read(self.state)),
            CrPc::CasInc { seen } => Step::Op(Op::cas(self.state, seen, seen + 1)),
            CrPc::Cs => Step::Cs,
            CrPc::CasDec { seen } => Step::Op(Op::cas(self.state, seen, seen - 1)),
        }
    }

    fn resume(&mut self, response: Value) {
        self.pc = match self.pc {
            CrPc::Remainder => CrPc::ReadEntry,
            CrPc::ReadEntry => {
                let s = response.expect_int();
                if s >= WRITER {
                    CrPc::ReadEntry // writer active: spin
                } else {
                    CrPc::CasInc { seen: s }
                }
            }
            CrPc::CasInc { seen } => {
                if response.expect_int() == seen {
                    CrPc::Cs // CAS succeeded
                } else {
                    CrPc::ReadEntry // contention: retry
                }
            }
            CrPc::Cs => CrPc::ReadExit,
            CrPc::ReadExit => CrPc::CasDec {
                seen: response.expect_int(),
            },
            CrPc::CasDec { seen } => {
                if response.expect_int() == seen {
                    CrPc::Remainder
                } else {
                    CrPc::ReadExit // the unbounded-exit retry loop
                }
            }
        };
    }

    fn phase(&self) -> Phase {
        match self.pc {
            CrPc::Remainder => Phase::Remainder,
            CrPc::ReadEntry | CrPc::CasInc { .. } => Phase::Entry,
            CrPc::Cs => Phase::Cs,
            CrPc::ReadExit | CrPc::CasDec { .. } => Phase::Exit,
        }
    }

    fn role(&self) -> Role {
        Role::Reader
    }

    fn on_crash(&mut self) {
        self.pc = CrPc::Remainder;
    }

    fn fingerprint(&self, mut h: &mut dyn Hasher) {
        match self.pc {
            CrPc::Remainder => 0u8.hash(&mut h),
            CrPc::ReadEntry => 1u8.hash(&mut h),
            CrPc::CasInc { seen } => {
                2u8.hash(&mut h);
                seen.hash(&mut h);
            }
            CrPc::Cs => 3u8.hash(&mut h),
            CrPc::ReadExit => 4u8.hash(&mut h),
            CrPc::CasDec { seen } => {
                5u8.hash(&mut h);
                seen.hash(&mut h);
            }
        }
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum CwPc {
    Remainder,
    /// CAS `state: 0 -> WRITER`, retrying forever.
    CasAcquire,
    Cs,
    /// Write `state := 0`.
    Clear,
}

/// A writer of the centralized CAS lock.
#[derive(Clone, Debug)]
pub struct CentralWriterSim {
    state: VarId,
    pc: CwPc,
}

impl CentralWriterSim {
    /// Build a writer over the shared state word.
    pub fn new(state: VarId) -> Self {
        CentralWriterSim {
            state,
            pc: CwPc::Remainder,
        }
    }
}

impl Program for CentralWriterSim {
    fn poll(&self) -> Step {
        match self.pc {
            CwPc::Remainder => Step::Remainder,
            CwPc::CasAcquire => Step::Op(Op::cas(self.state, 0, WRITER)),
            CwPc::Cs => Step::Cs,
            CwPc::Clear => Step::Op(Op::write(self.state, 0)),
        }
    }

    fn resume(&mut self, response: Value) {
        self.pc = match self.pc {
            CwPc::Remainder => CwPc::CasAcquire,
            CwPc::CasAcquire => {
                if response.expect_int() == 0 {
                    CwPc::Cs
                } else {
                    CwPc::CasAcquire
                }
            }
            CwPc::Cs => CwPc::Clear,
            CwPc::Clear => CwPc::Remainder,
        };
    }

    fn phase(&self) -> Phase {
        match self.pc {
            CwPc::Remainder => Phase::Remainder,
            CwPc::CasAcquire => Phase::Entry,
            CwPc::Cs => Phase::Cs,
            CwPc::Clear => Phase::Exit,
        }
    }

    fn role(&self) -> Role {
        Role::Writer
    }

    fn on_crash(&mut self) {
        self.pc = CwPc::Remainder;
    }

    fn fingerprint(&self, mut h: &mut dyn Hasher) {
        self.pc.hash(&mut h);
    }
}

/// Build a simulated world of the centralized CAS lock.
pub fn centralized_world(readers: usize, writers: usize, protocol: Protocol) -> BaselineWorld {
    let mut layout = Layout::new();
    let state = layout.var("state", Value::Int(0));
    let pids = PidMap { readers, writers };
    let mem = Memory::new(&layout, pids.total(), protocol);
    let mut procs: Vec<Box<dyn Program>> = Vec::new();
    for _ in 0..readers {
        procs.push(Box::new(CentralReaderSim::new(state)));
    }
    for _ in 0..writers {
        procs.push(Box::new(CentralWriterSim::new(state)));
    }
    BaselineWorld {
        sim: Sim::new(mem, procs),
        pids,
        state: Some(state),
    }
}

#[derive(Clone, Debug)]
enum FrPc {
    Remainder,
    /// `readers.faa(+1)`.
    Inc,
    /// Read the writer flag.
    CheckFlag,
    /// Back out: `readers.faa(-1)`.
    Retreat,
    /// Spin until the writer flag clears.
    SpinFlag,
    Cs,
    /// Exit: one `readers.faa(-1)`.
    Dec,
}

/// A reader of the FAA read-indicator lock. Its exit section is a single
/// fetch-and-add step.
#[derive(Clone, Debug)]
pub struct FaaReaderSim {
    readers: VarId,
    wflag: VarId,
    pc: FrPc,
}

impl FaaReaderSim {
    /// Build a reader over the indicator and flag variables.
    pub fn new(readers: VarId, wflag: VarId) -> Self {
        FaaReaderSim {
            readers,
            wflag,
            pc: FrPc::Remainder,
        }
    }
}

impl Program for FaaReaderSim {
    fn poll(&self) -> Step {
        match self.pc {
            FrPc::Remainder => Step::Remainder,
            FrPc::Inc => Step::Op(Op::Faa {
                var: self.readers,
                delta: 1,
            }),
            FrPc::CheckFlag | FrPc::SpinFlag => Step::Op(Op::Read(self.wflag)),
            FrPc::Retreat | FrPc::Dec => Step::Op(Op::Faa {
                var: self.readers,
                delta: -1,
            }),
            FrPc::Cs => Step::Cs,
        }
    }

    fn resume(&mut self, response: Value) {
        self.pc = match self.pc {
            FrPc::Remainder => FrPc::Inc,
            FrPc::Inc => FrPc::CheckFlag,
            FrPc::CheckFlag => {
                if response.expect_int() == 0 {
                    FrPc::Cs
                } else {
                    FrPc::Retreat
                }
            }
            FrPc::Retreat => FrPc::SpinFlag,
            FrPc::SpinFlag => {
                if response.expect_int() == 0 {
                    FrPc::Inc
                } else {
                    FrPc::SpinFlag
                }
            }
            FrPc::Cs => FrPc::Dec,
            FrPc::Dec => FrPc::Remainder,
        };
    }

    fn phase(&self) -> Phase {
        match self.pc {
            FrPc::Remainder => Phase::Remainder,
            FrPc::Cs => Phase::Cs,
            FrPc::Dec => Phase::Exit,
            _ => Phase::Entry,
        }
    }

    fn role(&self) -> Role {
        Role::Reader
    }

    fn on_crash(&mut self) {
        self.pc = FrPc::Remainder;
    }

    fn fingerprint(&self, mut h: &mut dyn Hasher) {
        (match self.pc {
            FrPc::Remainder => 0u8,
            FrPc::Inc => 1,
            FrPc::CheckFlag => 2,
            FrPc::Retreat => 3,
            FrPc::SpinFlag => 4,
            FrPc::Cs => 5,
            FrPc::Dec => 6,
        })
        .hash(&mut h);
    }
}

#[derive(Clone, Debug)]
enum FwPc {
    Remainder,
    WlEnter(wmutex::EnterMachine),
    /// `wflag := 1`.
    Raise,
    /// Spin until the indicator drains to 0.
    Drain,
    Cs,
    /// `wflag := 0`.
    Lower,
    WlExit(wmutex::ExitMachine),
}

/// A writer of the FAA read-indicator lock.
#[derive(Clone, Debug)]
pub struct FaaWriterSim {
    readers: VarId,
    wflag: VarId,
    wl: SimTournament,
    id: usize,
    pc: FwPc,
}

impl FaaWriterSim {
    /// Build writer `id` over the shared variables and writer mutex.
    pub fn new(readers: VarId, wflag: VarId, wl: SimTournament, id: usize) -> Self {
        FaaWriterSim {
            readers,
            wflag,
            wl,
            id,
            pc: FwPc::Remainder,
        }
    }
}

impl Program for FaaWriterSim {
    fn poll(&self) -> Step {
        match &self.pc {
            FwPc::Remainder => Step::Remainder,
            FwPc::WlEnter(m) => Step::Op(sub::poll_op(m)),
            FwPc::Raise => Step::Op(Op::write(self.wflag, 1)),
            FwPc::Drain => Step::Op(Op::Read(self.readers)),
            FwPc::Cs => Step::Cs,
            FwPc::Lower => Step::Op(Op::write(self.wflag, 0)),
            FwPc::WlExit(m) => Step::Op(sub::poll_op(m)),
        }
    }

    fn resume(&mut self, response: Value) {
        self.pc = match std::mem::replace(&mut self.pc, FwPc::Remainder) {
            FwPc::Remainder => {
                let enter = self.wl.enter(self.id);
                if matches!(enter.poll(), SubStep::Done(_)) {
                    FwPc::Raise
                } else {
                    FwPc::WlEnter(enter)
                }
            }
            FwPc::WlEnter(mut m) => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => FwPc::Raise,
                sub::Drive::Running => FwPc::WlEnter(m),
            },
            FwPc::Raise => FwPc::Drain,
            FwPc::Drain => {
                if response.expect_int() == 0 {
                    FwPc::Cs
                } else {
                    FwPc::Drain
                }
            }
            FwPc::Cs => FwPc::Lower,
            FwPc::Lower => {
                let exit = self.wl.exit(self.id);
                if matches!(exit.poll(), SubStep::Done(_)) {
                    FwPc::Remainder
                } else {
                    FwPc::WlExit(exit)
                }
            }
            FwPc::WlExit(mut m) => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => FwPc::Remainder,
                sub::Drive::Running => FwPc::WlExit(m),
            },
        };
    }

    fn phase(&self) -> Phase {
        match self.pc {
            FwPc::Remainder => Phase::Remainder,
            FwPc::Cs => Phase::Cs,
            FwPc::Lower | FwPc::WlExit(_) => Phase::Exit,
            _ => Phase::Entry,
        }
    }

    fn role(&self) -> Role {
        Role::Writer
    }

    fn on_crash(&mut self) {
        self.pc = FwPc::Remainder;
    }

    fn fingerprint(&self, mut h: &mut dyn Hasher) {
        match &self.pc {
            FwPc::Remainder => 0u8.hash(&mut h),
            FwPc::WlEnter(m) => {
                1u8.hash(&mut h);
                m.fingerprint(h);
            }
            FwPc::Raise => 2u8.hash(&mut h),
            FwPc::Drain => 3u8.hash(&mut h),
            FwPc::Cs => 4u8.hash(&mut h),
            FwPc::Lower => 5u8.hash(&mut h),
            FwPc::WlExit(m) => {
                6u8.hash(&mut h);
                m.fingerprint(h);
            }
        }
    }
}

/// Build a simulated world where a single tournament mutex plays the
/// reader-writer lock: every passage, reader or writer, is exclusive.
/// The degenerate baseline — correct, `Θ(log(n + m))` RMRs for everyone,
/// and zero reader parallelism.
pub fn mutex_rw_world(readers: usize, writers: usize, protocol: Protocol) -> BaselineWorld {
    let mut layout = Layout::new();
    let mutex = wmutex::SimTournament::allocate(&mut layout, "M", readers + writers);
    let pids = PidMap { readers, writers };
    let mem = Memory::new(&layout, pids.total(), protocol);
    let mut procs: Vec<Box<dyn Program>> = Vec::new();
    for r in 0..readers {
        procs.push(Box::new(wmutex::MutexClient::with_role(
            mutex,
            r,
            Role::Reader,
        )));
    }
    for w in 0..writers {
        procs.push(Box::new(wmutex::MutexClient::with_role(
            mutex,
            readers + w,
            Role::Writer,
        )));
    }
    BaselineWorld {
        sim: Sim::new(mem, procs),
        pids,
        state: None,
    }
}

/// Build a simulated world of the FAA read-indicator lock.
pub fn faa_world(readers: usize, writers: usize, protocol: Protocol) -> BaselineWorld {
    let mut layout = Layout::new();
    let indicator = layout.var("readers", Value::Int(0));
    let wflag = layout.var("wflag", Value::Int(0));
    let wl = SimTournament::allocate(&mut layout, "WL", writers);
    let pids = PidMap { readers, writers };
    let mem = Memory::new(&layout, pids.total(), protocol);
    let mut procs: Vec<Box<dyn Program>> = Vec::new();
    for _ in 0..readers {
        procs.push(Box::new(FaaReaderSim::new(indicator, wflag)));
    }
    for w in 0..writers {
        procs.push(Box::new(FaaWriterSim::new(indicator, wflag, wl, w)));
    }
    BaselineWorld {
        sim: Sim::new(mem, procs),
        pids,
        state: Some(indicator),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim::{run_random, run_round_robin, run_solo, Prng, RunConfig};

    #[test]
    fn centralized_round_robin_completes() {
        let mut world = centralized_world(3, 2, Protocol::WriteBack);
        let rc = RunConfig {
            passages_per_proc: 4,
            ..Default::default()
        };
        let report = run_round_robin(&mut world.sim, &rc).unwrap();
        assert!(report.completed.iter().all(|&c| c == 4));
    }

    #[test]
    fn centralized_random_schedules() {
        for seed in 0..20 {
            let mut world = centralized_world(4, 1, Protocol::WriteBack);
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
    fn faa_round_robin_completes() {
        let mut world = faa_world(3, 2, Protocol::WriteBack);
        let rc = RunConfig {
            passages_per_proc: 4,
            ..Default::default()
        };
        let report = run_round_robin(&mut world.sim, &rc).unwrap();
        assert!(report.completed.iter().all(|&c| c == 4));
    }

    #[test]
    fn faa_random_schedules() {
        for seed in 0..20 {
            let mut world = faa_world(4, 2, Protocol::WriteBack);
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
    fn faa_reader_exit_is_one_step() {
        let mut world = faa_world(2, 1, Protocol::WriteBack);
        let r0 = world.pids.reader(0);
        run_solo(&mut world.sim, r0, 100, |s| s.phase(r0) == ccsim::Phase::Cs).unwrap();
        world.sim.reset_stats();
        run_solo(&mut world.sim, r0, 100, |s| {
            s.phase(r0) == ccsim::Phase::Remainder
        })
        .unwrap();
        assert_eq!(
            world.sim.stats(r0).ops_in(ccsim::Phase::Exit),
            1,
            "FAA exit section is exactly one step"
        );
    }

    #[test]
    fn centralized_readers_share_cs() {
        let mut world = centralized_world(3, 1, Protocol::WriteBack);
        for r in 0..3 {
            let pid = world.pids.reader(r);
            run_solo(&mut world.sim, pid, 100, |s| {
                s.phase(pid) == ccsim::Phase::Cs
            })
            .unwrap();
        }
        assert_eq!(world.sim.procs_in_cs().len(), 3);
        assert!(world.sim.check_mutual_exclusion().is_ok());
    }

    #[test]
    fn mutex_rw_world_completes_and_serializes() {
        let mut world = mutex_rw_world(3, 1, Protocol::WriteBack);
        let rc = RunConfig {
            passages_per_proc: 3,
            ..Default::default()
        };
        let report = run_round_robin(&mut world.sim, &rc).unwrap();
        assert!(report.completed.iter().all(|&c| c == 3));
        // Readers cannot share the CS through a plain mutex: get one
        // reader in, then show a second reader cannot enter.
        let mut world = mutex_rw_world(2, 1, Protocol::WriteBack);
        let r0 = world.pids.reader(0);
        let r1 = world.pids.reader(1);
        run_solo(&mut world.sim, r0, 1_000, |s| {
            s.phase(r0) == ccsim::Phase::Cs
        })
        .unwrap();
        let reached = run_solo(&mut world.sim, r1, 2_000, |s| {
            s.phase(r1) == ccsim::Phase::Cs
        });
        assert_eq!(reached, None, "mutex baseline serializes readers");
    }

    #[test]
    fn centralized_writer_excludes_readers() {
        let mut world = centralized_world(2, 1, Protocol::WriteBack);
        let w0 = world.pids.writer(0);
        let r0 = world.pids.reader(0);
        run_solo(&mut world.sim, w0, 100, |s| s.phase(w0) == ccsim::Phase::Cs).unwrap();
        let reached = run_solo(&mut world.sim, r0, 2_000, |s| {
            s.phase(r0) == ccsim::Phase::Cs
        });
        assert_eq!(reached, None, "reader entered CS during writer passage");
    }
}
