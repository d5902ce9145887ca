//! The simulated tournament mutex: the same Peterson-tree algorithm as
//! [`crate::TournamentLock`], expressed as `ccsim` step machines.

use ccsim::{sub, Layout, Op, Phase, Program, Role, Step, SubMachine, SubStep, Value, VarId};
use std::hash::{Hash, Hasher};

/// Shared-memory descriptor of one Peterson node.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct SimNode {
    flag: [VarId; 2],
    turn: VarId,
}

/// Shared-memory descriptor of a simulated m-process tournament mutex:
/// its size and where its node variables start. `Copy`; every competing
/// process holds one inside its machines.
#[derive(Copy, Clone, Debug)]
pub struct SimTournament {
    m: usize,
    width: usize,
    /// The first variable of heap node 0 (a dummy); internal nodes are
    /// heap indices `1..width`, and node `x`'s `flag0`, `flag1` and
    /// `turn` are the variables `base + 3x`, `+ 1` and `+ 2`.
    base: VarId,
}

impl SimTournament {
    /// Allocate the mutex's variables: per node two `Bool(false)` flags
    /// and an `Int(0)` turn word.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn allocate(layout: &mut Layout, name: &str, m: usize) -> Self {
        assert!(m > 0, "a mutex needs at least one process");
        let width = m.next_power_of_two();
        let base = VarId(layout.len());
        for x in 0..width {
            layout.var(format!("{name}.n[{x}].flag0"), Value::Bool(false));
            layout.var(format!("{name}.n[{x}].flag1"), Value::Bool(false));
            layout.var(format!("{name}.n[{x}].turn"), Value::Int(0));
        }
        SimTournament { m, width, base }
    }

    /// Number of registered processes.
    pub fn processes(&self) -> usize {
        self.m
    }

    /// Tree depth: competitions per passage.
    pub fn levels(&self) -> usize {
        self.width.trailing_zeros() as usize
    }

    /// The levels process `p` competes at.
    fn path(&self, p: usize) -> Path {
        assert!(p < self.m, "process id {p} out of range");
        Path {
            base: self.base,
            leaf: self.width + p,
            len: self.levels(),
        }
    }

    /// Start an acquisition for process `p`.
    pub fn enter(&self, p: usize) -> EnterMachine {
        let path = self.path(p);
        EnterMachine {
            pc: if path.len == 0 {
                EnterPc::Done
            } else {
                EnterPc::WriteFlag { lvl: 0 }
            },
            path,
        }
    }

    /// Start a release for process `p` (who must hold the lock).
    pub fn exit(&self, p: usize) -> ExitMachine {
        ExitMachine::clearing(self.path(p))
    }
}

/// The lowest `len` levels of a process's path through the tree. Level
/// `lvl`'s `(node, side)` is computed from the process's leaf, so a
/// machine carrying the path is `Copy`.
#[derive(Copy, Clone, Debug)]
struct Path {
    base: VarId,
    /// Heap index of the process's leaf.
    leaf: usize,
    len: usize,
}

impl Path {
    /// The node and side competed at on level `lvl` (0 = bottom).
    fn at(&self, lvl: usize) -> (SimNode, usize) {
        debug_assert!(lvl < self.len);
        let v = self.base.0 + 3 * (self.leaf >> (lvl + 1));
        let node = SimNode {
            flag: [VarId(v), VarId(v + 1)],
            turn: VarId(v + 2),
        };
        (node, (self.leaf >> lvl) & 1)
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum EnterPc {
    WriteFlag { lvl: usize },
    WriteTurn { lvl: usize },
    ReadRival { lvl: usize },
    ReadTurn { lvl: usize },
    Done,
}

/// Step machine for lock acquisition: Peterson entry at each level,
/// bottom-up. Spins locally on `(rival flag, turn)` re-reads.
#[derive(Copy, Clone, Debug)]
pub struct EnterMachine {
    path: Path,
    pc: EnterPc,
}

impl EnterMachine {
    fn next_level(&self, lvl: usize) -> EnterPc {
        if lvl + 1 >= self.path.len {
            EnterPc::Done
        } else {
            EnterPc::WriteFlag { lvl: lvl + 1 }
        }
    }

    /// Withdraw from the tournament: an [`ExitMachine`] that clears
    /// exactly the flags this acquisition has already set, highest level
    /// first. Bounded (one write per set level) and wakeup-safe: a rival
    /// parked at this node re-reads our flag on every spin iteration, so
    /// clearing it unparks the rival exactly as a normal release would.
    /// Aborting before the first flag write yields an already-done
    /// machine.
    pub fn abort(&self) -> ExitMachine {
        // Levels with our flag set: everything below the current pc, plus
        // the current level once its WriteFlag has executed.
        let set = match self.pc {
            EnterPc::WriteFlag { lvl } => lvl,
            EnterPc::WriteTurn { lvl } | EnterPc::ReadRival { lvl } | EnterPc::ReadTurn { lvl } => {
                lvl + 1
            }
            EnterPc::Done => self.path.len,
        };
        ExitMachine::clearing(Path {
            len: set,
            ..self.path
        })
    }

    /// Injective word encoding of the pc — the dynamic state is one of
    /// five variants plus a level index (< 64 for any conceivable `m`).
    fn pc_code(&self) -> u64 {
        match self.pc {
            EnterPc::WriteFlag { lvl } => (lvl as u64) << 3,
            EnterPc::WriteTurn { lvl } => 1 | ((lvl as u64) << 3),
            EnterPc::ReadRival { lvl } => 2 | ((lvl as u64) << 3),
            EnterPc::ReadTurn { lvl } => 3 | ((lvl as u64) << 3),
            EnterPc::Done => 4,
        }
    }
}

impl SubMachine for EnterMachine {
    fn poll(&self) -> SubStep {
        match self.pc {
            EnterPc::WriteFlag { lvl } => {
                let (node, side) = self.path.at(lvl);
                SubStep::Op(Op::write(node.flag[side], true))
            }
            EnterPc::WriteTurn { lvl } => {
                let (node, side) = self.path.at(lvl);
                SubStep::Op(Op::write(node.turn, side as i64))
            }
            EnterPc::ReadRival { lvl } => {
                let (node, side) = self.path.at(lvl);
                SubStep::Op(Op::Read(node.flag[1 - side]))
            }
            EnterPc::ReadTurn { lvl } => {
                let (node, _) = self.path.at(lvl);
                SubStep::Op(Op::Read(node.turn))
            }
            EnterPc::Done => SubStep::Done(Value::Nil),
        }
    }

    fn resume(&mut self, response: Value) {
        self.pc = match self.pc {
            EnterPc::WriteFlag { lvl } => EnterPc::WriteTurn { lvl },
            EnterPc::WriteTurn { lvl } => EnterPc::ReadRival { lvl },
            EnterPc::ReadRival { lvl } => {
                if response.expect_bool() {
                    EnterPc::ReadTurn { lvl }
                } else {
                    self.next_level(lvl)
                }
            }
            EnterPc::ReadTurn { lvl } => {
                let (_, side) = self.path.at(lvl);
                if response.expect_int() == side as i64 {
                    EnterPc::ReadRival { lvl } // still our turn to wait: spin
                } else {
                    self.next_level(lvl)
                }
            }
            EnterPc::Done => panic!("EnterMachine resumed after completion"),
        };
    }

    fn fingerprint<H: Hasher + ?Sized>(&self, mut h: &mut H) {
        self.pc.hash(&mut h);
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum ExitPc {
    Clear { idx: usize },
    Done,
}

/// Step machine for lock release: clear our flag at each level, top-down.
/// Bounded: exactly `levels()` writes.
#[derive(Copy, Clone, Debug)]
pub struct ExitMachine {
    /// The levels to clear; `Clear { idx }` clears level
    /// `path.len - 1 - idx` (release order is top-down).
    path: Path,
    pc: ExitPc,
}

impl ExitMachine {
    /// Clear every level of `path`, highest first.
    fn clearing(path: Path) -> ExitMachine {
        ExitMachine {
            pc: if path.len == 0 {
                ExitPc::Done
            } else {
                ExitPc::Clear { idx: 0 }
            },
            path,
        }
    }

    /// Injective word encoding of the pc (see [`EnterMachine::pc_code`]).
    fn pc_code(&self) -> u64 {
        match self.pc {
            ExitPc::Clear { idx } => (idx as u64) << 1,
            ExitPc::Done => 1,
        }
    }
}

impl SubMachine for ExitMachine {
    fn poll(&self) -> SubStep {
        match self.pc {
            ExitPc::Clear { idx } => {
                let (node, side) = self.path.at(self.path.len - 1 - idx);
                SubStep::Op(Op::write(node.flag[side], false))
            }
            ExitPc::Done => SubStep::Done(Value::Nil),
        }
    }

    fn resume(&mut self, _response: Value) {
        self.pc = match self.pc {
            ExitPc::Clear { idx } if idx + 1 < self.path.len => ExitPc::Clear { idx: idx + 1 },
            ExitPc::Clear { .. } => ExitPc::Done,
            ExitPc::Done => panic!("ExitMachine resumed after completion"),
        };
    }

    fn fingerprint<H: Hasher + ?Sized>(&self, mut h: &mut H) {
        self.pc.hash(&mut h);
    }
}

/// A complete simulated mutex client: repeatedly acquires the tournament
/// lock, occupies the CS, and releases. Used to measure the `O(log m)`
/// writer-side RMR bound (experiment E6) and to model-check the mutex.
#[derive(Clone, Debug)]
pub struct MutexClient {
    mutex: SimTournament,
    id: usize,
    role: Role,
    state: ClientState,
}

#[derive(Copy, Clone, Debug)]
enum ClientState {
    Remainder,
    Entering(EnterMachine),
    Cs,
    Exiting(ExitMachine),
    /// Withdrawing from a not-yet-won tournament (see
    /// [`EnterMachine::abort`]): clearing the flags already set, after
    /// which the client returns to the remainder *without* a passage.
    Aborting(ExitMachine),
}

impl MutexClient {
    /// A client for process `id` of `mutex` (reported as a writer, since a
    /// mutex passage is always exclusive).
    pub fn new(mutex: SimTournament, id: usize) -> Self {
        Self::with_role(mutex, id, Role::Writer)
    }

    /// A client reporting the given role — used when a plain mutex stands
    /// in as a (degenerate) reader-writer lock, where "reader" clients
    /// still take the lock exclusively.
    pub fn with_role(mutex: SimTournament, id: usize, role: Role) -> Self {
        MutexClient {
            mutex,
            id,
            role,
            state: ClientState::Remainder,
        }
    }
}

impl Program for MutexClient {
    fn poll(&self) -> Step {
        match &self.state {
            ClientState::Remainder => Step::Remainder,
            ClientState::Entering(m) => Step::Op(sub::poll_op(m)),
            ClientState::Cs => Step::Cs,
            ClientState::Exiting(m) => Step::Op(sub::poll_op(m)),
            ClientState::Aborting(m) => Step::Op(sub::poll_op(m)),
        }
    }

    fn resume(&mut self, response: Value) {
        self.state = match self.state {
            ClientState::Remainder => {
                let enter = self.mutex.enter(self.id);
                if matches!(enter.poll(), SubStep::Done(_)) {
                    ClientState::Cs // m = 1: empty tournament
                } else {
                    ClientState::Entering(enter)
                }
            }
            ClientState::Entering(mut m) => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => ClientState::Cs,
                sub::Drive::Running => ClientState::Entering(m),
            },
            ClientState::Cs => {
                let exit = self.mutex.exit(self.id);
                if matches!(exit.poll(), SubStep::Done(_)) {
                    ClientState::Remainder
                } else {
                    ClientState::Exiting(exit)
                }
            }
            ClientState::Exiting(mut m) => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => ClientState::Remainder,
                sub::Drive::Running => ClientState::Exiting(m),
            },
            ClientState::Aborting(mut m) => match sub::drive(&mut m, response) {
                sub::Drive::Finished(_) => ClientState::Remainder,
                sub::Drive::Running => ClientState::Aborting(m),
            },
        };
    }

    fn phase(&self) -> Phase {
        match self.state {
            ClientState::Remainder => Phase::Remainder,
            ClientState::Entering(_) => Phase::Entry,
            ClientState::Cs => Phase::Cs,
            ClientState::Exiting(_) => Phase::Exit,
            // Withdrawal is still part of the (failed) entry attempt: the
            // client has never reached the CS, so it is not "exiting".
            ClientState::Aborting(_) => Phase::Entry,
        }
    }

    fn role(&self) -> Role {
        self.role
    }

    fn on_crash(&mut self) {
        // A crash while holding (or contending for) the tournament leaves
        // its flags in shared memory; the client restarts from the
        // remainder section.
        self.state = ClientState::Remainder;
    }

    fn can_abort(&self) -> bool {
        // Withdrawal is only meaningful while still competing for the
        // lock; once the tournament is won the passage is committed.
        matches!(self.state, ClientState::Entering(_))
    }

    fn on_abort(&mut self) {
        let ClientState::Entering(m) = &self.state else {
            unreachable!("on_abort called without can_abort");
        };
        let exit = m.abort();
        self.state = if matches!(exit.poll(), SubStep::Done(_)) {
            ClientState::Remainder // nothing set yet: instant withdrawal
        } else {
            ClientState::Aborting(exit)
        };
    }

    fn fingerprint(&self, mut h: &mut dyn Hasher) {
        match &self.state {
            ClientState::Remainder => 0u8.hash(&mut h),
            ClientState::Entering(m) => {
                1u8.hash(&mut h);
                m.fingerprint(h);
            }
            ClientState::Cs => 2u8.hash(&mut h),
            ClientState::Exiting(m) => {
                3u8.hash(&mut h);
                m.fingerprint(h);
            }
            ClientState::Aborting(m) => {
                4u8.hash(&mut h);
                m.fingerprint(h);
            }
        }
    }

    /// Fast path for the simulator's incremental configuration
    /// fingerprint: the whole dynamic state (state tag + nested machine
    /// pc) packs injectively into one word, so skip the hasher walk
    /// entirely. Covers exactly the state [`Program::fingerprint`] hashes
    /// (`mutex`/`id`/`role` are construction-time constants).
    fn fingerprint64(&self) -> u64 {
        let code = match &self.state {
            ClientState::Remainder => 0,
            ClientState::Entering(m) => 1 | (m.pc_code() << 2),
            ClientState::Cs => 2,
            ClientState::Exiting(m) => 3 | (m.pc_code() << 2),
            // ≡ 4 (mod 8): disjoint from 0, 2, the ≡1 (mod 4) Entering
            // codes and the ≡3 (mod 4) Exiting codes.
            ClientState::Aborting(m) => 4 | (m.pc_code() << 3),
        };
        ccsim::mix64(code)
    }
}

/// Build a ready-to-run world of `m` mutex clients sharing one tournament
/// lock, under the given protocol.
pub fn mutex_world(m: usize, protocol: ccsim::Protocol) -> ccsim::Sim {
    let mut layout = Layout::new();
    let mutex = SimTournament::allocate(&mut layout, "WL", m);
    let mem = ccsim::Memory::new(&layout, m, protocol);
    let procs: Vec<Box<dyn Program>> = (0..m)
        .map(|i| Box::new(MutexClient::new(mutex, i)) as Box<dyn Program>)
        .collect();
    ccsim::Sim::new(mem, procs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim::{run_random, run_round_robin, Prng, ProcId, Protocol, RunConfig};

    #[test]
    fn round_robin_passages_complete_for_various_m() {
        for m in [1usize, 2, 3, 4, 5, 8] {
            let mut sim = mutex_world(m, Protocol::WriteBack);
            let cfg = RunConfig {
                passages_per_proc: 3,
                ..Default::default()
            };
            let report = run_round_robin(&mut sim, &cfg).unwrap_or_else(|e| panic!("m={m}: {e}"));
            assert!(report.completed.iter().all(|&c| c == 3), "m={m}");
        }
    }

    #[test]
    fn random_schedules_preserve_mutual_exclusion() {
        for seed in 0..20 {
            let mut sim = mutex_world(4, Protocol::WriteBack);
            let mut rng = Prng::new(seed);
            let cfg = RunConfig {
                passages_per_proc: 5,
                ..Default::default()
            };
            run_random(&mut sim, &mut rng, &cfg).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn solo_passage_rmrs_are_logarithmic() {
        for m in [2usize, 4, 16, 64, 256] {
            let mut sim = mutex_world(m, Protocol::WriteBack);
            let p = ProcId(0);
            // One uncontended passage.
            let cfg = RunConfig {
                passages_per_proc: 1,
                ..Default::default()
            };
            // Drive only process 0 by using run_solo.
            ccsim::run_solo(&mut sim, p, 10_000, |s| s.stats(p).passages == 1).unwrap();
            let _ = cfg;
            let rmrs = sim.stats(p).rmrs();
            let levels = (m.next_power_of_two().trailing_zeros()) as u64;
            // Peterson entry: 2 writes + 1-2 reads per level; exit: 1 write.
            assert!(rmrs >= 3 * levels, "m={m}: rmrs={rmrs}");
            assert!(rmrs <= 6 * levels + 2, "m={m}: rmrs={rmrs}");
        }
    }

    #[test]
    fn write_through_also_completes() {
        let mut sim = mutex_world(3, Protocol::WriteThrough);
        let cfg = RunConfig {
            passages_per_proc: 2,
            ..Default::default()
        };
        run_round_robin(&mut sim, &cfg).unwrap();
    }

    #[test]
    fn fast_fingerprint64_never_aliases_states_the_hash_walk_separates() {
        // The hand-rolled `fingerprint64` must be a function of exactly
        // the state `fingerprint` hashes: associate each fast digest with
        // the full hasher-walk digest and demand the mapping stays 1:1
        // across a long random execution (including crashes and aborts).
        use std::collections::HashMap;
        let mut seen: HashMap<u64, u64> = HashMap::new();
        let mut sim = mutex_world(3, Protocol::WriteBack);
        let mut rng = Prng::new(0xfa57_f1e1);
        let mut distinct = 0usize;
        for i in 0..6000 {
            let p = ProcId(rng.below(3));
            if i % 97 == 96 {
                sim.crash(p);
            } else if i % 53 == 52 {
                sim.abort(p); // tolerated no-op unless mid-entry
            } else {
                sim.step(p);
            }
            for q in 0..3 {
                let prog = sim.program(ProcId(q));
                let mut h = ccsim::FxHasher::default();
                prog.fingerprint(&mut h);
                let walk = h.finish();
                match seen.insert(prog.fingerprint64(), walk) {
                    None => distinct += 1,
                    Some(prev) => assert_eq!(
                        prev, walk,
                        "fingerprint64 aliased two states the walk separates"
                    ),
                }
            }
        }
        assert!(distinct > 10, "execution explored too few distinct states");
    }

    /// Drive `p` alone until it reaches the remainder section, returning
    /// the number of steps taken. Panics after `limit` steps.
    fn drive_to_remainder(sim: &mut ccsim::Sim, p: ProcId, limit: u64) -> u64 {
        ccsim::run_solo(sim, p, limit, |s| s.phase(p) == Phase::Remainder)
            .unwrap_or_else(|| panic!("{p} did not return to remainder within {limit} steps"))
    }

    #[test]
    fn abort_mid_entry_is_bounded_and_counts_as_abort() {
        let mut sim = mutex_world(4, Protocol::WriteBack);
        let p = ProcId(0);
        // Step into the entry section (past the first flag write).
        for _ in 0..4 {
            sim.step(p);
        }
        assert_eq!(sim.phase(p), Phase::Entry);
        assert!(sim.abort(p).is_some(), "entry section must be abortable");
        let levels = 2; // m = 4
        let steps = drive_to_remainder(&mut sim, p, 2 * levels + 2);
        assert!(
            steps <= levels + 1,
            "withdrawal must clear at most one flag per set level, took {steps}"
        );
        assert_eq!(sim.stats(p).aborts, 1);
        assert_eq!(sim.stats(p).passages, 0, "an abort is not a passage");
    }

    #[test]
    fn abort_releases_a_parked_rival_without_losing_wakeups() {
        // p0 owns the lock; p1 parks in the tree behind it; p1 aborts.
        // p0 must then complete a *second* passage, and p1 a fresh one —
        // the withdrawal left no stale flag that blocks anyone.
        let mut sim = mutex_world(2, Protocol::WriteBack);
        let (p0, p1) = (ProcId(0), ProcId(1));
        ccsim::run_solo(&mut sim, p0, 1_000, |s| s.phase(p0) == Phase::Cs).unwrap();
        // p1 sets its flag and starts spinning on the rival's.
        for _ in 0..8 {
            sim.step(p1);
        }
        assert_eq!(sim.phase(p1), Phase::Entry);
        assert!(sim.abort(p1).is_some());
        drive_to_remainder(&mut sim, p1, 16);
        assert_eq!(sim.stats(p1).aborts, 1);
        // Both processes still make progress after the withdrawal.
        ccsim::run_solo(&mut sim, p0, 1_000, |s| s.stats(p0).passages == 2).unwrap();
        ccsim::run_solo(&mut sim, p1, 1_000, |s| s.stats(p1).passages == 1).unwrap();
    }

    #[test]
    fn abort_is_refused_outside_the_entry_section() {
        let mut sim = mutex_world(2, Protocol::WriteBack);
        let p = ProcId(0);
        assert!(sim.abort(p).is_none(), "remainder is not abortable");
        ccsim::run_solo(&mut sim, p, 1_000, |s| s.phase(p) == Phase::Cs).unwrap();
        assert!(sim.abort(p).is_none(), "the CS is committed");
        sim.step(p); // start exiting
        assert_eq!(sim.phase(p), Phase::Exit);
        assert!(sim.abort(p).is_none(), "the exit section is committed");
        drive_to_remainder(&mut sim, p, 16);
        assert_eq!(sim.stats(p).passages, 1);
        assert_eq!(sim.stats(p).aborts, 0);
    }

    #[test]
    fn abort_before_first_flag_write_is_instant() {
        let mut sim = mutex_world(4, Protocol::WriteBack);
        let p = ProcId(2);
        sim.step(p); // Remainder -> Entering, first flag write still pending
        assert_eq!(sim.phase(p), Phase::Entry);
        assert!(sim.abort(p).is_some());
        assert_eq!(sim.phase(p), Phase::Remainder, "nothing set: instant");
        assert_eq!(sim.stats(p).aborts, 1);
    }

    #[test]
    fn node_x_is_the_layout_variables_named_n_x() {
        for m in 1..=9 {
            let mut layout = Layout::new();
            layout.var("before", Value::Nil); // the tree need not start at 0
            let t = SimTournament::allocate(&mut layout, "WL", m);
            layout.var("after", Value::Nil);
            for p in 0..m {
                // The parent walk from p's leaf: each node, and which
                // child the walk came from.
                let mut walk = Vec::new();
                let mut x = t.width + p;
                while x > 1 {
                    walk.push((x / 2, x & 1));
                    x /= 2;
                }
                let path = t.path(p);
                assert_eq!(path.len, walk.len(), "m={m} p={p}");
                for (lvl, &(x, side)) in walk.iter().enumerate() {
                    let (node, at_side) = path.at(lvl);
                    assert_eq!(at_side, side, "m={m} p={p} lvl={lvl}");
                    assert_eq!(layout.name(node.flag[0]), format!("WL.n[{x}].flag0"));
                    assert_eq!(layout.name(node.flag[1]), format!("WL.n[{x}].flag1"));
                    assert_eq!(layout.name(node.turn), format!("WL.n[{x}].turn"));
                }
                // Release clears the same flags, top-down.
                let mut exit = t.exit(p);
                let mut cleared = Vec::new();
                while let SubStep::Op(Op::Write(var, _)) = exit.poll() {
                    cleared.push(var);
                    exit.resume(Value::Nil);
                }
                let flags: Vec<VarId> = (0..path.len)
                    .rev()
                    .map(|lvl| path.at(lvl))
                    .map(|(node, side)| node.flag[side])
                    .collect();
                assert_eq!(cleared, flags, "m={m} p={p}");
            }
        }
    }

    #[test]
    fn enter_machine_for_single_process_is_instant() {
        let mut layout = Layout::new();
        let t = SimTournament::allocate(&mut layout, "WL", 1);
        assert!(matches!(t.enter(0).poll(), SubStep::Done(_)));
        assert!(matches!(t.exit(0).poll(), SubStep::Done(_)));
    }
}
