//! A writer-biased `A_f` variant (the paper's §6 future-work direction).
//!
//! `A_f` writers can starve under a continuous stream of readers: the
//! PREENTRY handshake needs a moment with `C[i] = 0`, and fresh readers
//! keep the counters positive. This variant adds a single *gate*
//! variable, owned by whichever writer holds `WL`:
//!
//! * the `WL` holder writes `GATE := 1` immediately after acquiring `WL`
//!   and `GATE := 0` in its exit section (before `WL.Exit`);
//! * readers spin on `GATE = 0` *before* their `A_f` entry section
//!   (before line 31's `C[i].add(1)`).
//!
//! Because only the current `WL` holder writes the gate, plain writes
//! suffice (no counter needed), and because readers are held *outside*
//! the `A_f` protocol, every `A_f` invariant — and therefore Mutual
//! Exclusion — is untouched; the model checker confirms it exhaustively.
//!
//! **The trade:** the writer's group-drain completes as fast as the
//! in-flight readers exit, but Lemma 16 is lost — an adversarial schedule
//! can now starve a *reader* behind back-to-back writer passages. RMR
//! costs gain `O(1)` per overlapping writer passage on the reader side
//! and `+2` on the writer side, so Theorem 18's complexity bounds are
//! preserved. Experiment E14 quantifies the latency gain.

use crate::af::real::RawAfLock;
use crate::af::shared::AfShared;
use crate::af::sim::{AfReaderSim, AfWriterSim};
use crate::config::AfConfig;
use crate::world::PidMap;
use ccsim::{Layout, Memory, Op, Phase, Program, Protocol, Role, Sim, Step, Value, VarId};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The real-atomics writer-biased lock: [`RawAfLock`] plus the gate.
#[derive(Debug)]
pub struct GatedAfLock {
    inner: RawAfLock,
    gate: AtomicU64,
}

impl GatedAfLock {
    /// Build a gated lock for the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration has zero readers or writers.
    pub fn new(cfg: AfConfig) -> Self {
        GatedAfLock {
            inner: RawAfLock::new(cfg),
            gate: AtomicU64::new(0),
        }
    }

    /// The lock's configuration.
    pub fn config(&self) -> &AfConfig {
        self.inner.config()
    }

    /// Reader entry: wait out any active writer at the gate, then run the
    /// `A_f` entry section.
    pub fn reader_lock(&self, reader_id: usize) {
        while self.gate.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        self.inner.reader_lock(reader_id);
    }

    /// Reader exit: unchanged `A_f` exit section.
    pub fn reader_unlock(&self, reader_id: usize) {
        self.inner.reader_unlock(reader_id);
    }

    /// Writer entry: acquire `WL`, raise the gate, then run the rest of
    /// the `A_f` entry section.
    pub fn writer_lock(&self, writer_id: usize) {
        // RawAfLock::writer_lock begins with WL.lock; we need the gate
        // raised between WL acquisition and the PREENTRY phase. The raw
        // lock doesn't expose that seam, so the gate is raised *before*
        // WL here: pending writers bias readers away even while queued,
        // which only strengthens the writer preference (the gate is
        // cleared by the writer that finishes, so it stays 1 as long as
        // any writer is inside or queued-and-first).
        self.gate.store(1, Ordering::SeqCst);
        self.inner.writer_lock(writer_id);
    }

    /// Writer exit: clear the gate, then run the `A_f` exit section.
    pub fn writer_unlock(&self, writer_id: usize) {
        self.gate.store(0, Ordering::SeqCst);
        self.inner.writer_unlock(writer_id);
    }
}

impl crate::baselines::real::RawRwLock for GatedAfLock {
    fn reader_lock(&self, id: usize) {
        Self::reader_lock(self, id);
    }
    fn reader_unlock(&self, id: usize) {
        Self::reader_unlock(self, id);
    }
    fn writer_lock(&self, id: usize) {
        Self::writer_lock(self, id);
    }
    fn writer_unlock(&self, id: usize) {
        Self::writer_unlock(self, id);
    }
    fn name(&self) -> &'static str {
        "a_f-gated"
    }
}

/// Simulated gated reader: spin on the gate, then behave as [`AfReaderSim`].
#[derive(Clone, Debug)]
pub struct GatedReaderSim {
    gate: VarId,
    at_gate: bool,
    inner: AfReaderSim,
}

impl GatedReaderSim {
    /// Build the machine for reader `id`.
    pub fn new(gate: VarId, shared: Arc<AfShared>, id: usize) -> Self {
        GatedReaderSim {
            gate,
            at_gate: false,
            inner: AfReaderSim::new(shared, id),
        }
    }
}

impl Program for GatedReaderSim {
    fn poll(&self) -> Step {
        if self.at_gate {
            Step::Op(Op::Read(self.gate))
        } else {
            self.inner.poll()
        }
    }

    fn resume(&mut self, response: Value) {
        if self.at_gate {
            if response.expect_int() == 0 {
                self.at_gate = false;
                // Proceed into the A_f entry section proper.
                self.inner.resume(Value::Nil);
            }
            // else: keep spinning at the gate.
        } else if self.inner.phase() == Phase::Remainder {
            // Beginning a passage: head to the gate first. The inner
            // machine is advanced only once the gate opens.
            self.at_gate = true;
        } else {
            self.inner.resume(response);
        }
    }

    fn phase(&self) -> Phase {
        if self.at_gate {
            Phase::Entry
        } else {
            self.inner.phase()
        }
    }

    fn role(&self) -> Role {
        Role::Reader
    }

    fn on_crash(&mut self) {
        self.at_gate = false;
        self.inner.on_crash();
    }

    fn fingerprint(&self, mut h: &mut dyn Hasher) {
        self.at_gate.hash(&mut h);
        self.inner.fingerprint(h);
    }
}

/// Simulated gated writer: raise the gate, run [`AfWriterSim`], clear the
/// gate at the start of the exit section.
#[derive(Clone, Debug)]
pub struct GatedWriterSim {
    gate: VarId,
    pc: GatePc,
    inner: AfWriterSim,
}

#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum GatePc {
    /// Delegating to the inner machine.
    Inner,
    /// About to write `GATE := 1` (start of entry).
    Raise,
    /// About to write `GATE := 0` (start of exit).
    Clear,
}

impl GatedWriterSim {
    /// Build the machine for writer `id`.
    pub fn new(gate: VarId, shared: Arc<AfShared>, id: usize) -> Self {
        GatedWriterSim {
            gate,
            pc: GatePc::Inner,
            inner: AfWriterSim::new(shared, id),
        }
    }
}

impl Program for GatedWriterSim {
    fn poll(&self) -> Step {
        match self.pc {
            GatePc::Raise => Step::Op(Op::write(self.gate, 1)),
            GatePc::Clear => Step::Op(Op::write(self.gate, 0)),
            GatePc::Inner => self.inner.poll(),
        }
    }

    fn resume(&mut self, response: Value) {
        match self.pc {
            GatePc::Raise | GatePc::Clear => {
                self.pc = GatePc::Inner;
            }
            GatePc::Inner => match self.inner.poll() {
                Step::Remainder => {
                    // Begin passage: raise the gate first, then let the
                    // inner machine start (WL.Enter etc.).
                    self.inner.resume(Value::Nil);
                    self.pc = GatePc::Raise;
                }
                Step::Cs => {
                    // Leave the CS: clear the gate first, then start the
                    // inner exit section.
                    self.inner.resume(Value::Nil);
                    self.pc = GatePc::Clear;
                }
                Step::Op(_) => self.inner.resume(response),
            },
        }
    }

    fn phase(&self) -> Phase {
        match self.pc {
            GatePc::Raise => Phase::Entry,
            GatePc::Clear => Phase::Exit,
            GatePc::Inner => self.inner.phase(),
        }
    }

    fn role(&self) -> Role {
        Role::Writer
    }

    fn on_crash(&mut self) {
        self.pc = GatePc::Inner;
        self.inner.on_crash();
    }

    fn fingerprint(&self, mut h: &mut dyn Hasher) {
        self.pc.hash(&mut h);
        self.inner.fingerprint(h);
    }
}

/// A wired-up simulated gated world (same pid convention as
/// [`crate::af_world`]).
#[derive(Debug)]
pub struct GatedWorld {
    /// The simulation.
    pub sim: Sim,
    /// The `A_f` shared variables.
    pub shared: Arc<AfShared>,
    /// The gate variable.
    pub gate: VarId,
    /// Id conventions.
    pub pids: PidMap,
}

/// Build a simulated writer-biased world.
pub fn gated_af_world(cfg: AfConfig, protocol: Protocol) -> GatedWorld {
    let mut layout = Layout::new();
    let shared = AfShared::allocate(&mut layout, cfg);
    let gate = layout.var("GATE", Value::Int(0));
    let pids = PidMap::from(cfg);
    let mem = Memory::new(&layout, pids.total(), protocol);
    let mut procs: Vec<Box<dyn Program>> = Vec::new();
    for r in 0..cfg.readers {
        procs.push(Box::new(GatedReaderSim::new(gate, Arc::clone(&shared), r)));
    }
    for w in 0..cfg.writers {
        procs.push(Box::new(GatedWriterSim::new(gate, Arc::clone(&shared), w)));
    }
    GatedWorld {
        sim: Sim::new(mem, procs),
        shared,
        gate,
        pids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FPolicy;
    use ccsim::{run_random, run_round_robin, run_solo, Prng, RunConfig};

    #[test]
    fn round_robin_completes() {
        let cfg = AfConfig {
            readers: 3,
            writers: 2,
            policy: FPolicy::Groups(2),
        };
        let mut world = gated_af_world(cfg, Protocol::WriteBack);
        let rc = RunConfig {
            passages_per_proc: 3,
            ..Default::default()
        };
        let report = run_round_robin(&mut world.sim, &rc).unwrap();
        assert!(report.completed.iter().all(|&c| c == 3));
    }

    #[test]
    fn random_schedules_safe() {
        for seed in 0..20 {
            let cfg = AfConfig {
                readers: 3,
                writers: 1,
                policy: FPolicy::One,
            };
            let mut world = gated_af_world(cfg, Protocol::WriteBack);
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
    fn gate_blocks_new_readers_during_writer_passage() {
        let cfg = AfConfig {
            readers: 2,
            writers: 1,
            policy: FPolicy::One,
        };
        let mut world = gated_af_world(cfg, Protocol::WriteBack);
        let (r0, w0) = (world.pids.reader(0), world.pids.writer(0));
        // Writer raises the gate and enters.
        run_solo(&mut world.sim, w0, 10_000, |s| s.phase(w0) == Phase::Cs).unwrap();
        assert_eq!(world.sim.mem().peek(world.gate), Value::Int(1));
        // A fresh reader cannot even increment C[0]: it parks at the gate.
        assert_eq!(
            run_solo(&mut world.sim, r0, 2_000, |s| s.phase(r0) == Phase::Cs),
            None
        );
        assert_eq!(
            world.shared.peek_c(world.sim.mem(), 0),
            0,
            "gated reader must not have entered the A_f protocol"
        );
        // Writer leaves; the gate opens; the reader proceeds.
        run_solo(&mut world.sim, w0, 10_000, |s| {
            s.phase(w0) == Phase::Remainder
        })
        .unwrap();
        assert_eq!(world.sim.mem().peek(world.gate), Value::Int(0));
        run_solo(&mut world.sim, r0, 10_000, |s| s.phase(r0) == Phase::Cs).unwrap();
    }

    #[test]
    fn concurrent_entering_still_holds_when_writers_quiet() {
        // All writers in remainder => gate is 0 => readers enter in
        // bounded steps (the +1 is the gate read).
        let cfg = AfConfig {
            readers: 4,
            writers: 1,
            policy: FPolicy::One,
        };
        let mut world = gated_af_world(cfg, Protocol::WriteBack);
        let r0 = world.pids.reader(0);
        let steps =
            run_solo(&mut world.sim, r0, 100, |s| s.phase(r0) == Phase::Cs).expect("bounded entry");
        assert!(steps < 40, "{steps} steps");
    }
}
