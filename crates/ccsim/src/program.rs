//! The step-machine interface simulated algorithms implement.
//!
//! Every simulated algorithm is an explicit state machine that performs
//! exactly one shared-memory operation per step, mirroring the paper's
//! per-line program-counter (`pc`) reasoning. The two-phase
//! [`Program::poll`] / [`Program::resume`] protocol lets schedulers *peek*
//! at a process's pending operation without executing it — which is exactly
//! what the Theorem-5 adversary needs in order to decide whether the next
//! step would be an expanding step.

use crate::fxhash::FxHasher;
use crate::op::Op;
use crate::value::Value;
use std::any::Any;
use std::fmt;
use std::hash::Hasher;

/// Whether a process is one of the paper's `n` readers or `m` writers.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Role {
    /// A reader process (`R_1..R_n`): may share the CS with other readers.
    Reader,
    /// A writer process (`W_1..W_m`): requires exclusive access to the CS.
    Writer,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Reader => write!(f, "reader"),
            Role::Writer => write!(f, "writer"),
        }
    }
}

/// The section of a passage a process is currently in (§2.1).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Phase {
    /// Not in the midst of a passage.
    #[default]
    Remainder,
    /// Executing the entry section.
    Entry,
    /// Inside the critical section.
    Cs,
    /// Executing the exit section.
    Exit,
}

impl Phase {
    /// Dense index for per-phase metric arrays.
    pub fn index(self) -> usize {
        match self {
            Phase::Remainder => 0,
            Phase::Entry => 1,
            Phase::Cs => 2,
            Phase::Exit => 3,
        }
    }

    /// All phases, in [`Phase::index`] order.
    pub const ALL: [Phase; 4] = [Phase::Remainder, Phase::Entry, Phase::Cs, Phase::Exit];
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Remainder => write!(f, "remainder"),
            Phase::Entry => write!(f, "entry"),
            Phase::Cs => write!(f, "CS"),
            Phase::Exit => write!(f, "exit"),
        }
    }
}

/// What a process will do when next scheduled.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Step {
    /// Execute one shared-memory operation.
    Op(Op),
    /// The process is in the critical section; scheduling it (via
    /// [`Program::resume`] with [`Value::Nil`]) makes it begin its exit
    /// section.
    Cs,
    /// The process is in the remainder section; scheduling it begins a new
    /// passage (entry section).
    Remainder,
}

/// A simulated lock-client process: performs passages (entry section →
/// critical section → exit section) forever, one shared-memory operation
/// per step.
///
/// # Contract
///
/// * `poll` is **pure**: it must return the same `Step` until `resume` is
///   called, and must not mutate observable state.
/// * After `poll` returns [`Step::Op`], the scheduler applies the operation
///   to [`crate::Memory`] and passes the response to `resume`.
/// * After `poll` returns [`Step::Cs`] or [`Step::Remainder`], the scheduler
///   passes [`Value::Nil`] to `resume` to let the process proceed (into its
///   exit section / a fresh passage respectively). The scheduler may instead
///   leave the process parked there indefinitely.
/// * `phase` reports the current section and must be consistent with `poll`
///   (`Step::Cs` ⟺ `Phase::Cs`, `Step::Remainder` ⟺ `Phase::Remainder`).
///
/// Programs must be `Clone + 'static`: the model checker branches a
/// configuration by copying every process, through the [`ProgramClone`]
/// impl that every such type gets. They must also be [`Send`]: the
/// parallel model checker (`modelcheck::explore_par`) moves cloned worlds
/// between worker threads. Step machines are plain owned data (program
/// counters, [`Value`]s, nested sub-machines), so a `#[derive(Clone)]`
/// is all a program writes to meet these bounds.
pub trait Program: ProgramClone + Send {
    /// The process's pending action. Pure; see the trait-level contract.
    fn poll(&self) -> Step;

    /// Advance past the pending action, feeding it the memory response
    /// (or [`Value::Nil`] for section transitions).
    fn resume(&mut self, response: Value);

    /// The section of the passage the process is currently executing.
    fn phase(&self) -> Phase;

    /// Reader or writer.
    fn role(&self) -> Role;

    /// The process crashed (the RME individual-crash model): all local
    /// state — program counter, in-flight sub-machines, local variables —
    /// is lost, and the process restarts in its remainder section. Shared
    /// memory is *not* rolled back; implementations must not touch it here
    /// (a crash is not a step). After this returns, [`Program::phase`]
    /// must report [`Phase::Remainder`].
    ///
    /// Local mirrors of *single-writer* shared variables (e.g. an f-array
    /// leaf contribution) may survive: recovery code could always restore
    /// them by re-reading the variable, and keeping them can only
    /// over-count — which is conservative for Mutual Exclusion.
    fn on_crash(&mut self);

    /// Whether the process can *abort* its passage from its current state:
    /// switch onto a withdrawal path that returns it to the remainder
    /// section in a bounded number of its own steps, without losing
    /// wakeups for other processes. The default (`false`) means the
    /// algorithm has no abort protocol (or none from this state);
    /// [`crate::Sim::abort`] is then a no-op.
    fn can_abort(&self) -> bool {
        false
    }

    /// Switch the process onto its withdrawal path. Called by
    /// [`crate::Sim::abort`] only when [`Program::can_abort`] is true.
    /// Like [`Program::on_crash`], this must not touch shared memory (the
    /// abort *request* is not a step) — the unwinding itself happens in
    /// subsequent ordinary steps. Implementations may land directly in
    /// [`Phase::Remainder`] when there is nothing to undo.
    fn on_abort(&mut self) {}

    /// Hash all local state (program counter and local variables) into `h`.
    /// Used by the model checker to fingerprint global configurations.
    fn fingerprint(&self, h: &mut dyn Hasher);

    /// A 64-bit digest of all local state, used by [`crate::Sim`]'s
    /// incremental configuration fingerprint: after each step or crash of
    /// this process, the simulator re-derives only *this* process's
    /// signature and patches it into the maintained global hash.
    ///
    /// The default routes [`Program::fingerprint`] through the in-tree
    /// [`FxHasher`], which is already cheap; implementations whose state
    /// packs into a few words may override it with a direct encoding
    /// (see `wmutex`). Those with nested [`SubMachine`]s may instead
    /// hash one generic body that `fingerprint` also calls, so a
    /// concrete `FxHasher` reaches every field without a virtual call
    /// (see the `A_f` machines in `rwcore`). Overrides must depend on
    /// **exactly** the state `fingerprint` hashes — dropping a field
    /// aliases distinct configurations and silently truncates model
    /// checking.
    ///
    /// Contract notes for the two fingerprint modes built on this digest:
    ///
    /// * **Concrete** ([`crate::Sim::fingerprint`]) — the digest is fed
    ///   through a process-index-seeded hash, so it may freely encode
    ///   process ids or absolute variable ids.
    /// * **Canonical** ([`crate::Sim::fingerprint_canonical_annotated`])
    ///   — for processes declared interchangeable in a
    ///   [`crate::SymmetryClass`], the digest enters **index-free** into
    ///   a member word that is summed with the other members' words;
    ///   it must then be identical for any two members in swapped local
    ///   states (no process ids, no member-distinguishing variable ids —
    ///   member-owned values are instead canonicalized via the class's
    ///   owned slices).
    /// * In the concrete mode the digest is only ever mixed through a
    ///   hasher's multiply, never bare-XORed with index or slot terms:
    ///   digests of the `mix64` family would otherwise cancel pairwise
    ///   and merge mirror configurations (see `proc_sig` in `sim.rs`).
    fn fingerprint64(&self) -> u64 {
        let mut h = FxHasher::default();
        self.fingerprint(&mut h);
        h.finish()
    }
}

/// Branching support every [`Program`] gets for free: implemented once,
/// below, for each `Program + Clone` type, so a process is written as an
/// ordinary `#[derive(Clone)]` struct and never implements this itself.
///
/// In-place copies go through the program's `Clone::clone_from`. A
/// derived `Clone` does not forward `clone_from` to its fields, so a
/// field that owns heap memory (a `Vec`, say) is reallocated on every
/// branch; share immutable data through an `Arc` instead, or write
/// `clone_from` by hand (as `rwcore`'s sharded writer does).
pub trait ProgramClone: Any {
    /// Duplicate this process with its full local state.
    fn clone_box(&self) -> Box<dyn Program>;

    /// Copy this process's full local state *into* `dst`, reusing `dst`'s
    /// storage, and return `true` — or return `false` if `dst` is a
    /// different concrete type (the caller then falls back to
    /// [`ProgramClone::clone_box`]). The model checker branches millions
    /// of configurations; recycling each popped world through this method
    /// turns every per-process `Box` allocation of [`Sim::clone_world`]
    /// into a `clone_from`.
    ///
    /// [`Sim::clone_world`]: crate::Sim::clone_world
    fn clone_into_dyn(&self, dst: &mut dyn Program) -> bool;
}

impl<T: Program + Clone> ProgramClone for T {
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }

    fn clone_into_dyn(&self, dst: &mut dyn Program) -> bool {
        let dst: &mut dyn Any = dst;
        match dst.downcast_mut::<T>() {
            Some(slot) => {
                slot.clone_from(self);
                true
            }
            None => false,
        }
    }
}

/// What a sub-machine (an operation of a shared object used *inside* an
/// algorithm, e.g. a counter `add` or a mutex `enter`) will do next.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SubStep {
    /// Execute one shared-memory operation.
    Op(Op),
    /// The object operation has completed with this result.
    Done(Value),
}

/// A state machine for a single operation on a shared object, nested inside
/// a [`Program`] the way the paper's `A_f` nests counter and mutex calls.
///
/// The same poll/resume contract as [`Program`] applies. A parent machine
/// forwards `poll`/`resume` while a sub-machine is live and folds the
/// [`SubStep::Done`] result into its own state; see
/// [`crate::sub::drive`] for the standard helper.
pub trait SubMachine {
    /// The pending operation, or the final result.
    fn poll(&self) -> SubStep;

    /// Advance past the pending operation with its memory response.
    fn resume(&mut self, response: Value);

    /// Hash all local state into `h` (model-checking fingerprints).
    ///
    /// Generic over the hasher, so a parent hashing into a concrete
    /// hasher (such as [`FxHasher`] in an overridden
    /// [`Program::fingerprint64`]) reaches every nested machine without
    /// a virtual call; `H = dyn Hasher` serves [`Program::fingerprint`].
    /// The `Self: Sized` bound keeps `dyn SubMachine` usable for
    /// [`SubMachine::poll`] and [`SubMachine::resume`].
    fn fingerprint<H: Hasher + ?Sized>(&self, h: &mut H)
    where
        Self: Sized;
}

/// Helpers for composing [`SubMachine`]s into parent machines.
pub mod sub {
    use super::{SubMachine, SubStep};
    use crate::value::Value;

    /// Outcome of [`drive`]: either the sub-machine finished with a value,
    /// or it is still running (after having consumed the response).
    #[derive(Copy, Clone, PartialEq, Eq, Debug)]
    pub enum Drive {
        /// The sub-operation completed with this result.
        Finished(Value),
        /// More steps remain.
        Running,
    }

    /// Feed `response` to `m` and report whether it has completed.
    ///
    /// Parents call this from their own `resume` and, on
    /// [`Drive::Finished`], advance their program counter — guaranteeing a
    /// sub-machine never rests in a `Done` state across a `poll`.
    #[inline]
    pub fn drive<M: SubMachine + ?Sized>(m: &mut M, response: Value) -> Drive {
        m.resume(response);
        match m.poll() {
            SubStep::Done(v) => Drive::Finished(v),
            SubStep::Op(_) => Drive::Running,
        }
    }

    /// Poll a sub-machine that is known to be mid-operation.
    ///
    /// # Panics
    /// Panics if the sub-machine is already done — parents must fold
    /// completed sub-machines out of their state (see [`drive`]).
    #[inline]
    pub fn poll_op<M: SubMachine + ?Sized>(m: &M) -> crate::op::Op {
        match m.poll() {
            SubStep::Op(op) => op,
            SubStep::Done(v) => {
                panic!("sub-machine polled while Done({v:?}); parent must fold results eagerly")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::VarId;

    /// A sub-machine that reads `var` `reps` times and returns the last
    /// response.
    struct ReadLoop {
        var: VarId,
        remaining: u32,
        last: Value,
    }

    impl SubMachine for ReadLoop {
        fn poll(&self) -> SubStep {
            if self.remaining == 0 {
                SubStep::Done(self.last)
            } else {
                SubStep::Op(Op::Read(self.var))
            }
        }
        fn resume(&mut self, response: Value) {
            assert!(self.remaining > 0);
            self.remaining -= 1;
            self.last = response;
        }
        fn fingerprint<H: Hasher + ?Sized>(&self, h: &mut H) {
            h.write_u32(self.remaining);
        }
    }

    #[test]
    fn drive_reports_completion() {
        let mut m = ReadLoop {
            var: VarId(0),
            remaining: 2,
            last: Value::Nil,
        };
        assert_eq!(sub::poll_op(&m), Op::Read(VarId(0)));
        assert_eq!(sub::drive(&mut m, Value::Int(1)), sub::Drive::Running);
        assert_eq!(
            sub::drive(&mut m, Value::Int(2)),
            sub::Drive::Finished(Value::Int(2))
        );
    }

    #[test]
    #[should_panic(expected = "polled while Done")]
    fn poll_op_panics_when_done() {
        let m = ReadLoop {
            var: VarId(0),
            remaining: 0,
            last: Value::Nil,
        };
        sub::poll_op(&m);
    }

    #[test]
    fn phase_indices_are_dense() {
        for (i, ph) in Phase::ALL.iter().enumerate() {
            assert_eq!(ph.index(), i);
        }
    }
}
