//! # rwlock-repro — "On the Complexity of Reader-Writer Locks" in Rust
//!
//! A full reproduction of Danny Hendler's PODC 2016 paper: the `A_f`
//! family of RMR-optimal reader-writer locks, every substrate it depends
//! on, the lower-bound machinery of Theorem 5, and the experiment harness
//! that regenerates every complexity claim.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`rwcore`] — the paper's contribution: the `A_f` lock family
//!   (production atomics + simulated step machines) and baselines;
//! * [`ccsim`] — the cache-coherent shared-memory simulator with exact
//!   RMR accounting (the paper's §2 model, write-through & write-back);
//! * [`knowledge`] — awareness/familiarity sets (Definitions 1–3) and the
//!   Figure-1 lower-bound adversary;
//! * [`fcounter`] — Jayanti-style f-array counters from read/write/CAS;
//! * [`wmutex`] — the `Θ(log m)`-RMR read/write tournament mutex (`WL`);
//! * [`modelcheck`] — exhaustive interleaving exploration of simulated
//!   worlds.
//!
//! ## Quick start
//!
//! ```
//! use rwlock_repro::{AfConfig, AfRwLock, FPolicy};
//!
//! // 4 reader processes, 2 writer processes, balanced tradeoff point.
//! let cfg = AfConfig { readers: 4, writers: 2, policy: FPolicy::LogN };
//! let lock = AfRwLock::new(cfg, vec![0u32; 16]);
//!
//! let mut writer = lock.writer(0)?;
//! writer.write()[3] = 7;
//!
//! let mut reader = lock.reader(1)?;
//! assert_eq!(reader.read()[3], 7);
//! # Ok::<(), rwlock_repro::HandleError>(())
//! ```
//!
//! ## Measuring RMRs
//!
//! ```
//! use rwlock_repro::{af_world, AfConfig, Protocol};
//! use rwlock_repro::{run_solo, Phase};
//!
//! let mut world = af_world(AfConfig::new(8, 1), Protocol::WriteBack);
//! let r0 = world.pids.reader(0);
//! run_solo(&mut world.sim, r0, 10_000, |s| s.stats(r0).passages == 1);
//! let rmrs = world.sim.stats(r0).rmrs();
//! assert!(rmrs > 0 && rmrs < 60, "Θ(log(n/f)) passage cost, got {rmrs}");
//! ```

#![warn(missing_docs)]

pub use ccsim::{
    blocked_spinners, run_random, run_random_with_faults, run_round_robin, run_solo, FaultPlan,
    Layout, Memory, Op, Phase, Prng, ProcId, Program, Protocol, Role, RunConfig, RunError, Sim,
    Step, StepKind, SubMachine, SubStep, SymmetryClass, Trace, Value, VarId,
};
pub use fcounter::{CasCounter, FArray, FaaCounter, SharedCounter, SimCounter};
pub use knowledge::{
    analyze_trace, run_lower_bound, AdversarySetup, KnowledgeTracker, LowerBoundReport, ProcSet,
};
pub use modelcheck::{
    bounded_abort_invariant, bounded_exit_invariant, explore, explore_par, explore_par_with,
    explore_with, post_crash_acquirability_invariant, replay, shrink, CheckConfig, CheckError,
    CheckReport, SchedEntry, ShrinkOutcome, Symmetry, TraceArtifact, VisitedStats,
};
pub use rwcore::{
    af_world, af_world_custom, af_world_seq_reuse_bug, af_world_with_order, centralized_world,
    faa_world, gated_af_world, mutex_rw_world, reader_symmetry_classes, AfConfig, AfRwLock,
    AfShared, AfWorld, CentralizedRwLock, CounterKind, FPolicy, FaaRwLock, FaultSupport,
    GatedAfLock, HandleError, HelpOrder, LockEntry, LockRegistry, MutexRwLock, Opcode, PidMap,
    Rate, RawAfLock, RawRwLock, ReadGuard, ReaderHandle, RealLock, RealLockFactory, RealShape,
    Scenario, Signal, SimInstance, SimLock, WriteGuard, WriterHandle,
};
pub use wmutex::{wait_until, IdMutex, Patience, TournamentLock};
