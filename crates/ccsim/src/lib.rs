//! # ccsim — a cache-coherent shared-memory simulator with exact RMR accounting
//!
//! This crate implements the abstract machine of *"On the Complexity of
//! Reader-Writer Locks"* (Hendler, PODC 2016), §2: an asynchronous
//! shared-memory system in which each step applies one read, write, or CAS
//! to a shared variable, under either the **write-through** or
//! **write-back** cache-coherence protocol, charging a *remote memory
//! reference* (RMR) exactly when the protocol says one occurs.
//!
//! Algorithms are written as explicit step machines ([`Program`] /
//! [`SubMachine`]) so that schedulers — round-robin and random runners
//! here, an exhaustive model checker in `modelcheck`, and the Theorem-5
//! adversary in `knowledge` — fully control interleaving and can *peek* at
//! each process's pending operation.
//!
//! ## Quick tour
//!
//! ```
//! use ccsim::{Layout, Memory, Op, ProcId, Protocol, Value};
//!
//! // Declare shared variables and build a memory for two processes.
//! let mut layout = Layout::new();
//! let x = layout.var("x", Value::Int(0));
//! let mut mem = Memory::new(&layout, 2, Protocol::WriteBack);
//!
//! // A cold read misses (RMR); re-reading is a local cache hit.
//! assert!(mem.apply(ProcId(0), &Op::Read(x)).rmr);
//! assert!(!mem.apply(ProcId(0), &Op::Read(x)).rmr);
//!
//! // Another process's write invalidates our copy.
//! mem.apply(ProcId(1), &Op::write(x, 7));
//! assert!(mem.apply(ProcId(0), &Op::Read(x)).rmr);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod directory;
pub mod env;
mod fault;
mod fxhash;
mod layout;
mod memory;
mod op;
mod program;
pub mod reference;
mod rng;
mod sched;
mod sim;
mod trace;
mod value;

pub use cache::{Cache, Mode, Protocol};
pub use fault::FaultPlan;
pub use fxhash::{mix64, FxBuildHasher, FxHasher};
pub use layout::Layout;
pub use memory::{CacheView, Memory, StepOutcome};
pub use op::{Op, OpKind};
pub use program::{sub, Phase, Program, ProgramClone, Role, Step, SubMachine, SubStep};
pub use rng::Prng;
pub use sched::{
    blocked_spinners, run_random, run_random_with_faults, run_round_robin, run_solo, RunConfig,
    RunError, RunReport,
};
pub use sim::{MutualExclusionViolation, Overlay, ProcMove, ProcStats, Sim, SymmetryClass};
pub use trace::{StepKind, StepRecord, Trace};
pub use value::{ProcId, Value, VarId};
