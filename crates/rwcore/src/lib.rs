//! # rwcore — RMR-optimal reader-writer locks (`A_f`)
//!
//! The primary contribution of *"On the Complexity of Reader-Writer
//! Locks"* (Hendler, PODC 2016): the family `A_f` of reader-writer lock
//! algorithms from read, write and CAS, parameterised on the writer's RMR
//! budget `f(n)`. Per Theorem 18 every member guarantees Mutual
//! Exclusion, Bounded Exit, Deadlock Freedom, Concurrent Entering and
//! freedom from reader starvation, with writer passages in `Θ(f(n))` RMRs
//! and reader passages in `Θ(log(n/f(n)))` RMRs — matching the paper's
//! Theorem-5 lower-bound tradeoff at every point.
//!
//! The lock comes in two interchangeable forms:
//!
//! * **Production** — [`AfRwLock<T>`] (typed, RAII guards) over
//!   [`RawAfLock`] (raw entry/exit sections), built on real atomics.
//! * **Simulated** — [`AfReaderSim`]/[`AfWriterSim`] step machines over a
//!   [`ccsim`] world ([`af_world`]), used to *measure* RMR complexity and
//!   to model-check the safety claims.
//!
//! Baselines for the paper's §6 comparisons live in [`baselines`].
//!
//! ```
//! use rwcore::{AfConfig, AfRwLock, FPolicy};
//!
//! let cfg = AfConfig { readers: 8, writers: 2, policy: FPolicy::SqrtN };
//! let lock = AfRwLock::new(cfg, String::from("shared"));
//! let mut r = lock.reader(3)?;
//! assert_eq!(&*r.read(), "shared");
//! # Ok::<(), rwcore::HandleError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod af;
pub mod baselines;
mod busy_forbidden;
mod config;
pub mod lock;
pub mod registry;
pub mod scenario;
mod sig;
mod world;

pub use af::counters::{CounterKind, GroupAddMachine, GroupCounter, GroupHandle, GroupReadMachine};
pub use af::gated::{gated_af_world, GatedAfLock, GatedReaderSim, GatedWorld, GatedWriterSim};
pub use af::real::RawAfLock;
pub use af::sharded::ShardedAfRwLock;
pub use af::sharded_sim::{
    sharded_af_world, ShardedReaderSim, ShardedSimShared, ShardedWorld, ShardedWriterSim,
};
pub use af::shared::{AfShared, HelpOrder};
pub use af::sim::{AfReaderSim, AfWriterSim, HelpWcsMachine};
pub use af::typed::{AfRwLock, HandleError, ReadGuard, ReaderHandle, WriteGuard, WriterHandle};
pub use baselines::real::{CentralizedRwLock, FaaRwLock, MutexRwLock, RawRwLock};
pub use baselines::sim::{centralized_world, faa_world, mutex_rw_world, BaselineWorld};
pub use busy_forbidden::BusyForbiddenLock;
pub use config::{AfConfig, FPolicy, GroupSlot};
pub use lock::{
    conformance, FaultSupport, RawAdapter, RealLock, RealLockFactory, RealShape, SimInstance,
    SimLock, StdAdapter,
};
pub use registry::{LockEntry, LockRegistry};
pub use scenario::{NamedScenario, Rate, Scenario};
pub use sig::{Opcode, Signal};
pub use wmutex::{wait_until, Patience};
pub use world::{
    af_world, af_world_custom, af_world_seq_reuse_bug, af_world_with_order,
    reader_symmetry_classes, AfWorld, PidMap,
};
