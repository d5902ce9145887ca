//! # wmutex — the writer-side mutual-exclusion substrate
//!
//! The `A_f` reader-writer locks of Hendler (PODC 2016) serialize writers
//! with `WL`, an m-process starvation-free read/write mutex with
//! logarithmic RMR complexity and Bounded Exit (the paper cites
//! Yang–Anderson \[21\]). This crate provides that substrate as a Peterson
//! tournament tree — the same `Θ(log m)` RMR complexity in the CC model,
//! from reads and writes only — in two forms:
//!
//! * [`TournamentLock`] — real atomics, used by the production lock;
//! * [`SimTournament`] / [`EnterMachine`] / [`ExitMachine`] /
//!   [`MutexClient`] — `ccsim` step machines for RMR measurement and
//!   model checking.
//!
//! [`Patience`] is the wait budget every real entry section takes:
//! [`TournamentLock::try_lock`] here, and the `A_f` entry sections built
//! on it.
//!
//! ```
//! use wmutex::{IdMutex, TournamentLock};
//! let wl = TournamentLock::new(8);
//! wl.lock(3);
//! // ... critical section ...
//! wl.unlock(3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod real;
mod sim;

pub use real::{IdMutex, Patience, TournamentLock};
pub use sim::{mutex_world, EnterMachine, ExitMachine, MutexClient, SimTournament};
