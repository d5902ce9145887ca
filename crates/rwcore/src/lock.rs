//! The two lock-facing trait surfaces of the registry: [`RealLock`]
//! (real atomics, measured by the bench harness) and [`SimLock`]
//! (ccsim step machines, explored by the model checker).
//!
//! A lock variant joins the repo by implementing one or both and
//! registering once in [`crate::registry`]; everything downstream —
//! the contended lab, the `perf_locks` scenario matrix, the
//! auto-generated model-check suite, `experiments --list` — enumerates
//! the registry instead of naming locks by hand. The real side is
//! constructor-per-contender: a [`RealLockFactory`] builds a fresh
//! instance *per run* from a [`RealShape`], replacing the hand-rolled
//! `contenders`/`contended_contenders` lists the bench crate used to
//! carry (where a lock forgotten in one list silently vanished from
//! that experiment).
//!
//! `RealLock` lives below the bench crate so that the registry (and
//! lock adapters) need no dependency on the harness.

use crate::baselines::real::RawRwLock;
use ccsim::{Protocol, Sim};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The shape a real-atomics contender is built for: how many reader and
/// writer slots the instance must serve, and (for sharded locks) the
/// requested shard count.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct RealShape {
    /// Reader slots (distinct `id`s that may call
    /// [`RealLock::read_pass`]).
    pub readers: usize,
    /// Writer slots.
    pub writers: usize,
    /// Requested shard count for sharded variants; `0` means "auto"
    /// (the variant picks, typically from the CPU count). Non-sharded
    /// locks ignore it.
    pub shards: usize,
}

impl RealShape {
    /// A shape with `readers`/`writers` slots and automatic sharding.
    pub fn new(readers: usize, writers: usize) -> Self {
        RealShape {
            readers,
            writers,
            shards: 0,
        }
    }

    /// The same shape with an explicit shard request.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// A symmetric contended-lab shape: every one of `threads` threads
    /// acts as reader `t` *and* writer `t`.
    pub fn symmetric(threads: usize) -> Self {
        RealShape::new(threads, threads)
    }
}

impl fmt::Display for RealShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}r+{}w", self.readers, self.writers)?;
        if self.shards != 0 {
            write!(f, "x{}", self.shards)?;
        }
        Ok(())
    }
}

/// A real-atomics lock instance as the bench harness drives it: one
/// full passage per call, with a tiny critical section touching shared
/// data.
pub trait RealLock: Send + Sync {
    /// One reader passage by reader process `id`.
    fn read_pass(&self, id: usize);
    /// One writer passage by writer process `id`.
    fn write_pass(&self, id: usize);
    /// Implementation name for tables.
    fn label(&self) -> String;
    /// The shard count this instance actually runs with, for sharded
    /// variants — which may be *lower* than the requested
    /// [`RealShape::shards`] (the sharded `A_f` caps at the CPU count).
    /// `None` for unsharded locks. Report tables surface this so a
    /// silently capped request is visible in the row.
    fn effective_shards(&self) -> Option<usize> {
        None
    }
}

/// Builds a fresh [`RealLock`] instance per run from a [`RealShape`].
///
/// A clonable wrapper over a constructor closure; registry entries hold
/// one per real-capable lock. Fresh-per-run matters: a lock instance
/// carries contention state (indicator trees, shard assignments), and
/// reusing one across matrix cells would let one cell warm the next.
#[derive(Clone)]
pub struct RealLockFactory {
    build: Arc<dyn Fn(RealShape) -> Arc<dyn RealLock> + Send + Sync>,
}

impl RealLockFactory {
    /// Wrap a constructor closure.
    pub fn new(build: impl Fn(RealShape) -> Arc<dyn RealLock> + Send + Sync + 'static) -> Self {
        RealLockFactory {
            build: Arc::new(build),
        }
    }

    /// A factory over any [`RawRwLock`] constructor, adapting it with
    /// the standard shared-counter critical section ([`RawAdapter`]).
    pub fn raw<L: RawRwLock + 'static>(
        ctor: impl Fn(RealShape) -> L + Send + Sync + 'static,
    ) -> Self {
        RealLockFactory::new(move |shape| Arc::new(RawAdapter::new(ctor(shape))))
    }

    /// Build an instance for `shape`.
    pub fn build(&self, shape: RealShape) -> Arc<dyn RealLock> {
        (self.build)(shape)
    }
}

impl fmt::Debug for RealLockFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RealLockFactory").finish_non_exhaustive()
    }
}

/// Wraps any [`RawRwLock`] (our locks) with a tiny shared-counter CS.
#[derive(Debug)]
pub struct RawAdapter<L> {
    lock: L,
    shared: AtomicU64,
}

impl<L: RawRwLock> RawAdapter<L> {
    /// Wrap a raw lock.
    pub fn new(lock: L) -> Self {
        RawAdapter {
            lock,
            shared: AtomicU64::new(0),
        }
    }
}

impl<L: RawRwLock> RealLock for RawAdapter<L> {
    fn read_pass(&self, id: usize) {
        self.lock.reader_lock(id);
        std::hint::black_box(self.shared.load(Ordering::Relaxed));
        self.lock.reader_unlock(id);
    }
    fn write_pass(&self, id: usize) {
        self.lock.writer_lock(id);
        let v = self.shared.load(Ordering::Relaxed);
        self.shared.store(v + 1, Ordering::Relaxed);
        self.lock.writer_unlock(id);
    }
    fn label(&self) -> String {
        self.lock.name().to_string()
    }
    fn effective_shards(&self) -> Option<usize> {
        self.lock.effective_shards()
    }
}

/// `std::sync::RwLock` adapter (the external baseline: the workspace
/// builds offline with zero dependencies, so `parking_lot` is out).
#[derive(Debug, Default)]
pub struct StdAdapter {
    lock: std::sync::RwLock<u64>,
}

impl RealLock for StdAdapter {
    fn read_pass(&self, _id: usize) {
        std::hint::black_box(*self.lock.read().unwrap());
    }
    fn write_pass(&self, _id: usize) {
        *self.lock.write().unwrap() += 1;
    }
    fn label(&self) -> String {
        "std::RwLock".into()
    }
}

/// One model-check problem size of a [`SimLock`]: a named
/// `(readers, writers[, shards])` world the suite explores exhaustively.
/// Kept deliberately tiny — exhaustive state spaces grow brutally in
/// process count — with `probes` marking the instances worth the extra
/// cost of per-state invariant probes (Bounded Exit, post-crash
/// acquirability).
#[derive(Clone, Debug)]
pub struct SimInstance {
    /// Display label, e.g. `"2r+1w"` or `"2 shards, 2r+1w"`.
    pub label: String,
    /// Reader process count.
    pub readers: usize,
    /// Writer process count.
    pub writers: usize,
    /// Shard count for sharded variants (`0` for unsharded).
    pub shards: usize,
    /// Run the per-state invariant probes on this instance (the suite
    /// always checks Mutual Exclusion regardless).
    pub probes: bool,
}

impl SimInstance {
    /// An unsharded instance; probes off.
    pub fn new(readers: usize, writers: usize) -> Self {
        SimInstance {
            label: format!("{readers}r+{writers}w"),
            readers,
            writers,
            shards: 0,
            probes: false,
        }
    }

    /// A sharded instance; probes off.
    pub fn sharded(shards: usize, readers: usize, writers: usize) -> Self {
        SimInstance {
            label: format!("{shards} shard{}, {readers}r+{writers}w", plural(shards)),
            readers,
            writers,
            shards,
            probes: false,
        }
    }

    /// Enable invariant probes on this instance.
    pub fn with_probes(mut self) -> Self {
        self.probes = true;
        self
    }

    /// Total process count.
    pub fn total(&self) -> usize {
        self.readers + self.writers
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Which fault regimes a [`SimLock`]'s world model supports, i.e. which
/// scenario-derived crash/abort budgets the model-check suite may apply
/// to it. A lock with no recovery path still *supports* individual
/// crashes in the "crashes outside the CS" sense (MX must hold; only
/// liveness is lost); `crash_all` and `abort` require the recoverable /
/// abortable machinery and are opt-in.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultSupport {
    /// Individual-process crashes ([`ccsim::Sim::crash`]).
    pub crash: bool,
    /// System-wide crashes ([`ccsim::Sim::crash_all`]).
    pub crash_all: bool,
    /// Abortable entry (reader/writer abort signals).
    pub abort: bool,
}

impl FaultSupport {
    /// No fault regime supported (failure-free exploration only).
    pub const NONE: FaultSupport = FaultSupport {
        crash: false,
        crash_all: false,
        abort: false,
    };
    /// Every regime supported.
    pub const ALL: FaultSupport = FaultSupport {
        crash: true,
        crash_all: true,
        abort: true,
    };
}

/// A lock's simulated twin: builds ccsim worlds (step-machine program
/// factory, symmetry-class declarations, fault wiring — everything a
/// world builder like [`crate::af_world`] does) at the problem sizes
/// worth model-checking.
///
/// The model-check suite turns each registered `SimLock` into a set of
/// checks automatically: Mutual Exclusion on every instance, Bounded
/// Exit (budget [`SimLock::exit_budget`]) on probe instances, and —
/// when the driving scenario carries fault pressure the lock supports —
/// crash-augmented exploration with post-crash acquirability.
pub trait SimLock: Send + Sync + fmt::Debug {
    /// The problem sizes to explore. Must be non-empty.
    fn instances(&self) -> Vec<SimInstance>;

    /// Build a fresh world for `inst` under `protocol`. Called once per
    /// exploration worker; must be deterministic.
    fn build(&self, inst: &SimInstance, protocol: Protocol) -> Sim;

    /// The fault regimes the world model supports. Default: none.
    fn fault_support(&self) -> FaultSupport {
        FaultSupport::NONE
    }

    /// The Bounded Exit step budget to probe with, or `None` to skip
    /// the probe (baseline worlds whose exit sections are not bounded
    /// by a small constant). Default: 200 steps, the budget the `A_f`
    /// family honors.
    fn exit_budget(&self) -> Option<u64> {
        Some(200)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AfConfig;

    #[test]
    fn raw_factory_builds_fresh_instances() {
        let f = RealLockFactory::raw(|shape: RealShape| {
            crate::RawAfLock::new(AfConfig::new(shape.readers, shape.writers))
        });
        let a = f.build(RealShape::new(2, 1));
        assert_eq!(a.label(), "a_f");
        assert_eq!(a.effective_shards(), None);
        a.read_pass(0);
        a.write_pass(0);
        let b = f.build(RealShape::new(2, 1));
        assert!(!Arc::ptr_eq(&a, &b), "factories build per run");
    }

    #[test]
    fn sharded_adapter_reports_effective_shards() {
        let lock = RawAdapter::new(crate::ShardedAfRwLock::new(2, 1));
        assert_eq!(lock.effective_shards(), Some(2));
        assert_eq!(StdAdapter::default().effective_shards(), None);
    }

    #[test]
    fn shapes_and_instances_render() {
        assert_eq!(RealShape::new(4, 2).to_string(), "4r+2w");
        assert_eq!(
            RealShape::symmetric(8).with_shards(4).to_string(),
            "8r+8wx4"
        );
        assert_eq!(SimInstance::new(2, 1).label, "2r+1w");
        assert_eq!(SimInstance::sharded(1, 2, 1).label, "1 shard, 2r+1w");
        assert_eq!(SimInstance::sharded(2, 2, 1).label, "2 shards, 2r+1w");
        assert!(SimInstance::new(2, 1).with_probes().probes);
        assert_eq!(SimInstance::new(2, 1).total(), 3);
    }
}
