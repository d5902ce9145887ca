//! The central lock registry: every lock variant registers **once**
//! here and automatically appears on every downstream surface —
//! `experiments --list`, the `perf_locks` lock × scenario matrix, the
//! real-atomics [`crate::conformance`] suite (`tests/conformance.rs`
//! at the repo root), and (when it has a sim twin) the auto-generated
//! model-check suite.
//!
//! Before this registry, the wiring ran the other way: the bench crate
//! carried hand-rolled `contenders`/`contended_contenders` lists and
//! each model-check test file hand-built its worlds, so adding a lock
//! meant editing every consumer (and forgetting one silently dropped
//! the lock from that experiment). Now locks stop knowing about
//! experiments; experiments enumerate locks.

use crate::lock::{
    FaultSupport, RealLock, RealLockFactory, RealShape, SimInstance, SimLock, StdAdapter,
};
use crate::{
    af_world_custom, centralized_world, faa_world, gated_af_world, mutex_rw_world,
    sharded_af_world, AfConfig, BusyForbiddenLock, CentralizedRwLock, CounterKind, FaaRwLock,
    GatedAfLock, HelpOrder, MutexRwLock, RawAfLock, ShardedAfRwLock,
};
use ccsim::{Protocol, Sim};
use std::sync::Arc;

/// One registered lock variant: a stable id, a one-line description for
/// `--list`, and the (optional) real-atomics and simulated twins.
#[derive(Clone, Debug)]
pub struct LockEntry {
    /// Stable identifier; doubles as the bench-table label for
    /// real-capable locks, so it matches [`RealLock::label`].
    pub id: &'static str,
    /// One-line description for listings.
    pub summary: &'static str,
    /// The real-atomics constructor, if the lock runs on real threads.
    pub real: Option<RealLockFactory>,
    /// The simulated twin, if the lock has a ccsim world model.
    pub sim: Option<Arc<dyn SimLock>>,
}

impl LockEntry {
    /// A new entry with neither twin (attach them builder-style).
    pub fn new(id: &'static str, summary: &'static str) -> Self {
        LockEntry {
            id,
            summary,
            real: None,
            sim: None,
        }
    }

    /// Attach the real-atomics factory.
    pub fn with_real(mut self, real: RealLockFactory) -> Self {
        self.real = Some(real);
        self
    }

    /// Attach the simulated twin.
    pub fn with_sim(mut self, sim: Arc<dyn SimLock>) -> Self {
        self.sim = Some(sim);
        self
    }
}

/// The lock registry: an ordered set of [`LockEntry`]s with unique ids.
/// Start from [`LockRegistry::builtin`] (every lock in the repo) or
/// [`LockRegistry::empty`], and extend with [`LockRegistry::with`].
#[derive(Clone, Debug, Default)]
pub struct LockRegistry {
    entries: Vec<LockEntry>,
}

impl LockRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        LockRegistry::default()
    }

    /// Every lock variant in the repo, in the canonical table order:
    /// the `A_f` family first, then the real-atomics baselines, the
    /// busy-forbidden protocol, and `std::sync::RwLock`.
    pub fn builtin() -> Self {
        LockRegistry::empty()
            .with(
                LockEntry::new("a_f", "the paper's A_f lock (FArray counters)")
                    .with_real(RealLockFactory::raw(|shape: RealShape| {
                        RawAfLock::new(AfConfig::new(shape.readers, shape.writers))
                    }))
                    .with_sim(Arc::new(AfSim {
                        counters: CounterKind::FArray,
                    })),
            )
            .with(
                LockEntry::new("a_f-casloop", "A_f ablation: CAS-loop group counters").with_sim(
                    Arc::new(AfSim {
                        counters: CounterKind::CasLoop,
                    }),
                ),
            )
            .with(
                LockEntry::new("a_f-gated", "A_f behind a single-word entry gate")
                    .with_real(RealLockFactory::raw(|shape: RealShape| {
                        GatedAfLock::new(AfConfig::new(shape.readers, shape.writers))
                    }))
                    .with_sim(Arc::new(GatedSim)),
            )
            .with(
                LockEntry::new("a_f-sharded", "per-CPU sharded A_f read path")
                    .with_real(RealLockFactory::raw(|shape: RealShape| {
                        match shape.shards {
                            0 => ShardedAfRwLock::with_auto_shards(shape.writers.max(1)),
                            s => {
                                // Cap a request at the host's CPU count (extra
                                // shards only cost cache lines); the effective
                                // count is surfaced via `effective_shards`.
                                let ncpu = std::thread::available_parallelism()
                                    .map(|p| p.get())
                                    .unwrap_or(1);
                                ShardedAfRwLock::new(s.min(ncpu.max(2)), shape.writers.max(1))
                            }
                        }
                    }))
                    .with_sim(Arc::new(ShardedSim)),
            )
            .with(
                LockEntry::new("centralized-cas", "single-word CAS baseline")
                    .with_real(RealLockFactory::raw(|_| CentralizedRwLock::new()))
                    .with_sim(Arc::new(BaselineSim(centralized_world))),
            )
            .with(
                LockEntry::new("faa-indicator", "fetch-and-add indicator baseline")
                    .with_real(RealLockFactory::raw(|shape: RealShape| {
                        FaaRwLock::new(shape.writers.max(1))
                    }))
                    .with_sim(Arc::new(BaselineSim(faa_world))),
            )
            .with(
                LockEntry::new("mutex-only", "readers serialized through one mutex")
                    .with_real(RealLockFactory::raw(|shape: RealShape| {
                        MutexRwLock::new(shape.readers, shape.writers)
                    }))
                    .with_sim(Arc::new(BaselineSim(mutex_rw_world))),
            )
            .with(
                LockEntry::new("busy-forbidden", "busy-forbidden protocol lock").with_real(
                    RealLockFactory::raw(|shape: RealShape| {
                        BusyForbiddenLock::new(shape.readers, shape.writers)
                    }),
                ),
            )
            .with(
                LockEntry::new("std::RwLock", "std::sync::RwLock external baseline")
                    .with_real(RealLockFactory::new(|_| Arc::new(StdAdapter::default()))),
            )
    }

    /// Append an entry (builder style).
    ///
    /// # Panics
    /// Panics if an entry with the same id is already registered —
    /// the "register once" contract; a silent overwrite would let two
    /// definitions fight over one table row.
    pub fn with(mut self, entry: LockEntry) -> Self {
        assert!(
            self.get(entry.id).is_none(),
            "lock {:?} is already registered",
            entry.id
        );
        self.entries.push(entry);
        self
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[LockEntry] {
        &self.entries
    }

    /// Look an entry up by id.
    pub fn get(&self, id: &str) -> Option<&LockEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Build one instance of every real-capable lock for `shape`, in
    /// registration order — the contender set of a bench run.
    pub fn real_locks(&self, shape: RealShape) -> Vec<Arc<dyn RealLock>> {
        self.entries
            .iter()
            .filter_map(|e| e.real.as_ref())
            .map(|f| f.build(shape))
            .collect()
    }

    /// The entries with a simulated twin, in registration order.
    pub fn sim_entries(&self) -> impl Iterator<Item = (&'static str, &Arc<dyn SimLock>)> {
        self.entries
            .iter()
            .filter_map(|e| e.sim.as_ref().map(|s| (e.id, s)))
    }
}

/// Sim twin of the `A_f` lock (and its CAS-loop counter ablation).
#[derive(Debug)]
struct AfSim {
    counters: CounterKind,
}

impl SimLock for AfSim {
    fn instances(&self) -> Vec<SimInstance> {
        match self.counters {
            // The FArray flagship gets the larger size; probes ride the
            // small instance where per-state invariant checks are cheap.
            CounterKind::FArray => {
                vec![SimInstance::new(2, 1).with_probes(), SimInstance::new(2, 2)]
            }
            // The ablation re-proves safety at the small size only.
            CounterKind::CasLoop => vec![SimInstance::new(2, 1).with_probes()],
        }
    }

    fn build(&self, inst: &SimInstance, protocol: Protocol) -> Sim {
        let cfg = AfConfig::new(inst.readers, inst.writers);
        af_world_custom(cfg, protocol, HelpOrder::WaitersFirst, self.counters).sim
    }

    fn fault_support(&self) -> FaultSupport {
        match self.counters {
            CounterKind::FArray => FaultSupport::ALL,
            CounterKind::CasLoop => FaultSupport::NONE,
        }
    }
}

/// Sim twin of the gated `A_f` variant. Mutual Exclusion only: the gate
/// spin makes the exit path unbounded under an adversarial scheduler,
/// and the gate has no crash-recovery story.
#[derive(Debug)]
struct GatedSim;

impl SimLock for GatedSim {
    fn instances(&self) -> Vec<SimInstance> {
        vec![SimInstance::new(2, 1), SimInstance::new(2, 2)]
    }

    fn build(&self, inst: &SimInstance, protocol: Protocol) -> Sim {
        gated_af_world(AfConfig::new(inst.readers, inst.writers), protocol).sim
    }

    fn exit_budget(&self) -> Option<u64> {
        None
    }
}

/// Sim twin of the sharded `A_f` read path.
#[derive(Debug)]
struct ShardedSim;

impl SimLock for ShardedSim {
    fn instances(&self) -> Vec<SimInstance> {
        vec![
            SimInstance::sharded(1, 2, 1).with_probes(),
            SimInstance::sharded(2, 2, 1).with_probes(),
        ]
    }

    fn build(&self, inst: &SimInstance, protocol: Protocol) -> Sim {
        sharded_af_world(inst.shards.max(1), inst.readers, inst.writers, protocol).sim
    }
}

/// Sim twin of a real-atomics baseline, wrapping one of the
/// `*_world` builders. Mutual Exclusion only: baseline exit sections
/// spin (centralized CAS retry, mutexed readers), so no Bounded Exit
/// budget applies, and none has fault machinery.
struct BaselineSim(fn(usize, usize, Protocol) -> crate::BaselineWorld);

impl std::fmt::Debug for BaselineSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineSim").finish_non_exhaustive()
    }
}

impl SimLock for BaselineSim {
    fn instances(&self) -> Vec<SimInstance> {
        vec![SimInstance::new(2, 1)]
    }

    fn build(&self, inst: &SimInstance, protocol: Protocol) -> Sim {
        (self.0)(inst.readers, inst.writers, protocol).sim
    }

    fn exit_budget(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_covers_every_lock_once() {
        let reg = LockRegistry::builtin();
        let ids: Vec<&str> = reg.entries().iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            [
                "a_f",
                "a_f-casloop",
                "a_f-gated",
                "a_f-sharded",
                "centralized-cas",
                "faa-indicator",
                "mutex-only",
                "busy-forbidden",
                "std::RwLock",
            ]
        );
        // Twin coverage is exactly as documented.
        let real: Vec<&str> = reg
            .entries()
            .iter()
            .filter(|e| e.real.is_some())
            .map(|e| e.id)
            .collect();
        assert!(!real.contains(&"a_f-casloop"), "the ablation is sim-only");
        assert_eq!(real.len(), 8);
        assert_eq!(reg.sim_entries().count(), 7);
    }

    #[test]
    fn real_labels_match_registry_ids() {
        let reg = LockRegistry::builtin();
        for e in reg.entries() {
            if let Some(f) = &e.real {
                let lock = f.build(RealShape::new(2, 1));
                assert_eq!(lock.label(), e.id, "label/id drift for {}", e.id);
            }
        }
    }

    #[test]
    fn real_locks_build_for_symmetric_shapes() {
        let reg = LockRegistry::builtin();
        let locks = reg.real_locks(RealShape::symmetric(2).with_shards(2));
        assert_eq!(locks.len(), 8);
        for lock in &locks {
            lock.read_pass(0, &mut || {});
            lock.write_pass(0, &mut || {});
        }
        // Only the sharded variant reports an effective shard count.
        let sharded: Vec<_> = locks
            .iter()
            .filter_map(|l| l.effective_shards().map(|s| (l.label(), s)))
            .collect();
        assert_eq!(sharded.len(), 1);
        assert_eq!(sharded[0].0, "a_f-sharded");
        assert!(sharded[0].1 >= 1);
    }

    #[test]
    fn sim_twins_build_and_declare_sane_instances() {
        let reg = LockRegistry::builtin();
        for (id, sim) in reg.sim_entries() {
            let instances = sim.instances();
            assert!(!instances.is_empty(), "{id}: no instances");
            for inst in &instances {
                assert!(inst.total() >= 2, "{id}/{}: degenerate world", inst.label);
                let world = sim.build(inst, Protocol::WriteBack);
                assert_eq!(world.n_procs(), inst.total(), "{id}/{}", inst.label);
            }
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_ids_are_rejected() {
        let _ = LockRegistry::builtin().with(LockEntry::new("a_f", "imposter"));
    }
}
