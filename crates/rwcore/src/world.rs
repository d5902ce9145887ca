//! Assembling complete simulated worlds of `A_f` readers and writers.

use crate::af::counters::CounterKind;
use crate::af::shared::{AfShared, HelpOrder};
use crate::af::sim::{AfReaderSim, AfWriterSim};
use crate::config::AfConfig;
use ccsim::{Layout, Memory, ProcId, Program, Protocol, Sim, SymmetryClass};
use std::sync::Arc;

/// Process-id convention for lock worlds: readers first, then writers.
///
/// The paper's process set is `{R_1..R_n, W_1..W_m}`; we map reader `r` to
/// `ProcId(r)` and writer `w` to `ProcId(n + w)`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PidMap {
    /// Number of readers `n`.
    pub readers: usize,
    /// Number of writers `m`.
    pub writers: usize,
}

impl PidMap {
    /// The process id of reader `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn reader(&self, r: usize) -> ProcId {
        assert!(r < self.readers, "reader {r} out of range");
        ProcId(r)
    }

    /// The process id of writer `w`.
    ///
    /// # Panics
    /// Panics if `w` is out of range.
    pub fn writer(&self, w: usize) -> ProcId {
        assert!(w < self.writers, "writer {w} out of range");
        ProcId(self.readers + w)
    }

    /// All reader process ids.
    pub fn reader_pids(&self) -> impl Iterator<Item = ProcId> {
        (0..self.readers).map(ProcId)
    }

    /// All writer process ids.
    pub fn writer_pids(&self) -> impl Iterator<Item = ProcId> + '_ {
        (0..self.writers).map(|w| ProcId(self.readers + w))
    }

    /// Total process count.
    pub fn total(&self) -> usize {
        self.readers + self.writers
    }
}

impl From<AfConfig> for PidMap {
    fn from(cfg: AfConfig) -> Self {
        PidMap {
            readers: cfg.readers,
            writers: cfg.writers,
        }
    }
}

/// A fully wired simulated `A_f` world.
#[derive(Debug)]
pub struct AfWorld {
    /// The simulation (readers are `ProcId(0..n)`, writers
    /// `ProcId(n..n+m)`).
    pub sim: Sim,
    /// The lock instance's shared-variable descriptor.
    pub shared: Arc<AfShared>,
    /// The id convention.
    pub pids: PidMap,
}

/// Build a simulated world running `A_f` under `cfg` and `protocol`.
///
/// # Examples
/// ```
/// use ccsim::{run_round_robin, Protocol, RunConfig};
/// use rwcore::{af_world, AfConfig};
///
/// let mut world = af_world(AfConfig::new(4, 2), Protocol::WriteBack);
/// let report = run_round_robin(
///     &mut world.sim,
///     &RunConfig { passages_per_proc: 2, ..Default::default() },
/// )?;
/// assert!(report.completed.iter().all(|&c| c == 2));
/// # Ok::<(), ccsim::RunError>(())
/// ```
pub fn af_world(cfg: AfConfig, protocol: Protocol) -> AfWorld {
    af_world_with_order(cfg, protocol, HelpOrder::WaitersFirst)
}

/// [`af_world`] with an explicit `HelpWCS` counter read order (see
/// [`HelpOrder`]); used by the regression test that reproduces the
/// paper-literal ordering's mutual-exclusion counterexample.
pub fn af_world_with_order(cfg: AfConfig, protocol: Protocol, order: HelpOrder) -> AfWorld {
    af_world_custom(cfg, protocol, order, CounterKind::FArray)
}

/// Fully parameterised world: `HelpWCS` read order and group-counter
/// implementation (the E13 ablation runs `CounterKind::CasLoop`).
///
/// Both counter kinds declare reader [`SymmetryClass`]es (see
/// [`reader_symmetry_classes`]) so the model checker's
/// `Symmetry::Quotient` mode collapses reader permutations: `CasLoop`
/// worlds one class per reader group of size ≥ 2, `FArray` worlds one
/// class per *sibling leaf pair* of the counter trees, each member
/// owning its `C`/`W` leaf slots.
pub fn af_world_custom(
    cfg: AfConfig,
    protocol: Protocol,
    order: HelpOrder,
    counters: CounterKind,
) -> AfWorld {
    build_af_world(cfg, protocol, order, counters, AfWriterSim::new)
}

/// The one `A_f` world builder: readers from `cfg`, writers from
/// `writer`, and the reader symmetry classes declared.
fn build_af_world(
    cfg: AfConfig,
    protocol: Protocol,
    order: HelpOrder,
    counters: CounterKind,
    writer: fn(Arc<AfShared>, usize) -> AfWriterSim,
) -> AfWorld {
    let mut layout = Layout::new();
    let shared = AfShared::allocate_custom(&mut layout, cfg, order, counters);
    let pids = PidMap::from(cfg);
    let mem = Memory::new(&layout, pids.total(), protocol);
    let mut procs: Vec<Box<dyn Program>> = Vec::with_capacity(pids.total());
    for r in 0..cfg.readers {
        procs.push(Box::new(AfReaderSim::new(Arc::clone(&shared), r)));
    }
    for w in 0..cfg.writers {
        procs.push(Box::new(writer(Arc::clone(&shared), w)));
    }
    let mut sim = Sim::new(mem, procs);
    sim.declare_symmetry(reader_symmetry_classes(&shared));
    AfWorld { sim, shared, pids }
}

/// The interchangeable-reader classes of an `A_f` world.
///
/// **CAS-loop counters:** one class per reader group of size ≥ 2. Within
/// a group, `CasLoop` readers are *identical* machines — the group's
/// `C`/`W` counters are single CAS words shared by the whole group (the
/// per-reader leaf slot is ignored, see
/// [`crate::af::counters::GroupHandle::CasLoop`]), reader code never
/// writes a process id to shared memory, and [`AfReaderSim`]'s
/// fingerprint is index-free. Swapping two same-group readers therefore
/// maps every configuration to one with an identical successor
/// structure, which is exactly the soundness obligation of
/// [`ccsim::SymmetryClass`].
///
/// **F-array counters:** one class per *sibling leaf pair* of the
/// counter trees — readers whose leaves share a parent in both the `C`
/// and `W` heaps — each member owning its two leaf variables. Sibling
/// pairs (and nothing wider) are sound because the refresh machine
/// visits its own leaf *first* at the leaf-parent level
/// (`fcounter::AddMachine`; leaf addition is commutative, so the two
/// read orders produce the same parent sum) and its fingerprint is
/// index-free: swapping the two readers together with their leaf values
/// commutes with every transition, including a refresh latched halfway
/// between the two leaf reads. A wider permutation would swap leaves
/// under *different* parents, changing which partial sums an in-flight
/// refresh has already latched — not an automorphism. Unpaired readers
/// (odd group populations; their sibling slot is a constant-zero pad
/// leaf) stay out of any class.
///
/// Readers in *different* groups touch different counters and are never
/// interchangeable; writers never are: the tournament-mutex entry
/// protocol stores writer ids in its tree nodes.
pub fn reader_symmetry_classes(shared: &AfShared) -> Vec<SymmetryClass> {
    let cfg = shared.cfg;
    let mut by_group: Vec<Vec<(usize, ProcId)>> = vec![Vec::new(); shared.groups];
    for r in 0..cfg.readers {
        let slot = cfg.group_of(r);
        by_group[slot.group].push((slot.leaf, ProcId(r)));
    }
    let mut classes = Vec::new();
    for (g, members) in by_group.iter().enumerate() {
        let (c, w) = (&shared.c[g], &shared.w[g]);
        if c.leaf_var(0).is_none() {
            // Single-word counters: the whole group is one class.
            if members.len() >= 2 {
                classes.push(SymmetryClass::new(
                    members.iter().map(|&(_, p)| p).collect(),
                ));
            }
            continue;
        }
        // F-array: leaves are assigned contiguously (`group_of`), so the
        // sibling of leaf 2t is leaf 2t+1 when populated.
        for pair in members.chunks(2) {
            let [(la, pa), (lb, pb)] = pair else { continue };
            if !c.leaves_are_siblings(*la, *lb) {
                continue;
            }
            debug_assert!(w.leaves_are_siblings(*la, *lb), "C/W trees share shape");
            let own = |leaf: usize| -> Vec<_> {
                vec![
                    c.leaf_var(leaf).expect("f-array leaf"),
                    w.leaf_var(leaf).expect("f-array leaf"),
                ]
            };
            classes.push(SymmetryClass::with_owned(
                vec![*pa, *pb],
                vec![own(*la), own(*lb)],
            ));
        }
    }
    classes
}

/// [`af_world`] with the writers' crash-recovery epoch burn disabled —
/// recovery re-enters with the *same* `WSEQ` the crashed passage used
/// (see [`AfWriterSim::new_with_seq_reuse_bug`]). Deliberately broken:
/// exists so the model checker's catch-tests can prove the crash-all and
/// crash-augmented exploration actually detects the resulting
/// mutual-exclusion hole. The bug is on the writer side only, so the
/// world declares the same reader symmetry classes as [`af_world`].
#[doc(hidden)]
pub fn af_world_seq_reuse_bug(cfg: AfConfig, protocol: Protocol) -> AfWorld {
    build_af_world(
        cfg,
        protocol,
        HelpOrder::WaitersFirst,
        CounterKind::FArray,
        AfWriterSim::new_with_seq_reuse_bug,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FPolicy;
    use ccsim::{run_random, run_round_robin, run_solo, Phase, Prng, RunConfig};

    #[test]
    fn round_robin_all_policies_and_protocols() {
        for policy in FPolicy::NAMED {
            for protocol in [Protocol::WriteBack, Protocol::WriteThrough] {
                let cfg = AfConfig {
                    readers: 4,
                    writers: 2,
                    policy,
                };
                let mut world = af_world(cfg, protocol);
                let rc = RunConfig {
                    passages_per_proc: 3,
                    ..Default::default()
                };
                let report = run_round_robin(&mut world.sim, &rc)
                    .unwrap_or_else(|e| panic!("{policy} {protocol:?}: {e}"));
                assert!(report.completed.iter().all(|&c| c == 3), "{policy}");
            }
        }
    }

    #[test]
    fn random_schedules_many_seeds() {
        for seed in 0..30 {
            let cfg = AfConfig {
                readers: 3,
                writers: 2,
                policy: FPolicy::Groups(2),
            };
            let mut world = af_world(cfg, Protocol::WriteBack);
            let mut rng = Prng::new(seed);
            let rc = RunConfig {
                passages_per_proc: 4,
                ..Default::default()
            };
            run_random(&mut world.sim, &mut rng, &rc)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn solo_reader_enters_quickly_when_quiescent() {
        // Concurrent Entering: with all writers in the remainder section, a
        // reader reaches the CS in a bounded number of its own steps.
        let cfg = AfConfig {
            readers: 8,
            writers: 1,
            policy: FPolicy::LogN,
        };
        let mut world = af_world(cfg, Protocol::WriteBack);
        let r0 = world.pids.reader(0);
        let steps = run_solo(&mut world.sim, r0, 1_000, |s| s.phase(r0) == Phase::Cs)
            .expect("reader must enter CS in bounded steps");
        // add(1) is O(log K) plus one RSIG read plus transitions.
        assert!(steps < 60, "entry took {steps} steps");
    }

    #[test]
    fn solo_writer_passage_completes() {
        let cfg = AfConfig {
            readers: 8,
            writers: 2,
            policy: FPolicy::SqrtN,
        };
        let mut world = af_world(cfg, Protocol::WriteBack);
        let w0 = world.pids.writer(0);
        run_solo(&mut world.sim, w0, 10_000, |s| s.stats(w0).passages == 1)
            .expect("solo writer passage must complete");
        assert!(world.sim.check_mutual_exclusion().is_ok());
    }

    #[test]
    fn writer_blocks_while_reader_in_cs() {
        let cfg = AfConfig::new(2, 1);
        let mut world = af_world(cfg, Protocol::WriteBack);
        let (r0, w0) = (world.pids.reader(0), world.pids.writer(0));
        // Reader 0 enters the CS and parks there.
        run_solo(&mut world.sim, r0, 1_000, |s| s.phase(r0) == Phase::Cs).unwrap();
        // The writer runs solo for a long time and must NOT reach the CS.
        let reached = run_solo(&mut world.sim, w0, 5_000, |s| s.phase(w0) == Phase::Cs);
        assert_eq!(reached, None, "writer entered CS while a reader held it");
        assert!(world.sim.check_mutual_exclusion().is_ok());
        // Once the reader leaves, the writer gets in.
        run_solo(&mut world.sim, r0, 1_000, |s| {
            s.phase(r0) == Phase::Remainder
        })
        .unwrap();
        run_solo(&mut world.sim, w0, 5_000, |s| s.phase(w0) == Phase::Cs)
            .expect("writer must enter after reader exits");
    }

    #[test]
    fn reader_blocks_while_writer_in_cs() {
        let cfg = AfConfig::new(2, 1);
        let mut world = af_world(cfg, Protocol::WriteBack);
        let (r1, w0) = (world.pids.reader(1), world.pids.writer(0));
        run_solo(&mut world.sim, w0, 5_000, |s| s.phase(w0) == Phase::Cs).unwrap();
        let reached = run_solo(&mut world.sim, r1, 5_000, |s| s.phase(r1) == Phase::Cs);
        assert_eq!(reached, None, "reader entered CS while the writer held it");
        // Writer leaves; the waiting reader proceeds.
        run_solo(&mut world.sim, w0, 1_000, |s| {
            s.phase(w0) == Phase::Remainder
        })
        .unwrap();
        run_solo(&mut world.sim, r1, 5_000, |s| s.phase(r1) == Phase::Cs)
            .expect("reader must enter after writer exits");
    }

    #[test]
    fn readers_share_the_cs() {
        let cfg = AfConfig {
            readers: 4,
            writers: 1,
            policy: FPolicy::Groups(2),
        };
        let mut world = af_world(cfg, Protocol::WriteBack);
        for r in 0..4 {
            let pid = world.pids.reader(r);
            run_solo(&mut world.sim, pid, 1_000, |s| s.phase(pid) == Phase::Cs).unwrap();
        }
        assert_eq!(
            world.sim.procs_in_cs().len(),
            4,
            "all readers in CS together"
        );
        assert!(world.sim.check_mutual_exclusion().is_ok());
    }

    #[test]
    fn casloop_worlds_declare_whole_group_classes() {
        // f=1 over 3 readers: one class holding all readers, no owned
        // variables (the CAS words are common to the whole group).
        let cfg = AfConfig {
            readers: 3,
            writers: 1,
            policy: FPolicy::One,
        };
        let world = af_world_custom(
            cfg,
            Protocol::WriteBack,
            HelpOrder::WaitersFirst,
            CounterKind::CasLoop,
        );
        let classes = world.sim.symmetry_classes();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].members(), [ProcId(0), ProcId(1), ProcId(2)]);
        assert!(classes[0].owned().iter().all(Vec::is_empty));

        // Two groups of two: two classes, disjoint, group-aligned.
        let cfg4 = AfConfig {
            readers: 4,
            writers: 1,
            policy: FPolicy::Groups(2),
        };
        let world4 = af_world_custom(
            cfg4,
            Protocol::WriteBack,
            HelpOrder::WaitersFirst,
            CounterKind::CasLoop,
        );
        let classes4 = world4.sim.symmetry_classes();
        assert_eq!(classes4.len(), 2);
        assert_eq!(classes4[0].members(), [ProcId(0), ProcId(1)]);
        assert_eq!(classes4[1].members(), [ProcId(2), ProcId(3)]);

        // Singleton trailing groups are dropped (3 readers, groups of 2).
        let cfg3 = AfConfig {
            readers: 3,
            writers: 1,
            policy: FPolicy::Groups(2),
        };
        let world3 = af_world_custom(
            cfg3,
            Protocol::WriteBack,
            HelpOrder::WaitersFirst,
            CounterKind::CasLoop,
        );
        assert_eq!(reader_symmetry_classes(&world3.shared).len(), 1);
    }

    #[test]
    fn farray_worlds_declare_sibling_leaf_pair_classes() {
        // f=1 over 3 readers: tree of width 4, leaves (0,1) are siblings
        // and reader 2's sibling slot is the constant pad leaf — one
        // two-member class, each member owning its C and W leaf.
        let cfg = AfConfig {
            readers: 3,
            writers: 1,
            policy: FPolicy::One,
        };
        let world = af_world(cfg, Protocol::WriteBack);
        let classes = world.sim.symmetry_classes();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].members(), [ProcId(0), ProcId(1)]);
        for (j, leaf) in [0usize, 1].into_iter().enumerate() {
            assert_eq!(
                classes[0].owned()[j],
                vec![
                    world.shared.c[0].leaf_var(leaf).unwrap(),
                    world.shared.w[0].leaf_var(leaf).unwrap(),
                ],
                "member {j} owns its own leaf slots"
            );
        }

        // Two groups of two: width-2 trees, both leaves siblings — one
        // pair class per group.
        let cfg4 = AfConfig {
            readers: 4,
            writers: 1,
            policy: FPolicy::Groups(2),
        };
        let world4 = af_world(cfg4, Protocol::WriteBack);
        let classes4 = world4.sim.symmetry_classes();
        assert_eq!(classes4.len(), 2);
        assert_eq!(classes4[0].members(), [ProcId(0), ProcId(1)]);
        assert_eq!(classes4[1].members(), [ProcId(2), ProcId(3)]);
        assert!(classes4.iter().all(|c| c.owned()[0].len() == 2));

        // Four readers in one group: width-4 tree, sibling pairs (0,1)
        // and (2,3) — two classes, never a cross-parent pair.
        let cfg1g = AfConfig {
            readers: 4,
            writers: 1,
            policy: FPolicy::One,
        };
        let world1g = af_world(cfg1g, Protocol::WriteBack);
        let classes1g = world1g.sim.symmetry_classes();
        assert_eq!(classes1g.len(), 2);
        assert_eq!(classes1g[0].members(), [ProcId(0), ProcId(1)]);
        assert_eq!(classes1g[1].members(), [ProcId(2), ProcId(3)]);
    }

    #[test]
    fn pid_map_convention() {
        let pids = PidMap {
            readers: 3,
            writers: 2,
        };
        assert_eq!(pids.reader(2), ProcId(2));
        assert_eq!(pids.writer(0), ProcId(3));
        assert_eq!(pids.total(), 5);
        assert_eq!(pids.writer_pids().count(), 2);
    }
}
