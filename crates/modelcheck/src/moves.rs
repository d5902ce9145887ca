//! Keys before worlds: a successor's state key predicted from its parent.
//!
//! Most transitions of an exhaustive search rejoin a configuration it
//! has already seen, and a duplicate needs only its key. One step, crash
//! or abort changes one process's local state and at most one variable,
//! so the successor is its parent under an [`Overlay`]: the value the
//! step writes comes from [`Sim::step_effect`], and the process's next
//! local state from a memo of local moves ([`LocalMoves`]). The key
//! functions read the parent through the overlay, and the search builds
//! only the successors whose key is new.
//!
//! The memo is exact under the visited set's own assumption. A process
//! runs a deterministic program whose local state its digest identifies
//! (two states with equal digests are the same state, which is what
//! keying the visited set by digests already assumes). Its next local
//! state is then a function of its index (for the per-process constants
//! a digest leaves out), its digest, the kind of entry and the value the
//! step hands back; the memo is keyed by that whole tuple, not by a hash
//! of it.

use crate::SchedEntry;
use ccsim::{FxBuildHasher, Overlay, Phase, ProcId, ProcMove, Sim, Value};
use std::collections::HashMap;

/// A successor of a configuration, written as a patch on it: the
/// [`Overlay`] the key functions read shared state through, and the
/// acting process's passage count and abort flag afterwards, which the
/// exploration keys also carry. [`Successor::NONE`] is the configuration
/// itself.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Successor {
    pub(crate) overlay: Overlay,
    /// The acting process, its completed passages and its abort flag.
    acting: Option<(ProcId, u64, bool)>,
}

impl Successor {
    /// The configuration itself.
    pub(crate) const NONE: Successor = Successor {
        overlay: Overlay::NONE,
        acting: None,
    };

    /// Completed passages of `p` in the successor of `sim`.
    #[inline]
    pub(crate) fn passages(&self, sim: &Sim, p: ProcId) -> u64 {
        match self.acting {
            Some((q, passages, _)) if q == p => passages,
            _ => sim.stats(p).passages,
        }
    }

    /// Whether `p` has an abort in flight in the successor of `sim`.
    #[inline]
    pub(crate) fn aborting(&self, sim: &Sim, p: ProcId) -> bool {
        match self.acting {
            Some((q, _, aborting)) if q == p => aborting,
            _ => sim.is_aborting(p),
        }
    }
}

/// The entry kinds a local move is memoized for.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum MoveKind {
    Step,
    Crash,
    Abort,
}

/// What a local move is looked up by: the process index, its digest,
/// the entry kind and the value a step hands back ([`Value::Nil`] for a
/// crash or an abort, which take no input).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct MoveKey {
    proc: ProcId,
    digest: u64,
    kind: MoveKind,
    response: Value,
}

/// What a [`LocalMoves`] lookup says about one entry.
#[derive(Debug)]
pub(crate) enum Prediction {
    /// The successor, predicted without building it.
    Known(Successor),
    /// The memo has not seen this move: build the successor and
    /// [`LocalMoves::learn`] it.
    Miss(MoveKey),
    /// Build the successor: a system-wide crash changes every process,
    /// and the full-rehash baseline predicts nothing.
    Build,
}

/// A worker's memo of local moves: for each [`MoveKey`] met so far, the
/// process's next digest (as a [`ProcMove`]) and next phase. It fills on
/// misses and never needs evicting: an exploration meets a few thousand
/// distinct moves.
#[derive(Default)]
pub(crate) struct LocalMoves {
    memo: HashMap<MoveKey, (ProcMove, Phase), FxBuildHasher>,
}

impl LocalMoves {
    /// The successor `entry` leads to from `sim`, if the memo knows the
    /// acting process's move. The bookkeeping mirrors [`Sim::step`],
    /// [`Sim::crash`] and [`Sim::abort`]: a step from outside the
    /// remainder section into it completes a passage, or, for an
    /// aborting process, clears the abort flag instead; a crash clears
    /// the flag; an abort sets it unless the program lands directly in
    /// its remainder section.
    #[inline]
    pub(crate) fn predict(&self, sim: &Sim, entry: SchedEntry) -> Prediction {
        let (proc, kind, response, var) = match entry {
            SchedEntry::Step(p) => {
                let (response, var) = sim.step_effect(p);
                (p, MoveKind::Step, response, var)
            }
            SchedEntry::Crash(p) => (p, MoveKind::Crash, Value::Nil, None),
            SchedEntry::Abort(p) => (p, MoveKind::Abort, Value::Nil, None),
            SchedEntry::CrashAll => return Prediction::Build,
        };
        let key = MoveKey {
            proc,
            digest: sim.digest(proc),
            kind,
            response,
        };
        let Some(&(next, phase)) = self.memo.get(&key) else {
            return Prediction::Miss(key);
        };
        let mut passages = sim.stats(proc).passages;
        let mut aborting = sim.is_aborting(proc);
        match kind {
            MoveKind::Step => {
                if sim.phase(proc) != Phase::Remainder && phase == Phase::Remainder {
                    if aborting {
                        aborting = false;
                    } else {
                        passages += 1;
                    }
                }
            }
            MoveKind::Crash => aborting = false,
            MoveKind::Abort => aborting |= phase != Phase::Remainder,
        }
        Prediction::Known(Successor {
            overlay: Overlay {
                proc: Some(next),
                var,
            },
            acting: Some((proc, passages, aborting)),
        })
    }

    /// Record the move `key` missed on, read off the successor built
    /// for it.
    pub(crate) fn learn(&mut self, key: MoveKey, child: &Sim) {
        let next = ProcMove::new(key.proc, key.digest, child.digest(key.proc));
        self.memo.insert(key, (next, child.phase(key.proc)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visited::Visited;
    use crate::{push_entries, Budgets, Symmetry};
    use ccsim::{Prng, Protocol};
    use rwcore::{af_world, af_world_custom, AfConfig, CounterKind, FPolicy, HelpOrder};

    /// Lookups that found the move, and lookups that had to learn it.
    #[derive(Default)]
    struct Tally {
        known: u64,
        missed: u64,
    }

    /// Walk `world` at random and, in every configuration met, predict
    /// the key of every offered entry and compare it with the key of the
    /// successor built for it. A miss is learned from the built successor
    /// and then predicted again, so misses and hits are both checked, and
    /// so are the duplicate successors the explorer never builds.
    fn walk_and_compare(
        label: &str,
        world: &dyn Fn() -> Sim,
        symmetry: Symmetry,
        budgets: Budgets,
        seed: u64,
        tally: &mut Tally,
    ) {
        const QUOTA: u64 = 2;
        let visited = Visited::new(symmetry);
        let mut moves = LocalMoves::default();
        let mut rng = Prng::new(seed);
        let root = world();
        let (mut sim, mut left) = (root.clone_world(), budgets);
        let mut entries = Vec::new();
        for i in 0..1_000 {
            entries.clear();
            push_entries(&sim, QUOTA, left, i % 2 == 1, &mut entries);
            if entries.is_empty() || i % 200 == 199 {
                (sim, left) = (root.clone_world(), budgets);
                continue;
            }
            for &entry in &entries {
                let after = left.after(entry);
                let mut child = sim.clone_world();
                entry.apply(&mut child);
                let built = visited.key(&child, &Successor::NONE, QUOTA, after);
                let succ = match moves.predict(&sim, entry) {
                    Prediction::Build => {
                        assert_eq!(entry, SchedEntry::CrashAll, "{label}: {entry} unpredicted");
                        continue;
                    }
                    Prediction::Known(succ) => {
                        tally.known += 1;
                        succ
                    }
                    Prediction::Miss(key) => {
                        tally.missed += 1;
                        moves.learn(key, &child);
                        match moves.predict(&sim, entry) {
                            Prediction::Known(succ) => succ,
                            other => panic!("{label}: {entry} still {other:?} once learned"),
                        }
                    }
                };
                let predicted = visited.key(&sim, &succ, QUOTA, after);
                assert_eq!(
                    predicted, built,
                    "{label} ({symmetry}): event {i}, the key predicted for {entry} \
                     is not the built successor's"
                );
            }
            let entry = entries[rng.below(entries.len())];
            entry.apply(&mut sim);
            left = left.after(entry);
        }
    }

    /// A labelled world factory and the adversary budgets to walk it with.
    type World = (String, Box<dyn Fn() -> Sim>, Budgets);

    #[test]
    fn predicted_keys_equal_the_built_successors_keys() {
        let mut worlds: Vec<World> = Vec::new();
        let budgets = |crash: bool, crash_all: bool, abort: bool| Budgets {
            crashes: 2 * u32::from(crash),
            crash_alls: u32::from(crash_all),
            aborts: 2 * u32::from(abort),
        };
        for (id, lock) in rwcore::LockRegistry::builtin().sim_entries() {
            let faults = lock.fault_support();
            for inst in lock.instances() {
                let lock = lock.clone();
                worlds.push((
                    format!("{id} {}", inst.label),
                    Box::new(move || lock.build(&inst, Protocol::WriteBack)),
                    budgets(faults.crash, faults.crash_all, faults.abort),
                ));
            }
        }
        let one_writer = |readers| AfConfig {
            readers,
            writers: 1,
            policy: FPolicy::One,
        };
        // The f-array A_f with two sibling-pair classes, each member
        // owning its leaves, and the CAS-loop A_f with one class of three.
        worlds.push((
            "f-array A_f n=4".into(),
            Box::new(move || af_world(one_writer(4), Protocol::WriteBack).sim),
            budgets(true, true, true),
        ));
        worlds.push((
            "CAS-loop A_f n=3".into(),
            Box::new(move || {
                af_world_custom(
                    one_writer(3),
                    Protocol::WriteBack,
                    HelpOrder::WaitersFirst,
                    CounterKind::CasLoop,
                )
                .sim
            }),
            budgets(true, true, false),
        ));
        assert_eq!(worlds[worlds.len() - 2].1().symmetry_classes().len(), 2);
        assert_eq!(worlds[worlds.len() - 1].1().symmetry_classes().len(), 1);

        let mut tally = Tally::default();
        let mut seeds = Prng::new(0x6e79_5f0f);
        for (label, world, budgets) in &worlds {
            for symmetry in [Symmetry::Off, Symmetry::Quotient] {
                let seed = seeds.next_u64();
                walk_and_compare(label, world, symmetry, *budgets, seed, &mut tally);
            }
        }
        assert!(
            tally.known > 4 * tally.missed && tally.missed > 1_000,
            "{} lookups known, {} missed: both paths must be exercised",
            tally.known,
            tally.missed
        );
    }
}
