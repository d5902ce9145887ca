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
//! state, whether the move completes a passage and its next abort flag
//! are then a function of its index (for the per-process constants a
//! digest leaves out), its digest, its abort flag, the kind of entry and
//! the value the step hands back; the memo is keyed by that whole tuple,
//! not by a hash of it. What it stores is read off a successor [`Sim`]
//! built, so the bookkeeping of [`Sim::step`], [`Sim::crash`] and
//! [`Sim::abort`] is learned, never restated.

use crate::SchedEntry;
use ccsim::{FxBuildHasher, Overlay, ProcId, ProcMove, Sim, Value};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

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

    /// The process whose step, crash or abort this successor is (`None`
    /// for [`Successor::NONE`]).
    #[inline]
    pub(crate) fn acting(&self) -> Option<ProcId> {
        self.acting.map(|(p, ..)| p)
    }

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
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum MoveKind {
    Step,
    Crash,
    Abort,
}

/// What a local move is looked up by: the process index, its digest and
/// abort flag, the entry kind and the value a step hands back
/// ([`Value::Nil`] for a crash or an abort, which take no input).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct MoveKey {
    proc: ProcId,
    digest: u64,
    aborting: bool,
    kind: MoveKind,
    response: Value,
}

/// One word per key: the digest, which is already full-avalanche, folded
/// with the response's payload and a small word of the process, the
/// abort flag, the kind and the response's tag. Distinct keys may share
/// it; the memo's `Eq` still compares every field.
impl Hash for MoveKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (tag, payload) = match self.response {
            Value::Nil => (0, 0),
            Value::Int(i) => (1, i as u64),
            Value::Pair(a, b) => (2, (a as u64).rotate_left(32) ^ b as u64),
            Value::Proc(q) => (3, q.0 as u64),
            Value::Bool(b) => (4, b as u64),
        };
        let small = (self.proc.0 as u64) << 8
            | u64::from(self.aborting) << 5
            | (self.kind as u64) << 3
            | tag;
        state.write_u64(self.digest ^ payload.wrapping_mul(PAYLOAD_MIX) ^ small);
    }
}

/// An odd multiplier that spreads a response payload over the word
/// [`MoveKey`] hashes (the golden ratio's, as in `splitmix64`).
const PAYLOAD_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// What a memoized local move does to the acting process, read off a
/// successor built for it.
#[derive(Copy, Clone, Debug)]
struct Move {
    /// The process's next digest.
    next: ProcMove,
    /// Whether the move completed a passage.
    completes: bool,
    /// The process's abort flag afterwards.
    aborting: bool,
}

/// What a [`LocalMoves`] lookup says about one entry.
#[derive(Debug)]
pub(crate) enum Prediction {
    /// The successor, predicted without building it.
    Known(Successor),
    /// The memo has not seen this move: build the successor and
    /// [`LocalMoves::learn`] it. Carries the acting process's passage
    /// count before the move, which the built successor no longer shows
    /// (and the parent's world may be handed to the successor).
    Miss(MoveKey, u64),
    /// Build the successor: a system-wide crash changes every process,
    /// and the full-rehash baseline predicts nothing.
    Build,
}

/// A worker's memo of local moves: for each [`MoveKey`] met so far, what
/// the move does to the acting process. It fills on misses and never
/// needs evicting: an exploration meets a few thousand distinct moves.
#[derive(Default)]
pub(crate) struct LocalMoves {
    memo: HashMap<MoveKey, Move, FxBuildHasher>,
}

impl LocalMoves {
    /// The successor `entry` leads to from `sim`, if the memo knows the
    /// acting process's move.
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
            aborting: sim.is_aborting(proc),
            kind,
            response,
        };
        let passages = sim.stats(proc).passages;
        let Some(m) = self.memo.get(&key) else {
            return Prediction::Miss(key, passages);
        };
        Prediction::Known(Successor {
            overlay: Overlay {
                proc: Some(m.next),
                var,
            },
            acting: Some((proc, passages + u64::from(m.completes), m.aborting)),
        })
    }

    /// Record the move `key` missed on, read off the successor built for
    /// it; `passages` is the acting process's passage count before the
    /// move.
    pub(crate) fn learn(&mut self, key: MoveKey, passages: u64, child: &Sim) {
        let m = Move {
            next: ProcMove::new(key.proc, key.digest, child.digest(key.proc)),
            completes: child.stats(key.proc).passages > passages,
            aborting: child.is_aborting(key.proc),
        };
        self.memo.insert(key, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visited::Visited;
    use crate::{push_entries, Budgets, Symmetry};
    use ccsim::{
        Layout, Memory, Op, Phase, Prng, Program, Protocol, Role, Step, SymmetryClass, VarId,
    };
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
    /// so are the duplicate successors the explorer never builds. Each
    /// prediction is keyed twice: through the overlay, and by patching
    /// the key parts carried along the walk as the explorer's frames
    /// carry them. The patched parts must equal those recomputed from the
    /// built successor, and the walk carries them on to the next
    /// configuration (recomputing them only after a `CrashAll`, as the
    /// explorer does).
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
        let root_parts = visited.keyed(&root, QUOTA, budgets).1;
        let (mut sim, mut left, mut parts) = (root.clone_world(), budgets, root_parts);
        let mut entries = Vec::new();
        let mut next_parts = Vec::new();
        for i in 0..1_000 {
            entries.clear();
            push_entries(&sim, QUOTA, left, i % 2 == 1, &mut entries);
            if entries.is_empty() || i % 200 == 199 {
                (sim, left, parts) = (root.clone_world(), budgets, root_parts);
                continue;
            }
            next_parts.clear();
            for &entry in &entries {
                let after = left.after(entry);
                let mut child = sim.clone_world();
                entry.apply(&mut child);
                let (built, built_parts) = visited.keyed(&child, QUOTA, after);
                let succ = match moves.predict(&sim, entry) {
                    Prediction::Build => {
                        assert_eq!(entry, SchedEntry::CrashAll, "{label}: {entry} unpredicted");
                        next_parts.push(built_parts);
                        continue;
                    }
                    Prediction::Known(succ) => {
                        tally.known += 1;
                        succ
                    }
                    Prediction::Miss(key, passages) => {
                        tally.missed += 1;
                        moves.learn(key, passages, &child);
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
                let patched = visited.patched(&sim, parts, &succ, QUOTA, after);
                assert_eq!(
                    patched,
                    (built, built_parts),
                    "{label} ({symmetry}): event {i}, the key parts patched for {entry} \
                     are not the built successor's"
                );
                next_parts.push(patched.1);
            }
            let chosen = rng.below(entries.len());
            entries[chosen].apply(&mut sim);
            left = left.after(entries[chosen]);
            parts = next_parts[chosen];
        }
    }

    /// A reader that writes 1 into `target` on entry and 2 on exit.
    /// Pointed at another class member's owned slot, its steps change
    /// the owner's key term besides its own.
    #[derive(Clone)]
    struct Poke {
        target: VarId,
        pc: u8,
    }

    impl Program for Poke {
        fn poll(&self) -> Step {
            match self.pc {
                0 => Step::Remainder,
                1 => Step::Op(Op::write(self.target, 1)),
                2 => Step::Cs,
                _ => Step::Op(Op::write(self.target, 2)),
            }
        }
        fn resume(&mut self, _: Value) {
            self.pc = (self.pc + 1) % 4;
        }
        fn phase(&self) -> Phase {
            [Phase::Remainder, Phase::Entry, Phase::Cs, Phase::Exit][self.pc as usize]
        }
        fn role(&self) -> Role {
            Role::Reader
        }
        fn on_crash(&mut self) {
            self.pc = 0;
        }
        fn fingerprint(&self, h: &mut dyn Hasher) {
            h.write_u8(self.pc);
        }
    }

    /// Members p0 and p1 own `x0` and `x1` and write each other's slot;
    /// p2, outside the class, writes `x0` too.
    fn poke_world() -> Sim {
        let mut l = Layout::new();
        let x = [l.var("x0", Value::Int(0)), l.var("x1", Value::Int(0))];
        let mem = Memory::new(&l, 3, Protocol::WriteBack);
        let poke = |target| -> Box<dyn Program> { Box::new(Poke { target, pc: 0 }) };
        let mut sim = Sim::new(mem, vec![poke(x[1]), poke(x[0]), poke(x[0])]);
        sim.declare_symmetry(vec![SymmetryClass::with_owned(
            vec![ProcId(0), ProcId(1)],
            vec![vec![x[0]], vec![x[1]]],
        )]);
        sim
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
        worlds.push((
            "owned slots written by others".into(),
            Box::new(poke_world),
            budgets(true, true, false),
        ));

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
