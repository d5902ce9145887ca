//! Oracle tests for the incrementally-maintained configuration
//! fingerprint: after *every* transition — steps, failed steps, and
//! crashes, under all three coherence protocols — the O(1) Zobrist
//! fingerprint must equal the from-scratch [`Sim::fingerprint_full`]
//! recompute. Debug builds assert this inside `fingerprint()` itself;
//! this suite makes the contract explicit (and keeps it checked in
//! release, where those debug asserts compile out). The symmetry
//! quotient's direct key is held to its lossless oracle the same way:
//! [`Sim::fingerprint_canonical_annotated`] must partition states
//! exactly as [`Sim::canonical_vec_annotated`] does.

use rwlock_repro::*;
use std::collections::HashMap;
use std::hash::Hasher;

fn seed_offset() -> u64 {
    ccsim::env::read_strict_uint("RANDOMIZED_SEED", true).unwrap_or(0)
}

/// Drive `sim` through `steps` random scheduler choices, occasionally
/// crashing a process that is mid-passage, asserting the maintained
/// fingerprint against the full recompute after every transition.
fn walk_and_check(mut sim: Sim, steps: usize, rng: &mut Prng, label: &str) {
    let n = sim.n_procs();
    for i in 0..steps {
        let p = ProcId(rng.below(n));
        // Roughly 1-in-16 transitions is a crash, when permitted: the RME
        // model only crashes processes outside their remainder section.
        if rng.below(16) == 0 && sim.phase(p) != Phase::Remainder {
            sim.crash(p);
        } else {
            sim.step(p);
        }
        assert_eq!(
            sim.fingerprint(),
            sim.fingerprint_full(),
            "{label}: maintained fingerprint diverged after transition {i} \
             (process {p})"
        );
    }
    // A forked world carries the maintained signatures with it.
    let fork = sim.clone_world();
    assert_eq!(fork.fingerprint(), sim.fingerprint());
    assert_eq!(fork.fingerprint(), fork.fingerprint_full());
}

#[test]
fn af_walks_keep_incremental_fingerprint_exact_under_all_protocols() {
    let mut gen = Prng::new(0x0f19_e4af + seed_offset());
    for protocol in [Protocol::WriteThrough, Protocol::WriteBack, Protocol::Dsm] {
        for _case in 0..8 {
            let cfg = AfConfig {
                readers: 1 + gen.below(4),
                writers: 1 + gen.below(2),
                policy: [FPolicy::One, FPolicy::LogN, FPolicy::Linear][gen.below(3)],
            };
            let world = af_world(cfg, protocol);
            let mut rng = Prng::new(gen.next_u64());
            walk_and_check(
                world.sim,
                600,
                &mut rng,
                &format!("A_f {cfg:?} under {protocol:?}"),
            );
        }
    }
}

#[test]
fn tournament_walks_keep_incremental_fingerprint_exact_under_all_protocols() {
    let mut gen = Prng::new(0x0f19_e907 + seed_offset());
    for protocol in [Protocol::WriteThrough, Protocol::WriteBack, Protocol::Dsm] {
        for m in [2usize, 3, 5] {
            let sim = wmutex::mutex_world(m, protocol);
            let mut rng = Prng::new(gen.next_u64());
            walk_and_check(
                sim,
                800,
                &mut rng,
                &format!("tournament m={m} under {protocol:?}"),
            );
        }
    }
}

/// The fingerprint is a pure function of the schedule: replaying the
/// identical entry sequence from a fresh world reproduces it exactly.
#[test]
fn fingerprint_is_deterministic_across_replays() {
    let factory = || af_world(AfConfig::new(2, 1), Protocol::WriteBack).sim;
    let mut sim = factory();
    let mut rng = Prng::new(0x0f19_ede7 + seed_offset());
    let mut schedule = Vec::new();
    for _ in 0..300 {
        let p = ProcId(rng.below(sim.n_procs()));
        let entry = if rng.below(16) == 0 && sim.phase(p) != Phase::Remainder {
            SchedEntry::Crash(p)
        } else {
            SchedEntry::Step(p)
        };
        entry.apply(&mut sim);
        schedule.push(entry);
    }
    let replayed = replay(factory, &schedule);
    assert_eq!(replayed.fingerprint(), sim.fingerprint());
    assert_eq!(replayed.fingerprint(), replayed.fingerprint_full());
}

/// Walk every registered sim twin through a seeded mix of steps and the
/// fault events its world model supports (crashes, system-wide crashes,
/// abort requests), calling `check(walk, at, sim)` after every event,
/// where `walk` numbers the walks (one per lock instance) and `at()`
/// names the lock, the instance and the event.
fn walk_registry(seed: u64, mut check: impl FnMut(usize, &dyn Fn() -> String, &Sim)) {
    let mut gen = Prng::new(seed + seed_offset());
    let mut walk = 0;
    for (id, lock) in LockRegistry::builtin().sim_entries() {
        let faults = lock.fault_support();
        for inst in lock.instances() {
            walk += 1;
            let mut sim = lock.build(&inst, Protocol::WriteBack);
            let mut rng = Prng::new(gen.next_u64());
            for i in 0..400 {
                let p = ProcId(rng.below(sim.n_procs()));
                let event = match rng.below(48) {
                    0 if faults.crash => SchedEntry::Crash(p),
                    1 if faults.crash_all => SchedEntry::CrashAll,
                    2..=4 if faults.abort => SchedEntry::Abort(p),
                    _ => SchedEntry::Step(p),
                };
                event.apply(&mut sim);
                check(
                    walk,
                    &|| format!("{id} {}: event {i} ({event})", inst.label),
                    &sim,
                );
            }
        }
    }
}

/// The phase and role [`Sim`] caches per process must match the program
/// after every event of the registry walk, for every process.
#[test]
fn registry_walks_keep_cached_phase_and_role_exact() {
    walk_registry(0x0f19_ca5e, |_, at, sim| {
        for q in sim.proc_ids() {
            let program = sim.program(q);
            assert_eq!(sim.phase(q), program.phase(), "{}, {q}: phase", at());
            assert_eq!(sim.role(q), program.role(), "{}, {q}: role", at());
        }
    });
}

/// [`Program::fingerprint64`] must depend on exactly the state
/// [`Program::fingerprint`] hashes. Along the registry walk, each
/// process's `fingerprint64` values and the FxHash digests of its
/// `fingerprint` must pair up one to one: a `fingerprint64` value seen
/// with two `fingerprint` digests means `fingerprint64` dropped a field
/// (it aliases distinct states and would truncate model checking), and
/// the converse means it hashes state `fingerprint` leaves out. This
/// covers the default digest, the shared `hash_state` body of the `A_f`
/// machines and `wmutex`'s hand-packed encoding alike.
#[test]
fn registry_walks_keep_both_digests_in_bijection() {
    // Per walk and process: fingerprint64 -> fingerprint digest, and back.
    let mut forward: HashMap<(usize, ProcId, u64), u64> = HashMap::new();
    let mut backward: HashMap<(usize, ProcId, u64), u64> = HashMap::new();
    walk_registry(0x0f19_d16e, |walk, at, sim| {
        for q in sim.proc_ids() {
            let program = sim.program(q);
            let fast = program.fingerprint64();
            let mut h = ccsim::FxHasher::default();
            program.fingerprint(&mut h);
            let full = h.finish();
            let seen = *forward.entry((walk, q, fast)).or_insert(full);
            assert_eq!(
                seen,
                full,
                "{}, {q}: fingerprint64 {fast:#x} merges two states fingerprint tells apart",
                at()
            );
            let seen = *backward.entry((walk, q, full)).or_insert(fast);
            assert_eq!(
                seen,
                fast,
                "{}, {q}: fingerprint64 splits one state fingerprint hashes as {full:#x}",
                at()
            );
        }
    });
    assert!(
        forward.len() > 500,
        "the walks visited only {} process states",
        forward.len()
    );
}

/// Every state of a seeded walk, recorded as (canonical vector,
/// canonical key) pairs: equal vectors must mean equal keys and vice
/// versa, so the direct key may neither split an orbit nor merge two.
#[derive(Default)]
struct Partition {
    key_of: HashMap<Vec<u64>, u64>,
    vec_of: HashMap<u64, Vec<u64>>,
}

impl Partition {
    fn record(&mut self, at: &dyn Fn() -> String, sim: &Sim, annot: &[u64]) -> Vec<u64> {
        let mut words = Vec::new();
        sim.canonical_vec_annotated(|q| annot[q.0], &mut words);
        let key = sim.fingerprint_canonical_annotated(&ccsim::Overlay::NONE, |q| annot[q.0]);
        let seen_key = *self.key_of.entry(words.clone()).or_insert(key);
        assert_eq!(seen_key, key, "{}: one canonical vector got two keys", at());
        let seen_vec = self.vec_of.entry(key).or_insert_with(|| words.clone());
        assert_eq!(
            *seen_vec,
            words,
            "{}: two canonical vectors share key {key:#x}",
            at()
        );
        words
    }
}

/// Walk a world with declared classes through seeded steps and crashes,
/// and beside it the mirror walk that runs every event on the image of
/// its process under a rotation of each class's members. Each process
/// gets a random annotation word at each state (from a small pool, so
/// recurring states come back with both equal and different
/// annotations), and the mirror's process carries the same word. Both
/// walks record into one [`Partition`]. Returns how many mirror states
/// were concretely distinct from their originals, so callers can
/// require that the walk actually exercised orbit merging.
fn check_key_partitions_like_vector(world: &str, sim: &Sim, seed: u64) -> usize {
    let n = sim.n_procs();
    let mut image: Vec<usize> = (0..n).collect();
    for class in sim.symmetry_classes() {
        let members = class.members();
        for (j, p) in members.iter().enumerate() {
            image[p.0] = members[(j + 1) % members.len()].0;
        }
    }
    let (mut a, mut b) = (sim.clone_world(), sim.clone_world());
    let mut rng = Prng::new(seed + seed_offset());
    let pool: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
    let mut partition = Partition::default();
    let (mut annot_a, mut annot_b) = (vec![0u64; n], vec![0u64; n]);
    let mut distinct = 0;
    for i in 0..2_000 {
        let p = rng.below(n);
        let crash = rng.below(16) == 0 && a.phase(ProcId(p)) != Phase::Remainder;
        for (sim, q) in [(&mut a, p), (&mut b, image[p])] {
            if crash {
                sim.crash(ProcId(q));
            } else {
                sim.step(ProcId(q));
            }
        }
        for q in 0..n {
            annot_a[q] = pool[rng.below(pool.len())];
            annot_b[image[q]] = annot_a[q];
        }
        let at = || format!("{world}, event {i}");
        let va = partition.record(&at, &a, &annot_a);
        let vb = partition.record(&at, &b, &annot_b);
        assert_eq!(va, vb, "{}: the mirror walk left the orbit", at());
        distinct += usize::from(a.fingerprint() != b.fingerprint());
    }
    distinct
}

/// The direct quotient key against its oracle, on every world shape
/// that declares classes: the CAS-loop reader group at n=3 and the
/// f-array sibling-leaf pairs at n=2 (one pair) and n=4 (two pairs).
#[test]
fn canonical_key_partitions_states_like_the_canonical_vector() {
    let readers = |readers| AfConfig {
        readers,
        writers: 1,
        policy: FPolicy::One,
    };
    let casloop = af_world_custom(
        readers(3),
        Protocol::WriteBack,
        HelpOrder::WaitersFirst,
        CounterKind::CasLoop,
    )
    .sim;
    let worlds = [
        ("CasLoop n=3", casloop, 1),
        (
            "FArray n=2",
            af_world(readers(2), Protocol::WriteBack).sim,
            1,
        ),
        (
            "FArray n=4",
            af_world(readers(4), Protocol::WriteBack).sim,
            2,
        ),
    ];
    for (k, (world, sim, classes)) in worlds.iter().enumerate() {
        assert_eq!(sim.symmetry_classes().len(), *classes, "{world}");
        for walk in 0..4u64 {
            let seed = 0x0f19_c0de + 16 * k as u64 + walk;
            let distinct = check_key_partitions_like_vector(world, sim, seed);
            assert!(
                distinct > 0,
                "{world} walk {walk}: the mirror never left its original's state"
            );
        }
    }
}
