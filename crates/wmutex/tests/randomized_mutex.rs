//! Randomized tests for the mutex substrates: random schedules of the
//! simulated tournament, and real-thread runs of the tournament lock. These are the former proptest suites ported to plain
//! `#[test]`s driven by the in-tree `ccsim::Prng` (the workspace builds
//! with zero external dependencies).

use ccsim::{run_random, Prng, Protocol, RunConfig};
use wmutex::{mutex_world, IdMutex, TournamentLock};

/// Random schedules of the simulated tournament always complete all
/// passages with mutual exclusion intact (checked per step by the
/// runner), under all three memory models.
#[test]
fn sim_tournament_random_schedules() {
    let mut gen = Prng::new(0x5ee0_cafe);
    for case in 0..40 {
        let m = 1 + gen.below(6);
        let seed = gen.next_u64();
        let protocol = [Protocol::WriteBack, Protocol::WriteThrough, Protocol::Dsm][gen.below(3)];
        let mut sim = mutex_world(m, protocol);
        let mut rng = Prng::new(seed);
        let rc = RunConfig {
            passages_per_proc: 3,
            ..Default::default()
        };
        let report = run_random(&mut sim, &mut rng, &rc)
            .unwrap_or_else(|e| panic!("case {case}: m={m} {protocol:?} seed={seed}: {e}"));
        assert!(
            report.completed.iter().all(|&c| c == 3),
            "case {case}: m={m}"
        );
    }
}

/// The real tournament lock serializes a non-atomic counter correctly
/// for any (threads, iters) shape.
#[test]
fn real_locks_serialize() {
    let mut gen = Prng::new(0x10c4_b01d);
    for case in 0..12 {
        let threads = 1 + gen.below(4);
        let iters = 1 + gen.next_u64() % 399;
        let lock = TournamentLock::new(threads);
        struct SendCell(std::cell::UnsafeCell<u64>);
        unsafe impl Send for SendCell {}
        unsafe impl Sync for SendCell {}
        let counter = SendCell(std::cell::UnsafeCell::new(0));
        std::thread::scope(|s| {
            for id in 0..threads {
                let (lock, counter) = (&lock, &counter);
                s.spawn(move || {
                    for _ in 0..iters {
                        lock.lock(id);
                        unsafe { *counter.0.get() += 1 };
                        lock.unlock(id);
                    }
                });
            }
        });
        assert_eq!(
            unsafe { *counter.0.get() },
            threads as u64 * iters,
            "case {case}: lost updates"
        );
    }
}

/// The simulated and real tournament locks share the arena geometry: the
/// sim solo entry performs the same number of competitions as
/// `TournamentLock::levels`.
#[test]
fn sim_and_real_agree_on_levels() {
    for m in [1usize, 2, 3, 4, 8, 9] {
        let real = TournamentLock::new(m);
        let mut layout = ccsim::Layout::new();
        let sim = wmutex::SimTournament::allocate(&mut layout, "WL", m);
        assert_eq!(real.levels(), sim.levels(), "m={m}");
    }
}
