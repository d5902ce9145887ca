//! Determinism contract of the parallel explorer (PR 3 tentpole).
//!
//! [`explore_par`] must be a *drop-in* replacement for the sequential
//! [`explore`]: on a complete run every unique state is expanded exactly
//! once no matter how jobs are donated between workers, so the count
//! quadruple (states, transitions, crash transitions, terminals) and the
//! completeness flag are byte-identical to the sequential explorer at any
//! worker count. On a violating run the reported counterexample is the
//! breadth-first lexicographically-least violating schedule — a pure
//! function of the world, independent of worker timing.
//!
//! The suite also cross-checks the incremental-fingerprint state keys
//! against the [`Symmetry::FullRehash`] SipHash walk: two independent
//! hash families agreeing on the partition size is strong evidence
//! neither aliases.

use ccsim::{Phase, Protocol, Sim};
use modelcheck::{
    explore, explore_par, explore_par_with, explore_with, replay, shrink, CheckConfig, CheckError,
    Symmetry, VisitedStats,
};
use rwcore::{af_world_with_order, AfConfig, FPolicy, HelpOrder};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn af_factory(n: usize, m: usize) -> impl Fn() -> Sim {
    move || {
        af_world_with_order(
            AfConfig {
                readers: n,
                writers: m,
                policy: FPolicy::One,
            },
            Protocol::WriteBack,
            HelpOrder::WaitersFirst,
        )
        .sim
    }
}

/// The top-6-bits shard selector must spread states evenly: once the
/// store is comfortably past one-entry-per-shard territory, the fullest
/// shard may hold at most 4× the emptiest. A skew past that means the
/// fingerprint's high bits are biased and `explore_par`'s per-shard
/// locks degrade toward a global one. Below a mean occupancy of 64 a
/// 4× max/min ratio is within Poisson noise (√μ fluctuations), so the
/// bound is only asserted past that point.
fn assert_balanced_shards(visited: &VisitedStats, label: &str) {
    if visited.entries < 64 * 64 {
        return; // occupancy too small for max/min to beat sampling noise
    }
    let skew = visited
        .shard_skew()
        .unwrap_or_else(|| panic!("{label}: {} entries left a shard empty", visited.entries));
    assert!(
        skew < 4.0,
        "{label}: shard occupancy skew {skew:.2} (max {}, min {}) exceeds 4x",
        visited.shard_max,
        visited.shard_min
    );
}

/// Sequential counts (incremental keys), sequential counts (full-rehash
/// SipHash keys), and parallel counts at every worker count must all
/// agree on a complete run — and the visited set must shard the space
/// without hot spots.
fn assert_all_explorers_agree(factory: &(impl Fn() -> Sim + Sync), cfg: &CheckConfig, label: &str) {
    let seq = explore(factory, cfg).unwrap_or_else(|e| panic!("{label}: sequential: {e}"));
    assert!(
        seq.complete,
        "{label}: sequential run must exhaust the space"
    );
    assert_balanced_shards(&seq.visited, label);

    let full_cfg = CheckConfig {
        symmetry: Symmetry::FullRehash,
        ..cfg.clone()
    };
    let full = explore(factory, &full_cfg).unwrap_or_else(|e| panic!("{label}: full_rehash: {e}"));
    assert_eq!(
        seq.counts(),
        full.counts(),
        "{label}: incremental-fingerprint keys and the SipHash full-walk \
         keys partition the state space differently"
    );

    for workers in WORKER_COUNTS {
        let par = explore_par(factory, cfg, workers)
            .unwrap_or_else(|e| panic!("{label}: workers={workers}: {e}"));
        assert_eq!(
            seq.counts(),
            par.counts(),
            "{label}: explore_par(workers={workers}) diverged from sequential"
        );
        assert_balanced_shards(&par.visited, &format!("{label} (par workers={workers})"));
    }
}

#[test]
fn tournament_counts_are_worker_count_independent() {
    for m in [2usize, 3] {
        for crash_budget in [0u32, 1, 2] {
            let cfg = CheckConfig {
                passages_per_proc: if m == 2 { 2 } else { 1 },
                crash_budget,
                ..Default::default()
            };
            let factory = move || wmutex::mutex_world(m, Protocol::WriteBack);
            assert_all_explorers_agree(
                &factory,
                &cfg,
                &format!("tournament m={m} crash_budget={crash_budget}"),
            );
        }
    }
}

#[test]
fn af_counts_are_worker_count_independent() {
    // crash_budget = 2 (8.75M states, past the default 5M cap) is the
    // "previously infeasible" instance exhausted in release builds by the
    // `perf_modelcheck` bench; debug keeps to the 36k/756k-state budgets.
    for crash_budget in [0u32, 1] {
        let cfg = CheckConfig {
            passages_per_proc: 1,
            crash_budget,
            ..Default::default()
        };
        assert_all_explorers_agree(
            &af_factory(2, 1),
            &cfg,
            &format!("A_f n=2 m=1 crash_budget={crash_budget}"),
        );
    }
}

#[test]
fn af_two_writers_counts_are_worker_count_independent() {
    let cfg = CheckConfig {
        passages_per_proc: 1,
        ..Default::default()
    };
    assert_all_explorers_agree(&af_factory(2, 2), &cfg, "A_f n=2 m=2");
}

/// An injected invariant violation ("process 0 never reaches the CS")
/// must surface the *same* counterexample at every worker count, and that
/// counterexample must survive `shrink` unchanged at every worker count
/// too — the whole pipeline is deterministic end to end.
#[test]
fn injected_violation_shrinks_identically_across_worker_counts() {
    let factory = || wmutex::mutex_world(2, Protocol::WriteBack);
    let cfg = CheckConfig {
        passages_per_proc: 1,
        ..Default::default()
    };
    let violated = |sim: &Sim| sim.phase(ccsim::ProcId(0)) == Phase::Cs;
    let invariant = |sim: &Sim| {
        if violated(sim) {
            Err("process 0 reached the critical section".to_string())
        } else {
            Ok(())
        }
    };

    let mut outcomes = Vec::new();
    for workers in WORKER_COUNTS {
        let err = explore_par_with(factory, &cfg, workers, invariant)
            .expect_err("process 0 certainly can reach its own CS");
        let CheckError::Invariant { schedule, .. } = &err else {
            panic!("expected an invariant violation, got {err}");
        };
        // The counterexample actually reproduces...
        assert!(violated(&replay(factory, schedule)));
        // ...and ddmin-shrinking it is deterministic as well.
        let shrunk = shrink(factory, schedule, violated);
        assert!(shrunk.schedule.len() <= schedule.len());
        outcomes.push((
            workers,
            schedule.clone(),
            shrunk.schedule,
            shrunk.fingerprint,
        ));
    }
    let (_, first_sched, first_shrunk, first_fp) = &outcomes[0];
    for (workers, sched, shrunk, fp) in &outcomes[1..] {
        assert_eq!(
            sched, first_sched,
            "workers={workers}: raw counterexample depends on worker count"
        );
        assert_eq!(
            shrunk, first_shrunk,
            "workers={workers}: shrunk counterexample depends on worker count"
        );
        assert_eq!(fp, first_fp);
    }

    // The parallel counterexample is breadth-first minimal, so the
    // sequential DFS counterexample can never be shorter.
    let seq_err = explore_with(factory, &cfg, invariant).expect_err("sequential finds it too");
    assert!(first_sched.len() <= seq_err.schedule().len());
}
