//! Exhaustive model checks of the `A_f` lock (Theorem 18's safety
//! claims) — the coverage the auto-generated registry suite
//! (`suite_registry.rs`) does *not* produce: alternate group policies
//! and protocols, exhaustive (uncapped) fault adversaries, and the
//! negative-control counterexamples. Routine Mutual Exclusion /
//! Bounded Exit sweeps over the registered lock variants moved to the
//! generated suite; add a lock to [`rwcore::LockRegistry::builtin`] and
//! it is checked there with no test edits here.
//!
//! Larger configurations (e.g. n=3, m=1, f=1: 48.9M states, all safe) run
//! in the `e5_properties` experiment binary in release mode; these tests
//! keep to sizes that finish quickly in debug builds.

use ccsim::Protocol;
use modelcheck::{
    bounded_abort_invariant, explore, explore_par, explore_par_with, explore_with,
    post_crash_acquirability_invariant, replay, shrink, CheckConfig, CheckError, TraceArtifact,
};
use rwcore::{
    af_world, af_world_custom, af_world_seq_reuse_bug, af_world_with_order, AfConfig, CounterKind,
    FPolicy, HelpOrder,
};

// Mutual Exclusion sweeps over the plain, gated, sharded, and CAS-loop
// registered variants (formerly individual tests here and in
// `sharded_af.rs`) now run through the generated suite — see
// `suite_registry.rs::failure_free_suite_passes_for_every_builtin_sim_twin`.

fn af_factory(n: usize, m: usize, policy: FPolicy, order: HelpOrder) -> impl Fn() -> ccsim::Sim {
    move || {
        af_world_with_order(
            AfConfig {
                readers: n,
                writers: m,
                policy,
            },
            Protocol::WriteBack,
            order,
        )
        .sim
    }
}

#[test]
fn af_groups_of_one_exhaustively_safe() {
    let report = explore(
        af_factory(2, 1, FPolicy::Linear, HelpOrder::WaitersFirst),
        &CheckConfig {
            passages_per_proc: 1,
            ..Default::default()
        },
    )
    .expect("A_f f=n must be safe");
    assert!(report.complete);
}

#[test]
fn af_write_through_exhaustively_safe() {
    let report = explore(
        || af_world(AfConfig::new(2, 1), Protocol::WriteThrough).sim,
        &CheckConfig {
            passages_per_proc: 1,
            ..Default::default()
        },
    )
    .expect("A_f under write-through must be safe");
    assert!(report.complete);
}

/// The reproduction finding: the extended abstract's literal HelpWCS
/// (read `C[i]`, then `W[i]`, line 51) admits a mutual-exclusion
/// violation. The model checker finds a ~71-step counterexample at n=3:
/// a reader's `C` increment lands between the two counter reads, so an
/// exiting reader observes stale-C == fresh-W and signals `<seq, CS>`
/// while another reader is still inside the critical section.
#[test]
fn paper_literal_help_order_violates_mutual_exclusion() {
    let factory = af_factory(3, 1, FPolicy::One, HelpOrder::PaperLiteral);
    let err = explore(
        &factory,
        &CheckConfig {
            passages_per_proc: 1,
            max_states: 50_000_000,
            ..Default::default()
        },
    )
    .expect_err("the literal read order must violate mutual exclusion");
    match &err {
        CheckError::MutualExclusion {
            schedule,
            violation,
            fingerprint,
        } => {
            // A writer shares the CS with a reader.
            assert!(violation
                .occupants
                .iter()
                .any(|(_, role)| *role == ccsim::Role::Writer));
            assert!(violation
                .occupants
                .iter()
                .any(|(_, role)| *role == ccsim::Role::Reader));
            // The counterexample replays deterministically, landing on
            // the reported configuration fingerprint.
            let sim = replay(&factory, schedule);
            assert!(sim.check_mutual_exclusion().is_err());
            assert_eq!(sim.fingerprint(), *fingerprint);
        }
        other => panic!("expected an MX violation, got {other}"),
    }
}

/// Crash robustness: `A_f` is not a recoverable lock, but in the RME
/// individual-crash model a crash *outside* the critical section must
/// cost at most liveness, never Mutual Exclusion — local state and cache
/// lines vanish, shared memory (including the f-array counters, whose
/// kept leaf mirrors only ever over-count) survives. Exhausted here for
/// n=2, m=1 with a one-crash adversary. This is the benchmark's
/// `mc-farray` instance, so its counts and visited bytes are pinned: 64
/// shards of 8,192 slots, the largest holding 7,503 keys.
#[test]
fn af_crash_augmented_exploration_is_safe() {
    let report = explore_par(
        af_factory(2, 1, FPolicy::One, HelpOrder::WaitersFirst),
        &CheckConfig {
            passages_per_proc: 1,
            crash_budget: 1,
            ..Default::default()
        },
        0,
    )
    .expect("crashes outside the CS must not break A_f's mutual exclusion");
    assert!(report.complete, "crash-augmented space must be exhausted");
    assert!(
        report.crash_transitions > 0,
        "the crash adversary must actually strike"
    );
    assert_eq!(
        (report.states_explored, report.transitions),
        (468_677, 1_328_602)
    );
    assert_eq!(report.visited.resident_bytes, 4_194_304);
}

/// System-wide crash robustness: with the recoverable reader (counter
/// drain on re-entry) and the writer's epoch burn, `A_f` survives a
/// `CrashAll` adversary — Mutual Exclusion everywhere, every in-flight
/// abort withdraws in bounded solo steps, and from every post-crash
/// configuration a fair failure-free continuation still completes a
/// passage per process (no permanently lost lock). Exhausted for n=1,
/// m=1 with one system-wide crash and one abort along any schedule.
#[test]
fn af_crash_all_and_abort_exploration_holds_all_invariants() {
    let bounded_abort = bounded_abort_invariant(400);
    let acquirable = post_crash_acquirability_invariant(4_000);
    let report = explore_par_with(
        af_factory(1, 1, FPolicy::One, HelpOrder::WaitersFirst),
        &CheckConfig {
            passages_per_proc: 1,
            crash_all_budget: 1,
            abort_budget: 1,
            ..Default::default()
        },
        0,
        |sim| {
            bounded_abort(sim)?;
            acquirable(sim)
        },
    )
    .expect("recoverable A_f must survive the crash-all + abort adversary");
    assert!(report.complete, "augmented space must be exhausted");
    assert!(
        report.crash_transitions > 0,
        "the crash-all adversary must actually strike"
    );
}

/// The negative control for the acquirability probe: the CAS-loop
/// ablation's recovery drains nothing, so a reader that crashes after
/// its counter add leaves the writer blocked for good. Both explorers
/// must report that as an invariant failure whose schedule replays onto
/// a configuration the probe rejects.
#[test]
fn cas_loop_crash_wedge_fails_post_crash_acquirability() {
    let factory = || {
        af_world_custom(
            AfConfig::new(2, 1).with_policy(FPolicy::One),
            Protocol::WriteBack,
            HelpOrder::WaitersFirst,
            CounterKind::CasLoop,
        )
        .sim
    };
    let cfg = CheckConfig {
        passages_per_proc: 1,
        crash_budget: 1,
        ..Default::default()
    };
    let acquirable = post_crash_acquirability_invariant(20_000);
    let witness = |err: CheckError| {
        let CheckError::Invariant { schedule, .. } = &err else {
            panic!("expected an invariant failure, got {err}");
        };
        assert!(acquirable(&replay(factory, schedule)).is_err(), "{err}");
        schedule.iter().map(ToString::to_string).collect::<Vec<_>>()
    };
    // One worker reports the first failure on its DFS walk; two report
    // the lowest failing schedule: p0 crashes three steps into a passage.
    let sequential = witness(explore_with(factory, &cfg, &acquirable).unwrap_err());
    assert_eq!(sequential.len(), 20, "{sequential:?}");
    assert_eq!(sequential.last().map(String::as_str), Some("c1"));
    let lowest = witness(explore_par_with(factory, &cfg, 2, &acquirable).unwrap_err());
    assert_eq!(lowest.join(" "), "s0 s0 s0 c0");
}

/// The same adversary at n=2, m=1 (MX only — the probe invariants are
/// quadratic in state count and stay on the n=1 instance).
#[test]
fn af_2readers_crash_all_augmented_exploration_is_safe() {
    let report = explore_par(
        af_factory(2, 1, FPolicy::One, HelpOrder::WaitersFirst),
        &CheckConfig {
            passages_per_proc: 1,
            crash_all_budget: 1,
            abort_budget: 1,
            ..Default::default()
        },
        0,
    )
    .expect("system-wide crashes must not break A_f's mutual exclusion");
    assert!(report.complete);
    assert!(report.crash_transitions > 0);
}

/// The catch-test for the fault-tolerance layer: re-enabling `WSEQ`
/// reuse after a crash (skipping the recovery epoch burn) must be caught
/// by crash-all-augmented exploration — a reader's stale helper signal,
/// armed for the crashed passage's epoch, fires into the recovered
/// writer's identically-numbered passage and walks it into an occupied
/// critical section. A two-passage quota is essential: the stale signal
/// needs a *second* reader passage to collide with (one-passage
/// adversaries explore this bug safely — see
/// `af_crash_augmented_exploration_is_safe`). The counterexample shrinks
/// to a locally minimal schedule and survives the trace-artifact text
/// format.
#[test]
fn seq_reuse_bug_is_caught_shrunk_and_replayable() {
    let factory = || af_world_seq_reuse_bug(AfConfig::new(1, 1), Protocol::WriteBack).sim;
    let err = explore(
        factory,
        &CheckConfig {
            passages_per_proc: 2,
            crash_all_budget: 1,
            ..Default::default()
        },
    )
    .expect_err("epoch reuse after a crash-all must violate mutual exclusion");
    let CheckError::MutualExclusion { schedule, .. } = &err else {
        panic!("expected an MX violation, got {err}");
    };
    assert!(
        schedule.iter().any(|e| e.is_crash()),
        "the violation must require a crash"
    );

    let violates = |s: &ccsim::Sim| s.check_mutual_exclusion().is_err();
    let out = shrink(factory, schedule, violates);
    let sim = replay(factory, &out.schedule);
    assert!(violates(&sim), "shrunk schedule still reproduces");
    assert_eq!(sim.fingerprint(), out.fingerprint);

    // The shrunk counterexample round-trips through the artifact format
    // (crash tokens included) and replays onto the same configuration.
    let artifact = TraceArtifact {
        world: "af-seq-reuse-bug n=1 m=1 writeback".into(),
        violation: err.describe(),
        fingerprint: out.fingerprint,
        schedule: out.schedule,
    };
    let parsed = TraceArtifact::parse(&artifact.render()).expect("round trip");
    assert_eq!(parsed, artifact);
    let sim = replay(factory, &parsed.schedule);
    assert!(violates(&sim));
    assert_eq!(sim.fingerprint(), parsed.fingerprint);
}

/// The same configuration with the safe (waiters-first) order never
/// reaches a violation along the literal counterexample's prefix space:
/// spot-check by exploring a capped slice of the n=3 space (the full
/// 48.9M-state proof runs in `e5_properties` / release).
#[test]
fn waiters_first_survives_capped_n3_exploration() {
    let report = explore(
        af_factory(3, 1, FPolicy::One, HelpOrder::WaitersFirst),
        &CheckConfig {
            passages_per_proc: 1,
            max_states: 300_000,
            ..Default::default()
        },
    )
    .expect("no violation within the capped slice");
    assert!(!report.complete, "cap should bind at n=3");
}
