//! Soundness contract of the symmetry-quotient state key.
//!
//! [`Symmetry::Quotient`] may only change *how many* configurations the
//! explorers store and expand — never a verdict. The suite checks the
//! three-way agreement (`Off` / `Quotient` / `FullRehash`) on safe and
//! violating worlds, the orbit-counting bounds
//! `quotient ≤ concrete ≤ quotient · |class|!`, the exact quotient
//! partition of fixed worlds, and that counterexamples
//! found under the quotient are concrete schedules: breadth-first
//! minimal, deterministic, shrinkable, and replayable through the trace
//! artifact format.

use ccsim::{Phase, Protocol, Role, Sim};
use modelcheck::{
    explore, explore_par, explore_par_with, replay, shrink, CheckConfig, CheckError, Symmetry,
    TraceArtifact,
};
use rwcore::{
    af_world_custom, af_world_seq_reuse_bug, af_world_with_order, AfConfig, CounterKind, FPolicy,
    HelpOrder,
};

const MODES: [Symmetry; 3] = [Symmetry::Off, Symmetry::Quotient, Symmetry::FullRehash];

/// A CAS-loop-counter `A_f` world: declares whole-group reader
/// [`ccsim::SymmetryClass`]es (see `rwcore::reader_symmetry_classes`).
fn casloop_factory(n: usize, m: usize) -> impl Fn() -> Sim {
    move || {
        af_world_custom(
            AfConfig {
                readers: n,
                writers: m,
                policy: FPolicy::One,
            },
            Protocol::WriteBack,
            HelpOrder::WaitersFirst,
            CounterKind::CasLoop,
        )
        .sim
    }
}

/// An f-array world with `f(n) = n` (singleton groups): width-1 counter
/// trees have no sibling leaf pairs, so the world declares *no* classes
/// and the quotient partition must degenerate to the concrete one
/// exactly.
fn classless_farray_factory(n: usize, m: usize) -> impl Fn() -> Sim {
    move || {
        let world = af_world_with_order(
            AfConfig {
                readers: n,
                writers: m,
                policy: FPolicy::Linear,
            },
            Protocol::WriteBack,
            HelpOrder::WaitersFirst,
        );
        assert!(
            world.sim.symmetry_classes().is_empty(),
            "singleton-group worlds must declare no classes"
        );
        world.sim
    }
}

/// On worlds with declared classes every mode must return the same
/// verdict; `Quotient` stores at most the concrete count and at least
/// `concrete / k!` per class of size `k` (a permutation orbit has at
/// most `k!` concrete members).
#[test]
fn casloop_verdicts_agree_and_orbit_bounds_hold() {
    for (m, crash_budget) in [(1usize, 0u32), (1, 1), (2, 0)] {
        let factory = casloop_factory(2, m);
        let cfg = CheckConfig {
            passages_per_proc: 1,
            crash_budget,
            ..Default::default()
        };
        let label = format!("CasLoop n=2 m={m} crash_budget={crash_budget}");

        let run = |symmetry: Symmetry| {
            explore(
                &factory,
                &CheckConfig {
                    symmetry,
                    ..cfg.clone()
                },
            )
            .unwrap_or_else(|e| panic!("{label} {symmetry}: unexpected violation: {e}"))
        };
        let off = run(Symmetry::Off);
        let quo = run(Symmetry::Quotient);
        let full = run(Symmetry::FullRehash);

        assert!(off.complete && quo.complete && full.complete, "{label}");
        // Two independent hash families agree on the concrete partition.
        assert_eq!(off.counts(), full.counts(), "{label}");
        // One class of two readers: orbits have 1 or 2 concrete members.
        assert!(
            quo.states_explored <= off.states_explored,
            "{label}: quotient expanded more states than concrete \
             ({} > {})",
            quo.states_explored,
            off.states_explored
        );
        assert!(
            off.states_explored <= quo.states_explored * 2,
            "{label}: impossible reduction (orbits of a 2-class hold at \
             most 2 states): {} concrete vs {} orbits",
            off.states_explored,
            quo.states_explored
        );
        // The space genuinely contains asymmetric reachable states, so
        // the quotient must be a *strict* reduction.
        assert!(
            quo.states_explored < off.states_explored,
            "{label}: quotient did not merge anything"
        );
        // The visited set mirrors the partition each mode explored.
        assert_eq!(off.visited.entries, off.states_explored, "{label}");
        assert_eq!(quo.visited.entries, quo.states_explored, "{label}");
        assert!(
            19 * quo.visited.resident_bytes >= 160 * quo.visited.entries,
            "{label}: 8 bytes per slot at no more than 19/20 load"
        );
    }
}

/// Worlds without declared classes: the quotient key must partition the
/// space *identically* to the concrete key — same counts, same visited
/// occupancy, at every worker count.
#[test]
fn undeclared_worlds_quotient_degenerates_to_concrete() {
    let factory = classless_farray_factory(2, 1);
    let cfg = CheckConfig {
        passages_per_proc: 1,
        ..Default::default()
    };
    let mut counts = Vec::new();
    for symmetry in MODES {
        let report = explore(
            &factory,
            &CheckConfig {
                symmetry,
                ..cfg.clone()
            },
        )
        .unwrap_or_else(|e| panic!("{symmetry}: {e}"));
        assert!(report.complete, "{symmetry}");
        assert_eq!(report.visited.entries, report.states_explored, "{symmetry}");
        counts.push(report.counts());

        let par = explore_par(
            &factory,
            &CheckConfig {
                symmetry,
                ..cfg.clone()
            },
            2,
        )
        .unwrap_or_else(|e| panic!("par {symmetry}: {e}"));
        assert_eq!(par.counts(), report.counts(), "{symmetry}: par vs seq");
    }
    assert_eq!(counts[0], counts[1], "quotient must degenerate exactly");
    assert_eq!(counts[0], counts[2], "full-rehash oracle disagrees");
}

/// An f-array world whose two readers form one sibling-leaf-pair class
/// (n=2, one group: width-2 counter trees), each member owning its
/// `C`/`W` leaf slots.
fn farray_pair_factory(m: usize) -> impl Fn() -> Sim {
    move || {
        let world = af_world_with_order(
            AfConfig {
                readers: 2,
                writers: m,
                policy: FPolicy::One,
            },
            Protocol::WriteBack,
            HelpOrder::WaitersFirst,
        );
        assert_eq!(world.sim.symmetry_classes().len(), 1);
        world.sim
    }
}

/// F-array worlds now declare sibling-pair classes: the three modes
/// agree on verdicts, and the quotient is a genuine strict reduction
/// bounded by the orbit size — the tentpole soundness check for orbit
/// canonicalization of the counter heap.
#[test]
fn farray_verdicts_agree_and_quotient_strictly_reduces() {
    for (m, crash_budget) in [(1usize, 0u32), (1, 1)] {
        let factory = farray_pair_factory(m);
        let cfg = CheckConfig {
            passages_per_proc: 1,
            crash_budget,
            ..Default::default()
        };
        let label = format!("FArray n=2 m={m} crash_budget={crash_budget}");
        let run = |symmetry: Symmetry| {
            explore(
                &factory,
                &CheckConfig {
                    symmetry,
                    ..cfg.clone()
                },
            )
            .unwrap_or_else(|e| panic!("{label} {symmetry}: unexpected violation: {e}"))
        };
        let off = run(Symmetry::Off);
        let quo = run(Symmetry::Quotient);
        let full = run(Symmetry::FullRehash);
        assert!(off.complete && quo.complete && full.complete, "{label}");
        assert_eq!(off.counts(), full.counts(), "{label}");
        assert!(
            quo.states_explored < off.states_explored,
            "{label}: quotient did not merge anything"
        );
        assert!(
            off.states_explored <= quo.states_explored * 2,
            "{label}: impossible reduction for a 2-member class"
        );
    }
}

/// The exact orbit partition of the quotient key on fixed worlds:
/// `(states, transitions)` of a complete sequential quotient
/// exploration. Any change to the canonical serialization or to the
/// state key that merges or splits even one orbit moves these numbers,
/// so they hold every rewrite of the key to the same partition.
#[test]
fn quotient_partition_is_pinned() {
    type Factory = Box<dyn Fn() -> Sim>;
    let cases: [(&str, Factory, u32, (u64, u64)); 5] = [
        (
            "CasLoop n=2 m=1",
            Box::new(casloop_factory(2, 1)),
            0,
            (2_165, 5_654),
        ),
        (
            "CasLoop n=2 m=1",
            Box::new(casloop_factory(2, 1)),
            1,
            (21_174, 61_933),
        ),
        (
            "CasLoop n=3 m=1",
            Box::new(casloop_factory(3, 1)),
            1,
            (250_590, 963_460),
        ),
        (
            "FArray pair n=2 m=1",
            Box::new(farray_pair_factory(1)),
            0,
            (17_547, 45_041),
        ),
        (
            "FArray pair n=2 m=1",
            Box::new(farray_pair_factory(1)),
            1,
            (236_294, 669_906),
        ),
    ];
    for (world, factory, crash_budget, expect) in cases {
        let cfg = CheckConfig {
            passages_per_proc: 1,
            crash_budget,
            symmetry: Symmetry::Quotient,
            ..Default::default()
        };
        let report = explore(&factory, &cfg)
            .unwrap_or_else(|e| panic!("{world} crash_budget={crash_budget}: {e}"));
        assert!(report.complete, "{world} crash_budget={crash_budget}");
        assert_eq!(
            (report.states_explored, report.transitions),
            expect,
            "{world} crash_budget={crash_budget}: quotient partition moved"
        );
    }
}

/// The heart of f-array orbit canonicalization: permuting the two
/// same-class readers — *including mid-refresh*, with one add machine
/// suspended between its leaf write and its parent refresh reads —
/// reaches configurations with equal canonical vectors and equal
/// canonical fingerprints, while remaining concretely distinct.
#[test]
fn farray_mid_refresh_permutation_has_equal_canonical_vectors() {
    use ccsim::ProcId;
    let factory = farray_pair_factory(1);
    // Asymmetric step splits: reader A takes `a` solo steps (for a >= 2
    // this suspends its counter add mid-tree-walk), reader B takes `b`.
    for (a, b) in [(1usize, 0usize), (3, 0), (4, 2), (7, 3), (11, 5)] {
        let mut sa = factory();
        for _ in 0..a {
            sa.step(ProcId(0));
        }
        for _ in 0..b {
            sa.step(ProcId(1));
        }
        let mut sb = factory();
        for _ in 0..a {
            sb.step(ProcId(1));
        }
        for _ in 0..b {
            sb.step(ProcId(0));
        }
        assert_ne!(
            sa.fingerprint(),
            sb.fingerprint(),
            "({a},{b}): the permuted runs are concretely distinct"
        );
        assert_eq!(
            sa.fingerprint_canonical(),
            sb.fingerprint_canonical(),
            "({a},{b}): canonical fingerprints must merge the orbit"
        );
        let (mut va, mut vb) = (Vec::new(), Vec::new());
        sa.canonical_vec(&mut va);
        sb.canonical_vec(&mut vb);
        assert_eq!(va, vb, "({a},{b}): canonical vectors must merge the orbit");
    }
}

/// Parallel quotient exploration is still deterministic and agrees with
/// sequential quotient exploration on the orbit counts.
#[test]
fn quotient_counts_are_worker_count_independent() {
    let factory = casloop_factory(2, 1);
    let cfg = CheckConfig {
        passages_per_proc: 1,
        crash_budget: 1,
        symmetry: Symmetry::Quotient,
        ..Default::default()
    };
    let seq = explore(&factory, &cfg).expect("safe");
    assert!(seq.complete);
    for workers in [1usize, 2, 8] {
        let par = explore_par(&factory, &cfg, workers)
            .unwrap_or_else(|e| panic!("workers={workers}: {e}"));
        assert_eq!(
            par.counts(),
            seq.counts(),
            "workers={workers}: quotient exploration must stay deterministic"
        );
    }
}

/// A violating world that declares no classes must be caught under the
/// quotient with the *identical* breadth-first-minimal counterexample.
#[test]
fn seq_reuse_bug_caught_identically_under_quotient() {
    let factory = || af_world_seq_reuse_bug(AfConfig::new(1, 1), Protocol::WriteBack).sim;
    let cfg = CheckConfig {
        passages_per_proc: 2,
        crash_all_budget: 1,
        ..Default::default()
    };
    let mut schedules = Vec::new();
    for symmetry in MODES {
        let err = explore_par(
            factory,
            &CheckConfig {
                symmetry,
                ..cfg.clone()
            },
            0,
        )
        .expect_err("epoch reuse after a crash-all must violate MX");
        let CheckError::MutualExclusion { schedule, .. } = err else {
            panic!("{symmetry}: expected an MX violation");
        };
        schedules.push(schedule);
    }
    assert_eq!(schedules[0], schedules[1]);
    assert_eq!(schedules[0], schedules[2]);
}

/// An invariant violation found under the quotient on a world *with*
/// declared classes: the counterexample is a concrete schedule of the
/// same breadth-first-minimal length as the concrete explorer's (a
/// violation at concrete depth `d` has its orbit reached at quotient
/// depth ≤ `d`, and every quotient violation is a concrete one), it
/// replays, shrinks, and round-trips through the trace-artifact format.
///
/// The probed predicate ("some reader is in the CS") is
/// permutation-invariant — the soundness precondition for checking an
/// invariant under the quotient.
#[test]
fn quotient_counterexample_is_concrete_minimal_and_replayable() {
    let factory = casloop_factory(2, 1);
    let cfg = CheckConfig {
        passages_per_proc: 1,
        ..Default::default()
    };
    let violated = |sim: &Sim| {
        sim.procs_in_cs()
            .iter()
            .any(|&p| sim.role(p) == Role::Reader)
    };
    let invariant = |sim: &Sim| {
        if violated(sim) {
            Err("a reader reached the critical section".to_string())
        } else {
            Ok(())
        }
    };

    let concrete_err =
        explore_par_with(&factory, &cfg, 0, invariant).expect_err("readers certainly reach the CS");

    let quotient_cfg = CheckConfig {
        symmetry: Symmetry::Quotient,
        ..cfg.clone()
    };
    // Deterministic across worker counts even under the quotient.
    let mut outcomes = Vec::new();
    for workers in [1usize, 2, 8] {
        let err = explore_par_with(&factory, &quotient_cfg, workers, invariant)
            .expect_err("quotient must find the violation too");
        let CheckError::Invariant { schedule, .. } = err else {
            panic!("expected an invariant violation");
        };
        outcomes.push(schedule);
    }
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[0], outcomes[2]);

    let schedule = &outcomes[0];
    assert_eq!(
        schedule.len(),
        concrete_err.schedule().len(),
        "quotient BFS minimality must match the concrete explorer's depth"
    );

    // The schedule is a plain concrete schedule: replays to a violating
    // configuration, ddmin-shrinks, and survives the artifact format.
    assert!(violated(&replay(&factory, schedule)));
    let out = shrink(&factory, schedule, violated);
    let sim = replay(&factory, &out.schedule);
    assert!(violated(&sim), "shrunk schedule still reproduces");
    assert_eq!(sim.fingerprint(), out.fingerprint);

    let artifact = TraceArtifact {
        world: "af-casloop n=2 m=1 f=1 writeback".into(),
        violation: "a reader reached the critical section".into(),
        fingerprint: out.fingerprint,
        schedule: out.schedule,
    };
    let parsed = TraceArtifact::parse(&artifact.render()).expect("round trip");
    assert_eq!(parsed, artifact);
    assert!(violated(&replay(&factory, &parsed.schedule)));
}

/// Phase accounting is preserved by the quotient: an exhausted run's
/// terminal configurations still satisfy MX and the per-process passage
/// quotas, whichever backend deduplicated them. (Spot check: replaying
/// nothing — the root — is quiescent.)
#[test]
fn quotient_preserves_root_quiescence() {
    let factory = casloop_factory(2, 1);
    let sim = factory();
    assert!(sim.proc_ids().all(|p| sim.phase(p) == Phase::Remainder));
    let report = explore(
        &factory,
        &CheckConfig {
            passages_per_proc: 0,
            symmetry: Symmetry::Quotient,
            ..Default::default()
        },
    )
    .expect("zero-quota space is a single state");
    assert_eq!(report.states_explored, 1);
    assert_eq!(report.visited.entries, 1);
}
