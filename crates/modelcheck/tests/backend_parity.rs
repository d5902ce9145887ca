//! Quotient-key parity with the full-rehash oracle over the generated
//! suite.
//!
//! For every case the registry suite generates, the `Quotient` key and
//! the independent-hash-family `FullRehash` oracle must return the same
//! verdict, the oracle (which keys the concrete partition) must never
//! store fewer states than the quotient, and on violating worlds the
//! counterexample each explorer reports must not depend on the state
//! key (DFS-first for the sequential explorer, BFS-minimal for the
//! parallel one). The exact orbit counts are pinned separately in
//! `symmetry_quotient.rs`.

use ccsim::Protocol;
use modelcheck::suite::{plan, run_case, SuiteCase};
use modelcheck::{explore, explore_par, CheckConfig, CheckError, CheckReport, Symmetry};
use rwcore::{af_world_seq_reuse_bug, AfConfig, LockRegistry, Scenario};

/// The quotient key and the independent-hash-family oracle.
const MODES: [Symmetry; 2] = [Symmetry::Quotient, Symmetry::FullRehash];

/// Every suite case, sequential and parallel, under both keys:
/// identical verdicts, and the oracle's concrete partition never
/// smaller than the quotient.
#[test]
fn suite_cases_agree_between_quotient_and_oracle() {
    let reg = LockRegistry::builtin();
    let scenario: Scenario = "r2:1,xcrash=0.01,xabort=0.01".parse().unwrap();
    let base = CheckConfig::default();
    for case in plan(&reg, &scenario, &base) {
        let label = case.describe();

        let mut reports: Vec<CheckReport> = Vec::new();
        for symmetry in MODES {
            let tuned = SuiteCase {
                config: CheckConfig {
                    symmetry,
                    ..case.config.clone()
                },
                ..case.clone()
            };
            let seq = run_case(&tuned, Protocol::WriteBack, 1)
                .unwrap_or_else(|e| panic!("{label} seq {symmetry}: unexpected violation: {e}"));
            assert!(seq.complete, "{label} {symmetry}");
            assert_eq!(
                seq.visited.entries, seq.states_explored,
                "{label} {symmetry}: one visited entry per expanded state"
            );
            // The parallel explorer must agree with the sequential one.
            // (The FullRehash oracle is checked seq-only: its par
            // agreement is already covered by par_determinism, and it is
            // by far the slowest lane.)
            if symmetry == Symmetry::Quotient {
                let par = run_case(&tuned, Protocol::WriteBack, 2).unwrap_or_else(|e| {
                    panic!("{label} par {symmetry}: unexpected violation: {e}")
                });
                assert!(par.complete, "{label} {symmetry}");
                assert_eq!(seq.counts(), par.counts(), "{label} {symmetry}: seq vs par");
            }
            reports.push(seq);
        }

        // The oracle explores the *concrete* partition: never fewer
        // states than the quotient.
        assert!(
            reports[1].states_explored >= reports[0].states_explored,
            "{label}: oracle explored fewer states than the quotient"
        );
    }
}

/// On a violating world every state key recovers the same
/// counterexample per explorer: the parallel explorer's deterministic
/// BFS-minimal re-search must be key-independent, and so must the
/// sequential explorer's DFS-order hit (same partition ⇒ same walk).
/// The two explorers' schedules differ by construction (DFS-first vs
/// BFS-minimal), so they are compared within their own group, plus the
/// minimality relation between the groups.
#[test]
fn violating_world_counterexamples_identical_across_keys() {
    // 1 reader + 1 writer: no classes declared, so Off and Quotient key
    // the same partition and all three keys are comparable.
    let factory = || af_world_seq_reuse_bug(AfConfig::new(1, 1), Protocol::WriteBack).sim;
    let base = CheckConfig {
        passages_per_proc: 2,
        crash_all_budget: 1,
        ..Default::default()
    };
    let modes = [Symmetry::Off, Symmetry::Quotient, Symmetry::FullRehash];
    let mut seq_schedules = Vec::new();
    let mut par_schedules = Vec::new();
    for symmetry in modes {
        let cfg = CheckConfig {
            symmetry,
            ..base.clone()
        };
        let seq_err = explore(factory, &cfg).expect_err("epoch reuse must violate MX");
        let par_err = explore_par(factory, &cfg, 2).expect_err("epoch reuse must violate MX");
        for (sink, err) in [(&mut seq_schedules, seq_err), (&mut par_schedules, par_err)] {
            let CheckError::MutualExclusion { schedule, .. } = err else {
                panic!("{symmetry}: expected an MX violation");
            };
            sink.push(schedule);
        }
    }
    for (i, s) in seq_schedules.iter().enumerate() {
        assert_eq!(
            s, &seq_schedules[0],
            "{}: sequential counterexamples must be key-independent",
            modes[i]
        );
    }
    for (i, s) in par_schedules.iter().enumerate() {
        assert_eq!(
            s, &par_schedules[0],
            "{}: BFS-minimal counterexamples must be key-independent",
            modes[i]
        );
    }
    assert!(
        par_schedules[0].len() <= seq_schedules[0].len(),
        "the BFS re-search schedule is minimal"
    );
}
