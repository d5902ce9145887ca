//! The auto-generated model-check suite, run end to end over the lock
//! registry — the sim surface of the registration contract. These runs
//! subsume the per-lock exploration tests that previously lived in
//! `af_exhaustive.rs` and `sharded_af.rs` (plain/gated/sharded/CAS-loop
//! `A_f` and the baselines, Mutual Exclusion plus Bounded Exit on probe
//! instances); what remains in `af_exhaustive.rs` is coverage the suite
//! does not generate — alternate policies/protocols, exhaustive fault
//! adversaries, and the negative-control counterexamples.

use ccsim::Protocol;
use modelcheck::{suite, CheckConfig};
use rwcore::{LockRegistry, Scenario};

#[test]
fn failure_free_suite_passes_for_every_builtin_sim_twin() {
    let reg = LockRegistry::builtin();
    let scenario: Scenario = "r9:1".parse().unwrap();
    let base = CheckConfig::default();
    let planned = suite::plan(&reg, &scenario, &base);
    let outcomes = suite::run_suite(&reg, &scenario, &base, Protocol::WriteBack, 0)
        .unwrap_or_else(|f| panic!("generated check failed: {f}"));
    assert_eq!(
        outcomes.len(),
        planned.len(),
        "every planned check ran: {:?}",
        planned.iter().map(|c| c.describe()).collect::<Vec<_>>()
    );
    for o in &outcomes {
        assert!(
            o.report.complete,
            "{}: exploration must exhaust the failure-free space",
            o.case.describe()
        );
        assert!(o.report.states_explored > 0, "{}", o.case.describe());
        assert_eq!(
            o.report.crash_transitions,
            0,
            "{}: failure-free runs take no crash transitions",
            o.case.describe()
        );
    }
    // The flagship's large instance is genuinely non-trivial.
    let af_large = outcomes
        .iter()
        .find(|o| o.case.lock == "a_f" && o.case.instance.label == "2r+2w")
        .expect("a_f 2r+2w ran");
    assert!(af_large.report.states_explored > 10_000);
}

#[test]
fn faulty_scenario_drives_crash_and_abort_adversaries_through_the_suite() {
    // The `faulty` preset on the flagship alone (the registry's other
    // twins either lack fault support — budgets intersect to zero — or
    // would re-run checks the failure-free test already covers). The
    // probe invariants are expensive per state, so the base config caps
    // the exploration: the assertion is that the generated adversary
    // actually strikes and every struck state passes the probes, not
    // that the capped slice is exhaustive (E15/E17 do that in release).
    let reg = LockRegistry::builtin();
    let flagship = LockRegistry::empty().with(reg.get("a_f").expect("a_f registered").clone());
    let scenario: Scenario = "r2:1,xcrash=0.01,xabort=0.01".parse().unwrap();
    let base = CheckConfig {
        max_states: 30_000,
        ..Default::default()
    };
    let planned = suite::plan(&flagship, &scenario, &base);
    let probe_case = planned
        .iter()
        .find(|c| c.instance.label == "2r+1w")
        .expect("probe instance planned");
    for prop in [
        "mutual-exclusion",
        "bounded-exit",
        "post-crash-acquirability",
        "bounded-abort",
    ] {
        assert!(
            probe_case.properties.contains(&prop),
            "faulty probe case plans {prop}: {}",
            probe_case.describe()
        );
    }
    let outcomes = suite::run_suite(&flagship, &scenario, &base, Protocol::WriteBack, 0)
        .unwrap_or_else(|f| panic!("generated fault check failed: {f}"));
    let probe = outcomes
        .iter()
        .find(|o| o.case.instance.label == "2r+1w")
        .expect("probe instance ran");
    assert!(
        probe.report.crash_transitions > 0,
        "the generated crash adversary must actually strike"
    );
    // The non-probe instance stayed failure-free by construction.
    let large = outcomes
        .iter()
        .find(|o| o.case.instance.label == "2r+2w")
        .expect("non-probe instance ran");
    assert_eq!(large.report.crash_transitions, 0);
    assert_eq!(large.case.config.crash_budget, 0);
}
