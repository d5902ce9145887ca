//! Auto-generated model-check suites over the lock registry.
//!
//! Every lock with a sim twin ([`rwcore::SimLock`]) gets its checks
//! derived here instead of hand-written per-lock test drivers: Mutual
//! Exclusion on every declared [`rwcore::SimInstance`], Bounded Exit on
//! probe instances that declare an exit budget, and — when the driving
//! [`Scenario`] carries fault pressure the lock's world model supports —
//! crash/abort-augmented exploration with the post-crash-acquirability
//! and bounded-abort invariants. Registering a lock in
//! [`rwcore::LockRegistry`] is the *only* step; the suite picks it up.
//!
//! The scenario is the same DSL string the bench harness consumes
//! (`"r2:1,xcrash=0.01,xabort=0.01"`): its `xcrash`/`xabort` rates map
//! to the exhaustive explorer's crash/abort budgets via
//! [`Scenario::crash_budget`]/[`Scenario::abort_budget`], intersected
//! with the lock's [`FaultSupport`] — a fault regime a world model
//! cannot express is skipped, not silently misreported as checked.
//!
//! Fault budgets are applied to **probe** instances only: each budget
//! unit multiplies the state space, and the probe instances are the
//! small worlds sized for exactly that. Non-probe instances are always
//! explored failure-free (Mutual Exclusion only).

use crate::{
    bounded_abort_invariant, bounded_exit_invariant, explore_par_with,
    post_crash_acquirability_invariant, CheckConfig, CheckError, CheckReport,
};
use ccsim::{Protocol, Sim};
use rwcore::{FaultSupport, LockRegistry, Scenario, SimInstance, SimLock};
use std::sync::Arc;

/// Budget conventions of the generated invariant probes, re-exported so
/// suite consumers and hand-written tests agree on one set of numbers.
pub mod budgets {
    /// Step budget of [`crate::bounded_abort_invariant`] probes.
    pub const ABORT: u64 = 400;
    /// Step budget of [`crate::post_crash_acquirability_invariant`]
    /// probes.
    pub const POST_CRASH: u64 = 4_000;
}

/// One generated check: a lock instance, the properties verified on it
/// (in one exploration pass), and the effective exploration config. It
/// carries the sim twin and instance it runs on, so [`run_case`] needs
/// nothing else.
#[derive(Clone, Debug)]
pub struct SuiteCase {
    /// Registry id of the lock.
    pub lock: String,
    /// The lock's sim twin.
    pub sim: Arc<dyn SimLock>,
    /// The instance explored (its label is e.g. `"2r+1w"`).
    pub instance: SimInstance,
    /// Property names checked on this instance.
    pub properties: Vec<&'static str>,
    /// The exploration limits and adversary budgets in force.
    pub config: CheckConfig,
}

impl SuiteCase {
    /// `"lock/instance: prop, prop"` — the line `--list`-style surfaces
    /// print.
    pub fn describe(&self) -> String {
        format!(
            "{}/{}: {}",
            self.lock,
            self.instance.label,
            self.properties.join(", ")
        )
    }
}

/// A generated check together with the exploration report that passed
/// it.
#[derive(Clone, Debug)]
pub struct SuiteOutcome {
    /// The check that ran.
    pub case: SuiteCase,
    /// The (passing) exploration report.
    pub report: CheckReport,
}

/// A failed generated check: which lock/instance, and the explorer's
/// counterexample.
#[derive(Debug)]
pub struct SuiteFailure {
    /// Registry id of the lock.
    pub lock: String,
    /// Instance label.
    pub instance: String,
    /// The violation, with schedule and fingerprint.
    pub error: CheckError,
}

impl std::fmt::Display for SuiteFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}: {}", self.lock, self.instance, self.error)
    }
}

/// The effective exploration config for one lock under `scenario`:
/// `base` with the scenario's crash/abort budgets, intersected with
/// what the lock's world model supports.
pub fn check_config_for(
    scenario: &Scenario,
    support: FaultSupport,
    base: &CheckConfig,
) -> CheckConfig {
    let mut cfg = base.clone();
    cfg.crash_budget = if support.crash {
        scenario.crash_budget()
    } else {
        0
    };
    // A system-wide crash composes every per-process crash at once, so
    // one is already the expensive regime; never plan more than one.
    cfg.crash_all_budget = if support.crash_all {
        scenario.crash_budget().min(1)
    } else {
        0
    };
    cfg.abort_budget = if support.abort {
        scenario.abort_budget()
    } else {
        0
    };
    cfg
}

/// Enumerate the checks `scenario` generates over every sim twin in
/// `reg`, in registry and instance order — the model-check surface a
/// registered lock appears on. [`run_suite`] runs exactly this plan, and
/// external harnesses (e.g. the backend-parity suite) run its cases
/// under custom configs.
pub fn plan(reg: &LockRegistry, scenario: &Scenario, base: &CheckConfig) -> Vec<SuiteCase> {
    let mut failure_free = base.clone();
    failure_free.crash_budget = 0;
    failure_free.crash_all_budget = 0;
    failure_free.abort_budget = 0;
    reg.sim_entries()
        .flat_map(|(id, sim)| {
            let faulty = check_config_for(scenario, sim.fault_support(), base);
            let failure_free = failure_free.clone();
            sim.instances().into_iter().map(move |instance| {
                let config = if instance.probes {
                    faulty.clone()
                } else {
                    failure_free.clone()
                };
                let mut properties = vec!["mutual-exclusion"];
                if instance.probes && sim.exit_budget().is_some() {
                    properties.push("bounded-exit");
                }
                if config.crash_budget > 0 || config.crash_all_budget > 0 {
                    properties.push("post-crash-acquirability");
                }
                if config.abort_budget > 0 {
                    properties.push("bounded-abort");
                }
                SuiteCase {
                    lock: id.to_string(),
                    sim: Arc::clone(sim),
                    instance,
                    properties,
                    config,
                }
            })
        })
        .collect()
}

type Probe = Box<dyn Fn(&Sim) -> Result<(), String> + Sync>;

/// The invariant probes a planned case attaches (beyond the always-on
/// Mutual Exclusion check), derived from its property list.
fn probes_for(case: &SuiteCase) -> Vec<Probe> {
    let mut probes: Vec<Probe> = Vec::new();
    if case.properties.contains(&"bounded-exit") {
        let budget = case
            .sim
            .exit_budget()
            .expect("bounded-exit planned without a budget");
        probes.push(Box::new(bounded_exit_invariant(budget)));
    }
    if case.properties.contains(&"post-crash-acquirability") {
        probes.push(Box::new(post_crash_acquirability_invariant(
            budgets::POST_CRASH,
        )));
    }
    if case.properties.contains(&"bounded-abort") {
        probes.push(Box::new(bounded_abort_invariant(budgets::ABORT)));
    }
    probes
}

/// Run one generated check: a single exploration pass over the instance
/// with every applicable invariant probe attached.
pub fn run_case(
    case: &SuiteCase,
    protocol: Protocol,
    workers: usize,
) -> Result<CheckReport, CheckError> {
    let probes = probes_for(case);
    explore_par_with(
        || case.sim.build(&case.instance, protocol),
        &case.config,
        workers,
        move |s| probes.iter().try_for_each(|p| p(s)),
    )
}

/// Run the whole generated suite for `scenario` over every sim twin in
/// `reg`, stopping at the first failure.
///
/// # Errors
/// The first failing check, with the lock/instance it failed on and the
/// explorer's deterministic counterexample.
pub fn run_suite(
    reg: &LockRegistry,
    scenario: &Scenario,
    base: &CheckConfig,
    protocol: Protocol,
    workers: usize,
) -> Result<Vec<SuiteOutcome>, Box<SuiteFailure>> {
    let mut outcomes = Vec::new();
    for case in plan(reg, scenario, base) {
        match run_case(&case, protocol, workers) {
            Ok(report) => outcomes.push(SuiteOutcome { case, report }),
            Err(error) => {
                return Err(Box::new(SuiteFailure {
                    lock: case.lock,
                    instance: case.instance.label,
                    error,
                }))
            }
        }
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failure_free() -> Scenario {
        "r9:1".parse().unwrap()
    }

    #[test]
    fn plan_covers_every_sim_twin() {
        let reg = LockRegistry::builtin();
        let base = CheckConfig::default();
        let cases = plan(&reg, &failure_free(), &base);
        let locks: std::collections::BTreeSet<&str> =
            cases.iter().map(|c| c.lock.as_str()).collect();
        for (id, _) in reg.sim_entries() {
            assert!(locks.contains(id), "{id} missing from the plan");
        }
        // Failure-free scenario: no fault properties anywhere.
        for c in &cases {
            assert!(
                c.properties.contains(&"mutual-exclusion"),
                "{}",
                c.describe()
            );
            assert!(
                !c.properties.contains(&"post-crash-acquirability"),
                "{}",
                c.describe()
            );
            assert_eq!(c.config.crash_budget, 0, "{}", c.describe());
        }
        // Probe instances with an exit budget get the Bounded Exit probe.
        assert!(
            cases
                .iter()
                .any(|c| c.lock == "a_f" && c.properties.contains(&"bounded-exit")),
            "a_f probes plan Bounded Exit"
        );
        // Baselines opted out via exit_budget = None.
        assert!(
            cases
                .iter()
                .filter(|c| c.lock == "centralized-cas")
                .all(|c| !c.properties.contains(&"bounded-exit")),
            "baselines never plan Bounded Exit"
        );
    }

    #[test]
    fn faulty_scenario_plans_fault_properties_where_supported() {
        let reg = LockRegistry::builtin();
        let scenario: Scenario = "r2:1,xcrash=0.01,xabort=0.01".parse().unwrap();
        let base = CheckConfig::default();
        let cases = plan(&reg, &scenario, &base);
        let af_probe = cases
            .iter()
            .find(|c| c.lock == "a_f" && c.instance.label == "2r+1w")
            .expect("a_f probe instance planned");
        assert!(af_probe.properties.contains(&"post-crash-acquirability"));
        assert!(af_probe.properties.contains(&"bounded-abort"));
        assert_eq!(af_probe.config.crash_budget, 1);
        assert_eq!(af_probe.config.crash_all_budget, 1);
        assert_eq!(af_probe.config.abort_budget, 1);
        // The larger a_f instance stays failure-free (probes gate cost).
        let af_large = cases
            .iter()
            .find(|c| c.lock == "a_f" && c.instance.label == "2r+2w")
            .expect("a_f large instance planned");
        assert_eq!(af_large.config.crash_budget, 0);
        // Locks without fault support never plan fault properties.
        for c in cases.iter().filter(|c| c.lock == "a_f-sharded") {
            assert!(
                !c.properties.contains(&"post-crash-acquirability"),
                "{}",
                c.describe()
            );
        }
    }

    #[test]
    fn config_intersection_respects_support() {
        let scenario: Scenario = "r1:1,xcrash=0.2,xabort=0.01".parse().unwrap();
        let base = CheckConfig::default();
        let all = check_config_for(&scenario, FaultSupport::ALL, &base);
        assert_eq!(all.crash_budget, 2);
        assert_eq!(all.crash_all_budget, 1, "crash-alls cap at one");
        assert_eq!(all.abort_budget, 1);
        let none = check_config_for(&scenario, FaultSupport::NONE, &base);
        assert_eq!(
            (none.crash_budget, none.crash_all_budget, none.abort_budget),
            (0, 0, 0)
        );
    }
}
