//! The registration contract, end to end: registering a lock in
//! exactly one place — a [`rwcore::LockEntry`] appended to the registry
//! — makes it appear on all four downstream surfaces with no further
//! wiring:
//!
//! 1. the `experiments --list` catalog ([`bench::exp::render_list`]),
//! 2. the `perf_locks` lock × scenario matrix
//!    ([`bench::exp::scenario_matrix`]) and its uncontended passage rows
//!    ([`bench::exp::uncontended_locks`]),
//! 3. the auto-generated model-check suite
//!    ([`modelcheck::suite::plan`]), and
//! 4. the real-atomics conformance suite ([`rwcore::conformance`] over
//!    [`rwcore::LockRegistry::real_locks`]).
//!
//! Plus the sim/real parity contract: both harnesses derive their
//! workload parameters from the *same* [`rwcore::Scenario`] accessors,
//! so one scenario string means one workload on both sides.

use bench::exp::{bench_scenarios, render_list, scenario_matrix, uncontended_locks};
use bench::throughput::{run_contended, MixedWorkload, OpBudget};
use ccsim::{Prng, Protocol, Sim};
use modelcheck::suite;
use modelcheck::CheckConfig;
use rwcore::{
    centralized_world, conformance, FPolicy, FaultSupport, LockEntry, LockRegistry, RealLock,
    RealLockFactory, RealShape, Scenario, SimInstance, SimLock,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A toy real-atomics lock: a ticket-style spin rwlock reduced to the
/// bare [`RealLock`] surface. Deliberately trivial — the test is about
/// the wiring, not the lock.
#[derive(Debug, Default)]
struct ToyTicket {
    word: AtomicU64,
}

const WRITER_BIT: u64 = 1 << 63;

impl RealLock for ToyTicket {
    fn read_pass(&self, _id: usize, cs: &mut dyn FnMut()) {
        loop {
            let v = self.word.load(Ordering::Acquire);
            if v & WRITER_BIT != 0 {
                std::hint::spin_loop();
                continue;
            }
            if self
                .word
                .compare_exchange_weak(v, v + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        cs();
        self.word.fetch_sub(1, Ordering::AcqRel);
    }

    fn write_pass(&self, _id: usize, cs: &mut dyn FnMut()) {
        loop {
            if self
                .word
                .compare_exchange_weak(0, WRITER_BIT, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
            std::hint::spin_loop();
        }
        cs();
        self.word.store(0, Ordering::Release);
    }

    fn label(&self) -> String {
        "toy-ticket".to_string()
    }
}

/// The negative control: [`ToyTicket`]'s readers, but a `write_pass`
/// that takes no lock at all.
#[derive(Debug, Default)]
struct BrokenToy(ToyTicket);

impl RealLock for BrokenToy {
    fn read_pass(&self, id: usize, cs: &mut dyn FnMut()) {
        self.0.read_pass(id, cs);
    }

    fn write_pass(&self, _id: usize, cs: &mut dyn FnMut()) {
        cs();
    }

    fn label(&self) -> String {
        "broken-toy".to_string()
    }
}

/// The toy's sim twin, borrowing the centralized baseline world — again
/// the simplest thing that satisfies [`SimLock`].
#[derive(Debug)]
struct ToySim;

impl SimLock for ToySim {
    fn instances(&self) -> Vec<SimInstance> {
        vec![SimInstance::new(2, 1)]
    }

    fn build(&self, inst: &SimInstance, protocol: Protocol) -> Sim {
        centralized_world(inst.readers, inst.writers, protocol).sim
    }

    fn exit_budget(&self) -> Option<u64> {
        None
    }
}

/// The single registration step under test.
fn registry_with_toy() -> LockRegistry {
    LockRegistry::builtin().with(
        LockEntry::new("toy-ticket", "test-only toy ticket lock")
            .with_real(RealLockFactory::new(|_| Arc::new(ToyTicket::default())))
            .with_sim(Arc::new(ToySim)),
    )
}

#[test]
fn one_registration_reaches_all_three_surfaces() {
    let reg = registry_with_toy();

    // Surface 1: the --list catalog names the lock with both twins.
    let listing = render_list(&[], &reg);
    let row = listing
        .lines()
        .find(|l| l.contains("toy-ticket"))
        .expect("toy-ticket appears in the --list catalog");
    assert!(
        row.contains("yes") && row.contains("test-only toy ticket lock"),
        "catalog row carries twin marks and the summary: {row:?}"
    );

    // Surface 2: the perf_locks lock × scenario matrix has one cell per
    // bench scenario for the toy.
    let matrix = scenario_matrix(&reg);
    let toy_cells: Vec<&str> = matrix
        .iter()
        .filter(|(lock, _)| lock == "toy-ticket")
        .map(|(_, s)| s.as_str())
        .collect();
    let expected: Vec<&str> = bench_scenarios().iter().map(|n| n.name).collect();
    assert_eq!(
        toy_cells, expected,
        "toy-ticket gets exactly one matrix cell per bench scenario"
    );

    // Surface 2, uncontended half: the passage rows start with one A_f
    // row per named f policy, and the toy follows among the registry's
    // locks. Building the rows times nothing.
    let labels: Vec<String> = uncontended_locks(&reg)
        .into_iter()
        .map(|(label, _)| label)
        .collect();
    let policy_rows: Vec<String> = FPolicy::NAMED
        .iter()
        .map(|policy| format!("a_f({policy})"))
        .collect();
    assert_eq!(
        labels[..policy_rows.len()],
        policy_rows[..],
        "the uncontended rows begin with one A_f row per named policy"
    );
    assert!(
        labels[policy_rows.len()..]
            .iter()
            .any(|l| l == "toy-ticket"),
        "toy-ticket appears among the uncontended registry rows: {labels:?}"
    );

    // Surface 3: the generated model-check suite plans a Mutual
    // Exclusion case on the toy's declared instance.
    let scenario: Scenario = "r9:1".parse().unwrap();
    let cases = suite::plan(&reg, &scenario, &CheckConfig::default());
    let toy_case = cases
        .iter()
        .find(|c| c.lock == "toy-ticket")
        .expect("toy-ticket appears in the model-check suite plan");
    assert_eq!(toy_case.instance.label, "2r+1w");
    assert!(toy_case.properties.contains(&"mutual-exclusion"));
}

#[test]
fn the_toy_lock_actually_runs_on_both_surfaces() {
    let reg = registry_with_toy();

    // Real side: the bench harness picks the toy up from the registry's
    // contender set and completes a seeded smoke cell.
    let locks = reg.real_locks(rwcore::RealShape::symmetric(2));
    let toy = locks
        .iter()
        .find(|l| l.label() == "toy-ticket")
        .expect("contender set includes the toy")
        .clone();
    let wl = MixedWorkload::from_scenario(
        "r9:1".parse().unwrap(),
        2,
        OpBudget::PerThreadOps(200),
        false,
        0xD0C5,
    );
    let sample = run_contended(toy, &wl);
    assert_eq!(sample.reads + sample.writes, 400);
    assert_eq!(sample.shards, None);

    // Sim side: the generated suite case explores the toy's world and
    // passes Mutual Exclusion.
    let scenario: Scenario = "r9:1".parse().unwrap();
    let cases = suite::plan(&reg, &scenario, &CheckConfig::default());
    let case = cases.iter().find(|c| c.lock == "toy-ticket").unwrap();
    let report = suite::run_case(case, Protocol::WriteBack, 1)
        .expect("toy sim twin passes Mutual Exclusion");
    assert!(report.states_explored > 0);
}

/// Surface 4: the toy, built through the registry like every other
/// real lock, passes the conformance suite; the broken toy, whose
/// writers take no lock, fails it.
#[test]
fn conformance_accepts_the_toy_and_rejects_a_lockless_writer() {
    let shape = RealShape::new(3, 2);
    let locks = registry_with_toy().real_locks(shape);
    let toy = locks
        .iter()
        .find(|l| l.label() == "toy-ticket")
        .expect("contender set includes the toy");
    conformance(toy.as_ref(), shape, 0x70E).expect("the toy lock conforms");

    // Whether a run overlaps two critical sections depends on the
    // host's scheduling, so allow a few seeds to find one.
    let err = (0..8)
        .find_map(|seed| conformance(&BrokenToy::default(), shape, seed).err())
        .expect("the suite rejects writers that take no lock");
    assert!(err.starts_with("broken-toy: "), "{err}");
}

/// Sim/real parity: one scenario string, parsed twice, drives both
/// harnesses to identical derived parameters — thread counts, mix
/// coins, fault budgets, and even the per-op decision stream.
#[test]
fn sim_and_real_harnesses_agree_on_scenario_derivation() {
    const SPEC: &str = "r9:1,churn=0.125,oversub=2,xcrash=0.01,xabort=0.01";
    let real_side: Scenario = SPEC.parse().unwrap();
    let sim_side: Scenario = SPEC.parse().unwrap();
    assert_eq!(real_side, sim_side, "strict parse is deterministic");

    // Real derivation: oversubscription scales the thread budget.
    let wl = MixedWorkload::from_scenario(real_side, 4, OpBudget::PerThreadOps(1), false, 7);
    assert_eq!(wl.threads, 8, "oversub=2 doubles 4 base threads");
    assert_eq!(wl.scenario.mix(), (9, 1));

    // Sim derivation: the same rates map to explorer budgets.
    let cfg = suite::check_config_for(&sim_side, FaultSupport::ALL, &CheckConfig::default());
    assert_eq!(cfg.crash_budget, 1, "xcrash=0.01 -> one planned crash");
    assert_eq!(cfg.abort_budget, 1, "xabort=0.01 -> one planned abort");
    assert_eq!(sim_side.crash_budget(), cfg.crash_budget);

    // Both sides flip the same mix coin: the per-op read/write stream
    // from a shared seed is identical across the two parsed copies.
    let mut real_rng = Prng::new(0xBEEF);
    let mut sim_rng = Prng::new(0xBEEF);
    for i in 0..1_000 {
        assert_eq!(
            wl.scenario.draw_read(&mut real_rng),
            sim_side.draw_read(&mut sim_rng),
            "draw {i} diverged"
        );
    }
}
