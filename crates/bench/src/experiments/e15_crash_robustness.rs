//! E15 — crash robustness: `A_f` vs the baselines under fault injection
//! in the RME individual-crash model. Exhaustive crash-augmented model
//! checks (MX under every one-/two-crash adversary) plus seeded random
//! crash plans with recovery-RMR accounting and stall diagnoses. All
//! rows are deterministic for the fixed seeds.

use super::prelude::*;
use super::support::trace_cell;
use crate::exp::Artifact;
use crate::par;
use ccsim::{run_random_with_faults, FaultPlan, Prng, RunConfig, RunError, Sim};
use modelcheck::{explore_par, shrink, CheckConfig, TraceArtifact};
use rwcore::{af_world, centralized_world, faa_world};

const SEED: u64 = 0xE15_C4A5;

#[derive(Copy, Clone, Debug)]
enum Lock {
    Af,
    Centralized,
    Faa,
}

impl Lock {
    const ALL: [Lock; 3] = [Lock::Af, Lock::Centralized, Lock::Faa];

    fn name(self) -> &'static str {
        match self {
            Lock::Af => "A_f (f=1)",
            Lock::Centralized => "centralized CAS",
            Lock::Faa => "FAA",
        }
    }

    fn world(self, readers: usize, writers: usize) -> Sim {
        let cfg = AfConfig {
            readers,
            writers,
            policy: FPolicy::One,
        };
        match self {
            Lock::Af => af_world(cfg, Protocol::WriteBack).sim,
            Lock::Centralized => centralized_world(readers, writers, Protocol::WriteBack).sim,
            Lock::Faa => faa_world(readers, writers, Protocol::WriteBack).sim,
        }
    }
}

/// Exhaustive crash-augmented safety check for one lock; returns the
/// table row, whether MX held, and the shrunk counterexample trace if
/// it did not. The whole worker pool attacks one
/// state space at a time — the budget-2 spaces dwarf the budget-1 ones,
/// so parallelism inside the explorer beats parallelism across rows.
fn check_row(lock: Lock, budget: u32) -> ([String; 5], bool, Option<Artifact>) {
    let (n, m) = (2usize, 1usize);
    let result = explore_par(
        || lock.world(n, m),
        &CheckConfig {
            passages_per_proc: 1,
            crash_budget: budget,
            max_states: 200_000_000,
            ..Default::default()
        },
        par::worker_count(usize::MAX),
    );
    match result {
        Ok(r) => (
            [
                lock.name().to_string(),
                format!("model check n={n} m={m} crashes<={budget}"),
                if r.complete {
                    "MX SAFE (complete)"
                } else {
                    "MX SAFE (capped)"
                }
                .to_string(),
                format!("{} states", r.states_explored),
                format!("{} crash transitions", r.crash_transitions),
            ],
            true,
            None,
        ),
        Err(e) => {
            // Shrink the counterexample into a replayable trace.
            let out = shrink(
                || lock.world(n, m),
                e.schedule(),
                |sim| sim.check_mutual_exclusion().is_err(),
            );
            let artifact = TraceArtifact {
                world: format!("{} n={n} m={m} writeback", lock.name()),
                violation: e.describe(),
                fingerprint: out.fingerprint,
                schedule: out.schedule,
            };
            let (detail, trace) = trace_cell(&artifact);
            (
                [
                    lock.name().to_string(),
                    format!("model check n={n} m={m} crashes<={budget}"),
                    "MX VIOLATION".to_string(),
                    format!("minimal schedule: {} entries", artifact.schedule.len()),
                    detail,
                ],
                false,
                Some(trace),
            )
        }
    }
}

/// Randomized run with seeded crash injection for one lock; returns the
/// table row and whether MX survived.
fn stress_row(lock: Lock, seed: u64) -> ([String; 5], bool) {
    let (n, m) = (6usize, 2usize);
    let mut sim = lock.world(n, m);
    let plan = FaultPlan::random(seed, n + m, 2, 40);
    let mut rng = Prng::new(seed);
    let rc = RunConfig {
        passages_per_proc: 3,
        max_steps: 300_000,
        stall_after: 30_000,
    };
    let outcome = run_random_with_faults(&mut sim, &mut rng, &rc, &plan);

    let stats: Vec<_> = sim.proc_ids().map(|p| sim.stats(p)).collect();
    let passages: u64 = stats.iter().map(|s| s.passages).sum();
    let crashes: u64 = stats.iter().map(|s| s.crashes).sum();
    let recovery_rmrs: u64 = stats.iter().map(|s| s.recovery_rmrs).sum();
    let total_rmrs: u64 = stats.iter().map(|s| s.rmrs()).sum();

    let mx_held = !matches!(outcome, Err(RunError::MutualExclusion(_)));
    let verdict = match &outcome {
        Ok(_) => "completed".to_string(),
        Err(RunError::MutualExclusion(v)) => format!("MX VIOLATION: {v}"),
        Err(RunError::Stalled { spinners, .. }) => {
            // The watchdog's diagnosis: abandoned state wedges the lock.
            let who: Vec<String> = spinners
                .iter()
                .take(3)
                .map(|(p, v)| format!("{p} on v{}", v.0))
                .collect();
            let more = spinners.len().saturating_sub(3);
            if more > 0 {
                format!("stalled ({}, +{more} more)", who.join(", "))
            } else {
                format!("stalled ({})", who.join(", "))
            }
        }
        Err(RunError::StepBudgetExhausted { .. }) => "step budget exhausted".to_string(),
    };
    (
        [
            lock.name().to_string(),
            format!("random n={n} m={m} seed={seed:#x} 2 crashes"),
            verdict,
            format!("{passages} passages, {crashes} crashes"),
            format!("{recovery_rmrs} recovery RMRs of {total_rmrs}"),
        ],
        mx_held,
    )
}

/// Registry entry for the crash-robustness suite.
pub(crate) struct E15;

impl Experiment for E15 {
    fn id(&self) -> &'static str {
        "e15_crash_robustness"
    }

    fn title(&self) -> &'static str {
        "crash robustness under the RME individual-crash model"
    }

    fn claim(&self) -> &'static str {
        "RME crash model: MX survives every small crash adversary (A_f needs its epoch-burning recovery), and A_f's recovery paths un-wedge what crashes abandon"
    }

    fn run(&self, ctx: &Ctx) -> Report {
        let mut table = Table::new(["lock", "run", "verdict", "progress", "detail"]);

        // Part 1: exhaustive crash-augmented model checks. Each row runs
        // the parallel explorer with the full worker pool, so rows go in
        // order. Smoke keeps the budget-1 spaces only (the budget-2
        // spaces are the multi-minute bulk of the full run).
        let budgets: &[u32] = if ctx.smoke() { &[1] } else { &[1, 2] };
        let (mut safe, mut checks_total) = (0usize, 0usize);
        let mut traces = Vec::new();
        for &lock in &Lock::ALL {
            for &budget in budgets {
                let (row, ok, trace) = check_row(lock, budget);
                table.row(row);
                safe += usize::from(ok);
                checks_total += 1;
                traces.extend(trace);
            }
        }

        // Part 2: seeded random schedules with seeded random crash plans.
        let stress_seeds: u64 = if ctx.smoke() { 2 } else { 4 };
        let stresses: Vec<(Lock, u64)> = Lock::ALL
            .iter()
            .flat_map(|&l| (0..stress_seeds).map(move |i| (l, SEED + i)))
            .collect();
        let mut mx_survived = 0usize;
        for (row, ok) in par::par_map(&stresses, |&(lock, seed)| stress_row(lock, seed)) {
            table.row(row);
            mx_survived += usize::from(ok);
        }

        let mut report = Report::new(self, ctx);
        report
            .section("crash adversaries and seeded crash plans", table)
            .check(Check::all(
                "exhaustive: MX holds under every crash adversary within budget",
                safe,
                checks_total,
            ))
            .check(Check::all(
                "random stress: no MX violation under seeded crash plans",
                mx_survived,
                stresses.len(),
            ))
            .notes(
                "Reading the table: all three locks keep Mutual Exclusion under\n\
                 every one- and two-crash adversary that strikes outside the CS\n\
                 (A_f needs its epoch-burning writer recovery for this — the\n\
                 crash-augmented checker finds a real violation without it). A_f\n\
                 is additionally *recoverable* in the liveness sense: its reader\n\
                 recovery drains the stale counter contributions a crash\n\
                 abandons, so its random-stress rows complete where the\n\
                 baselines wedge — their stalled rows show the watchdog naming\n\
                 the processes left spinning on abandoned lock claims. Recovery\n\
                 RMRs are the re-warming cost of the crashed processes'\n\
                 passages. The system-wide crash model is E17's subject. On a\n\
                 violation, the report carries a shrunk replayable trace:\n\
                 --bless writes it to results/ and --check compares it with the\n\
                 committed file (replay: see examples/verify_your_lock.rs).",
            );
        report.artifacts = traces;
        report
    }
}
