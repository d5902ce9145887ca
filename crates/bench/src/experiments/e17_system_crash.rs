//! E17 — system-wide crashes: `A_f` under the RME system-crash model,
//! where one event (`Sim::crash_all`) wipes every process's local state
//! and cache at once. Three parts: (1) exhaustive crash-all-augmented
//! model checks, with the bounded-abort and post-crash-acquirability
//! invariants probed at every reachable configuration; (2) the same
//! adversary against a deliberately broken recovery (the writer re-enters
//! with the crashed passage's `WSEQ`), which must produce a replayable
//! counterexample; (3) deterministic recovery-window RMR accounting —
//! the cost of re-warming the whole process set after a crash-all —
//! compared against the cited recoverable-mutex bounds (Chan–Woelfel's
//! Ω(log n / log log n) per-passage lower bound, arXiv:2106.03185, and
//! the Jayanti–Jayanti–Joshi O(log n) worst-case upper bound lineage,
//! arXiv:2302.00748).

use super::prelude::*;
use super::support::trace_cell;
use crate::exp::Artifact;
use crate::par;
use ccsim::{run_round_robin, RunConfig};
use modelcheck::{
    bounded_abort_invariant, explore_par, explore_par_with, post_crash_acquirability_invariant,
    shrink, CheckConfig, TraceArtifact,
};
use rwcore::{af_world, af_world_seq_reuse_bug};

/// Crash-all-augmented exhaustive check rows, with and without the
/// per-state invariant probes.
fn check_rows(ctx: &Ctx) -> (Vec<[String; 5]>, usize, usize) {
    let mut rows = Vec::new();
    let mut safe = 0usize;
    let mut total = 0usize;

    // Row 1: the full fault-tolerance contract at n=1, m=1 — MX plus
    // bounded abort plus post-crash acquirability at every reachable
    // configuration under one crash-all and one abort.
    let bounded_abort = bounded_abort_invariant(400);
    let acquirable = post_crash_acquirability_invariant(4_000);
    let small = explore_par_with(
        || af_world(AfConfig::new(1, 1), Protocol::WriteBack).sim,
        &CheckConfig {
            passages_per_proc: 1,
            crash_all_budget: 1,
            abort_budget: 1,
            ..Default::default()
        },
        par::worker_count(usize::MAX),
        move |sim| {
            bounded_abort(sim)?;
            acquirable(sim)
        },
    );
    total += 1;
    match small {
        Ok(r) => {
            safe += 1;
            rows.push([
                "model check + invariants".into(),
                "n=1 m=1, crash_all<=1, aborts<=1".into(),
                if r.complete {
                    "SAFE (complete)"
                } else {
                    "SAFE (capped)"
                }
                .into(),
                format!("{} states", r.states_explored),
                format!("{} crash transitions", r.crash_transitions),
            ]);
        }
        Err(e) => rows.push([
            "model check + invariants".into(),
            "n=1 m=1, crash_all<=1, aborts<=1".into(),
            "VIOLATION".into(),
            e.describe(),
            format!("{} entries", e.schedule().len()),
        ]),
    }

    // Row 2 (full mode only — the space is the bulk of the runtime):
    // MX across the n=2, m=1 crash-all + abort space.
    if !ctx.smoke() {
        let wide = explore_par(
            || af_world(AfConfig::new(2, 1), Protocol::WriteBack).sim,
            &CheckConfig {
                passages_per_proc: 1,
                crash_all_budget: 1,
                abort_budget: 1,
                max_states: 200_000_000,
                ..Default::default()
            },
            par::worker_count(usize::MAX),
        );
        total += 1;
        match wide {
            Ok(r) => {
                safe += 1;
                rows.push([
                    "model check (MX)".into(),
                    "n=2 m=1, crash_all<=1, aborts<=1".into(),
                    if r.complete {
                        "SAFE (complete)"
                    } else {
                        "SAFE (capped)"
                    }
                    .into(),
                    format!("{} states", r.states_explored),
                    format!("{} crash transitions", r.crash_transitions),
                ]);
            }
            Err(e) => rows.push([
                "model check (MX)".into(),
                "n=2 m=1, crash_all<=1, aborts<=1".into(),
                "VIOLATION".into(),
                e.describe(),
                format!("{} entries", e.schedule().len()),
            ]),
        }
    }

    (rows, safe, total)
}

/// The negative control: the same adversary must catch the recovery with
/// the epoch burn removed. Returns the row, whether it was caught, and
/// the shrunk counterexample trace.
fn catch_row() -> ([String; 5], bool, Option<Artifact>) {
    let factory = || af_world_seq_reuse_bug(AfConfig::new(1, 1), Protocol::WriteBack).sim;
    let result = explore_par(
        factory,
        &CheckConfig {
            passages_per_proc: 2,
            crash_all_budget: 1,
            ..Default::default()
        },
        par::worker_count(usize::MAX),
    );
    match result {
        Err(e) => {
            let out = shrink(factory, e.schedule(), |sim| {
                sim.check_mutual_exclusion().is_err()
            });
            let artifact = TraceArtifact {
                world: "af-seq-reuse-bug n=1 m=1 writeback".into(),
                violation: e.describe(),
                fingerprint: out.fingerprint,
                schedule: out.schedule,
            };
            let (detail, trace) = trace_cell(&artifact);
            (
                [
                    "negative control".into(),
                    "seq-reuse bug, n=1 m=1, 2 passages, crash_all<=1".into(),
                    "VIOLATION CAUGHT".into(),
                    format!("minimal schedule: {} entries", artifact.schedule.len()),
                    detail,
                ],
                true,
                Some(trace),
            )
        }
        Ok(r) => (
            [
                "negative control".into(),
                "seq-reuse bug, n=1 m=1, 2 passages, crash_all<=1".into(),
                "MISSED (explored safe)".into(),
                format!("{} states", r.states_explored),
                String::new(),
            ],
            false,
            None,
        ),
    }
}

/// Deterministic recovery-window measurement at size `n`: warm every
/// process through one passage round-robin, crash the whole system, then
/// drive one more passage each and account the recovery-window RMRs.
fn recovery_row(n: usize) -> ([String; 5], f64, bool) {
    let cfg = AfConfig {
        readers: n,
        writers: 1,
        policy: FPolicy::One,
    };
    let mut world = af_world(cfg, Protocol::WriteBack);
    let rc = RunConfig {
        passages_per_proc: 1,
        max_steps: 10_000_000,
        stall_after: 1_000_000,
    };
    run_round_robin(&mut world.sim, &rc).expect("failure-free warmup must complete");
    world.sim.crash_all();
    let recovered = run_round_robin(&mut world.sim, &rc).is_ok();

    let stats: Vec<_> = world.sim.proc_ids().map(|p| world.sim.stats(p)).collect();
    let total_recovery: u64 = stats.iter().map(|s| s.recovery_rmrs).sum();
    let max_recovery = stats.iter().map(|s| s.recovery_rmrs).max().unwrap_or(0);
    let per_proc = total_recovery as f64 / stats.len() as f64;
    (
        [
            "recovery window".into(),
            format!("n={n} m=1 f=1, crash-all between passages"),
            if recovered {
                "recovered (all passages complete)"
            } else {
                "WEDGED"
            }
            .into(),
            format!("{total_recovery} recovery RMRs, max {max_recovery}/proc"),
            format!("{per_proc:.2} avg RMRs/proc"),
        ],
        max_recovery as f64,
        recovered,
    )
}

/// Registry entry for the system-crash suite.
pub(crate) struct E17;

impl Experiment for E17 {
    fn id(&self) -> &'static str {
        "e17_system_crash"
    }

    fn title(&self) -> &'static str {
        "system-wide crashes: exhaustive safety + recovery-window RMRs"
    }

    fn claim(&self) -> &'static str {
        "crash-all adversaries never break MX or strand the lock (burned epochs are essential), and per-process recovery costs O(log n) RMRs — between the cited RME lower and upper bounds"
    }

    fn run(&self, ctx: &Ctx) -> Report {
        let mut table = Table::new(["part", "config", "verdict", "progress", "detail"]);

        let (rows, safe, checks_total) = check_rows(ctx);
        for row in rows {
            table.row(row);
        }
        let (row, caught, trace) = catch_row();
        table.row(row);

        let sizes: &[usize] = if ctx.smoke() {
            &[2, 4]
        } else {
            &[2, 4, 8, 16, 32]
        };
        let recovery = par_map(sizes, |&n| recovery_row(n));
        let mut recovered_all = 0usize;
        let mut max_ratio = 0f64;
        for (&n, (row, max_recovery, recovered)) in sizes.iter().zip(recovery.iter()) {
            table.row(row.clone());
            recovered_all += usize::from(*recovered);
            max_ratio = max_ratio.max(max_recovery / (log2(n as f64) + 1.0));
        }

        let mut report = Report::new(self, ctx);
        report
            .section("crash-all adversaries and recovery windows", table)
            .check(Check::all(
                "exhaustive: MX + bounded abort + post-crash acquirability hold",
                safe,
                checks_total,
            ))
            .check(Check::all(
                "negative control: the epoch-reuse recovery bug is caught",
                usize::from(caught),
                1,
            ))
            .check(Check::all(
                "every crash-all recovery completes its next passage round",
                recovered_all,
                sizes.len(),
            ))
            .check(Check::le_f64(
                "max per-process recovery RMRs within c·(log2(n)+1)",
                max_ratio,
                24.0,
            ))
            .notes(
                "Reading the table: a crash-all wipes every pc and cache line in\n\
                 one event; the recovery window runs from the crash to each\n\
                 process's next completed passage, and its RMRs are accounted\n\
                 separately (ProcStats::recovery_rmrs — the cost of re-warming a\n\
                 cold cache plus re-running the passage). The invariant-augmented\n\
                 model check proves the recoverable reader (stale-counter drain)\n\
                 and the writer's epoch burn leave no reachable configuration\n\
                 with a stranded lock; the negative control shows the same\n\
                 adversary catching the recovery with the burn removed — the\n\
                 report carries the shrunk trace, --bless writes it to results/,\n\
                 --check compares it with the committed file, and it replays through\n\
                 examples/verify_your_lock.rs --replay. The measured per-process\n\
                 recovery cost grows like log2(n) (the f-array re-walk at f=1),\n\
                 sitting between Chan–Woelfel's Ω(log n/log log n) per-passage\n\
                 RME lower bound (arXiv:2106.03185) and the O(log n) worst-case\n\
                 upper bounds of the Jayanti–Jayanti–Joshi lineage\n\
                 (arXiv:2302.00748).",
            );
        report.artifacts.extend(trace);
        report
    }
}
