//! perf_modelcheck — states/sec of the exhaustive explorer across its
//! operating points: the pre-PR-3 `Symmetry::FullRehash` SipHash
//! baseline, the O(1) incremental Zobrist keys (sequential), the
//! parallel explorer, and the `Symmetry::Quotient` symmetry-reduced
//! visited set on the CAS-loop `A_f` world (the lock family that
//! declares reader symmetry classes). Concrete-key runs must report
//! byte-identical state counts (two independent hash families agreeing
//! is the aliasing oracle); the quotient run must land inside the
//! orbit-counting bounds and hold the ≥ 1.8× reduction floor.
//!
//! Full mode times everything, closes with the headline instances —
//! the historical two-crash f-array space (past the checker's default
//! 5M-state cap), the CAS-loop n=3 two-crash quotient space (pinned at
//! exactly 1,588,408 orbits), and the **newly feasible** CAS-loop n=4
//! two-crash space (19.6M quotient orbits, past the
//! 50M-concrete-state horizon without symmetry) exhausted under a
//! wall-clock *and* resident-byte ceiling — asserts the perf floors, and
//! writes `BENCH_modelcheck.json` (override: `BENCH_MODELCHECK_OUT`);
//! its wall-clock content makes the report non-byte-stable, so
//! [`Experiment::deterministic`] is false there. Smoke mode runs the
//! crash-free spaces once per operating point and reports only
//! deterministic columns (state counts and visited entries); its
//! parallel row is labelled `parallel` without the worker count, so the
//! golden does not depend on the host's CPU count.
//!
//! The n=4 newly-feasible lane always runs under `Symmetry::Quotient`:
//! without the quotient its space blows the 50M-state cap.

use super::prelude::*;
use crate::par;
use modelcheck::{explore, explore_par, CheckConfig, CheckReport, Symmetry};
use rwcore::{af_world, af_world_custom, CounterKind, HelpOrder};
use std::time::Instant;

const SAMPLES: usize = 5;

/// The symmetry-reduction floor the quotient must hold on the
/// one-class two-reader worlds (2! = 2 is the ceiling).
const REDUCTION_FLOOR: f64 = 1.8;

/// Exact quotient orbit count of the CAS-loop n=3 two-crash space.
const N3_TWO_CRASH_ORBITS: u64 = 1_588_408;

/// State floor for the n=4 newly-feasible lane (measured 19,603,283
/// orbits).
const NEWLY_FEASIBLE_STATE_FLOOR: u64 = 10_000_000;

/// Wall-clock ceiling for the n=4 lane (measured 48.9 s with one
/// worker and 30–31 s with two on a 2-CPU host; the ceiling leaves
/// headroom for slower hosts, not for regressions of kind).
const NEWLY_FEASIBLE_WALL_CEILING_SECS: f64 = 600.0;

/// Resident-byte ceiling for the n=4 lane's visited store (measured
/// 268,435,456 B = 13.7 B/orbit: 64 flat tables of 2^19 8-byte slots).
const NEWLY_FEASIBLE_RESIDENT_CEILING: u64 = 384 * 1024 * 1024;

fn af_factory(crash_budget: u32) -> (impl Fn() -> ccsim::Sim + Sync, CheckConfig) {
    let cfg = AfConfig {
        readers: 2,
        writers: 1,
        policy: FPolicy::One,
    };
    let check = CheckConfig {
        passages_per_proc: 1,
        crash_budget,
        max_states: 50_000_000,
        ..Default::default()
    };
    (move || af_world(cfg, Protocol::WriteBack).sim, check)
}

/// The CAS-loop `A_f` world: single-CAS-word group counters, so the
/// world declares one reader symmetry class per group (see
/// `rwcore::reader_symmetry_classes`) and the quotient backend has
/// orbits to merge.
fn casloop_factory(
    readers: usize,
    crash_budget: u32,
) -> (impl Fn() -> ccsim::Sim + Sync, CheckConfig) {
    let cfg = AfConfig {
        readers,
        writers: 1,
        policy: FPolicy::One,
    };
    let check = CheckConfig {
        passages_per_proc: 1,
        crash_budget,
        max_states: 50_000_000,
        ..Default::default()
    };
    (
        move || {
            af_world_custom(
                cfg,
                Protocol::WriteBack,
                HelpOrder::WaitersFirst,
                CounterKind::CasLoop,
            )
            .sim
        },
        check,
    )
}

/// One timed run of an exploration mode.
fn timed(mut run: impl FnMut() -> CheckReport) -> (f64, CheckReport) {
    let start = Instant::now();
    let report = run();
    (start.elapsed().as_secs_f64(), report)
}

/// Registry entry for the model-checker throughput benchmark.
pub(crate) struct PerfModelcheck;

impl Experiment for PerfModelcheck {
    fn id(&self) -> &'static str {
        "perf_modelcheck"
    }

    fn title(&self) -> &'static str {
        "explorer states/sec: full-rehash vs incremental vs parallel vs quotient"
    }

    fn claim(&self) -> &'static str {
        "explorer perf floors (incremental >= 2x full-rehash, parallel >= 3x with >= 4 workers, identical counts) and the symmetry quotient (>= 1.8x reduction; the n=3 two-crash space exhausted at exactly 1,588,408 orbits; the n=4 two-crash space, 19.6M orbits, exhausted under wall-clock and resident-byte ceilings)"
    }

    fn deterministic(&self, mode: Mode) -> bool {
        // Full mode renders wall-clock states/sec; smoke renders only
        // the deterministic state counts.
        mode == Mode::Smoke
    }

    fn run(&self, ctx: &Ctx) -> Report {
        let workers = par::worker_count(usize::MAX);
        // Smoke explores the crash-free spaces (a fraction of the
        // crash_budget=1 spaces) once per mode, counts only.
        let crash_budget = if ctx.smoke() { 0 } else { 1 };
        let samples = if ctx.smoke() { 1 } else { SAMPLES };
        let (factory, check) = af_factory(crash_budget);
        let full_cfg = CheckConfig {
            symmetry: Symmetry::FullRehash,
            ..check.clone()
        };
        let (sym_factory, sym_check) = casloop_factory(2, crash_budget);
        let quo_cfg = CheckConfig {
            symmetry: Symmetry::Quotient,
            ..sym_check.clone()
        };

        // Best-of-samples per mode, with the modes *interleaved*
        // round-robin: a noisy-neighbor phase on a shared host then
        // penalises every mode equally instead of skewing whichever one
        // it happened to overlap.
        let (mut full_secs, mut inc_secs, mut par_secs) =
            (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let (mut full_report, mut inc_report, mut par_report) = (None, None, None);
        let (mut off_secs, mut quo_secs) = (f64::INFINITY, f64::INFINITY);
        let (mut off_report, mut quo_report) = (None, None);
        for _ in 0..samples {
            let (s, r) = timed(|| explore(&factory, &full_cfg).expect("A_f crash space is safe"));
            full_secs = full_secs.min(s);
            full_report = Some(r);
            let (s, r) = timed(|| explore(&factory, &check).expect("A_f crash space is safe"));
            inc_secs = inc_secs.min(s);
            inc_report = Some(r);
            let (s, r) =
                timed(|| explore_par(&factory, &check, workers).expect("A_f crash space is safe"));
            par_secs = par_secs.min(s);
            par_report = Some(r);
            let (s, r) =
                timed(|| explore(&sym_factory, &sym_check).expect("CAS-loop crash space is safe"));
            off_secs = off_secs.min(s);
            off_report = Some(r);
            let (s, r) =
                timed(|| explore(&sym_factory, &quo_cfg).expect("CAS-loop crash space is safe"));
            quo_secs = quo_secs.min(s);
            quo_report = Some(r);
        }
        let (full_report, inc_report, par_report) = (
            full_report.expect("samples >= 1"),
            inc_report.expect("samples >= 1"),
            par_report.expect("samples >= 1"),
        );
        let (off_report, quo_report) = (
            off_report.expect("samples >= 1"),
            quo_report.expect("samples >= 1"),
        );

        let all_complete = full_report.complete
            && inc_report.complete
            && par_report.complete
            && off_report.complete
            && quo_report.complete;
        let counts_agree = full_report.counts() == inc_report.counts()
            && inc_report.counts() == par_report.counts();

        let states = inc_report.states_explored as f64;
        let full_sps = states / full_secs;
        let inc_sps = states / inc_secs;
        let par_sps = states / par_secs;
        let inc_speedup = inc_sps / full_sps;
        let par_speedup = par_sps / full_sps;

        let off_states = off_report.states_explored;
        let quo_states = quo_report.states_explored;
        let reduction = off_states as f64 / quo_states as f64;
        // One class of two readers: orbits hold 1 or 2 concrete states,
        // so any reduction outside (1, 2] is a quotient-key bug.
        let bounds_hold = quo_states <= off_states && off_states <= quo_states * 2;
        let off_sps = off_states as f64 / off_secs;
        let quo_sps = quo_states as f64 / quo_secs;

        let workload = format!("A_f n=2 m=1 passages=1 crash_budget={crash_budget} writeback");
        let sym_workload =
            format!("A_f(CasLoop) n=2 m=1 passages=1 crash_budget={crash_budget} writeback");
        let mut report = Report::new(self, ctx);
        let mut table = if ctx.smoke() {
            Table::new(["mode", "states", "visited", "complete"])
        } else {
            Table::new([
                "mode",
                "states",
                "states/s",
                "speedup",
                "visited",
                "resident_bytes",
            ])
        };
        // The worker count depends on the host, so only full mode,
        // whose report is not byte-gated, names it.
        let par_label = if ctx.smoke() {
            "parallel".to_string()
        } else {
            format!("parallel({workers})")
        };
        let rows: [(&str, &CheckReport, f64, f64); 3] = [
            ("full-rehash", &full_report, full_sps, 1.0),
            ("incremental", &inc_report, inc_sps, inc_speedup),
            (&par_label, &par_report, par_sps, par_speedup),
        ];
        for (label, r, sps, speedup) in rows {
            if ctx.smoke() {
                table.row([
                    label.to_string(),
                    r.states_explored.to_string(),
                    r.visited.entries.to_string(),
                    r.complete.to_string(),
                ]);
            } else {
                table.row([
                    label.to_string(),
                    r.states_explored.to_string(),
                    format!("{sps:.0}"),
                    format!("{speedup:.2}x"),
                    r.visited.entries.to_string(),
                    r.visited.resident_bytes.to_string(),
                ]);
            }
        }
        report.section(workload.clone(), table);

        // The symmetry A/B on the class-declaring world: same backend
        // storage, concrete vs canonical keys.
        let mut sym_table = if ctx.smoke() {
            Table::new(["backend", "states", "visited", "complete"])
        } else {
            Table::new(["backend", "states", "states/s", "visited", "resident_bytes"])
        };
        let sym_rows: [(&str, &CheckReport, f64); 2] = [
            ("off (concrete)", &off_report, off_sps),
            ("quotient", &quo_report, quo_sps),
        ];
        for (label, r, sps) in sym_rows {
            if ctx.smoke() {
                sym_table.row([
                    label.to_string(),
                    r.states_explored.to_string(),
                    r.visited.entries.to_string(),
                    r.complete.to_string(),
                ]);
            } else {
                sym_table.row([
                    label.to_string(),
                    r.states_explored.to_string(),
                    format!("{sps:.0}"),
                    r.visited.entries.to_string(),
                    r.visited.resident_bytes.to_string(),
                ]);
            }
        }
        report.section(sym_workload.clone(), sym_table);

        report
            .check(Check::new(
                "all exploration modes exhaust their spaces",
                "complete = true in every mode",
                if all_complete {
                    "complete"
                } else {
                    "INCOMPLETE"
                },
                all_complete,
            ))
            .check(Check::new(
                "incremental Zobrist keys and the SipHash walk partition the space identically",
                "state counts equal across concrete-key modes",
                if counts_agree { "equal" } else { "DIVERGED" },
                counts_agree,
            ))
            .check(Check::new(
                "quotient orbit counts sit inside the 2-reader orbit bounds",
                "quotient <= concrete <= 2 x quotient",
                format!("{quo_states} orbits vs {off_states} states"),
                bounds_hold,
            ))
            .check(Check::new(
                "symmetry quotient holds the reduction floor on the CAS-loop world",
                format!(">= {REDUCTION_FLOOR:.2}x fewer stored states"),
                format!("{reduction:.2}x"),
                reduction >= REDUCTION_FLOOR,
            ));

        if !ctx.smoke() {
            report.check(Check::new(
                "incremental fingerprints hold the 2x floor over full-rehash",
                ">= 2.00x",
                format!("{inc_speedup:.2}x"),
                inc_speedup >= 2.0,
            ));
            // The parallel floor only binds where there is parallelism
            // to win.
            if workers >= 4 {
                report.check(Check::new(
                    "parallel explorer holds the 3x floor over full-rehash",
                    ">= 3.00x (with >= 4 workers)",
                    format!("{par_speedup:.2}x at {workers} workers"),
                    par_speedup >= 3.0,
                ));
            }

            // The historical previously-infeasible instance, once, with
            // the full pool.
            let (big_factory, big_check) = af_factory(2);
            let start = Instant::now();
            let big = explore_par(&big_factory, &big_check, workers)
                .expect("A_f two-crash space is safe");
            let big_secs = start.elapsed().as_secs_f64();
            let big_sps = big.states_explored as f64 / big_secs;

            // Three readers, two crashes, CAS-loop counters: 8.87M
            // concrete states, exhausted as a pinned orbit count.
            let (n3_factory, n3_check) = casloop_factory(3, 2);
            let n3_cfg = CheckConfig {
                symmetry: Symmetry::Quotient,
                ..n3_check
            };
            let start = Instant::now();
            let n3 = explore_par(&n3_factory, &n3_cfg, workers)
                .expect("CAS-loop n=3 two-crash space is safe");
            let n3_secs = start.elapsed().as_secs_f64();
            let n3_sps = n3.states_explored as f64 / n3_secs;
            let n3_workload = "A_f(CasLoop) n=3 m=1 passages=1 crash_budget=2 writeback";

            // The *newly* feasible instance: four readers, two crashes,
            // CAS-loop counters — 19.6M quotient orbits, far past the
            // 50M-concrete-state horizon without symmetry — exhausted
            // under wall-clock and resident-byte ceilings.
            let (new_factory, new_check) = casloop_factory(4, 2);
            let new_cfg = CheckConfig {
                symmetry: Symmetry::Quotient,
                ..new_check
            };
            let start = Instant::now();
            let new = explore_par(&new_factory, &new_cfg, workers)
                .expect("CAS-loop n=4 two-crash space is safe");
            let new_secs = start.elapsed().as_secs_f64();
            let new_sps = new.states_explored as f64 / new_secs;
            let new_workload =
                "A_f(CasLoop) n=4 m=1 passages=1 crash_budget=2 writeback".to_string();

            let mut big_table = Table::new([
                "workload",
                "symmetry",
                "states",
                "seconds",
                "states/s",
                "resident_bytes",
            ]);
            big_table.row([
                "A_f n=2 m=1 passages=1 crash_budget=2 writeback".to_string(),
                "off (concrete)".to_string(),
                big.states_explored.to_string(),
                format!("{big_secs:.1}"),
                format!("{big_sps:.0}"),
                big.visited.resident_bytes.to_string(),
            ]);
            big_table.row([
                n3_workload.to_string(),
                Symmetry::Quotient.to_string(),
                n3.states_explored.to_string(),
                format!("{n3_secs:.1}"),
                format!("{n3_sps:.0}"),
                n3.visited.resident_bytes.to_string(),
            ]);
            big_table.row([
                new_workload.clone(),
                Symmetry::Quotient.to_string(),
                new.states_explored.to_string(),
                format!("{new_secs:.1}"),
                format!("{new_sps:.0}"),
                new.visited.resident_bytes.to_string(),
            ]);
            report.section("previously / newly infeasible instances", big_table);
            // Historically 8.75M states (past the default 5M cap); the
            // recoverable A_f recovery paths prune the wedged branches,
            // so the same instance now closes at ~3.7M states. The floor
            // pins it staying a multi-million-state exhaustive close.
            report.check(Check::new(
                "the two-crash space is exhausted at multi-million-state scale",
                "complete, > 2,000,000 states",
                format!(
                    "{}, {} states",
                    if big.complete {
                        "complete"
                    } else {
                        "INCOMPLETE"
                    },
                    big.states_explored
                ),
                big.complete && big.states_explored > 2_000_000,
            ));
            report.check(Check::new(
                "the n=3 two-crash CAS-loop space is exhausted at its pinned orbit count",
                format!("complete, exactly {N3_TWO_CRASH_ORBITS} orbits"),
                format!(
                    "{}, {} orbits",
                    if n3.complete {
                        "complete"
                    } else {
                        "INCOMPLETE"
                    },
                    n3.states_explored
                ),
                n3.complete && n3.states_explored == N3_TWO_CRASH_ORBITS,
            ));
            report.check(Check::new(
                "the n=4 two-crash CAS-loop space is exhausted (newly feasible)",
                format!("complete, > {NEWLY_FEASIBLE_STATE_FLOOR} states"),
                format!(
                    "{}, {} states under quotient",
                    if new.complete {
                        "complete"
                    } else {
                        "INCOMPLETE"
                    },
                    new.states_explored
                ),
                new.complete && new.states_explored > NEWLY_FEASIBLE_STATE_FLOOR,
            ));
            report.check(Check::new(
                "the n=4 exhaustion stays under the wall-clock ceiling",
                format!("<= {NEWLY_FEASIBLE_WALL_CEILING_SECS:.0}s"),
                format!("{new_secs:.1}s"),
                new_secs <= NEWLY_FEASIBLE_WALL_CEILING_SECS,
            ));
            report.check(Check::new(
                "the n=4 visited store stays under the resident-byte ceiling",
                format!("<= {NEWLY_FEASIBLE_RESIDENT_CEILING} B"),
                format!("{} B", new.visited.resident_bytes),
                new.visited.resident_bytes <= NEWLY_FEASIBLE_RESIDENT_CEILING,
            ));

            // Preserve the historical side artifact for trend tracking.
            let unix_secs = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            let ncpu = std::thread::available_parallelism().map_or(1, |p| p.get());
            let json = format!(
                "{{\n  \"experiment\": \"perf_modelcheck\",\n  \"unix_timestamp\": {unix_secs},\n  \
                 \"ncpu\": {ncpu},\n  \"workers\": {workers},\n  \"samples\": {samples},\n  \"workload\": \
                 \"{workload}\",\n  \"states\": {},\n  \
                 \"full_rehash_states_per_sec\": {full_sps:.0},\n  \
                 \"incremental_states_per_sec\": {inc_sps:.0},\n  \
                 \"parallel_states_per_sec\": {par_sps:.0},\n  \
                 \"incremental_speedup\": {inc_speedup:.2},\n  \
                 \"parallel_speedup\": {par_speedup:.2},\n  \
                 \"symmetry_workload\": \"{sym_workload}\",\n  \
                 \"concrete_states\": {off_states},\n  \
                 \"quotient_states\": {quo_states},\n  \
                 \"symmetry_reduction\": {reduction:.2},\n  \
                 \"concrete_states_per_sec\": {off_sps:.0},\n  \
                 \"quotient_states_per_sec\": {quo_sps:.0},\n  \
                 \"concrete_resident_bytes\": {},\n  \
                 \"quotient_resident_bytes\": {},\n  \"infeasible_instance\": {{\n    \
                 \"workload\": \"A_f n=2 m=1 passages=1 crash_budget=2 writeback\",\n    \
                 \"states\": {},\n    \"seconds\": {big_secs:.1},\n    \
                 \"states_per_sec\": {big_sps:.0},\n    \"complete\": {}\n  }},\n  \
                 \"quotient_instance\": {{\n    \
                 \"workload\": \"{n3_workload}\",\n    \
                 \"symmetry\": \"quotient\",\n    \
                 \"states\": {},\n    \"resident_bytes\": {},\n    \
                 \"seconds\": {n3_secs:.1},\n    \
                 \"states_per_sec\": {n3_sps:.0},\n    \"complete\": {}\n  }},\n  \
                 \"newly_feasible_instance\": {{\n    \
                 \"workload\": \"{new_workload}\",\n    \
                 \"symmetry\": \"quotient\",\n    \
                 \"states\": {},\n    \"visited_entries\": {},\n    \
                 \"resident_bytes\": {},\n    \
                 \"resident_ceiling_bytes\": {NEWLY_FEASIBLE_RESIDENT_CEILING},\n    \
                 \"seconds\": {new_secs:.1},\n    \
                 \"wall_ceiling_seconds\": {NEWLY_FEASIBLE_WALL_CEILING_SECS:.0},\n    \
                 \"states_per_sec\": {new_sps:.0},\n    \"complete\": {}\n  }}\n}}\n",
                inc_report.states_explored,
                off_report.visited.resident_bytes,
                quo_report.visited.resident_bytes,
                big.states_explored,
                big.complete,
                n3.states_explored,
                n3.visited.resident_bytes,
                n3.complete,
                new.states_explored,
                new.visited.entries,
                new.visited.resident_bytes,
                new.complete
            );
            let path = ccsim::env::read_nonempty("BENCH_MODELCHECK_OUT", "BENCH_modelcheck.json");
            match std::fs::write(&path, &json) {
                Ok(()) => report.notes(format!("Side artifact: {path}")),
                Err(e) => report.notes(format!("Side artifact write failed ({path}): {e}")),
            };
        }
        report
    }
}
