//! The model-check workloads: exhaustive exploration of `A_f` worlds
//! under the RME individual-crash model. The untraced run explores with
//! the sequential explorer on one thread; the traced run also times one
//! `explore_par` with `T` workers.
//!
//! Correctness oracle: an exploration fails unless it completes, finds
//! no violation, and reports exactly the pinned state and transition
//! counts.
//!
//! `explore` cannot be entered from outside, so the traced run times one
//! sequential `explore`, then repeats the explorer's per-transition calls
//! (`clone_world_into`, `SchedEntry::apply`, the Mutual Exclusion probe
//! and the state keys) along a seeded random walk over the same world
//! and crash budget, timing 1 transition in 16.

use crate::cpu;
use crate::report::Report;
use crate::trace::{SpanBuf, Tracer};
use ccsim::{Phase, Prng, Protocol, Sim, Step};
use modelcheck::{
    explore, explore_par, CheckConfig, CheckError, CheckReport, SchedEntry, Symmetry,
};
use rwcore::{af_world, af_world_custom, AfConfig, CounterKind, FPolicy, HelpOrder};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One model-check problem and the counts a complete run must report.
#[derive(Clone, Debug)]
pub struct McSpec {
    pub label: &'static str,
    pub build: fn() -> Sim,
    pub cfg: CheckConfig,
    /// `(states, transitions)` of a complete exploration.
    pub expect: (u64, u64),
}

fn one_writer(readers: usize) -> AfConfig {
    AfConfig {
        readers,
        writers: 1,
        policy: FPolicy::One,
    }
}

fn casloop(readers: usize) -> Sim {
    af_world_custom(
        one_writer(readers),
        Protocol::WriteBack,
        HelpOrder::WaitersFirst,
        CounterKind::CasLoop,
    )
    .sim
}

fn check_cfg(crash_budget: u32, symmetry: Symmetry) -> CheckConfig {
    CheckConfig {
        passages_per_proc: 1,
        crash_budget,
        max_states: 50_000_000,
        symmetry,
        ..CheckConfig::default()
    }
}

/// `mc-quotient`: CAS-loop `A_f`, three readers folded by the symmetry
/// quotient, one crash.
pub fn quotient() -> McSpec {
    McSpec {
        label: "A_f(CasLoop) n=3 m=1 passages=1 crash_budget=1 quotient",
        build: || casloop(3),
        cfg: check_cfg(1, Symmetry::Quotient),
        expect: (250_590, 963_460),
    }
}

/// `mc-farray`: the paper's f-array `A_f`, concrete keys, one crash.
pub fn farray() -> McSpec {
    McSpec {
        label: "A_f(FArray) n=2 m=1 passages=1 crash_budget=1 off",
        build: || af_world(one_writer(2), Protocol::WriteBack).sim,
        cfg: check_cfg(1, Symmetry::Off),
        expect: (468_677, 1_328_602),
    }
}

/// The small world the lock workloads' traced runs explore for the
/// model-check layer metrics, and the unit tests' stand-in.
pub fn probe() -> McSpec {
    McSpec {
        label: "A_f(CasLoop) n=2 m=1 passages=1 crash_budget=1 quotient",
        build: || casloop(2),
        cfg: check_cfg(1, Symmetry::Quotient),
        expect: (21_174, 61_933),
    }
}

/// Check one exploration: complete, no violation, the pinned counts.
fn verdict(spec: &McSpec, result: &Result<CheckReport, CheckError>) -> Result<(), String> {
    match result {
        Err(e) => Err(format!("{}: violation: {e}", spec.label)),
        Ok(r) if !r.complete => Err(format!("{}: exploration incomplete", spec.label)),
        Ok(r) if (r.states_explored, r.transitions) != spec.expect => Err(format!(
            "{}: {} states / {} transitions, expected {} / {}",
            spec.label, r.states_explored, r.transitions, spec.expect.0, spec.expect.1
        )),
        Ok(_) => Ok(()),
    }
}

/// One checked exploration.
#[derive(Clone, Debug)]
pub struct Exploration {
    pub wall_s: f64,
    /// CPU time of the calling thread while exploring; it covers the
    /// whole exploration only when the sequential explorer ran it.
    pub cpu_ns: Option<u64>,
    /// `None` if the exploration failed its check.
    pub report: Option<CheckReport>,
}

/// Time one exploration and check it; a failed check counts one failed
/// operation.
fn timed(
    spec: &McSpec,
    report: &mut Report,
    run: impl FnOnce() -> Result<CheckReport, CheckError>,
) -> Exploration {
    let (start, cpu_start) = (Instant::now(), cpu::thread_ns());
    let result = run();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_ns = cpu::thread_ns()
        .zip(cpu_start)
        .map(|(end, start)| end.saturating_sub(start));
    let v = verdict(spec, &result);
    report.ops(1, u64::from(v.is_err()));
    if let Err(msg) = &v {
        report.check(msg.clone(), false);
    }
    Exploration {
        wall_s,
        cpu_ns,
        report: result.ok().filter(|_| v.is_ok()),
    }
}

/// Explore sequentially until `seconds` have passed and at least
/// `min_samples` explorations ran; `before_each` runs before every
/// exploration. One thread, because the CPU cost of parallel workers
/// depends on where the host places their CPUs.
pub fn run(
    spec: &McSpec,
    seconds: f64,
    min_samples: usize,
    report: &mut Report,
    mut before_each: impl FnMut(),
) -> Vec<Exploration> {
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < min_samples || start.elapsed().as_secs_f64() < seconds {
        before_each();
        runs.push(timed(spec, report, || explore(spec.build, &spec.cfg)));
    }
    report.check(
        format!(
            "{}: {} explorations complete at {} states / {} transitions",
            spec.label,
            runs.len(),
            spec.expect.0,
            spec.expect.1
        ),
        runs.iter().all(|r| r.report.is_some()),
    );
    runs
}

/// The per-transition calls the walk times, in span-name form.
const CALLS: [&str; 7] = [
    "ccsim.clone_world_into",
    "ccsim.step",
    "ccsim.crash",
    "ccsim.check_mutual_exclusion",
    "ccsim.fingerprint",
    "ccsim.fingerprint_canonical",
    "ccsim.canonical_vec",
];
const STEP_CALLS: [&str; 6] = [CALLS[0], CALLS[1], CALLS[3], CALLS[4], CALLS[5], CALLS[6]];
const CRASH_CALLS: [&str; 6] = [CALLS[0], CALLS[2], CALLS[3], CALLS[4], CALLS[5], CALLS[6]];

/// Time 1 transition of the walk in this many.
const TIME_EVERY: u64 = 16;

/// Spans the traced run keeps for the span file.
const SPANS_KEPT: usize = 8_192;

/// Per call of [`CALLS`]: summed raw ns and number of timed calls.
type CallTimes = [(u64, u64); 7];

/// The schedule entries the explorer offers in `sim` (it offers the
/// same, with no crash-all or abort budget).
fn entries(sim: &Sim, cfg: &CheckConfig, crashes: u32, out: &mut Vec<SchedEntry>) {
    out.clear();
    for p in sim.proc_ids() {
        let enabled = match sim.poll(p) {
            Step::Op(_) | Step::Cs => true,
            Step::Remainder => sim.stats(p).passages < cfg.passages_per_proc,
        };
        if enabled {
            out.push(SchedEntry::Step(p));
        }
    }
    if crashes > 0 {
        for p in sim.proc_ids() {
            let crashable = match sim.phase(p) {
                Phase::Remainder => false,
                Phase::Cs => cfg.crash_in_cs,
                _ => true,
            };
            if crashable {
                out.push(SchedEntry::Crash(p));
            }
        }
    }
}

/// One walk transition: the explorer's calls on a copy of `cur`, with
/// `mark` after each. Returns false on a Mutual Exclusion violation.
#[inline]
fn transition(
    cur: &Sim,
    next: &mut Sim,
    entry: SchedEntry,
    key: &mut Vec<u64>,
    mut mark: impl FnMut(),
) -> bool {
    cur.clone_world_into(next);
    mark();
    entry.apply(next);
    mark();
    let exclusive = next.check_mutual_exclusion().is_ok();
    mark();
    black_box(next.fingerprint());
    mark();
    black_box(next.fingerprint_canonical());
    mark();
    key.clear();
    next.canonical_vec(key);
    black_box(&key);
    mark();
    exclusive
}

/// A seeded random walk of `len` transitions from the spec's initial
/// world, restarting when no entry is enabled or the schedule reaches
/// `max_depth`. With `trace`, 1 transition in 16 is timed call by call.
/// Returns the wall time and the Mutual Exclusion violations seen.
fn walk(
    spec: &McSpec,
    len: u64,
    seed: u64,
    max_depth: usize,
    mut trace: Option<(&mut SpanBuf, &mut CallTimes)>,
) -> (Duration, u64) {
    let root = (spec.build)();
    let (mut cur, mut next) = (root.clone_world(), root.clone_world());
    let mut rng = Prng::new(seed);
    let (mut offered, mut key) = (Vec::new(), Vec::new());
    let (mut crashes, mut depth, mut done, mut violations) = (spec.cfg.crash_budget, 0, 0u64, 0);
    let start = Instant::now();
    while done < len {
        entries(&cur, &spec.cfg, crashes, &mut offered);
        if offered.is_empty() || depth >= max_depth {
            root.clone_world_into(&mut cur);
            (crashes, depth) = (spec.cfg.crash_budget, 0);
            continue;
        }
        let entry = offered[rng.below(offered.len())];
        done += 1;
        depth += 1;
        let exclusive = match &mut trace {
            Some((buf, times)) if done.is_multiple_of(TIME_EVERY) => {
                let mut stamps = [Instant::now(); 7];
                let mut k = 0;
                let exclusive = transition(&cur, &mut next, entry, &mut key, || {
                    k += 1;
                    stamps[k] = Instant::now();
                });
                let calls = if entry.is_crash() {
                    CRASH_CALLS
                } else {
                    STEP_CALLS
                };
                for (i, name) in calls.iter().enumerate() {
                    let c = CALLS.iter().position(|n| n == name).expect("a known call");
                    times[c].0 += (stamps[i + 1] - stamps[i]).as_nanos() as u64;
                    times[c].1 += 1;
                }
                buf.record_chain("modelcheck.transition", &calls, &stamps);
                exclusive
            }
            _ => transition(&cur, &mut next, entry, &mut key, || {}),
        };
        violations += u64::from(!exclusive);
        if entry.is_crash() {
            crashes -= 1;
        }
        std::mem::swap(&mut cur, &mut next);
    }
    (start.elapsed(), violations)
}

/// The traced run's model-check layer metrics for `spec`: one parallel
/// and one sequential exploration, then an untraced and a traced walk of
/// `walk_len` transitions. Returns the share of walk throughput lost to
/// tracing, in percent.
pub fn traced(
    spec: &McSpec,
    workers: usize,
    walk_len: u64,
    seed: u64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> f64 {
    let mut buf = SpanBuf::new(0, tracer.epoch, SPANS_KEPT);
    let t0 = Instant::now();
    let par = timed(spec, report, || explore_par(spec.build, &spec.cfg, workers));
    let t1 = Instant::now();
    let seq = timed(spec, report, || explore(spec.build, &spec.cfg));
    buf.record("modelcheck.explore_par", t0, t1);
    buf.record("modelcheck.explore", t1, Instant::now());
    let (par_wall, seq_wall) = (par.wall_s, seq.wall_s);
    let seq = seq.report.unwrap_or(CheckReport {
        states_explored: 0,
        transitions: 0,
        crash_transitions: 0,
        max_depth_seen: 0,
        terminal_states: 0,
        complete: false,
        visited: Default::default(),
    });

    let depth = seq.max_depth_seen.max(1);
    let (plain, plain_violations) = walk(spec, walk_len, seed, depth, None);
    let mut times: CallTimes = Default::default();
    let (traced, traced_violations) =
        walk(spec, walk_len, seed, depth, Some((&mut buf, &mut times)));
    let violations = plain_violations + traced_violations;
    report.ops(2 * walk_len, violations);
    report.check(
        format!("{}: random walks keep Mutual Exclusion", spec.label),
        violations == 0,
    );
    buf.drain_into(&mut tracer.log);

    let per_call = |c: usize| {
        let (sum, n) = times[c];
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 - tracer.timer_ns
        }
    };
    for (c, name) in CALLS.iter().enumerate() {
        report.metric(format!("{name}_ns"), per_call(c), "ns", times[c].1 as usize);
    }
    let transitions = seq.transitions.max(1) as f64;
    let crash_share = seq.crash_transitions as f64 / transitions;
    // The key the explorer's visited set computes: the canonical
    // fingerprint (`CALLS[5]`) under the quotient, else the concrete one.
    let key = if spec.cfg.symmetry == Symmetry::Quotient {
        5
    } else {
        4
    };
    let calls_ns = per_call(0)
        + (1.0 - crash_share) * per_call(1)
        + crash_share * per_call(2)
        + per_call(3)
        + per_call(key);
    let seq_ns = seq_wall * 1e9 / transitions;
    let states = seq.states_explored.max(1) as f64;
    let visited = seq.visited;
    report.metric("check_wall_s", par_wall, "s", 1);
    report.metric("modelcheck.par_speedup", seq_wall / par_wall, "x", 1);
    report.metric("modelcheck.seq_ns_per_transition", seq_ns, "ns", 1);
    report.metric(
        "modelcheck.other_ns_per_transition",
        seq_ns - calls_ns,
        "ns",
        1,
    );
    report.metric("modelcheck.states", seq.states_explored as f64, "count", 1);
    report.metric("modelcheck.transitions", seq.transitions as f64, "count", 1);
    report.metric(
        "modelcheck.transitions_per_state",
        seq.transitions as f64 / states,
        "ratio",
        1,
    );
    report.metric(
        "modelcheck.crash_transitions",
        seq.crash_transitions as f64,
        "count",
        1,
    );
    report.metric(
        "modelcheck.visited_entries",
        visited.entries as f64,
        "count",
        1,
    );
    report.metric(
        "modelcheck.visited_bytes",
        visited.resident_bytes as f64,
        "B",
        1,
    );
    report.metric(
        "modelcheck.visited_bytes_per_entry",
        visited.resident_bytes as f64 / visited.entries.max(1) as f64,
        "B",
        1,
    );
    report.metric(
        "modelcheck.max_depth",
        seq.max_depth_seen as f64,
        "count",
        1,
    );
    100.0 * (1.0 - plain.as_secs_f64() / traced.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_world_explores_to_its_pinned_counts() {
        let spec = probe();
        let mut report = Report::default();
        let runs = run(&spec, 0.0, 1, &mut report, || {});
        assert_eq!(runs.len(), 1);
        assert!(runs[0].cpu_ns.is_some(), "{runs:?}");
        assert!(report.correct(), "{report:?}");
        assert_eq!((report.attempted, report.failed), (1, 0));
    }

    #[test]
    fn the_oracle_rejects_other_counts() {
        let spec = McSpec {
            expect: (1, 1),
            ..probe()
        };
        let mut report = Report::default();
        run(&spec, 0.0, 1, &mut report, || {});
        assert_eq!(report.failed, 1);
        assert!(!report.checks.iter().all(|c| c.1));
    }

    #[test]
    fn walks_offer_crashes_and_keep_exclusion() {
        let spec = probe();
        let mut times: CallTimes = Default::default();
        let mut buf = SpanBuf::new(0, Instant::now(), SPANS_KEPT);
        let (_, violations) = walk(&spec, 20_000, 5, 200, Some((&mut buf, &mut times)));
        assert_eq!(violations, 0);
        assert!(
            times[1].1 > 0 && times[2].1 > 0,
            "steps and crashes are timed: {times:?}"
        );
        assert_eq!(times[0].1, 20_000 / TIME_EVERY);
    }
}
