//! perf_locks — the contended real-atomics lock lab, run as a registry
//! × scenario matrix: every real-capable lock in
//! [`rwcore::LockRegistry::builtin`] under every bench-capable named
//! [`rwcore::Scenario`] (see [`crate::exp::scenario_matrix`]). A lock
//! registered once appears here with no harness edits; a scenario added
//! to [`rwcore::Scenario::named`] becomes a new sweep section.
//!
//! Full mode runs up to `min(ncpu, 64)` OS threads (capped by the
//! strict `BENCH_THREADS` parsing from [`crate::par`]), pinned to cores
//! where the platform allows (pinning failure degrades to a report
//! note, never an error). Each lock × scenario cell reports throughput,
//! its read and write counts, p50/p99/p999 latency from lock-free
//! per-thread histograms ([`crate::hist`]) and — for sharded locks —
//! the shard count the instance *actually* ran with: the sharded `A_f`
//! caps a shard request at the CPU count, and that cap used to happen
//! silently at the call site. A note names the host's CPU count.
//! Wall-clock content makes the full report non-byte-stable, so
//! [`Experiment::deterministic`] is false there.
//!
//! Full mode then times single-threaded passages, with no contention at
//! all: a reader and a writer passage of every lock in
//! [`crate::exp::uncontended_locks`] (`A_f` under every named `f`
//! policy, then the registry's locks at 64 readers and 2 writers), and
//! the f-array counter's `add` and `read` against the CAS-loop and
//! fetch-and-add counters, alone and with a few threads adding at once.
//! Every such row is the median of five calibrated samples with their
//! min–max range, so a run shows its own noise. A contended-adds sample
//! gives each adder as many adds as one thread makes in a calibrated
//! sample, and counts only if every adder's clock interval overlaps
//! every other's; the row says how many adds and how many samples.
//!
//! Smoke mode is byte-stable: 4 threads, 2 shards requested, the first
//! two scenarios of the matrix, fixed per-thread op quotas with seeded
//! coin flips (so the read/write split is exactly reproducible), and no
//! timing columns. The sharded-vs-single floor only binds at >= 8 CPUs;
//! below that the check renders a stable "skipped: fewer than 8 CPUs"
//! string so goldens blessed on small hosts byte-match CI runners.

use super::prelude::*;
use crate::exp::{bench_scenarios, uncontended_locks};
use crate::hist::format_ns;
use crate::throughput::{run_contended, ContendedSample, MixedWorkload, OpBudget, RealLock};
use crate::{par, pin};
use fcounter::{CasCounter, FArray, FaaCounter, SharedCounter};
use rwcore::{LockRegistry, NamedScenario, RealShape};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Wall-clock budget per full-mode cell.
const FULL_CELL: Duration = Duration::from_millis(150);
/// Base RNG seed; scenario `i`, thread `t` streams from
/// `SEED + 1000*i + t`.
const SEED: u64 = 0x10C5;
/// Hard cap on OS threads per cell (oversubscribed scenarios multiply
/// the base count).
const MAX_THREADS: usize = 64;
/// Samples per timed uncontended or counter row.
const SAMPLES: usize = 5;
/// Calibration target: one sample runs at least this long.
const SAMPLE_TARGET: Duration = Duration::from_millis(20);

/// A measured cell: one lock under one scenario.
struct Cell {
    scenario: String,
    sample: ContendedSample,
}

fn scenario_workload(
    named: &NamedScenario,
    index: usize,
    base_threads: usize,
    budget: OpBudget,
    pin: bool,
) -> MixedWorkload {
    let mut wl = MixedWorkload::from_scenario(
        named.scenario,
        base_threads,
        budget,
        pin,
        SEED + 1000 * index as u64,
    );
    wl.threads = wl.threads.min(MAX_THREADS);
    wl
}

fn quantile_cell(sample: &ContendedSample, read: bool, q: f64) -> String {
    let h = if read {
        &sample.read_hist
    } else {
        &sample.write_hist
    };
    match h.quantile(q) {
        Some(ns) => format_ns(ns),
        None => "-".to_string(),
    }
}

/// Render the effective shard count of a sample (`"-"` for unsharded
/// locks) — the satellite fix: a capped shard request is visible in the
/// row instead of being applied silently.
fn shards_cell(sample: &ContendedSample) -> String {
    match sample.shards {
        Some(s) => s.to_string(),
        None => "-".to_string(),
    }
}

fn find_lock(locks: &[Arc<dyn RealLock>], name: &str) -> Arc<dyn RealLock> {
    locks
        .iter()
        .find(|l| l.label() == name)
        .unwrap_or_else(|| panic!("registry is missing {name}"))
        .clone()
}

/// Registry entry for the contended lock lab.
pub(crate) struct PerfLocks;

impl Experiment for PerfLocks {
    fn id(&self) -> &'static str {
        "perf_locks"
    }

    fn title(&self) -> &'static str {
        "contended lock lab: the registry's locks under the scenario matrix"
    }

    fn claim(&self) -> &'static str {
        "sharded A_f read path >= 3x single A_f read-mostly throughput at >= 8 threads; every lock x scenario cell reports p99 latency"
    }

    fn deterministic(&self, mode: Mode) -> bool {
        // Full mode renders throughput and latency quantiles; smoke
        // renders only seeded op counts and host-class-stable strings.
        mode == Mode::Smoke
    }

    fn run(&self, ctx: &Ctx) -> Report {
        let ncpu = par::host_cpus();
        let mut report = Report::new(self, ctx);
        let mut notes: Vec<String> = Vec::new();

        if ctx.smoke() {
            run_smoke(&mut report, ncpu);
        } else {
            run_full(&mut report, &mut notes, ncpu);
        }
        if !notes.is_empty() {
            report.notes(notes.join("\n"));
        }
        report
    }
}

/// Byte-stable smoke sweep: fixed threads/quotas/seeds, no timing.
fn run_smoke(report: &mut Report, ncpu: usize) {
    const THREADS: usize = 4;
    const SHARDS: usize = 2;
    let scenarios = bench_scenarios();
    let quotas = [300u64, 150];

    let mut completed = 0usize;
    let mut total = 0usize;
    for (i, (named, &quota)) in scenarios.iter().zip(quotas.iter()).enumerate() {
        let wl = scenario_workload(named, i, THREADS, OpBudget::PerThreadOps(quota), false);
        let mut table = Table::new(["lock", "ops", "reads", "writes", "shards"]);
        for lock in
            LockRegistry::builtin().real_locks(RealShape::symmetric(wl.threads).with_shards(SHARDS))
        {
            let s = run_contended(lock, &wl);
            total += 1;
            if s.reads + s.writes == quota * wl.threads as u64 {
                completed += 1;
            }
            table.row([
                s.lock.clone(),
                (s.reads + s.writes).to_string(),
                s.reads.to_string(),
                s.writes.to_string(),
                shards_cell(&s),
            ]);
        }
        report.section(
            format!(
                "{} ({}) — {} threads x {} ops each, {} shards requested, seeded",
                named.name, named.spec, wl.threads, quota, SHARDS
            ),
            table,
        );
    }
    report.check(Check::all(
        "every lock completes its per-thread op quota in every smoke scenario",
        completed,
        total,
    ));

    // The CI floor: sharded read path >= 2x single A_f, read-mostly, 8
    // threads. Only measurable with >= 8 CPUs; the rendered strings are
    // host-class-stable either way (no host numbers), so the golden
    // blessed on a small host byte-matches small CI runners.
    let floor = if ncpu < 8 {
        Check::new(
            "sharded read path holds the 2x read-mostly CI floor over single A_f",
            ">= 2.0x ops/s at 8 threads",
            "skipped: fewer than 8 CPUs",
            true,
        )
    } else {
        let probe = &scenarios[0]; // read-mostly
        let wl = scenario_workload(
            probe,
            9,
            8,
            OpBudget::Duration(Duration::from_millis(100)),
            false,
        );
        let locks = LockRegistry::builtin().real_locks(RealShape::symmetric(8).with_shards(8));
        let single = run_contended(find_lock(&locks, "a_f"), &wl);
        let sharded = run_contended(find_lock(&locks, "a_f-sharded"), &wl);
        let ratio = sharded.ops_per_sec() / single.ops_per_sec().max(1e-9);
        Check::new(
            "sharded read path holds the 2x read-mostly CI floor over single A_f",
            ">= 2.0x ops/s at 8 threads",
            if ratio >= 2.0 {
                "held (>= 2.0x)"
            } else {
                "BELOW FLOOR (< 2.0x)"
            },
            ratio >= 2.0,
        )
    };
    report.check(floor);
}

/// Timed full sweep with latency tables, then the uncontended and
/// counter rows.
fn run_full(report: &mut Report, notes: &mut Vec<String>, ncpu: usize) {
    // Thread budget: min(ncpu, 64), at least 2 so there is contention,
    // honoring the strict BENCH_THREADS cap (satellite: rejects garbage
    // loudly, caps silently). Scenario oversubscription multiplies this
    // base, capped at MAX_THREADS.
    let threads = par::worker_count(usize::MAX).clamp(2, MAX_THREADS);
    // Shard request: one per thread; the registry's sharded factory caps
    // at the CPU count and the table's "shards" column reports the
    // effective value per row.
    let shards_requested = threads;

    // Pin where possible; degrade to a note, never an error.
    let pin_ok = match pin::probe() {
        Ok(()) => true,
        Err(e) => {
            notes.push(format!(
                "CPU pinning unavailable ({e}); threads ran unpinned."
            ));
            false
        }
    };

    let scenarios = bench_scenarios();
    let mut cells: Vec<Cell> = Vec::new();
    for (i, named) in scenarios.iter().enumerate() {
        let wl = scenario_workload(named, i, threads, OpBudget::Duration(FULL_CELL), pin_ok);
        let mut table = Table::new([
            "lock", "ops/s", "reads", "writes", "r p50", "r p99", "r p999", "w p99", "shards",
        ]);
        let mut all_pinned = true;
        for lock in LockRegistry::builtin()
            .real_locks(RealShape::symmetric(wl.threads).with_shards(shards_requested))
        {
            let s = run_contended(lock, &wl);
            all_pinned &= s.pinned;
            table.row([
                s.lock.clone(),
                format!("{:.0}", s.ops_per_sec()),
                s.reads.to_string(),
                s.writes.to_string(),
                quantile_cell(&s, true, 0.50),
                quantile_cell(&s, true, 0.99),
                quantile_cell(&s, true, 0.999),
                quantile_cell(&s, false, 0.99),
                shards_cell(&s),
            ]);
            cells.push(Cell {
                scenario: named.name.to_string(),
                sample: s,
            });
        }
        report.section(
            format!(
                "{} ({}) — {} threads, {} shards requested, {}ms/cell{}",
                named.name,
                named.spec,
                wl.threads,
                shards_requested,
                FULL_CELL.as_millis(),
                if all_pinned { ", pinned" } else { "" }
            ),
            table,
        );
    }

    // Acceptance: a p99 for every lock x scenario cell (over the merged
    // read+write histogram — each cell performs at least one op).
    let with_p99 = cells
        .iter()
        .filter(|c| c.sample.merged_hist().quantile(0.99).is_some())
        .count();
    report.check(Check::all(
        "every lock x scenario cell reports a p99 latency",
        with_p99,
        cells.len(),
    ));

    // The tentpole floor: sharded read-mostly >= 3x single A_f. Only
    // binds where there is real parallelism to shard across.
    let ops = |scenario: &str, lock: &str| {
        cells
            .iter()
            .find(|c| c.scenario == scenario && c.sample.lock == lock)
            .map(|c| c.sample.ops_per_sec())
    };
    let single = ops("read-mostly", "a_f");
    let sharded = ops("read-mostly", "a_f-sharded");
    let floor_ratio = match (single, sharded) {
        (Some(s), Some(sh)) if s > 0.0 => Some(sh / s),
        _ => None,
    };
    if ncpu >= 8 {
        let ratio = floor_ratio.unwrap_or(0.0);
        report.check(Check::new(
            "sharded read path holds the 3x read-mostly floor over single A_f",
            ">= 3.00x ops/s at >= 8 threads",
            format!("{ratio:.2}x at {threads} threads"),
            ratio >= 3.0,
        ));
    } else {
        notes.push(format!(
            "3x floor skipped: fewer than 8 CPUs (read-mostly sharded/single ratio {} at {threads} threads, informational only).",
            floor_ratio
                .map(|r| format!("{r:.2}x"))
                .unwrap_or_else(|| "n/a".to_string()),
        ));
    }

    notes.push(format!(
        "Host: {ncpu} CPUs; {threads} base threads per cell; each lock x scenario cell is one {}ms sample.",
        FULL_CELL.as_millis()
    ));

    run_uncontended(report);
    run_counters(report);
}

/// Calls of `f` per sample: the inner loop grows 4x until one sample
/// takes at least [`SAMPLE_TARGET`].
fn calibrate(mut f: impl FnMut()) -> u64 {
    let mut iters: u64 = 1;
    while time_calls(&mut f, iters) < SAMPLE_TARGET && iters < 1 << 30 {
        iters *= 4;
    }
    iters
}

/// Wall time of `iters` calls of `f`.
fn time_calls(mut f: impl FnMut(), iters: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed()
}

/// Time `f` per call: [`calibrate`], take [`SAMPLES`] samples, and
/// render them with [`median_and_range`].
fn time_per_call(mut f: impl FnMut()) -> String {
    let iters = calibrate(&mut f);
    median_and_range(
        (0..SAMPLES)
            .map(|_| time_calls(&mut f, iters).as_secs_f64() * 1e9 / iters as f64)
            .collect(),
    )
}

/// Render timings in ns as the median with the min-max range, or `n/a`
/// if there are none.
fn median_and_range(mut ns: Vec<f64>) -> String {
    if ns.is_empty() {
        return "n/a".to_string();
    }
    ns.sort_by(f64::total_cmp);
    // Three significant digits of the median, in its own unit.
    let median = (ns[(ns.len() - 1) / 2] + ns[ns.len() / 2]) / 2.0;
    let (scale, unit) = match median {
        m if m < 1e3 => (1.0, "ns"),
        m if m < 1e6 => (1e3, "us"),
        _ => (1e6, "ms"),
    };
    let digits = match median / scale {
        m if m < 10.0 => 2,
        m if m < 100.0 => 1,
        _ => 0,
    };
    let v = |ns: f64| format!("{:.digits$}", ns / scale);
    format!("{}{unit} ({}-{})", v(median), v(ns[0]), v(ns[ns.len() - 1]))
}

/// One reader and one writer passage of every uncontended lock, timed
/// on the calling thread alone.
fn run_uncontended(report: &mut Report) {
    let mut table = Table::new(["lock", "reader passage", "writer passage"]);
    for (label, lock) in uncontended_locks(&LockRegistry::builtin()) {
        let reader = time_per_call(|| lock.read_pass(0, &mut || {}));
        let writer = time_per_call(|| lock.write_pass(0, &mut || {}));
        table.row([label, reader, writer]);
    }
    report.section(
        format!("uncontended passages — one thread, median ({SAMPLES} samples) and min-max range"),
        table,
    );
}

/// One row of the counter table: `add` always, `read` if `time_read`.
fn counter_row(label: &str, counter: impl SharedCounter, time_read: bool) -> [String; 3] {
    let add = time_per_call(|| counter.add(0, 1));
    let read = if time_read {
        time_per_call(|| {
            std::hint::black_box(counter.read());
        })
    } else {
        "-".to_string()
    };
    [label.to_string(), add, read]
}

/// The f-array counter against the CAS-loop and fetch-and-add counters:
/// `add` pays `Θ(log K)` uncontended to stay wait-free under contention,
/// `read` is one load. Then the time per add of a few threads adding
/// at once.
fn run_counters(report: &mut Report) {
    let mut table = Table::new(["counter", "add", "read"]);
    for k in [8, 64, 512] {
        table.row(counter_row(
            &format!("f-array/{k}"),
            FArray::new(k),
            k != 64,
        ));
    }
    table.row(counter_row("cas-loop", CasCounter::new(), false));
    table.row(counter_row("fetch-add", FaaCounter::new(), true));
    report.section(
        format!("counter operations — one thread, median ({SAMPLES} samples) and min-max range"),
        table,
    );

    let threads = par::worker_count(usize::MAX).clamp(2, 8);
    let counters: [Box<dyn SharedCounter>; 3] = [
        Box::new(FArray::new(threads)),
        Box::new(CasCounter::new()),
        Box::new(FaaCounter::new()),
    ];
    let mut table = Table::new(["counter", "adds per thread", "add", "overlapping samples"]);
    for counter in &counters {
        // As many adds as one thread makes alone in a calibrated sample,
        // so an adder runs at least that long under contention.
        let adds = calibrate(|| counter.add(0, 1));
        let ns = contended_ns_per_add(&**counter, threads, adds);
        let overlapping = format!("{}/{SAMPLES}", ns.len());
        table.row([
            counter.name().to_string(),
            adds.to_string(),
            median_and_range(ns),
            overlapping,
        ]);
    }
    report.section(
        format!(
            "contended adds — {threads} threads per sample, each adding for at least {} ms, time per add, median and min-max range of the samples in which all adders overlapped",
            SAMPLE_TARGET.as_millis()
        ),
        table,
    );
}

/// Timings in ns per add of `threads` threads making `adds` adds each to
/// `counter` at once, one for each of the [`SAMPLES`] samples in which the adders
/// really ran at once. The adders are spawned once and a barrier
/// releases each sample, so no sample times a spawn or a join. Each
/// adder clocks its own adds, and a sample spans the first start to the
/// last end, so no other thread's wake-up is timed. A sample counts only
/// if every adder's interval overlaps every other's (the latest start
/// comes before the earliest end): a release does not make the adders
/// overlap, and one that finished before another woke would time two
/// serial runs as a contended one.
fn contended_ns_per_add(counter: &dyn SharedCounter, threads: usize, adds: u64) -> Vec<f64> {
    let barrier = Barrier::new(threads);
    let clocks: Vec<Vec<(Instant, Instant)>> = std::thread::scope(|s| {
        let adders: Vec<_> = (0..threads)
            .map(|id| {
                let barrier = &barrier;
                s.spawn(move || {
                    (0..SAMPLES)
                        .map(|_| {
                            barrier.wait();
                            let start = Instant::now();
                            for _ in 0..adds {
                                counter.add(id, 1);
                            }
                            (start, Instant::now())
                        })
                        .collect()
                })
            })
            .collect();
        adders.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (0..SAMPLES)
        .filter_map(|i| {
            let sample: Vec<_> = clocks.iter().map(|c| c[i]).collect();
            overlapping_ns_per_add(&sample, threads as u64 * adds)
        })
        .collect()
}

/// Time per add of one sample of `adds` adds from each adder's
/// `(start, end)` clock: the first start to the last end. `None` unless
/// the intervals all overlap: the latest start comes before the
/// earliest end.
fn overlapping_ns_per_add(clocks: &[(Instant, Instant)], adds: u64) -> Option<f64> {
    let start = clocks.iter().map(|c| c.0);
    let end = clocks.iter().map(|c| c.1);
    let overlap = start.clone().max()? < end.clone().min()?;
    let span = end.max()? - start.min()?;
    overlap.then(|| span.as_secs_f64() * 1e9 / adds as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_contended_sample_counts_only_if_every_adder_overlaps() {
        let t = Instant::now();
        let ms = |n: u64| t + Duration::from_millis(n);
        // Two adders that ran at once: 4 ms for 4,000 adds.
        let ns = overlapping_ns_per_add(&[(ms(0), ms(3)), (ms(1), ms(4))], 4_000);
        assert!((ns.expect("overlapping") - 1_000.0).abs() < 1e-6, "{ns:?}");
        // One finished before the other started: two serial runs.
        assert_eq!(
            overlapping_ns_per_add(&[(ms(0), ms(1)), (ms(2), ms(3))], 2),
            None
        );
        // Touching intervals do not overlap either.
        assert_eq!(
            overlapping_ns_per_add(&[(ms(0), ms(1)), (ms(1), ms(2))], 2),
            None
        );
        // The middle adder overlaps both others, but the first ended
        // before the last started.
        let chain = [(ms(0), ms(2)), (ms(1), ms(4)), (ms(3), ms(5))];
        assert_eq!(overlapping_ns_per_add(&chain, 2), None);
    }

    #[test]
    fn median_and_range_handles_any_sample_count() {
        assert_eq!(median_and_range(Vec::new()), "n/a");
        assert_eq!(median_and_range(vec![30.0]), "30.0ns (30.0-30.0)");
        assert_eq!(median_and_range(vec![40.0, 20.0]), "30.0ns (20.0-40.0)");
        assert_eq!(median_and_range(vec![5.0, 1.0, 3.0]), "3.00ns (1.00-5.00)");
    }
}
