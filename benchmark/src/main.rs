//! End-to-end and per-layer benchmark of the paper's `A_f`
//! reader-writer lock and of the model checker that verifies it.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--trace-dir <dir>]
//! ```
//!
//! With `--workload`, the run measures that workload in this process and
//! ends with one JSON line: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`: set-up time, CPU time per operation,
//! peak RSS) or the per-layer metrics (`--trace 1`). Without it, every
//! workload runs in a child process of its own, so each reports its own
//! peak RSS. The end-to-end metrics come from one client thread or one
//! sequential explorer; the traced run adds load from
//! `T = min(available CPUs, 4)` unpinned threads or explorer workers.
//! `README.md` beside this package explains the workloads and every
//! metric.

mod cpu;
mod hist;
mod json;
mod locks;
mod mc;
mod probes;
mod report;
mod trace;

use json::Json;
use locks::{
    median_cpu_ns_per_op, median_ops, median_quantile, Load, LockPlan, LockRun, LockSet, LOCK_IDS,
};
use report::Report;
use rwcore::Scenario;
use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::{median, self_times, write_spans, Tracer};

/// The benchmark's workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Workload {
    RwReadMostly,
    RwWriteHeavy,
    McQuotient,
    McFarray,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::RwReadMostly,
        Workload::RwWriteHeavy,
        Workload::McQuotient,
        Workload::McFarray,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::RwReadMostly => "rw-read-mostly",
            Workload::RwWriteHeavy => "rw-write-heavy",
            Workload::McQuotient => "mc-quotient",
            Workload::McFarray => "mc-farray",
        }
    }

    fn why(self) -> &'static str {
        match self {
            Workload::RwReadMostly => {
                "r1000:1 mix: the reader entry and exit path does nearly all the work"
            }
            Workload::RwWriteHeavy => {
                "r1:1 mix: the writer tournament, the writer-reader handshake and waiting readers dominate"
            }
            Workload::McQuotient => {
                "CAS-loop A_f, n=3, one crash, symmetry quotient: canonical keys and visited inserts dominate"
            }
            Workload::McFarray => {
                "the paper's f-array A_f, n=2, one crash, concrete keys: world clone and step dominate"
            }
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The read/write mix of a lock workload; `None` for model checks.
    fn scenario(self) -> Option<Scenario> {
        let mix = match self {
            Workload::RwReadMostly => "r1000:1",
            Workload::RwWriteHeavy => "r1:1",
            Workload::McQuotient | Workload::McFarray => return None,
        };
        Some(mix.parse().expect("the workload mixes are valid scenarios"))
    }

    /// The world a model-check workload explores.
    fn spec(self, plan: &Plan) -> mc::McSpec {
        match self {
            _ if plan.small_worlds => mc::probe(),
            Workload::McFarray => mc::farray(),
            _ => mc::quotient(),
        }
    }
}

/// How much one run measures.
#[derive(Clone, Debug)]
struct Plan {
    /// Measuring time of a run, its set-up and warm-up aside.
    seconds: f64,
    /// `a_f` samples of a lock workload's untraced run.
    rounds: usize,
    /// Samples per lock and mode of a lock workload's traced run.
    traced_rounds: usize,
    /// The lock part of a model-check workload's traced run.
    probe_lock: LockPlan,
    /// Run time of the f-array and tournament-mutex probes.
    layer_probe: Duration,
    /// Random-walk transitions of a model-check workload's traced run,
    /// and of the probe world a lock workload's traced run explores.
    walk: u64,
    probe_walk: u64,
    /// Explorations a model-check run makes at least.
    min_mc_samples: usize,
    /// Before every sample, set-up is timed over `setup_batches` batches
    /// of `setup_batch` builds.
    setup_batches: usize,
    setup_batch: usize,
    /// Explore the probe world in every model-check workload (tests).
    small_worlds: bool,
}

impl Plan {
    fn new(seconds: u64) -> Plan {
        Plan {
            seconds: seconds as f64,
            rounds: 15,
            traced_rounds: 5,
            probe_lock: LockPlan {
                rounds: 3,
                sample: Duration::from_millis(200),
                warmup: Duration::from_millis(70),
            },
            layer_probe: Duration::from_millis(500),
            walk: 1_000_000,
            probe_walk: 100_000,
            min_mc_samples: 3,
            setup_batches: 3,
            setup_batch: 64,
            small_worlds: false,
        }
    }

    /// Samples sized so that `locks` locks, each with a warm-up of a
    /// third of a sample and then `rounds` samples in each of `modes`
    /// modes (untraced, traced), fill `seconds`.
    fn lock_plan(&self, locks: usize, modes: usize, rounds: usize) -> LockPlan {
        let per_lock = (modes * rounds) as f64 + 1.0 / 3.0;
        let sample = Duration::from_secs_f64(self.seconds / (locks as f64 * per_lock));
        LockPlan {
            rounds,
            sample,
            warmup: sample / 3,
        }
    }
}

/// Threads (or explorer workers) that generate load.
fn load_threads() -> usize {
    ncpu().min(4)
}

fn ncpu() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Time `plan.setup_batches` batches of `plan.setup_batch` builds and
/// append the time of one build in each, in seconds, to `out`. Runs
/// before every sample, so that set-up time is sampled across the run
/// like the workload itself: on a shared host the speed of a CPU
/// changes from one second to the next.
fn time_setup(plan: &Plan, build: &impl Fn(), out: &mut Vec<f64>) {
    for _ in 0..plan.setup_batches {
        let start = Instant::now();
        for _ in 0..plan.setup_batch {
            build();
        }
        out.push(start.elapsed().as_secs_f64() / plan.setup_batch as f64);
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `values` times `scale`, space-separated, for a note.
fn list(values: impl IntoIterator<Item = f64>, scale: f64) -> String {
    let shown: Vec<String> = values
        .into_iter()
        .map(|v| format!("{:.4}", v * scale))
        .collect();
    shown.join(" ")
}

/// The end-to-end run: tracing off. CPU time per operation, where an
/// operation is one passage through `a_f` or one complete model check.
fn untraced(w: Workload, threads: usize, seed: u64, plan: &Plan) -> Report {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let cpu = match w.scenario() {
        Some(scenario) => {
            // One client: contended throughput on a shared virtual machine
            // swings with where the hypervisor places the CPUs, while the
            // passage's own cost holds still. The traced run measures
            // contention.
            let load = Load {
                scenario,
                size: threads,
                clients: 1,
                seed,
            };
            let lock_plan = plan.lock_plan(1, 1, plan.rounds);
            let build = || drop(black_box(LockSet::new(threads)));
            let run = locks::run(&load, &[0], &lock_plan, None, &mut r, || {
                time_setup(plan, &build, &mut setups)
            });
            let samples = &run.untraced[0];
            r.note(format!(
                "a_f single-client wall throughput: {:.0} ops/s (median of {} samples of {:.3} s)",
                median_ops(samples),
                samples.len(),
                lock_plan.sample.as_secs_f64()
            ));
            r.note(format!(
                "a_f client CPU ns per passage, by sample: {}",
                list(samples.iter().filter_map(|s| s.cpu_ns_per_op()), 1.0)
            ));
            median_cpu_ns_per_op(samples).map(|ns| (ns, samples.len()))
        }
        None => {
            let spec = w.spec(plan);
            let build = || drop(black_box((spec.build)()));
            let runs = mc::run(&spec, plan.seconds, plan.min_mc_samples, &mut r, || {
                time_setup(plan, &build, &mut setups)
            });
            r.note(format!("{}, sequential explorer", spec.label));
            r.note(format!(
                "wall s by exploration: {}",
                list(runs.iter().map(|e| e.wall_s), 1.0)
            ));
            let cpu: Option<Vec<f64>> = runs.iter().map(|e| e.cpu_ns.map(|ns| ns as f64)).collect();
            if let Some(cpu) = &cpu {
                r.note(format!(
                    "CPU s by exploration: {}",
                    list(cpu.iter().copied(), 1e-9)
                ));
            }
            cpu.map(|mut cpu| (median(&mut cpu), runs.len()))
        }
    };
    let n = setups.len();
    r.metric("setup_s", median(&mut setups), "s", n);
    r.check("CPU time read from /proc", cpu.is_some());
    let (cpu_ns, samples) = cpu.unwrap_or((0.0, 0));
    r.metric("cpu_ns_per_op", cpu_ns, "ns", samples);
    let rss = peak_rss_mib();
    r.check("peak RSS read from /proc/self/status", rss.is_some());
    r.metric("peak_rss_mib", rss.unwrap_or(0.0), "MiB", 1);
    r
}

/// Latency metrics of the traced lock samples:
/// `(lock, kind, part, quantile, timer readings inside, name)`.
const LATENCIES: [(usize, usize, usize, f64, f64, &str); 15] = [
    (0, 0, 0, 0.5, 3.0, "af_read_p50_ns"),
    (0, 0, 0, 0.99, 3.0, "af_read_p99_ns"),
    (0, 1, 0, 0.99, 3.0, "af_write_p99_ns"),
    (0, 0, 1, 0.5, 1.0, "rwcore.reader_lock_ns.p50"),
    (0, 0, 1, 0.99, 1.0, "rwcore.reader_lock_ns.p99"),
    (0, 0, 3, 0.5, 1.0, "rwcore.reader_unlock_ns.p50"),
    (0, 0, 3, 0.99, 1.0, "rwcore.reader_unlock_ns.p99"),
    (0, 1, 1, 0.5, 1.0, "rwcore.writer_lock_ns.p50"),
    (0, 1, 1, 0.99, 1.0, "rwcore.writer_lock_ns.p99"),
    (0, 1, 3, 0.5, 1.0, "rwcore.writer_unlock_ns.p50"),
    (1, 0, 1, 0.5, 1.0, "rwcore.sharded.reader_lock_ns.p50"),
    (1, 0, 1, 0.99, 1.0, "rwcore.sharded.reader_lock_ns.p99"),
    (1, 1, 1, 0.99, 1.0, "rwcore.sharded.writer_lock_ns.p99"),
    (2, 0, 1, 0.5, 1.0, "rwcore.gated.reader_lock_ns.p50"),
    (2, 1, 1, 0.99, 1.0, "rwcore.gated.writer_lock_ns.p99"),
];

/// The lock layer's metrics; returns the share of `a_f` throughput lost
/// to tracing, in percent.
fn lock_layer(run: &LockRun, timer_ns: f64, r: &mut Report) -> f64 {
    let names = [
        "af_ops_per_s",
        "sharded_ops_per_s",
        "gated_ops_per_s",
        "host.std_rwlock_ops_per_s",
    ];
    for (i, name) in names.into_iter().enumerate() {
        r.metric(
            name,
            median_ops(&run.untraced[i]),
            "1/s",
            run.untraced[i].len(),
        );
    }
    for (lock, kind, part, q, timers, name) in LATENCIES {
        let samples = &run.traced[lock];
        let v = median_quantile(samples, kind, part, q, timers * timer_ns);
        r.metric(name, v.unwrap_or(0.0), "ns", samples.len());
    }
    100.0 * (1.0 - median_ops(&run.traced[0]) / median_ops(&run.untraced[0]))
}

/// The traced run: every layer's metrics, the span file and a self-time
/// summary. Lock workloads sample their own mix and explore the small
/// probe world; model-check workloads explore their own world and
/// sample a short `r1:1` lock run.
fn traced(w: Workload, threads: usize, seed: u64, plan: &Plan, dir: &Path) -> Report {
    let mut tracer = Tracer::new();
    let mut r = Report::default();

    let (scenario, lock_plan) = match w.scenario() {
        Some(s) => (s, plan.lock_plan(LOCK_IDS.len(), 2, plan.traced_rounds)),
        None => ("r1:1".parse().expect("a valid scenario"), plan.probe_lock),
    };
    let load = Load {
        scenario,
        size: threads,
        clients: threads,
        seed,
    };
    let all_locks: Vec<usize> = (0..LOCK_IDS.len()).collect();
    let run = locks::run(
        &load,
        &all_locks,
        &lock_plan,
        Some(&mut tracer),
        &mut r,
        || {},
    );
    let lock_overhead = lock_layer(&run, tracer.timer_ns, &mut r);

    let (spec, walk) = match w.scenario() {
        Some(_) => (mc::probe(), plan.probe_walk),
        None => (w.spec(plan), plan.walk),
    };
    let walk_overhead = mc::traced(&spec, threads, walk, seed, &mut tracer, &mut r);

    r.absorb(probes::fcounter(threads, plan.layer_probe, &mut tracer));
    r.absorb(probes::wmutex(threads, plan.layer_probe, &mut tracer));
    r.absorb(probes::rmr_counts(threads));

    let timer_ns = tracer.timer_ns;
    r.metric("host.ncpu", ncpu() as f64, "count", 1);
    r.metric("host.threads", threads as f64, "count", 1);
    r.metric("trace.timer_ns", timer_ns, "ns", 31);
    let overhead = if w.scenario().is_some() {
        lock_overhead
    } else {
        walk_overhead
    };
    r.metric("trace.overhead_pct", overhead, "%", 1);

    let path = dir.join(format!("{}.spans.json", w.name()));
    let written = write_spans(&path, w.name(), &tracer);
    r.check(
        format!("span file written to {}", path.display()),
        written.is_ok(),
    );
    let log = &tracer.log;
    r.note(format!(
        "{} spans kept, {} dropped from full buffers; self times below include {timer_ns:.1} ns per timer reading",
        log.spans.len(),
        log.dropped
    ));
    r.note(format!(
        "{:<36} {:>9} {:>14} {:>14}",
        "span", "count", "mean ns", "mean self ns"
    ));
    for (name, t) in self_times(&log.spans) {
        let n = t.count.max(1) as f64;
        r.note(format!(
            "{name:<36} {:>9} {:>14.1} {:>14.1}",
            t.count,
            t.total_ns as f64 / n,
            t.self_ns as f64 / n
        ));
    }
    r
}

/// Parsed command line.
#[derive(Clone, Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_dir: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15,
        trace: false,
        trace_dir: PathBuf::from("target/benchmark-trace"),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                args.workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad(&names.join(", ")))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| bad("1 to 600"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--trace-dir" => args.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// The first line a program prints, if it runs and succeeds.
fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args).stdin(Stdio::null()).stderr(Stdio::null());
    // Look no further up than the current directory for a repository.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()
        .map(str::to_string)
}

fn host_context(args: &Args, threads: usize) -> String {
    let rustc = first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = first_line_of("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!(
        "host: ncpu={} threads={threads} (min(ncpu, 4), unpinned) seed={} seconds={} rustc=\"{rustc}\" commit={commit}",
        ncpu(),
        args.seed,
        args.seconds
    )
}

/// Run one workload in this process and print its report.
fn run_one(w: Workload, args: &Args) -> ExitCode {
    let threads = load_threads();
    println!(
        "# workload {} (trace {}): {}",
        w.name(),
        u8::from(args.trace),
        w.why()
    );
    println!("{}", host_context(args, threads));
    if w.scenario().is_some() && threads < 2 {
        println!("skipped: needs >= 2 CPUs");
        return ExitCode::from(3);
    }
    let plan = Plan::new(args.seconds);
    let report = if args.trace {
        traced(w, threads, args.seed, &plan, &args.trace_dir)
    } else {
        untraced(w, threads, args.seed, &plan)
    };
    print!("{}", report.render());
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

/// Run every workload, each in a child process, relaying its output;
/// the last line combines their results.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this program's executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all = Report::default();
    let traces: &[&str] = if args.trace { &["0", "1"] } else { &["0"] };
    for w in Workload::ALL {
        for &trace in traces {
            let seed = args.seed.to_string();
            let seconds = args.seconds.to_string();
            let child_args = [
                "--workload",
                w.name(),
                "--seed",
                &seed,
                "--seconds",
                &seconds,
                "--trace",
                trace,
            ];
            let mut cmd = Command::new(&exe);
            cmd.args(child_args).arg("--trace-dir").arg(&args.trace_dir);
            match relay(cmd.stdout(Stdio::piped())) {
                Ok((status, last)) if status.success() => {
                    let result = Json::parse(&last);
                    let ok = absorb_child(&mut all, w.name(), result.as_ref().ok());
                    all.check(
                        format!("{} (trace {trace}) printed a valid result", w.name()),
                        ok,
                    );
                }
                Ok((status, _)) if status.code() == Some(3) => {
                    all.note(format!("{} skipped: needs >= 2 CPUs", w.name()));
                }
                Ok((status, _)) => all.check(
                    format!("{} (trace {trace}) exited with {status}", w.name()),
                    false,
                ),
                Err(e) => all.check(
                    format!("{} (trace {trace}) could not run: {e}", w.name()),
                    false,
                ),
            }
        }
    }
    println!("# all workloads");
    print!("{}", all.render());
    println!("{}", all.to_json());
    if all.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Start `cmd`, print its output lines as they come, wait for it, and
/// return its status and last line.
fn relay(cmd: &mut Command) -> std::io::Result<(std::process::ExitStatus, String)> {
    let mut child = cmd.spawn()?;
    let mut last = String::new();
    if let Some(out) = child.stdout.take() {
        for line in BufReader::new(out).lines() {
            let line = line?;
            if !last.is_empty() {
                println!("{last}");
            }
            last = line;
        }
    }
    Ok((child.wait()?, last))
}

/// Fold a child's result line into the combined report, prefixing its
/// metric names with the workload. False if the line is not a result.
fn absorb_child(all: &mut Report, workload: &str, result: Option<&Json>) -> bool {
    let Some(result) = result else { return false };
    let count = |key| result.get(key).and_then(Json::as_f64);
    let (Some(attempted), Some(failed)) = (count("attempted"), count("failed")) else {
        return false;
    };
    all.ops(attempted as u64, failed as u64);
    if let Some(Json::Obj(metrics)) = result.get("metrics") {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("?");
            all.metric(format!("{workload}.{name}"), value, unit, 1);
        }
    }
    result.get("correct") == Some(&Json::Bool(true))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: rwlock-benchmark [--workload <name>] [--seed <u64>] [--seconds <n>] \
                 [--trace <0|1>] [--trace-dir <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Plan {
        /// A run small enough for unit tests in a debug build.
        fn tiny() -> Plan {
            Plan {
                seconds: 0.2,
                rounds: 2,
                traced_rounds: 1,
                probe_lock: LockPlan {
                    rounds: 1,
                    sample: Duration::from_millis(20),
                    warmup: Duration::from_millis(5),
                },
                layer_probe: Duration::from_millis(20),
                walk: 2_000,
                probe_walk: 2_000,
                min_mc_samples: 1,
                setup_batches: 3,
                setup_batch: 2,
                small_worlds: true,
            }
        }
    }

    /// The metric names listed under `section` in BENCHMARK.json.
    fn listed(section: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
        let spec = Json::parse(&text).expect("BENCHMARK.json is valid JSON");
        let Some(Json::Arr(items)) = spec.get(section) else {
            panic!("BENCHMARK.json has no {section} list");
        };
        items
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("a named metric")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn every_listed_metric_is_printed_by_every_workload() {
        let (e2e, layers) = (listed("end_to_end"), listed("per_layer"));
        let plan = Plan::tiny();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-trace");
        for w in Workload::ALL {
            for (trace, expected) in [(false, &e2e), (true, &layers)] {
                let r = if trace {
                    traced(w, 2, 9, &plan, &dir)
                } else {
                    untraced(w, 2, 9, &plan)
                };
                assert!(r.correct(), "{} trace {trace}: {}", w.name(), r.render());
                let printed: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(printed.len(), expected.len(), "{}: {printed:?}", w.name());
                for name in expected.iter() {
                    assert!(
                        printed.contains(&name.as_str()),
                        "{} trace {trace} lacks {name}",
                        w.name()
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn listed_metric_names_are_valid_and_unique() {
        let mut all = listed("end_to_end");
        all.extend(listed("per_layer"));
        for name in &all {
            assert!(report::valid_name(name), "{name}");
        }
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "metric names repeat");
    }

    #[test]
    fn arguments_parse_strictly() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let a = parse("--workload mc-farray --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Some(Workload::McFarray));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        for bad in [
            "--workload nope",
            "--seed -1",
            "--seconds 0",
            "--trace 2",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
