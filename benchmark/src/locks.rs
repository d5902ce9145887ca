//! The lock workloads: a closed loop of client threads, each issuing
//! its next passage only when the last one returns, over the paper's
//! `A_f` lock, its sharded and gated variants, and `std::sync::RwLock`
//! as a host control. Client `t` is reader `t` and writer `t`; its
//! read/write coin stream is seeded with `seed + t`.
//!
//! Correctness oracle: a writer's critical section bumps a two-word
//! payload, one word after the other. A reader that sees the words
//! differ was admitted beside a writer, and a payload short of the
//! completed writes lost an update; each counts as a failed operation.

use crate::cpu;
use crate::hist::Histogram;
use crate::report::Report;
use crate::trace::{median, SpanBuf, SpanLog, Tracer};
use ccsim::Prng;
use rwcore::{AfConfig, GatedAfLock, RawAfLock, RawRwLock, Scenario, ShardedAfRwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Barrier, RwLock};
use std::time::{Duration, Instant};

/// Start and stop signals shared by the threads of one closed loop.
#[derive(Debug)]
pub struct Gate {
    start: Barrier,
    stop: AtomicBool,
}

impl Gate {
    /// Wait until every thread, and the timer, is ready.
    pub fn wait(&self) {
        self.start.wait();
    }

    /// False once the sample's time is up.
    #[inline]
    pub fn running(&self) -> bool {
        !self.stop.load(Relaxed)
    }
}

/// Run `body(t, gate)` on `threads` threads for `len`. Each body
/// allocates what it needs, calls `gate.wait()`, then loops while
/// `gate.running()`. Returns the per-thread results and the time from
/// the common start until every thread has stopped.
pub fn closed_loop<R: Send>(
    threads: usize,
    len: Duration,
    body: impl Fn(usize, &Gate) -> R + Sync,
) -> (Vec<R>, Duration) {
    let gate = Gate {
        start: Barrier::new(threads + 1),
        stop: AtomicBool::new(false),
    };
    std::thread::scope(|s| {
        let (gate, body) = (&gate, &body);
        let handles: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || body(t, gate)))
            .collect();
        gate.wait();
        let start = Instant::now();
        std::thread::sleep(len);
        gate.stop.store(true, Relaxed);
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect();
        (results, start.elapsed())
    })
}

/// The two words a writer's critical section updates.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct Payload {
    a: AtomicU64,
    b: AtomicU64,
}

impl Payload {
    fn write_cs(&self) {
        let v = self.a.load(Relaxed) + 1;
        self.a.store(v, Relaxed);
        self.b.store(v, Relaxed);
    }

    /// True if the reader saw a half-written payload.
    fn read_cs(&self) -> bool {
        let a = self.a.load(Relaxed);
        a != self.b.load(Relaxed)
    }

    /// True if both words equal `writes`, the completed write passages.
    fn intact(&self, writes: u64) -> bool {
        self.a.load(Relaxed) == writes && self.b.load(Relaxed) == writes
    }
}

/// A lock as the clients drive it: one passage runs `cs` between the
/// entry and exit sections.
pub trait Passage: Sync {
    fn read(&self, t: usize, cs: impl FnOnce());
    fn write(&self, t: usize, cs: impl FnOnce());
}

/// One of the repository's locks, driven through its `RawRwLock` entry
/// and exit sections.
#[derive(Debug)]
pub struct Raw<L>(pub L);

impl<L: RawRwLock> Passage for Raw<L> {
    #[inline]
    fn read(&self, t: usize, cs: impl FnOnce()) {
        self.0.reader_lock(t);
        cs();
        self.0.reader_unlock(t);
    }

    #[inline]
    fn write(&self, t: usize, cs: impl FnOnce()) {
        self.0.writer_lock(t);
        cs();
        self.0.writer_unlock(t);
    }
}

impl Passage for RwLock<()> {
    fn read(&self, _t: usize, cs: impl FnOnce()) {
        let _guard = self.read().expect("no client panics inside the lock");
        cs();
    }

    fn write(&self, _t: usize, cs: impl FnOnce()) {
        let _guard = self.write().expect("no client panics inside the lock");
        cs();
    }
}

/// Span names of one lock's passages: passage, entry, critical
/// section, exit.
#[derive(Debug)]
struct Names {
    read: [&'static str; 4],
    write: [&'static str; 4],
}

/// The locks of a lock workload, in report order.
pub const LOCK_IDS: [&str; 4] = ["a_f", "a_f-sharded", "a_f-gated", "std::RwLock"];

const NAMES: [Names; 4] = [
    Names {
        read: [
            "rwcore.read_passage",
            "rwcore.reader_lock",
            "rwcore.read_cs",
            "rwcore.reader_unlock",
        ],
        write: [
            "rwcore.write_passage",
            "rwcore.writer_lock",
            "rwcore.write_cs",
            "rwcore.writer_unlock",
        ],
    },
    Names {
        read: [
            "rwcore.sharded.read_passage",
            "rwcore.sharded.reader_lock",
            "rwcore.sharded.read_cs",
            "rwcore.sharded.reader_unlock",
        ],
        write: [
            "rwcore.sharded.write_passage",
            "rwcore.sharded.writer_lock",
            "rwcore.sharded.write_cs",
            "rwcore.sharded.writer_unlock",
        ],
    },
    Names {
        read: [
            "rwcore.gated.read_passage",
            "rwcore.gated.reader_lock",
            "rwcore.gated.read_cs",
            "rwcore.gated.reader_unlock",
        ],
        write: [
            "rwcore.gated.write_passage",
            "rwcore.gated.writer_lock",
            "rwcore.gated.write_cs",
            "rwcore.gated.writer_unlock",
        ],
    },
    Names {
        read: [
            "std.read_passage",
            "std.read_lock",
            "std.read_cs",
            "std.read_unlock",
        ],
        write: [
            "std.write_passage",
            "std.write_lock",
            "std.write_cs",
            "std.write_unlock",
        ],
    },
];

/// Latency histograms of traced passages: `[kind][part]`, kind 0 for
/// reads and 1 for writes, part 0 the whole passage, then entry,
/// critical section and exit. Raw durations, timer cost included.
pub type Latencies = [[Histogram; 4]; 2];

/// What one sample of one lock measured.
#[derive(Debug, Default)]
pub struct Sample {
    pub reads: u64,
    pub writes: u64,
    pub torn: u64,
    pub elapsed: Duration,
    /// CPU time of the client threads while measuring; `None` if a
    /// thread could not read its clock.
    pub cpu_ns: Option<u64>,
    pub lat: Option<Box<Latencies>>,
}

impl Sample {
    pub fn ops(&self) -> u64 {
        self.reads + self.writes
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.elapsed.as_secs_f64()
    }

    /// Client CPU time per passage.
    pub fn cpu_ns_per_op(&self) -> Option<f64> {
        Some(self.cpu_ns? as f64 / self.ops().max(1) as f64)
    }
}

/// How one sample runs.
#[derive(Copy, Clone, Debug)]
pub struct SampleSpec {
    pub scenario: Scenario,
    pub threads: usize,
    pub seed: u64,
    pub len: Duration,
    /// The traced run's epoch: sample 1 in 64 passages of each kind, and
    /// every passage of a kind rarer than 1 in 64 operations.
    pub traced: Option<Instant>,
}

const TRACE_EVERY: u64 = 64;

/// Spans a client thread keeps per traced sample for the span file.
const SPANS_PER_SAMPLE: usize = 1_024;

impl SampleSpec {
    fn trace_period(&self, read: bool) -> u64 {
        let (r, w) = self.scenario.mix();
        let share = if read { r } else { w };
        if u64::from(share) * TRACE_EVERY >= u64::from(r + w) {
            TRACE_EVERY
        } else {
            1
        }
    }
}

/// Client `t`'s op kinds, drawn from the mix by a generator seeded
/// with `seed + t`; every sample replays the stream from its start.
#[derive(Clone, Debug)]
pub struct OpStream {
    scenario: Scenario,
    rng: Prng,
}

impl OpStream {
    pub fn new(scenario: Scenario, seed: u64, t: usize) -> Self {
        OpStream {
            scenario,
            rng: Prng::new(seed.wrapping_add(t as u64)),
        }
    }

    /// True if the next passage reads.
    #[inline]
    pub fn next_is_read(&mut self) -> bool {
        self.scenario.draw_read(&mut self.rng)
    }
}

/// One passage of kind `read`; `mark` runs on entering and on leaving
/// the critical section. Returns true if a reader saw a torn payload.
#[inline]
fn passage<L: Passage>(
    lock: &L,
    t: usize,
    read: bool,
    p: &Payload,
    mut mark: impl FnMut(),
) -> bool {
    let mut torn = false;
    if read {
        lock.read(t, || {
            mark();
            torn = p.read_cs();
            mark();
        });
    } else {
        lock.write(t, || {
            mark();
            p.write_cs();
            mark();
        });
    }
    torn
}

/// One sample: `spec.threads` clients run passages against `lock`.
pub fn run_sample<L: Passage>(
    lock: &L,
    payload: &Payload,
    spec: &SampleSpec,
    names: usize,
    spans: &mut SpanLog,
) -> Sample {
    let names = &NAMES[names];
    let periods = [spec.trace_period(true), spec.trace_period(false)];
    let (takes, elapsed) = closed_loop(spec.threads, spec.len, |t, gate| {
        let mut ops = OpStream::new(spec.scenario, spec.seed, t);
        let mut s = Sample::default();
        let mut seen = [0u64; 2];
        let mut lat = spec.traced.map(|_| Box::<Latencies>::default());
        let mut buf = spec
            .traced
            .map(|epoch| SpanBuf::new(t as u32, epoch, SPANS_PER_SAMPLE));
        gate.wait();
        let cpu_start = cpu::thread_ns();
        while gate.running() {
            let read = ops.next_is_read();
            let kind = usize::from(!read);
            seen[kind] += 1;
            let torn = match (&mut lat, &mut buf) {
                (Some(lat), Some(buf)) if seen[kind].is_multiple_of(periods[kind]) => {
                    let mut stamps = [Instant::now(); 4];
                    let mut k = 1;
                    let torn = passage(lock, t, read, payload, || {
                        stamps[k] = Instant::now();
                        k += 1;
                    });
                    stamps[3] = Instant::now();
                    let h = &mut lat[kind];
                    h[0].record((stamps[3] - stamps[0]).as_nanos() as u64);
                    for part in 1..4 {
                        h[part].record((stamps[part] - stamps[part - 1]).as_nanos() as u64);
                    }
                    let n = if read { &names.read } else { &names.write };
                    buf.record_chain(n[0], &n[1..], &stamps);
                    torn
                }
                _ => passage(lock, t, read, payload, || {}),
            };
            s.torn += u64::from(torn);
        }
        s.cpu_ns = cpu::thread_ns()
            .zip(cpu_start)
            .map(|(end, start)| end.saturating_sub(start));
        s.reads = seen[0];
        s.writes = seen[1];
        (s, lat, buf)
    });
    let mut total = Sample {
        elapsed,
        cpu_ns: Some(0),
        lat: spec.traced.map(|_| Box::<Latencies>::default()),
        ..Sample::default()
    };
    for (s, lat, buf) in takes {
        total.reads += s.reads;
        total.writes += s.writes;
        total.torn += s.torn;
        total.cpu_ns = total.cpu_ns.zip(s.cpu_ns).map(|(a, b)| a + b);
        if let (Some(all), Some(lat)) = (&mut total.lat, lat) {
            for (a, b) in all.iter_mut().flatten().zip(lat.iter().flatten()) {
                a.merge(b);
            }
        }
        if let Some(mut buf) = buf {
            buf.drain_into(spans);
        }
    }
    total
}

/// The four locks of a lock workload, each with its own payload.
#[derive(Debug)]
pub struct LockSet {
    af: Raw<RawAfLock>,
    sharded: Raw<ShardedAfRwLock>,
    gated: Raw<GatedAfLock>,
    std: RwLock<()>,
    payloads: [Payload; 4],
}

impl LockSet {
    /// Locks sized for `threads` readers and `threads` writers, the
    /// sharded one with one shard per thread.
    pub fn new(threads: usize) -> Self {
        let cfg = AfConfig::new(threads, threads);
        LockSet {
            af: Raw(RawAfLock::new(cfg)),
            sharded: Raw(ShardedAfRwLock::new(threads, threads)),
            gated: Raw(GatedAfLock::new(cfg)),
            std: RwLock::new(()),
            payloads: Default::default(),
        }
    }

    /// One sample of lock `i` (an index into [`LOCK_IDS`]).
    pub fn sample(&self, i: usize, spec: &SampleSpec, spans: &mut SpanLog) -> Sample {
        let p = &self.payloads[i];
        match i {
            0 => run_sample(&self.af, p, spec, i, spans),
            1 => run_sample(&self.sharded, p, spec, i, spans),
            2 => run_sample(&self.gated, p, spec, i, spans),
            3 => run_sample(&self.std, p, spec, i, spans),
            _ => unreachable!("four locks"),
        }
    }
}

/// How long a lock workload measures.
#[derive(Copy, Clone, Debug)]
pub struct LockPlan {
    /// Samples per lock and mode.
    pub rounds: usize,
    pub sample: Duration,
    /// The discarded first sample of each lock.
    pub warmup: Duration,
}

/// Every sample of a lock workload, per lock.
#[derive(Debug, Default)]
pub struct LockRun {
    pub untraced: [Vec<Sample>; 4],
    pub traced: [Vec<Sample>; 4],
}

/// What a lock workload runs: its mix, locks sized for `size` readers
/// and `size` writers, `clients` client threads, and their seed.
#[derive(Copy, Clone, Debug)]
pub struct Load {
    pub scenario: Scenario,
    pub size: usize,
    pub clients: usize,
    pub seed: u64,
}

/// Run the lock workload on `locks` (indices into [`LOCK_IDS`]): one
/// discarded warm-up sample per lock, then `plan.rounds` rounds that
/// sample every lock in turn, so the locks share the host's time
/// windows. With a tracer, each round also runs a traced sample right
/// after each untraced one. `before_round` runs before every round.
/// Checks each payload at the end and counts every passage in `report`.
pub fn run(
    load: &Load,
    locks: &[usize],
    plan: &LockPlan,
    tracer: Option<&mut Tracer>,
    report: &mut Report,
    mut before_round: impl FnMut(),
) -> LockRun {
    let set = LockSet::new(load.size);
    let spec = SampleSpec {
        scenario: load.scenario,
        threads: load.clients,
        seed: load.seed,
        len: plan.sample,
        traced: None,
    };
    // Untraced samples record no spans; they get a log that stays empty.
    let mut no_spans = SpanLog::default();
    let (traced, spans) = match tracer {
        Some(t) => {
            let traced = SampleSpec {
                traced: Some(t.epoch),
                ..spec
            };
            (Some(traced), &mut t.log)
        }
        None => (None, &mut no_spans),
    };
    let mut run = LockRun::default();
    let warm: Vec<Sample> = locks
        .iter()
        .map(|&i| {
            set.sample(
                i,
                &SampleSpec {
                    len: plan.warmup,
                    ..spec
                },
                spans,
            )
        })
        .collect();
    for _ in 0..plan.rounds {
        before_round();
        for &i in locks {
            run.untraced[i].push(set.sample(i, &spec, spans));
            if let Some(traced) = &traced {
                run.traced[i].push(set.sample(i, traced, spans));
            }
        }
    }
    for (&i, warm) in locks.iter().zip(&warm) {
        let id = LOCK_IDS[i];
        let all = run.untraced[i].iter().chain(&run.traced[i]).chain([warm]);
        let (ops, writes, torn) = all.fold((0, 0, 0), |(o, w, t), s| {
            (o + s.reads + s.writes, w + s.writes, t + s.torn)
        });
        let intact = set.payloads[i].intact(writes);
        report.ops(ops, torn + u64::from(!intact));
        report.check(
            format!("{id}: no reader saw a torn payload ({torn} did)"),
            torn == 0,
        );
        report.check(
            format!("{id}: payload equals the {writes} completed writes"),
            intact,
        );
    }
    run
}

/// Median ops/s over samples.
pub fn median_ops(samples: &[Sample]) -> f64 {
    median(&mut samples.iter().map(Sample::ops_per_s).collect::<Vec<_>>())
}

/// Median client CPU ns per passage over samples; `None` if a sample
/// has no CPU time.
pub fn median_cpu_ns_per_op(samples: &[Sample]) -> Option<f64> {
    let per_sample: Option<Vec<f64>> = samples.iter().map(Sample::cpu_ns_per_op).collect();
    Some(median(&mut per_sample?))
}

/// Median over traced samples of quantile `q` of `[kind][part]`, less
/// `timers` timer readings; `None` when no sample traced that kind.
pub fn median_quantile(
    samples: &[Sample],
    kind: usize,
    part: usize,
    q: f64,
    timers: f64,
) -> Option<f64> {
    let mut per_sample: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.lat.as_ref()?[kind][part].quantile(q))
        .collect();
    (!per_sample.is_empty()).then(|| median(&mut per_sample) - timers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op_stream(scenario: Scenario, seed: u64, t: usize, n: usize) -> Vec<bool> {
        let mut ops = OpStream::new(scenario, seed, t);
        (0..n).map(|_| ops.next_is_read()).collect()
    }

    #[test]
    fn op_mix_is_seed_deterministic() {
        let s: Scenario = "r1:1".parse().expect("valid scenario");
        let a = op_stream(s, 7, 1, 4_096);
        assert_eq!(a, op_stream(s, 7, 1, 4_096), "same seed, same stream");
        assert_ne!(a, op_stream(s, 8, 1, 4_096), "another seed changes it");
        assert_ne!(
            a,
            op_stream(s, 7, 0, 4_096),
            "threads get their own streams"
        );
        let reads = op_stream("r1000:1".parse().expect("valid scenario"), 7, 0, 100_000);
        let writes = reads.iter().filter(|r| !**r).count();
        assert!(
            (50..200).contains(&writes),
            "about 1 in 1001 ops writes: {writes}"
        );
    }

    #[test]
    fn trace_periods_sample_rare_kinds_every_time() {
        let spec = |mix: &str| SampleSpec {
            scenario: mix.parse().expect("valid scenario"),
            threads: 2,
            seed: 0,
            len: Duration::ZERO,
            traced: None,
        };
        assert_eq!(spec("r1:1").trace_period(true), 64);
        assert_eq!(spec("r1:1").trace_period(false), 64);
        assert_eq!(spec("r1000:1").trace_period(true), 64);
        assert_eq!(spec("r1000:1").trace_period(false), 1);
    }

    /// Admits everyone at once: the oracle must notice.
    struct NoLock;

    impl Passage for NoLock {
        fn read(&self, _t: usize, cs: impl FnOnce()) {
            cs();
        }
        fn write(&self, _t: usize, cs: impl FnOnce()) {
            cs();
        }
    }

    #[test]
    fn the_oracle_catches_a_lock_that_does_not_exclude() {
        let spec = SampleSpec {
            scenario: "r1:1".parse().expect("valid scenario"),
            threads: 2,
            seed: 3,
            len: Duration::from_millis(50),
            traced: None,
        };
        let payload = Payload::default();
        let (mut torn, mut writes) = (0, 0);
        // Overlap is a race, so keep sampling until it shows; on any host
        // with two clients it shows within the first samples.
        for _ in 0..200 {
            let s = run_sample(&NoLock, &payload, &spec, 0, &mut SpanLog::default());
            torn += s.torn;
            writes += s.writes;
            if torn > 0 && !payload.intact(writes) {
                break;
            }
        }
        assert!(torn > 0, "torn reads go unnoticed");
        assert!(!payload.intact(writes), "lost updates go unnoticed");
    }

    #[test]
    fn every_lock_passes_the_oracle_and_traces_its_passages() {
        let mut report = Report::default();
        let mut tracer = Tracer::new();
        let plan = LockPlan {
            rounds: 2,
            sample: Duration::from_millis(20),
            warmup: Duration::from_millis(5),
        };
        let load = Load {
            scenario: "r1:1".parse().expect("valid scenario"),
            size: 2,
            clients: 2,
            seed: 1,
        };
        let mut rounds = 0;

        let run = run(
            &load,
            &[0, 1, 2, 3],
            &plan,
            Some(&mut tracer),
            &mut report,
            || rounds += 1,
        );
        assert_eq!(rounds, 2);
        assert!(
            report.failed == 0 && report.checks.iter().all(|c| c.1),
            "{report:?}"
        );
        for i in 0..LOCK_IDS.len() {
            assert_eq!(run.untraced[i].len(), 2);
            assert!(median_quantile(&run.traced[i], 0, 1, 0.5, 0.0).is_some());
            assert!(median_cpu_ns_per_op(&run.untraced[i]).is_some_and(|ns| ns > 0.0));
        }
        assert!(tracer
            .log
            .spans
            .iter()
            .any(|s| s.name == "rwcore.sharded.reader_unlock"));
    }
}
