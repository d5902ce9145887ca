//! Layer probes of the traced run: the f-array counter and the writers'
//! tournament mutex under `T` threads, and the simulator's exact RMR
//! counts of `A_f` passages.

use crate::hist::Histogram;
use crate::locks::closed_loop;
use crate::report::Report;
use crate::trace::{SpanBuf, Tracer};
use ccsim::{run_round_robin, run_solo, ProcId, Protocol, RunConfig};
use fcounter::FArray;
use rwcore::{af_world, AfConfig, PidMap};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};
use wmutex::{IdMutex, TournamentLock};

/// Time 1 iteration in this many; the rest run untimed.
const TIME_EVERY: u64 = 16;

/// Spans a probe thread keeps for the span file.
const SPANS_PER_THREAD: usize = 2_048;

/// Per-call histograms of one probe, merged over its threads.
fn merged(parts: impl IntoIterator<Item = Vec<Histogram>>, n: usize) -> Vec<Histogram> {
    let mut all = vec![Histogram::default(); n];
    for part in parts {
        for (a, b) in all.iter_mut().zip(&part) {
            a.merge(b);
        }
    }
    all
}

/// Quantile `q` of raw call durations, less one timer reading.
fn quantile(h: &Histogram, q: f64, timer_ns: f64) -> f64 {
    h.quantile(q).unwrap_or(0.0) - timer_ns
}

/// `T` threads, each owning leaf `t` of one f-array, loop
/// `add(t, 1)`, `add(t, -1)`, `read()`. The sum must end at zero.
pub fn fcounter(threads: usize, len: Duration, tracer: &mut Tracer) -> Report {
    let (epoch, timer_ns) = (tracer.epoch, tracer.timer_ns);
    let counter = FArray::new(threads);
    let (takes, _) = closed_loop(threads, len, |t, gate| {
        let mut h = vec![Histogram::default(); 2];
        let mut buf = SpanBuf::new(t as u32, epoch, SPANS_PER_THREAD);
        let mut iters = 0u64;
        gate.wait();
        while gate.running() {
            iters += 1;
            if iters.is_multiple_of(TIME_EVERY) {
                let t0 = Instant::now();
                counter.add(t, 1);
                let t1 = Instant::now();
                counter.add(t, -1);
                let t2 = Instant::now();
                black_box(counter.read());
                let t3 = Instant::now();
                h[0].record((t1 - t0).as_nanos() as u64);
                h[0].record((t2 - t1).as_nanos() as u64);
                h[1].record((t3 - t2).as_nanos() as u64);
                buf.record_chain(
                    "fcounter.iteration",
                    &["fcounter.add", "fcounter.add", "fcounter.read"],
                    &[t0, t1, t2, t3],
                );
            } else {
                counter.add(t, 1);
                counter.add(t, -1);
                black_box(counter.read());
            }
        }
        (iters, h, buf)
    });
    let mut report = Report::default();
    let iters: u64 = takes.iter().map(|(n, _, _)| n).sum();
    let mut hs = Vec::new();
    for (_, h, mut buf) in takes {
        hs.push(h);
        buf.drain_into(&mut tracer.log);
    }
    let h = merged(hs, 2);
    let balanced = counter.read() == 0;
    report.ops(3 * iters, u64::from(!balanced));
    report.check(
        "fcounter: balanced adds leave the f-array at zero",
        balanced,
    );
    let n = h[0].count() as usize;
    report.metric(
        "fcounter.add_ns.p50",
        quantile(&h[0], 0.5, timer_ns),
        "ns",
        n,
    );
    report.metric(
        "fcounter.add_ns.p99",
        quantile(&h[0], 0.99, timer_ns),
        "ns",
        n,
    );
    report.metric(
        "fcounter.read_ns.p50",
        quantile(&h[1], 0.5, timer_ns),
        "ns",
        h[1].count() as usize,
    );
    report
}

/// `T` threads contend for one tournament lock; the critical section
/// bumps a counter with a plain load and store, so a lost update shows a
/// broken exclusion.
pub fn wmutex(threads: usize, len: Duration, tracer: &mut Tracer) -> Report {
    let (epoch, timer_ns) = (tracer.epoch, tracer.timer_ns);
    let lock = TournamentLock::new(threads);
    let shared = AtomicU64::new(0);
    let cs = || shared.store(shared.load(Relaxed) + 1, Relaxed);
    let (takes, _) = closed_loop(threads, len, |t, gate| {
        let mut h = vec![Histogram::default(); 2];
        let mut buf = SpanBuf::new(t as u32, epoch, SPANS_PER_THREAD);
        let mut passages = 0u64;
        gate.wait();
        while gate.running() {
            passages += 1;
            if passages.is_multiple_of(TIME_EVERY) {
                let t0 = Instant::now();
                lock.lock(t);
                let t1 = Instant::now();
                cs();
                let t2 = Instant::now();
                lock.unlock(t);
                let t3 = Instant::now();
                h[0].record((t1 - t0).as_nanos() as u64);
                h[1].record((t3 - t2).as_nanos() as u64);
                buf.record_chain(
                    "wmutex.passage",
                    &["wmutex.lock", "wmutex.cs", "wmutex.unlock"],
                    &[t0, t1, t2, t3],
                );
            } else {
                lock.lock(t);
                cs();
                lock.unlock(t);
            }
        }
        (passages, h, buf)
    });
    let mut report = Report::default();
    let passages: u64 = takes.iter().map(|(n, _, _)| n).sum();
    let mut hs = Vec::new();
    for (_, h, mut buf) in takes {
        hs.push(h);
        buf.drain_into(&mut tracer.log);
    }
    let h = merged(hs, 2);
    let exclusive = shared.load(Relaxed) == passages;
    report.ops(passages, u64::from(!exclusive));
    report.check("wmutex: no critical-section update was lost", exclusive);
    let n = h[0].count() as usize;
    report.metric(
        "wmutex.lock_ns.p50",
        quantile(&h[0], 0.5, timer_ns),
        "ns",
        n,
    );
    report.metric(
        "wmutex.lock_ns.p99",
        quantile(&h[0], 0.99, timer_ns),
        "ns",
        n,
    );
    report.metric(
        "wmutex.unlock_ns.p50",
        quantile(&h[1], 0.5, timer_ns),
        "ns",
        n,
    );
    report
}

/// Exact RMRs of `A_f` passages in the simulator, write-back caches,
/// `T` readers and `T` writers: a reader and a writer each running a
/// passage alone, and readers' mean per passage when every process runs
/// 8 passages round-robin.
pub fn rmr_counts(threads: usize) -> Report {
    let cfg = AfConfig::new(threads, threads);
    let mut report = Report::default();
    let solo = |pick: fn(&PidMap) -> ProcId| {
        let mut w = af_world(cfg, Protocol::WriteBack);
        let p = pick(&w.pids);
        let done = run_solo(&mut w.sim, p, 1_000_000, |s| s.stats(p).passages == 1).is_some();
        (done, w.sim.stats(p).rmrs() as f64)
    };
    let (reader_done, reader) = solo(|pids| pids.reader(0));
    let (writer_done, writer) = solo(|pids| pids.writer(0));
    let mut w = af_world(cfg, Protocol::WriteBack);
    let rc = RunConfig {
        passages_per_proc: 8,
        ..RunConfig::default()
    };
    let concurrent_ok = run_round_robin(&mut w.sim, &rc).is_ok();
    let (rmrs, passages) = w.pids.reader_pids().fold((0, 0), |(r, n), p| {
        let st = w.sim.stats(p);
        (r + st.rmrs(), n + st.passages)
    });
    let ok = reader_done && writer_done && concurrent_ok;
    report.ops(3, u64::from(!ok));
    report.check("ccsim: solo and round-robin A_f passages complete", ok);
    report.metric("ccsim.af_reader_solo_rmrs", reader, "count", 1);
    report.metric("ccsim.af_writer_solo_rmrs", writer, "count", 1);
    report.metric(
        "ccsim.af_reader_concurrent_rmrs",
        rmrs as f64 / passages.max(1) as f64,
        "count",
        1,
    );
    report
}
