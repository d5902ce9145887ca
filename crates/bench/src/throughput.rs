//! The contended lock lab's harness (the `perf_locks` experiment).
//!
//! Measures wall-clock passages/second and per-op latency of the
//! real-atomics locks under mixed read/write workloads. Contender sets
//! come from [`rwcore::LockRegistry`] — a lock registered there appears
//! here with no harness edits — and workload shapes come from the
//! [`Scenario`] DSL, the same strings the model-check suite consumes.
//!
//! The lock adapter trait is [`rwcore::RealLock`]. The external baseline is
//! `std::sync::RwLock` only: the workspace builds offline with zero
//! external dependencies, so the `parking_lot` contender was dropped.

use crate::hist::Histogram;
use ccsim::Prng;
use rwcore::Scenario;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub use rwcore::{RawAdapter, RealLock, StdAdapter};

/// How long a contended run lasts.
#[derive(Copy, Clone, Debug)]
pub enum OpBudget {
    /// Run until the wall clock expires (measurement mode).
    Duration(Duration),
    /// Run a fixed per-thread op count (deterministic smoke mode: with a
    /// fixed seed, every thread's read/write sequence — and therefore
    /// the total read/write counts — is reproducible).
    PerThreadOps(u64),
}

/// A symmetric contended workload driven by a [`Scenario`]: `threads`
/// identical threads, each deriving every per-op decision — the
/// read/write mix coin, burst repetition, churn yields — from the
/// scenario via a seeded per-thread [`Prng`]. Thread `t` acts as reader
/// id `t` *and* writer id `t` of the lock under test (sized for
/// `threads` readers and writers).
#[derive(Copy, Clone, Debug)]
pub struct MixedWorkload {
    /// OS thread count (after scenario oversubscription when built via
    /// [`MixedWorkload::from_scenario`]).
    pub threads: usize,
    /// The scenario the per-op decisions derive from.
    pub scenario: Scenario,
    /// Run length.
    pub budget: OpBudget,
    /// Pin thread `t` to CPU `t % ncpu` (best-effort; see [`crate::pin`]).
    pub pin: bool,
    /// Per-run RNG seed (thread `t` derives its stream from `seed + t`).
    pub seed: u64,
}

impl MixedWorkload {
    /// The real-harness derivation of a scenario: `base_threads` slots
    /// scaled by the scenario's oversubscription factor, everything else
    /// carried in the scenario itself. This is the bench-side half of
    /// the sim/real parity contract — the model-check suite derives its
    /// side from the *same* [`Scenario`] accessors.
    pub fn from_scenario(
        scenario: Scenario,
        base_threads: usize,
        budget: OpBudget,
        pin: bool,
        seed: u64,
    ) -> Self {
        MixedWorkload {
            threads: scenario.thread_count(base_threads),
            scenario,
            budget,
            pin,
            seed,
        }
    }
}

/// Result of one contended run: totals plus merged per-thread latency
/// histograms (nanoseconds per op, lock passage + tiny CS).
#[derive(Clone, Debug)]
pub struct ContendedSample {
    /// Lock label.
    pub lock: String,
    /// Thread count.
    pub threads: usize,
    /// Total read passages completed.
    pub reads: u64,
    /// Total write passages completed.
    pub writes: u64,
    /// Wall-clock duration of the measured region.
    pub elapsed: Duration,
    /// Read-op latency histogram (merged across threads).
    pub read_hist: Histogram,
    /// Write-op latency histogram (merged across threads).
    pub write_hist: Histogram,
    /// Whether every thread was successfully pinned.
    pub pinned: bool,
    /// The shard count the lock actually ran with ([`RealLock::effective_shards`]).
    pub shards: Option<usize>,
}

impl ContendedSample {
    /// Total passages / second.
    pub fn ops_per_sec(&self) -> f64 {
        (self.reads + self.writes) as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Read and write histograms merged (every cell has at least one op,
    /// so quantiles over this merged view always exist).
    pub fn merged_hist(&self) -> Histogram {
        let mut h = self.read_hist.clone();
        h.merge(&self.write_hist);
        h
    }
}

/// What one bench thread brings home.
struct ThreadTake {
    reads: u64,
    writes: u64,
    read_hist: Histogram,
    write_hist: Histogram,
    pinned: bool,
}

/// Run `wl` against `lock` once: all threads start together behind a
/// barrier, record per-op latencies into thread-local histograms, and
/// stop on the budget (a stop flag for [`OpBudget::Duration`], a local
/// countdown for [`OpBudget::PerThreadOps`]). The critical section is
/// tiny and the same for every lock: a read passage loads one shared
/// counter, a write passage increments it.
pub fn run_contended(lock: Arc<dyn RealLock>, wl: &MixedWorkload) -> ContendedSample {
    assert!(wl.threads > 0, "need at least one thread");
    let barrier = Arc::new(Barrier::new(wl.threads + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(AtomicU64::new(0));
    let ncpu = crate::par::host_cpus();

    let mut handles = Vec::with_capacity(wl.threads);
    for t in 0..wl.threads {
        let lock = Arc::clone(&lock);
        let barrier = Arc::clone(&barrier);
        let stop = Arc::clone(&stop);
        let shared = Arc::clone(&shared);
        let wl = *wl;
        handles.push(std::thread::spawn(move || {
            let pinned = if wl.pin {
                crate::pin::pin_to_cpu(t % ncpu).is_ok()
            } else {
                false
            };
            let mut rng = Prng::new(wl.seed.wrapping_add(t as u64));
            let mut take = ThreadTake {
                reads: 0,
                writes: 0,
                read_hist: Histogram::new(),
                write_hist: Histogram::new(),
                pinned,
            };
            barrier.wait();
            let quota = match wl.budget {
                OpBudget::PerThreadOps(n) => n,
                OpBudget::Duration(_) => u64::MAX,
            };
            let scenario = wl.scenario;
            let mut prev_read = None;
            while take.reads + take.writes < quota {
                if matches!(wl.budget, OpBudget::Duration(_)) && stop.load(Ordering::Relaxed) {
                    break;
                }
                // Burstiness first: with probability `burst`, repeat the
                // previous op's kind instead of drawing a fresh mix coin.
                let is_read = match prev_read {
                    Some(prev) if scenario.burst.fires(&mut rng) => prev,
                    _ => scenario.draw_read(&mut rng),
                };
                prev_read = Some(is_read);
                let t0 = Instant::now();
                if is_read {
                    lock.read_pass(t, &mut || {
                        std::hint::black_box(shared.load(Ordering::Relaxed));
                    });
                } else {
                    lock.write_pass(t, &mut || {
                        let v = shared.load(Ordering::Relaxed);
                        shared.store(v + 1, Ordering::Relaxed);
                    });
                }
                let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                if is_read {
                    take.read_hist.record(ns);
                    take.reads += 1;
                } else {
                    take.write_hist.record(ns);
                    take.writes += 1;
                }
                if scenario.churn.fires(&mut rng) {
                    std::thread::yield_now();
                }
            }
            take
        }));
    }

    barrier.wait();
    let start = Instant::now();
    if let OpBudget::Duration(d) = wl.budget {
        std::thread::sleep(d);
        stop.store(true, Ordering::Relaxed);
    }
    let mut sample = ContendedSample {
        lock: lock.label(),
        threads: wl.threads,
        reads: 0,
        writes: 0,
        elapsed: Duration::ZERO,
        read_hist: Histogram::new(),
        write_hist: Histogram::new(),
        pinned: wl.pin,
        shards: lock.effective_shards(),
    };
    for h in handles {
        let take = h.join().expect("bench thread panicked");
        sample.reads += take.reads;
        sample.writes += take.writes;
        sample.read_hist.merge(&take.read_hist);
        sample.write_hist.merge(&take.write_hist);
        sample.pinned &= take.pinned;
    }
    sample.elapsed = start.elapsed();
    sample
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwcore::{LockRegistry, RealShape};

    fn mixed_wl(scenario: &str, threads: usize, budget: OpBudget, seed: u64) -> MixedWorkload {
        MixedWorkload {
            threads,
            scenario: scenario.parse().unwrap(),
            budget,
            pin: false,
            seed,
        }
    }

    #[test]
    fn contended_run_completes_for_all_locks() {
        let wl = mixed_wl("r9:1", 2, OpBudget::PerThreadOps(200), 7);
        for lock in LockRegistry::builtin().real_locks(RealShape::symmetric(2).with_shards(2)) {
            let label = lock.label();
            let s = run_contended(lock, &wl);
            assert_eq!(s.reads + s.writes, 400, "{label}");
            assert_eq!(s.read_hist.count(), s.reads, "{label}");
            assert_eq!(s.write_hist.count(), s.writes, "{label}");
            assert!(s.merged_hist().quantile(0.99).is_some(), "{label}");
            assert!(!s.pinned, "{label}: pinning was not requested");
            if label == "a_f-sharded" {
                assert_eq!(s.shards, Some(2), "{label}: effective shards surface");
            } else {
                assert_eq!(s.shards, None, "{label}");
            }
        }
    }

    #[test]
    fn contended_op_mix_is_seed_deterministic() {
        let wl = mixed_wl("r99:1,churn=0.125", 3, OpBudget::PerThreadOps(300), 42);
        let a = run_contended(Arc::new(StdAdapter::default()), &wl);
        let b = run_contended(Arc::new(StdAdapter::default()), &wl);
        assert_eq!((a.reads, a.writes), (b.reads, b.writes));
        assert_eq!(a.reads + a.writes, 900);
    }

    #[test]
    fn contended_duration_budget_stops() {
        let wl = mixed_wl("r9:1", 2, OpBudget::Duration(Duration::from_millis(20)), 1);
        let s = run_contended(Arc::new(StdAdapter::default()), &wl);
        assert!(s.reads + s.writes > 0);
        assert!(s.elapsed >= Duration::from_millis(20));
    }

    #[test]
    fn burst_scenarios_complete() {
        let wl = mixed_wl("r3:1,burst=0.9", 2, OpBudget::PerThreadOps(200), 5);
        let s = run_contended(Arc::new(StdAdapter::default()), &wl);
        assert_eq!(s.reads + s.writes, 400);
        assert!(s.reads > 0 && s.writes > 0, "bursts keep the overall mix");
    }

    #[test]
    fn from_scenario_applies_oversubscription() {
        let wl = MixedWorkload::from_scenario(
            "r9:1,oversub=4".parse().unwrap(),
            2,
            OpBudget::PerThreadOps(10),
            false,
            3,
        );
        assert_eq!(wl.threads, 8);
        let plain = MixedWorkload::from_scenario(
            "r9:1".parse().unwrap(),
            2,
            OpBudget::PerThreadOps(10),
            false,
            3,
        );
        assert_eq!(plain.threads, 2);
    }
}
