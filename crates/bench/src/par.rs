//! Dependency-free parallel sweep harness.
//!
//! The experiments sweep hundreds of independent
//! `(n, policy, protocol)` simulator configurations; each one is a pure
//! function of its config, so they fan out across cores with
//! [`std::thread::scope`] and a shared atomic work index — no external
//! thread-pool crate needed.
//!
//! Results are returned **in input order** regardless of which worker
//! finished first, so table output is byte-identical to a sequential
//! sweep. Set `BENCH_THREADS=1` to force a sequential run (or any other
//! value to cap the worker count below the detected parallelism).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Parse a `BENCH_THREADS` setting.
///
/// `None` (the variable is unset) means "use detected parallelism" and
/// returns `Ok(None)`. Anything else must be a positive decimal integer;
/// malformed values (`"abc"`, `"0x4"`, `""`) and zero are errors so a
/// typo'd cap fails loudly instead of silently falling back to hardware
/// parallelism — which would quietly void a `BENCH_THREADS=1` determinism
/// comparison.
pub fn parse_bench_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    let parsed = ccsim::env::parse_strict_uint("BENCH_THREADS", raw, false)?;
    Ok(parsed.map(|n| n as usize))
}

/// Worker threads to use for `n_items` independent jobs: detected
/// parallelism, capped by the `BENCH_THREADS` env var and by the job
/// count itself.
///
/// # Panics
/// Panics with a clear message if `BENCH_THREADS` is set to anything
/// other than a positive decimal integer (see [`parse_bench_threads`]).
pub fn worker_count(n_items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let raw = ccsim::env::raw_var("BENCH_THREADS");
    let cap = match parse_bench_threads(raw.as_deref()) {
        Ok(Some(n)) => n,
        Ok(None) => hw,
        Err(msg) => panic!("{msg}"),
    };
    cap.min(n_items.max(1))
}

/// Apply `f` to every item, fanning out across [`worker_count`] threads.
///
/// Equivalent to `items.iter().map(f).collect()` — same results, same
/// order — but wall-clock scales with the number of cores. Workers claim
/// items through a shared atomic counter (dynamic load balancing: a slow
/// config doesn't stall the queue behind it).
///
/// # Panics
/// Propagates a panic from any worker.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, worker_count(items.len()), f)
}

/// [`par_map`] with an explicit worker count (used by tests to exercise
/// the multi-worker path regardless of the host's core count).
pub fn par_map_with<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            buckets.push(h.join().expect("sweep worker panicked"));
        }
    });
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        results[i] = Some(r);
    }
    results
        .into_iter()
        .map(|o| o.expect("worker pool dropped an item"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn multi_worker_results_match_sequential() {
        let items: Vec<usize> = (0..311).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * x + 1).collect();
        for workers in [2, 3, 8, 400] {
            let out = par_map_with(&items, workers, |&x| x * x + 1);
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_matches_sequential_for_stateful_jobs() {
        // Each job seeds its own Prng from the item — independence is the
        // contract that makes the sweep parallelizable.
        let seeds: Vec<u64> = (0..64).collect();
        let run = |&s: &u64| {
            let mut rng = ccsim::Prng::new(s);
            (0..100).map(|_| rng.below(1000) as u64).sum::<u64>()
        };
        assert_eq!(
            par_map_with(&seeds, 4, run),
            seeds.iter().map(run).collect::<Vec<_>>()
        );
    }

    #[test]
    fn worker_count_is_positive_and_capped() {
        assert_eq!(worker_count(0), 1);
        assert!(worker_count(4) >= 1);
        assert!(worker_count(2) <= 2);
    }

    #[test]
    fn bench_threads_unset_uses_hardware() {
        assert_eq!(parse_bench_threads(None), Ok(None));
    }

    #[test]
    fn bench_threads_accepts_positive_decimals() {
        assert_eq!(parse_bench_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_bench_threads(Some("4")), Ok(Some(4)));
        assert_eq!(parse_bench_threads(Some("128")), Ok(Some(128)));
    }

    #[test]
    fn bench_threads_rejects_zero() {
        let err = parse_bench_threads(Some("0")).unwrap_err();
        assert!(err.contains("BENCH_THREADS"), "{err}");
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn bench_threads_rejects_malformed_values() {
        for bad in ["abc", "0x4", "", " 4", "4 ", "-1", "3.5", "four"] {
            let err =
                parse_bench_threads(Some(bad)).expect_err(&format!("{bad:?} should be rejected"));
            assert!(err.contains("BENCH_THREADS"), "{bad:?}: {err}");
            assert!(
                err.contains(bad.trim()) || bad.trim().is_empty(),
                "{bad:?}: {err}"
            );
        }
    }
}
