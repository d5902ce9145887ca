//! Comparison counters: CAS retry loop and fetch-and-add.
//!
//! The f-array exists because a CAS retry loop has *unbounded* worst-case
//! step complexity under contention (an adversary can fail one process's
//! CAS forever), which would break the lock's Bounded Exit property.
//! Fetch-and-add solves that in `O(1)` — but FAA is outside the paper's
//! read/write/CAS operation set, which is exactly why the Ω(log) tradeoff
//! does not apply to FAA-based locks such as Bhatt–Jayanti (§6).

use std::sync::atomic::{AtomicI64, Ordering};

/// Operations shared by all counter implementations in this crate, so
/// benches can sweep over them uniformly.
pub trait SharedCounter: Send + Sync {
    /// Add `delta` on behalf of process `id`.
    fn add(&self, id: usize, delta: i64);
    /// Read the current value.
    fn read(&self) -> i64;
    /// A short human-readable implementation name.
    fn name(&self) -> &'static str;
}

impl SharedCounter for crate::FArray {
    fn add(&self, id: usize, delta: i64) {
        crate::FArray::add(self, id, delta);
    }
    fn read(&self) -> i64 {
        crate::FArray::read(self)
    }
    fn name(&self) -> &'static str {
        "f-array"
    }
}

/// A counter implemented as a single word updated by a CAS retry loop.
///
/// Lock-free but not wait-free: an individual `add` can starve under
/// contention, and its worst-case step count is unbounded — the property
/// the lower-bound adversary exploits against centralized locks.
#[derive(Debug, Default)]
pub struct CasCounter {
    value: AtomicI64,
}

impl CasCounter {
    /// A zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta`, retrying the CAS until it succeeds. Returns the number
    /// of attempts (1 = uncontended), which benches use as a contention
    /// metric.
    pub fn add_counting_attempts(&self, delta: i64) -> u64 {
        let mut attempts = 0;
        loop {
            attempts += 1;
            let cur = self.value.load(Ordering::SeqCst);
            if self
                .value
                .compare_exchange(cur, cur + delta, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return attempts;
            }
        }
    }
}

impl SharedCounter for CasCounter {
    fn add(&self, _id: usize, delta: i64) {
        self.add_counting_attempts(delta);
    }
    fn read(&self) -> i64 {
        self.value.load(Ordering::SeqCst)
    }
    fn name(&self) -> &'static str {
        "cas-loop"
    }
}

/// A counter implemented with hardware fetch-and-add: `O(1)` steps,
/// wait-free — but using an operation outside the paper's model.
#[derive(Debug, Default)]
pub struct FaaCounter {
    value: AtomicI64,
}

impl FaaCounter {
    /// A zero counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SharedCounter for FaaCounter {
    fn add(&self, _id: usize, delta: i64) {
        self.value.fetch_add(delta, Ordering::SeqCst);
    }
    fn read(&self) -> i64 {
        self.value.load(Ordering::SeqCst)
    }
    fn name(&self) -> &'static str {
        "fetch-add"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FArray;
    use std::sync::Arc;

    fn exercise(c: Arc<dyn SharedCounter>, threads: usize, per: i64) {
        let mut handles = Vec::new();
        for id in 0..threads {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..per {
                    c.add(id, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.read(), threads as i64 * per, "{}", c.name());
    }

    #[test]
    fn all_implementations_count_correctly() {
        exercise(Arc::new(CasCounter::new()), 4, 500);
        exercise(Arc::new(FaaCounter::new()), 4, 500);
        exercise(Arc::new(FArray::new(4)), 4, 500);
    }

    #[test]
    fn cas_counter_reports_attempts() {
        let c = CasCounter::new();
        assert_eq!(
            c.add_counting_attempts(1),
            1,
            "uncontended add takes one attempt"
        );
        assert_eq!(c.read(), 1);
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            SharedCounter::name(&CasCounter::new()),
            SharedCounter::name(&FaaCounter::new()),
            SharedCounter::name(&FArray::new(1)),
        ];
        assert_eq!(
            names.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );
    }
}
