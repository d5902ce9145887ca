//! # bench — the experiment harness
//!
//! Every experiment lives behind the registry in [`experiments`] (one
//! module per paper claim, all implementing [`exp::Experiment`]) and is
//! driven by the unified `experiments` binary — `--list`, `--filter`,
//! `--smoke`, `--check`, `--bless`; see [`exp`]. One
//! experiment runs standalone with `experiments --filter <id>`, and
//! it is the only program that times a real lock or counter.
//!
//! The experiment index (tested against the registry — see
//! `experiments::tests`):
//!
//! | id | claim |
//! |---|---|
//! | `e1_lower_bound` | Theorem 5 / Figure 1: `r = Θ(log₃(n/f))`, Lemma 2 & 4 |
//! | `e2_writer_rmr` | Lemma 17: writer passage `Θ(f(n))` RMRs |
//! | `e3_reader_rmr` | Lemma 17: reader passage `Θ(log(n/f))` RMRs |
//! | `e4_tradeoff` | Corollary 6: the writer×reader RMR frontier |
//! | `e5_properties` | Theorem 18: exhaustive + randomized property checks |
//! | `e6_mutex_rmr` | `WL` substrate: `Θ(log m)` RMRs |
//! | `e7_baselines` | §6: centralized CAS vs `A_f` vs FAA under the adversary |
//! | `e9_counter` | f-array: `add` `Θ(log K)` steps, `read` `O(1)` |
//! | `e10_concurrent_entering` | Concurrent Entering constant `b` |
//! | `e11_dsm` | §6 / Danek–Hadzilacos: the same locks under the DSM cost model |
//! | `e12_writer_starvation` | §6 fairness gap: writer time-to-CS under reader churn |
//! | `e13_counter_ablation` | Bounded Exit ablation: f-array vs CAS-loop counters |
//! | `e14_writer_bias` | extension: plain `A_f` vs the writer-biased (gated) variant |
//! | `e15_crash_robustness` | RME crash model: MX under crashes, recovery RMRs, stall diagnoses |
//! | `e16_abort` | abortable entry: amortized RMRs per withdrawal vs the O(1)-amortized cite |
//! | `e17_system_crash` | crash-all model: exhaustive safety, negative control, recovery-window RMRs |
//! | `perf_smoke` | simulator steps/sec: directory core vs reference core |
//! | `perf_modelcheck` | explorer states/sec: full-rehash vs incremental vs parallel |
//! | `perf_locks` | contended lock lab: sharded `A_f` vs the field, throughput + latency tails |
//!
//! (`e8`, real-hardware throughput and latency, lives in `perf_locks`:
//! contended runs under every scenario, then single-thread passages of
//! `A_f` under every `f` policy and of every registered lock; the real
//! counter timings of `e9` follow them there.)
//!
//! Sweep-shaped experiments fan their independent configs across cores
//! with [`par::par_map`]; results come back in input order, so rendered
//! reports are byte-identical to a sequential run (`BENCH_THREADS=1`
//! forces one) — the invariant the golden-file gate relies on.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod exp;
pub mod experiments;
pub mod hist;
pub mod par;
pub mod pin;
mod rmr;
mod table;
pub mod throughput;

pub use rmr::{
    measure_af, measure_concurrent_entering, measure_mutex, standard_sweep, AfRmrSample,
    MutexRmrSample,
};
pub use table::Table;

/// `log₃(x)` helper used when comparing against the paper's `3^j` bound.
pub fn log3(x: f64) -> f64 {
    x.ln() / 3f64.ln()
}

/// `log₂(x)` helper.
pub fn log2(x: f64) -> f64 {
    x.log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_helpers() {
        assert!((log3(27.0) - 3.0).abs() < 1e-9);
        assert!((log2(1024.0) - 10.0).abs() < 1e-9);
    }
}
