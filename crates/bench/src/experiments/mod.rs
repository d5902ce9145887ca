//! # experiments — the registry of paper-claim experiments
//!
//! One module per experiment; [`registry`] returns them all in index
//! order. Every module implements [`crate::exp::Experiment`] and renders
//! its sweep as a structured [`crate::exp::Report`] — the text/JSON
//! goldens under `results/` are produced from these modules by the
//! `experiments` binary (see [`crate::exp`] for the `--check`/`--bless`
//! workflow).

use crate::exp::Experiment;

mod e10_concurrent_entering;
mod e11_dsm;
mod e12_writer_starvation;
mod e13_counter_ablation;
mod e14_writer_bias;
mod e15_crash_robustness;
mod e16_abort;
mod e17_system_crash;
mod e1_lower_bound;
mod e2_writer_rmr;
mod e3_reader_rmr;
mod e4_tradeoff;
mod e5_properties;
mod e6_mutex_rmr;
mod e7_baselines;
mod e9_counter;
mod perf_locks;
mod perf_modelcheck;
mod perf_smoke;
mod support;

/// Everything an experiment module needs, in one import.
pub(crate) mod prelude {
    pub(crate) use crate::exp::{Check, Ctx, Experiment, Mode, Report};
    pub(crate) use crate::par::par_map;
    pub(crate) use crate::{log2, log3, Table};
    pub(crate) use ccsim::Protocol;
    pub(crate) use rwcore::{AfConfig, FPolicy};
}

/// All registered experiments, in the index order used by `--list`,
/// EXPERIMENTS.md, and the doc table in [`crate`].
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(e1_lower_bound::E1),
        Box::new(e2_writer_rmr::E2),
        Box::new(e3_reader_rmr::E3),
        Box::new(e4_tradeoff::E4),
        Box::new(e5_properties::E5),
        Box::new(e6_mutex_rmr::E6),
        Box::new(e7_baselines::E7),
        Box::new(e9_counter::E9),
        Box::new(e10_concurrent_entering::E10),
        Box::new(e11_dsm::E11),
        Box::new(e12_writer_starvation::E12),
        Box::new(e13_counter_ablation::E13),
        Box::new(e14_writer_bias::E14),
        Box::new(e15_crash_robustness::E15),
        Box::new(e16_abort::E16),
        Box::new(e17_system_crash::E17),
        Box::new(perf_smoke::PerfSmoke),
        Box::new(perf_modelcheck::PerfModelcheck),
        Box::new(perf_locks::PerfLocks),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::Mode;

    #[test]
    fn ids_are_unique() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate experiment id");
    }

    #[test]
    fn every_registered_id_appears_in_lib_doc_table() {
        // Satellite guarantee: the experiment index table in the crate
        // docs (lib.rs) cannot drift from the registry again.
        let lib_src = include_str!("../lib.rs");
        for exp in registry() {
            let cell = format!("| `{}` |", exp.id());
            assert!(
                lib_src.contains(&cell),
                "experiment {:?} is missing from the doc table in bench/src/lib.rs",
                exp.id()
            );
        }
    }

    #[test]
    fn titles_and_claims_are_nonempty() {
        for exp in registry() {
            assert!(!exp.title().is_empty(), "{}: empty title", exp.id());
            assert!(!exp.claim().is_empty(), "{}: empty claim", exp.id());
        }
    }

    #[test]
    fn perf_experiments_are_nondeterministic_in_full_mode_only() {
        for exp in registry() {
            let is_perf = exp.id().starts_with("perf_");
            assert_eq!(
                exp.deterministic(Mode::Full),
                !is_perf,
                "{}: unexpected Full-mode determinism flag",
                exp.id()
            );
            assert!(
                exp.deterministic(Mode::Smoke),
                "{}: smoke reports must be byte-stable (CI gates them)",
                exp.id()
            );
        }
    }
}
