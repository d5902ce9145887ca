//! Shared helpers: latency measurement for the starvation experiments
//! (E12/E14) and counterexample traces for the crash experiments
//! (E15/E17).

use crate::exp::{Artifact, RESULTS_DIR};
use ccsim::{Phase, Prng, ProcId, Sim, Step};
use modelcheck::TraceArtifact;
use rwcore::PidMap;
use std::path::Path;

/// The report cell naming `trace`'s committed file, and the rendered
/// trace for the report to carry (`--bless` writes it to that file).
pub(crate) fn trace_cell(trace: &TraceArtifact) -> (String, Artifact) {
    let file_name = trace.file_name();
    let cell = format!(
        "trace: {}",
        Path::new(RESULTS_DIR).join(&file_name).display()
    );
    let text = trace.render();
    (cell, Artifact { file_name, text })
}

/// Scheduler steps until the writer first enters the CS while `active`
/// readers cycle passages non-stop under a uniformly random scheduler.
/// `None` = still locked out after `budget` steps (starved).
pub(crate) fn writer_latency(
    sim: &mut Sim,
    pids: &PidMap,
    active: usize,
    seed: u64,
    budget: u64,
) -> Option<u64> {
    let mut rng = Prng::new(seed);
    let readers: Vec<ProcId> = pids.reader_pids().take(active).collect();
    let writer = pids.writer(0);
    let participants: Vec<ProcId> = readers
        .iter()
        .copied()
        .chain(std::iter::once(writer))
        .collect();
    for t in 0..budget {
        if sim.phase(writer) == Phase::Cs {
            return Some(t);
        }
        let p = participants[rng.below(participants.len())];
        // Readers cycle forever; the writer keeps trying its one passage.
        match sim.poll(p) {
            Step::Remainder if p == writer && sim.stats(writer).passages > 0 => continue,
            _ => {
                sim.step(p);
            }
        }
        sim.check_mutual_exclusion().expect("MX holds throughout");
    }
    None
}

/// Render the median of latency samples (`"STARVED"` when the median
/// run never reached the CS). Sorts in place; `None` sorts first.
pub(crate) fn median(samples: &mut [Option<u64>]) -> String {
    samples.sort();
    render(samples[samples.len() / 2])
}

/// Render the worst (largest / most-starved) latency sample.
pub(crate) fn worst(samples: &mut [Option<u64>]) -> String {
    samples.sort();
    render(*samples.last().expect("at least one sample"))
}

fn render(sample: Option<u64>) -> String {
    match sample {
        Some(v) => v.to_string(),
        None => "STARVED".to_string(),
    }
}
