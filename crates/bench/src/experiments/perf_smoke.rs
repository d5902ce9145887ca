//! perf_smoke — simulator steps/sec of the directory-based coherence
//! core ([`ccsim::Memory`]) vs the preserved map-based core
//! ([`ccsim::reference::RefMemory`]), on a fixed seeded write-heavy
//! workload. The two cores are cross-checked step by step while timing
//! (RMR checksums must agree), so the published number is for a
//! verified-equivalent simulation.
//!
//! Full mode reports wall-clock steps/sec, the best of a few samples on
//! one thread, with the host's CPU count and the sample count in a note
//! (inherently non-reproducible: [`Experiment::deterministic`] is false,
//! so `--check` gates the checks and golden presence but not the bytes).
//! Smoke mode drops the timings and reports only the deterministic RMR
//! checksums.

use super::prelude::*;
use ccsim::reference::RefMemory;
use ccsim::{Layout, Memory, Op, Prng, ProcId, Value};
use std::time::Instant;

const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const WRITE_PERCENT: usize = 80;

struct Workload {
    n_procs: usize,
    n_vars: usize,
    steps: usize,
    samples: usize,
}

impl Workload {
    fn for_mode(mode: Mode) -> Self {
        match mode {
            Mode::Full => Workload {
                n_procs: 1024,
                n_vars: 64,
                steps: 100_000,
                samples: 3,
            },
            Mode::Smoke => Workload {
                n_procs: 64,
                n_vars: 16,
                steps: 10_000,
                samples: 1,
            },
        }
    }

    /// The fixed workload: `(process, op)` pairs, pre-generated so the
    /// PRNG cost is not timed.
    fn ops(&self, vars: &[ccsim::VarId]) -> Vec<(ProcId, Op)> {
        let mut rng = Prng::new(SEED);
        (0..self.steps)
            .map(|_| {
                let p = ProcId(rng.below(self.n_procs));
                let v = vars[rng.below(vars.len())];
                let op = if rng.below(100) < WRITE_PERCENT {
                    Op::write(v, rng.int_in(0, 1 << 20))
                } else {
                    Op::Read(v)
                };
                (p, op)
            })
            .collect()
    }
}

fn protocol_name(p: Protocol) -> &'static str {
    match p {
        Protocol::WriteThrough => "WriteThrough",
        Protocol::WriteBack => "WriteBack",
        Protocol::Dsm => "Dsm",
    }
}

/// Registry entry for the coherence-core throughput smoke test.
pub(crate) struct PerfSmoke;

impl Experiment for PerfSmoke {
    fn id(&self) -> &'static str {
        "perf_smoke"
    }

    fn title(&self) -> &'static str {
        "coherence-core steps/sec: directory vs reference"
    }

    fn claim(&self) -> &'static str {
        "PR-1 perf floor: the directory core is >= 3x the map-based reference at n=1024 write-heavy (write-back)"
    }

    fn deterministic(&self, mode: Mode) -> bool {
        // Full mode renders wall-clock steps/sec; smoke renders only the
        // deterministic RMR checksums.
        mode == Mode::Smoke
    }

    fn run(&self, ctx: &Ctx) -> Report {
        let w = Workload::for_mode(ctx.mode());
        let mut layout = Layout::new();
        let vars: Vec<_> = (0..w.n_vars)
            .map(|i| layout.var(format!("v{i}"), Value::Int(0)))
            .collect();
        let ops = w.ops(&vars);

        // Best-of-samples steps/sec; the checksum folds every RMR bit so
        // a single divergent step changes it.
        fn best_of(samples: usize, steps: usize, mut run: impl FnMut() -> u64) -> (f64, u64) {
            let mut best = f64::INFINITY;
            let mut checksum = 0u64;
            for _ in 0..samples {
                let start = Instant::now();
                checksum = run();
                best = best.min(start.elapsed().as_secs_f64());
            }
            (steps as f64 / best, checksum)
        }

        let mut rows = Vec::new();
        for protocol in [Protocol::WriteBack, Protocol::WriteThrough, Protocol::Dsm] {
            let (ref_sps, ref_sum) = best_of(w.samples, w.steps, || {
                let mut m = RefMemory::new(&layout, w.n_procs, protocol);
                let mut sum = 0u64;
                for (p, op) in &ops {
                    let out = m.apply(*p, op);
                    sum = sum.wrapping_add(out.rmr as u64).wrapping_mul(3);
                }
                sum
            });
            let (dir_sps, dir_sum) = best_of(w.samples, w.steps, || {
                let mut m = Memory::new(&layout, w.n_procs, protocol);
                let mut sum = 0u64;
                for (p, op) in &ops {
                    let out = m.apply(*p, op);
                    sum = sum.wrapping_add(out.rmr as u64).wrapping_mul(3);
                }
                sum
            });
            rows.push((protocol, ref_sps, dir_sps, ref_sum, dir_sum));
        }

        let mut report = Report::new(self, ctx);
        let mut table = if ctx.smoke() {
            Table::new(["protocol", "rmr checksum (both cores)"])
        } else {
            Table::new([
                "protocol",
                "reference steps/s",
                "directory steps/s",
                "speedup",
            ])
        };
        let mut checksums_agree = 0usize;
        for &(protocol, ref_sps, dir_sps, ref_sum, dir_sum) in &rows {
            checksums_agree += usize::from(ref_sum == dir_sum);
            if ctx.smoke() {
                table.row([
                    protocol_name(protocol).to_string(),
                    format!("{dir_sum:#018x}"),
                ]);
            } else {
                table.row([
                    protocol_name(protocol).to_string(),
                    format!("{ref_sps:.0}"),
                    format!("{dir_sps:.0}"),
                    format!("{:.1}x", dir_sps / ref_sps),
                ]);
            }
        }
        report.section(
            format!(
                "n_procs={} n_vars={} steps={} write%={WRITE_PERCENT} seed={SEED:#x}",
                w.n_procs, w.n_vars, w.steps
            ),
            table,
        );
        report.check(Check::all(
            "directory and reference cores agree on every RMR (checksums equal)",
            checksums_agree,
            rows.len(),
        ));
        if !ctx.smoke() {
            let wb_speedup = rows[0].2 / rows[0].1;
            report.check(Check::new(
                "write-back directory speedup holds the 3x floor",
                ">= 3.0x",
                format!("{wb_speedup:.2}x"),
                wb_speedup >= 3.0,
            ));
            report.notes(format!(
                "Host: {} CPUs; one thread; steps/s is the best of {} samples per core and protocol.",
                crate::par::host_cpus(),
                w.samples
            ));
        }
        report
    }
}
