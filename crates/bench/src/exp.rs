//! # exp — the registry-driven experiment framework
//!
//! Every experiment in this repo is a module implementing [`Experiment`]:
//! an `id` (the golden-file stem and CLI handle), a `title`, the paper
//! claim it reproduces, and a `run(&Ctx) -> Report`. A [`Report`] carries
//! *typed* content — captioned [`Table`] sections plus structured
//! [`Check`] records (claim, bound, measured, pass) — instead of ad-hoc
//! `println!`s and `assert!`s, so the same run can be rendered as the
//! human-readable text table or byte-diffed against the committed goldens
//! in `results/`.
//!
//! The registry lives in [`crate::experiments`]; the single `experiments`
//! binary drives it (`--list`, `--filter`, `--smoke`, `--check`,
//! `--bless`). One experiment runs standalone with
//! `experiments --filter <id>`, which prints its text report and exits
//! nonzero if any structured check fails.
//!
//! ## Modes and goldens
//!
//! Each experiment runs in one of two [`Mode`]s: `Full` (the complete
//! sweep behind the committed goldens) or `Smoke` (one small
//! configuration per experiment — seconds, not minutes — used by CI).
//! A run's one committed record is its text report: `results/<id>.txt`
//! for full mode and `results/smoke/<id>.txt` for smoke mode. `--check`
//! re-runs the experiment, renders the text report, and byte-diffs it
//! against the golden, exiting nonzero with a unified diff on any
//! drift; `--bless` regenerates the golden after an intentional change.
//! A report may also carry [`Artifact`]s, the replayable counterexample
//! traces of E15 and E17: `--bless` writes each into the results root
//! (`results/trace_<fingerprint>.txt`), and `--check` byte-compares it
//! with the committed file. No other run writes anything.
//!
//! Experiments whose *full* report contains wall-clock content (the
//! three `perf_*` experiments) opt out of the byte-diff for that mode
//! via [`Experiment::deterministic`]; `--check` still runs them, requires
//! every [`Check`] to pass, and requires their goldens to exist.

use crate::par;
use crate::Table;
use ccsim::Protocol;
use rwcore::{AfConfig, FPolicy};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Which configuration an experiment runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The complete sweep behind the committed `results/<id>.txt` goldens.
    Full,
    /// One small configuration per experiment (CI's smoke budget);
    /// gated against `results/smoke/<id>.txt`.
    Smoke,
}

impl Mode {
    /// Stable lowercase tag used in rendered reports.
    pub fn tag(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Smoke => "smoke",
        }
    }
}

/// Memoization key for [`Ctx::measure_af_batch`].
type AfKey = (usize, usize, String, String);

/// Shared run context handed to every experiment.
///
/// Besides the [`Mode`], it memoizes [`crate::measure_af`] results so
/// experiments that share a sweep (E2 and E3 both measure the standard
/// `(n, policy, protocol)` grid) pay for each configuration once per
/// `experiments` process instead of once per experiment.
#[derive(Debug)]
pub struct Ctx {
    mode: Mode,
    af_cache: Mutex<HashMap<AfKey, crate::AfRmrSample>>,
}

impl Ctx {
    /// A fresh context (empty measurement cache) for `mode`.
    pub fn new(mode: Mode) -> Self {
        Ctx {
            mode,
            af_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The run mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// True in smoke mode.
    pub fn smoke(&self) -> bool {
        self.mode == Mode::Smoke
    }

    /// [`crate::measure_af`] for every `(protocol, n, policy)` config,
    /// in input order — memoized across experiments and fanned out over
    /// [`par::par_map`] (in-order results keep tables byte-identical to
    /// a sequential run).
    pub fn measure_af_batch(
        &self,
        configs: &[(Protocol, usize, FPolicy)],
    ) -> Vec<crate::AfRmrSample> {
        let key = |&(p, n, policy): &(Protocol, usize, FPolicy)| -> AfKey {
            (n, 1, format!("{policy:?}"), format!("{p:?}"))
        };
        let todo: Vec<(Protocol, usize, FPolicy)> = {
            let cache = self.af_cache.lock().expect("af cache poisoned");
            let mut seen = HashSet::new();
            configs
                .iter()
                .filter(|c| !cache.contains_key(&key(c)) && seen.insert(key(c)))
                .copied()
                .collect()
        };
        let fresh = par::par_map(&todo, |&(protocol, n, policy)| {
            crate::measure_af(
                AfConfig {
                    readers: n,
                    writers: 1,
                    policy,
                },
                protocol,
            )
        });
        let mut cache = self.af_cache.lock().expect("af cache poisoned");
        for (cfg, sample) in todo.iter().zip(fresh) {
            cache.insert(key(cfg), sample);
        }
        configs.iter().map(|c| cache[&key(c)]).collect()
    }
}

/// One structured claim check: the paper claim being gated, the bound it
/// must satisfy, what this run measured, and whether it passed.
#[derive(Clone, Debug)]
pub struct Check {
    /// The claim under test, e.g. `"Lemma 17: writer RMR/f stays bounded"`.
    pub claim: String,
    /// The bound, rendered, e.g. `"<= 8.0"`.
    pub bound: String,
    /// The measured value, rendered, e.g. `"max 5.0"`.
    pub measured: String,
    /// Did the measurement satisfy the bound?
    pub pass: bool,
}

impl Check {
    /// A check from pre-rendered parts.
    pub fn new(
        claim: impl Into<String>,
        bound: impl Into<String>,
        measured: impl Into<String>,
        pass: bool,
    ) -> Self {
        Check {
            claim: claim.into(),
            bound: bound.into(),
            measured: measured.into(),
            pass,
        }
    }

    /// `measured <= limit` on an `f64`, rendered with one decimal.
    pub fn le_f64(claim: impl Into<String>, measured: f64, limit: f64) -> Self {
        Check::new(
            claim,
            format!("<= {limit:.1}"),
            format!("{measured:.1}"),
            measured <= limit,
        )
    }

    /// `measured <= limit` on a `u64`.
    pub fn le_u64(claim: impl Into<String>, measured: u64, limit: u64) -> Self {
        Check::new(
            claim,
            format!("<= {limit}"),
            measured.to_string(),
            measured <= limit,
        )
    }

    /// All of `ok` out of `total` cases must hold.
    pub fn all(claim: impl Into<String>, ok: usize, total: usize) -> Self {
        Check::new(
            claim,
            format!("{total}/{total} rows"),
            format!("{ok}/{total} rows"),
            ok == total,
        )
    }
}

/// A captioned table inside a report.
#[derive(Clone, Debug)]
pub struct Section {
    /// Caption printed above the table (e.g. `"WriteBack protocol"`).
    pub heading: String,
    /// The data.
    pub table: Table,
}

/// The structured result of one experiment run.
#[derive(Clone, Debug)]
pub struct Report {
    /// The experiment id (golden-file stem), e.g. `"e2_writer_rmr"`.
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Paper-claim reference.
    pub claim: String,
    /// The mode this report was produced under.
    pub mode: Mode,
    /// Captioned tables, in render order.
    pub sections: Vec<Section>,
    /// Structured claim checks.
    pub checks: Vec<Check>,
    /// Trailing prose ("expected shape" commentary).
    pub notes: String,
    /// Files the run produced beside its text, in the results root.
    pub artifacts: Vec<Artifact>,
}

/// A file a run produces beside its report, such as a replayable
/// counterexample trace. Only `--bless` writes it, and `--check`
/// requires the committed copy to match it byte for byte.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Artifact {
    /// File name under the results root, e.g. `trace_<fingerprint>.txt`.
    pub file_name: String,
    /// The rendered contents.
    pub text: String,
}

impl Report {
    /// An empty report carrying `exp`'s identity and `ctx`'s mode.
    pub fn new(exp: &dyn Experiment, ctx: &Ctx) -> Self {
        Report {
            id: exp.id(),
            title: exp.title().to_string(),
            claim: exp.claim().to_string(),
            mode: ctx.mode(),
            sections: Vec::new(),
            checks: Vec::new(),
            notes: String::new(),
            artifacts: Vec::new(),
        }
    }

    /// Append a captioned table.
    pub fn section(&mut self, heading: impl Into<String>, table: Table) -> &mut Self {
        self.sections.push(Section {
            heading: heading.into(),
            table,
        });
        self
    }

    /// Append a check.
    pub fn check(&mut self, check: Check) -> &mut Self {
        self.checks.push(check);
        self
    }

    /// Set the trailing prose.
    pub fn notes(&mut self, notes: impl Into<String>) -> &mut Self {
        self.notes = notes.into();
        self
    }

    /// True iff every [`Check`] passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Render the human-readable text form (the `.txt` golden).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.id, self.title);
        let _ = writeln!(out, "claim: {}", self.claim);
        let _ = writeln!(out, "mode: {}", self.mode.tag());
        for s in &self.sections {
            let _ = writeln!(out, "\n[{}]\n", s.heading);
            out.push_str(&s.table.render());
        }
        let _ = writeln!(out, "\n[checks]\n");
        for c in &self.checks {
            let _ = writeln!(
                out,
                "{}  {} | bound: {} | measured: {}",
                if c.pass { "PASS" } else { "FAIL" },
                c.claim,
                c.bound,
                c.measured
            );
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out);
            out.push_str(self.notes.trim_end());
            out.push('\n');
        }
        out
    }
}

/// One reproducible experiment behind the registry.
pub trait Experiment: Sync {
    /// Stable id: the CLI handle and the `results/` golden-file stem.
    fn id(&self) -> &'static str;
    /// One-line human title.
    fn title(&self) -> &'static str;
    /// The paper claim this experiment reproduces.
    fn claim(&self) -> &'static str;
    /// Whether the rendered report is byte-stable for `mode` (the
    /// `perf_*` experiments embed wall-clock numbers in full mode and
    /// return `false` there; everything else is exact RMR/state counts).
    fn deterministic(&self, mode: Mode) -> bool {
        let _ = mode;
        true
    }
    /// Run the experiment and produce its report.
    fn run(&self, ctx: &Ctx) -> Report;
}

// ---------------------------------------------------------------------------
// Golden gating
// ---------------------------------------------------------------------------

/// Default goldens directory, relative to the repo root.
pub const RESULTS_DIR: &str = "results";

/// Path of the text golden for `id` under `dir` in `mode`.
pub fn golden_txt_path(dir: &Path, mode: Mode, id: &str) -> PathBuf {
    match mode {
        Mode::Full => dir.join(format!("{id}.txt")),
        Mode::Smoke => dir.join("smoke").join(format!("{id}.txt")),
    }
}

/// Gate one report against its text golden under `dir`.
///
/// Returns one failure message per problem: a failed [`Check`], a
/// missing golden, or (for byte-stable reports) a unified diff of the
/// drift. `deterministic = false` skips the byte-diff but still
/// requires the golden to exist and every check to pass. Every
/// [`Artifact`] must match its committed copy under `dir` byte for
/// byte, whatever `deterministic` says.
pub fn check_against_goldens(report: &Report, deterministic: bool, dir: &Path) -> Vec<String> {
    let mut failures = Vec::new();
    for c in report.checks.iter().filter(|c| !c.pass) {
        failures.push(format!(
            "{}: CHECK FAILED: {} (bound: {}, measured: {})",
            report.id, c.claim, c.bound, c.measured
        ));
    }
    let path = golden_txt_path(dir, report.mode, report.id);
    match std::fs::read_to_string(&path) {
        Err(_) => failures.push(format!(
            "{}: missing golden {} — run `{}` to create it",
            report.id,
            path.display(),
            bless_command(report),
        )),
        Ok(_) if !deterministic => {} // presence is all we can gate
        Ok(golden) => {
            let rendered = report.render_text();
            if golden != rendered {
                failures.push(format!(
                    "{}: drift against {}\n{}",
                    report.id,
                    path.display(),
                    unified_diff(
                        &golden,
                        &rendered,
                        &format!("{} (golden)", path.display()),
                        &format!("{} (rendered)", report.id),
                    )
                ));
            }
        }
    }
    for artifact in &report.artifacts {
        let path = dir.join(&artifact.file_name);
        match std::fs::read_to_string(&path) {
            Err(_) => failures.push(format!(
                "{}: missing artifact {} — run `{}` to write it",
                report.id,
                path.display(),
                bless_command(report),
            )),
            Ok(committed) if committed == artifact.text => {}
            Ok(committed) => failures.push(format!(
                "{}: artifact drift against {}\n{}",
                report.id,
                path.display(),
                unified_diff(
                    &committed,
                    &artifact.text,
                    &format!("{} (committed)", path.display()),
                    &format!("{} (rendered)", artifact.file_name),
                )
            )),
        }
    }
    failures
}

/// The driver command that writes `report`'s golden and artifacts.
fn bless_command(report: &Report) -> String {
    let smoke = if report.mode == Mode::Smoke {
        " --smoke"
    } else {
        ""
    };
    format!("experiments --bless{smoke} --filter {}", report.id)
}

/// Write (or overwrite) the text golden for `report` under `dir`, then
/// each of its [`Artifact`]s in `dir`; returns the paths written, the
/// golden first.
pub fn bless(report: &Report, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let txt = golden_txt_path(dir, report.mode, report.id);
    if let Some(parent) = txt.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&txt, report.render_text())?;
    let mut written = vec![txt];
    for artifact in &report.artifacts {
        let path = dir.join(&artifact.file_name);
        std::fs::write(&path, &artifact.text)?;
        written.push(path);
    }
    Ok(written)
}

/// Line-based unified diff of `old` vs `new` (3 lines of context).
///
/// Empty string when the inputs are identical. LCS-based, quadratic —
/// goldens are a few hundred lines at most.
pub fn unified_diff(old: &str, new: &str, old_label: &str, new_label: &str) -> String {
    if old == new {
        return String::new();
    }
    let a: Vec<&str> = old.lines().collect();
    let b: Vec<&str> = new.lines().collect();
    // LCS lengths: lcs[i][j] = LCS of a[i..], b[j..].
    let mut lcs = vec![vec![0u32; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    // Edit script as (tag, a_index-or-b_index) with tags ' ', '-', '+'.
    let mut ops: Vec<(char, usize)> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] == b[j] {
            ops.push((' ', i));
            i += 1;
            j += 1;
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            ops.push(('-', i));
            i += 1;
        } else {
            ops.push(('+', j));
            j += 1;
        }
    }
    while i < a.len() {
        ops.push(('-', i));
        i += 1;
    }
    while j < b.len() {
        ops.push(('+', j));
        j += 1;
    }

    const CTX: usize = 3;
    // Indices into `ops` that must be shown (changes ± context).
    let mut keep = vec![false; ops.len()];
    for (k, &(tag, _)) in ops.iter().enumerate() {
        if tag != ' ' {
            let lo = k.saturating_sub(CTX);
            let hi = (k + CTX + 1).min(ops.len());
            keep[lo..hi].fill(true);
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "--- {old_label}");
    let _ = writeln!(out, "+++ {new_label}");
    // Walk kept runs as hunks, tracking line numbers in both files.
    let (mut a_line, mut b_line) = (0usize, 0usize); // 0-based next line
    let mut k = 0;
    while k < ops.len() {
        if !keep[k] {
            match ops[k].0 {
                ' ' => {
                    a_line += 1;
                    b_line += 1;
                }
                '-' => a_line += 1,
                '+' => b_line += 1,
                _ => unreachable!(),
            }
            k += 1;
            continue;
        }
        // Start of a hunk.
        let (a_start, b_start) = (a_line, b_line);
        let mut body = String::new();
        let (mut a_len, mut b_len) = (0usize, 0usize);
        while k < ops.len() && keep[k] {
            let (tag, idx) = ops[k];
            match tag {
                ' ' => {
                    let _ = writeln!(body, " {}", a[idx]);
                    a_line += 1;
                    b_line += 1;
                    a_len += 1;
                    b_len += 1;
                }
                '-' => {
                    let _ = writeln!(body, "-{}", a[idx]);
                    a_line += 1;
                    a_len += 1;
                }
                '+' => {
                    let _ = writeln!(body, "+{}", b[idx]);
                    b_line += 1;
                    b_len += 1;
                }
                _ => unreachable!(),
            }
            k += 1;
        }
        let _ = writeln!(
            out,
            "@@ -{},{a_len} +{},{b_len} @@",
            a_start + 1,
            b_start + 1
        );
        out.push_str(&body);
    }
    out
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Parsed options for the unified `experiments` driver binary.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CliOptions {
    /// `--list`: print the registry and exit.
    pub list: bool,
    /// `--smoke`: run (and gate) the smoke configurations.
    pub smoke: bool,
    /// `--check`: byte-diff rendered text reports against the goldens.
    pub check: bool,
    /// `--bless`: (re)write the text goldens from this run.
    pub bless: bool,
    /// `--filter a,b`: restrict to matching experiment ids.
    pub filters: Vec<String>,
    /// `--results-dir DIR`: goldens root (default `results/`).
    pub results_dir: Option<PathBuf>,
}

/// Usage string for the `experiments` driver.
pub const USAGE: &str = "\
usage: experiments [--list] [--filter <ids>] [--smoke] [--check] [--bless] [--results-dir <dir>]

  --list             list registered experiments (id, title, paper claim),
                     the lock registry, and the named workload scenarios
  --filter <ids>     comma-separated ids or id prefixes (e.g. e2,e15 or e2_writer_rmr)
  --smoke            one small config per experiment (CI budget); gates results/smoke/
  --check            byte-diff the text reports against the committed goldens;
                     exit nonzero with a unified diff on any drift or failed check
  --bless            regenerate the goldens (results/[smoke/]<id>.txt) and the
                     counterexample traces (results/trace_*.txt) from this run;
                     no other run writes a file
  --results-dir <d>  goldens root (default: results)";

/// Parse driver arguments (everything after the program name).
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => opts.list = true,
            "--smoke" => opts.smoke = true,
            "--check" => opts.check = true,
            "--bless" => opts.bless = true,
            "--filter" => {
                let v = it
                    .next()
                    .ok_or("--filter needs a value (e.g. --filter e2,e15)")?;
                opts.filters.extend(
                    v.split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty()),
                );
            }
            "--results-dir" => {
                let v = it.next().ok_or("--results-dir needs a path")?;
                opts.results_dir = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.check && opts.bless {
        return Err("--check and --bless are mutually exclusive".into());
    }
    Ok(opts)
}

/// Does `id` match a `--filter` token? The exact id, or a prefix ending
/// on a `_` boundary (`e2` and `e2_writer` match `e2_writer_rmr`; `e1`
/// does NOT match `e12_writer_starvation`).
pub fn filter_matches(id: &str, token: &str) -> bool {
    id == token || (id.starts_with(token) && id.as_bytes().get(token.len()) == Some(&b'_'))
}

/// The named scenarios the bench matrix runs: every preset from
/// [`rwcore::Scenario::named`] without fault pressure (real threads
/// cannot crash on cue; the fault presets drive the model-check suite
/// only).
pub fn bench_scenarios() -> Vec<rwcore::NamedScenario> {
    rwcore::Scenario::named()
        .into_iter()
        .filter(|n| !n.sim_only())
        .collect()
}

/// The lock × scenario grid the `perf_locks` lab measures for `reg`:
/// every real-capable lock under every bench scenario, in registry ×
/// preset order. A lock registered once in [`rwcore::LockRegistry`]
/// appears here with no further wiring — the bench surface of the
/// registration contract.
pub fn scenario_matrix(reg: &rwcore::LockRegistry) -> Vec<(String, String)> {
    let scenarios = bench_scenarios();
    reg.entries()
        .iter()
        .filter(|e| e.real.is_some())
        .flat_map(|e| {
            scenarios
                .iter()
                .map(move |s| (e.id.to_string(), s.name.to_string()))
        })
        .collect()
}

/// The locks whose uncontended passages the `perf_locks` lab times for
/// `reg`, each with its row label: `A_f` at 64 readers and 2 writers
/// under every [`FPolicy::NAMED`] policy (the paper's `f` tradeoff,
/// writer `Θ(f(n))` against reader `Θ(log(n/f(n)))`), then every
/// real-capable lock of `reg` at the same shape, in registry order.
/// Like [`scenario_matrix`], a lock registered once appears here with no
/// further wiring.
pub fn uncontended_locks(reg: &rwcore::LockRegistry) -> Vec<(String, Arc<dyn rwcore::RealLock>)> {
    let shape = rwcore::RealShape::new(64, 2);
    let policies = FPolicy::NAMED.into_iter().map(move |policy| {
        let lock = rwcore::RawAfLock::new(AfConfig {
            readers: shape.readers,
            writers: shape.writers,
            policy,
        });
        let lock: Arc<dyn rwcore::RealLock> = Arc::new(rwcore::RawAdapter::new(lock));
        (format!("a_f({policy})"), lock)
    });
    let registered = reg
        .real_locks(shape)
        .into_iter()
        .map(|lock| (lock.label(), lock));
    policies.chain(registered).collect()
}

/// Render the `--list` catalog: the experiment registry, the lock
/// registry (with which surfaces each lock reaches), and the named
/// scenarios with their DSL specs.
pub fn render_list(registry: &[Box<dyn Experiment>], locks: &rwcore::LockRegistry) -> String {
    let mut out = String::new();
    let mut t = Table::new(["id", "title", "paper claim"]);
    for e in registry {
        t.row([e.id(), e.title(), e.claim()]);
    }
    out.push_str(&t.render());

    out.push_str("\nlocks (rwcore::LockRegistry::builtin):\n");
    let mut t = Table::new(["lock", "real", "sim", "description"]);
    for e in locks.entries() {
        let mark = |b: bool| if b { "yes" } else { "-" };
        t.row([
            e.id,
            mark(e.real.is_some()),
            mark(e.sim.is_some()),
            e.summary,
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nscenarios (rwcore::Scenario DSL):\n");
    let mut t = Table::new(["scenario", "spec", "surfaces"]);
    for n in rwcore::Scenario::named() {
        t.row([
            n.name,
            n.spec,
            if n.sim_only() {
                "model-check suite only"
            } else {
                "perf_locks matrix + model-check suite"
            },
        ]);
    }
    out.push_str(&t.render());
    out
}

/// What a run without `--check` or `--bless` prints for `report` (its
/// text form), and its failure line if a structured check failed.
fn plain_run(report: &Report) -> (String, Option<String>) {
    let out = format!("{}\n", report.render_text());
    let failure = (!report.passed()).then(|| format!("{}: structured checks failed", report.id));
    (out, failure)
}

/// The unified driver: run experiments per `opts`; returns the process
/// exit code. Progress goes to stderr; reports/diffs go to stdout.
pub fn cli_main(opts: &CliOptions) -> i32 {
    let registry = crate::experiments::registry();
    if opts.list {
        print!(
            "{}",
            render_list(&registry, &rwcore::LockRegistry::builtin())
        );
        return 0;
    }
    let selected: Vec<&Box<dyn Experiment>> = registry
        .iter()
        .filter(|e| {
            opts.filters.is_empty() || opts.filters.iter().any(|f| filter_matches(e.id(), f))
        })
        .collect();
    if selected.is_empty() {
        eprintln!(
            "no experiment matches --filter {}; try --list",
            opts.filters.join(",")
        );
        return 2;
    }
    let mode = if opts.smoke { Mode::Smoke } else { Mode::Full };
    let ctx = Ctx::new(mode);
    let dir = opts
        .results_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from(RESULTS_DIR));
    let mut all_failures: Vec<String> = Vec::new();
    for exp in &selected {
        eprintln!("[experiments] running {} ({} mode)…", exp.id(), mode.tag());
        let t0 = std::time::Instant::now();
        let report = exp.run(&ctx);
        let secs = t0.elapsed().as_secs_f64();
        let deterministic = exp.deterministic(mode);
        if opts.check {
            let failures = check_against_goldens(&report, deterministic, &dir);
            let verdict = if failures.is_empty() {
                if deterministic {
                    "ok (goldens byte-identical, checks pass)"
                } else {
                    "ok (checks pass; byte-diff skipped: wall-clock content)"
                }
            } else {
                "FAILED"
            };
            println!("{:<24} {verdict}  [{secs:.1}s]", exp.id());
            all_failures.extend(failures);
        } else if opts.bless {
            match bless(&report, &dir) {
                Ok(paths) => {
                    for path in paths {
                        println!("blessed {}", path.display());
                    }
                }
                Err(e) => {
                    all_failures.push(format!("{}: bless failed: {e}", exp.id()));
                }
            }
            if !report.passed() {
                all_failures.push(format!(
                    "{}: blessed a report with FAILING checks — fix before committing",
                    exp.id()
                ));
            }
        } else {
            let (out, failure) = plain_run(&report);
            print!("{out}");
            all_failures.extend(failure);
        }
    }
    if all_failures.is_empty() {
        if opts.check {
            eprintln!(
                "[experiments] {} experiment(s) checked against {} — all clean",
                selected.len(),
                dir.display()
            );
        }
        return 0;
    }
    let combined = all_failures.join("\n");
    println!("\n{combined}");
    // Persist the diff for CI artifact upload.
    if opts.check {
        let diff_path =
            ccsim::env::read_nonempty("EXPERIMENTS_DIFF_OUT", "target/experiments-diff.txt");
        let diff_path = PathBuf::from(diff_path);
        let written = diff_path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&diff_path, &combined));
        match written {
            Ok(()) => eprintln!(
                "[experiments] failure report written to {}",
                diff_path.display()
            ),
            Err(e) => eprintln!(
                "[experiments] could not write the failure report to {}: {e}",
                diff_path.display()
            ),
        }
    }
    eprintln!("[experiments] {} failure(s)", all_failures.len());
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut table = Table::new(["n", "rmr"]);
        table.row(["8", "12"]).row(["16", "16"]);
        Report {
            id: "toy",
            title: "a toy".into(),
            claim: "Lemma 0".into(),
            mode: Mode::Full,
            sections: vec![Section {
                heading: "only".into(),
                table,
            }],
            checks: vec![Check::le_u64("rmr bounded", 16, 20)],
            notes: "Expected shape: flat.".into(),
            artifacts: Vec::new(),
        }
    }

    #[test]
    fn text_render_is_stable() {
        let r = sample_report();
        let s = r.render_text();
        assert!(s.starts_with("toy — a toy\nclaim: Lemma 0\nmode: full\n"));
        assert!(s.contains("[only]"));
        assert!(s.contains("PASS  rmr bounded | bound: <= 20 | measured: 16"));
        assert!(s.ends_with("Expected shape: flat.\n"));
    }

    #[test]
    fn a_failing_check_fails_a_plain_run() {
        let passing = sample_report();
        let mut failing = passing.clone();
        failing.check(Check::le_u64("impossible bound", 16, 1));
        let (out, failure) = plain_run(&passing);
        assert_eq!(failure, None);
        assert!(out.contains("rmr bounded"));
        let (out, failure) = plain_run(&failing);
        assert_eq!(failure.as_deref(), Some("toy: structured checks failed"));
        assert!(out.contains("impossible bound"));
    }

    #[test]
    fn unified_diff_empty_on_identical() {
        assert_eq!(unified_diff("a\nb\n", "a\nb\n", "x", "y"), "");
    }

    #[test]
    fn unified_diff_marks_single_cell_change() {
        let old = "h\n-\n1 2\n3 4\n5 6\n7 8\n9 10\n";
        let new = "h\n-\n1 2\n3 4\n5 XX\n7 8\n9 10\n";
        let d = unified_diff(old, new, "golden", "rendered");
        assert!(d.starts_with("--- golden\n+++ rendered\n"));
        assert!(d.contains("-5 6\n"));
        assert!(d.contains("+5 XX\n"));
        assert!(d.contains("@@ -2,6 +2,6 @@"), "{d}");
        // Context lines kept.
        assert!(d.contains(" 3 4\n"));
    }

    #[test]
    fn unified_diff_handles_additions_and_removals() {
        let d = unified_diff("a\n", "a\nb\n", "o", "n");
        assert!(d.contains("+b\n"));
        let d = unified_diff("a\nb\n", "b\n", "o", "n");
        assert!(d.contains("-a\n"));
    }

    #[test]
    fn args_parse_roundtrip() {
        let opts = parse_args(
            [
                "--smoke",
                "--check",
                "--filter",
                "e2,e15",
                "--results-dir",
                "rdir",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(opts.smoke && opts.check && !opts.bless && !opts.list);
        assert_eq!(opts.filters, ["e2", "e15"]);
        assert_eq!(opts.results_dir.as_deref(), Some(Path::new("rdir")));
        for unknown in ["--bogus", "--json"] {
            assert_eq!(
                parse_args([unknown.to_string()]),
                Err(format!("unknown argument {unknown:?}"))
            );
        }
        assert!(parse_args(["--check", "--bless"].map(String::from)).is_err());
    }

    #[test]
    fn filter_matching() {
        assert!(filter_matches("e2_writer_rmr", "e2"));
        assert!(filter_matches("e2_writer_rmr", "e2_writer_rmr"));
        assert!(filter_matches("e2_writer_rmr", "e2_writer"));
        assert!(filter_matches("perf_smoke", "perf"));
        assert!(!filter_matches("e2_writer_rmr", "e1"));
        assert!(!filter_matches("e12_writer_starvation", "e1"));
    }

    #[test]
    fn golden_paths_by_mode() {
        let d = Path::new("results");
        assert_eq!(
            golden_txt_path(d, Mode::Full, "e2"),
            Path::new("results/e2.txt")
        );
        assert_eq!(
            golden_txt_path(d, Mode::Smoke, "e2"),
            Path::new("results/smoke/e2.txt")
        );
    }
}
