//! # perfbench — the repository benchmark
//!
//! Three seeded workloads (see `README.md` next to this crate):
//!
//! - `table2-t1` — the paper's Table 2 in miniature: 12 programs ×
//!   {2cs, 2obj, 3obj, 2type, 3type} × {alloc-site, Mahjong} at scale 2,
//!   one solver thread (the per-pop driver);
//! - `table2-t2` — the same 120 cells at two threads (the level-batch
//!   driver with parallel propagate/merge);
//! - `premerge` — the Mahjong pre-analysis (CI → FPG → merge) of the 12
//!   programs at scale 16, each merge consumed by one M-ci cell.
//!
//! Every layer is timed from outside, around the calls into its public
//! entry points: `jir::parse`, `pta::AnalysisConfig::run`,
//! `FieldPointsToGraph::from_analysis`, `merge_equivalent_objects` and
//! `ClientMetrics::compute`. Every answer is checked against the
//! recorded expectations in `expected/`.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use bench::Sensitivity;
use clients::ClientMetrics;
use jir::{MethodId, Program};
use mahjong::{FieldPointsToGraph, MahjongConfig, MahjongOutput};
use pta::{
    AllocSiteAbstraction, AnalysisConfig, AnalysisResult, Budget, CallSiteSensitive,
    ContextInsensitive, HeapAbstraction, ObjectSensitive, TypeSensitive, Unscalable,
};

/// The benchmark programs, in the paper's reporting order.
pub const PROGRAMS: [&str; 12] = workloads::dacapo::PROGRAMS;

/// Number of distinct input sets: `--seed n` selects input set
/// `n % INPUT_SETS`, and `expected/` holds the answers of every set.
pub const INPUT_SETS: u64 = 10;

/// Default per-solver-call budget: far above the slowest cell
/// (eclipse 2cs alloc-site, about 5 s at scale 2).
pub const DEFAULT_BUDGET: Duration = Duration::from_secs(30);

/// `setup_s` is the median of up to this many parse rounds.
pub const SETUP_SAMPLES: usize = 5;

/// Parse rounds stop early once they add up to this many seconds.
pub const SETUP_SAMPLE_SECS: f64 = 2.0;

/// A program's pre-analysis is sampled once per pass plus once after
/// each of its cells, until the samples add up to this many seconds.
pub const PRE_SAMPLE_SECS: f64 = 0.5;

/// A heap abstraction of the main analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Heap {
    /// One object per allocation site (the paper's `kA`).
    AllocSite,
    /// The Mahjong merged-object map (the paper's `M-kA`).
    Mahjong,
}

impl Heap {
    /// Short name used in answers and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Heap::AllocSite => "alloc",
            Heap::Mahjong => "mahjong",
        }
    }
}

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table 2 at one solver thread.
    Table2T1,
    /// Table 2 at two solver threads.
    Table2T2,
    /// The pre-analysis of large programs.
    Premerge,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Table2T1, Workload::Table2T2, Workload::Premerge];

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2T1 => "table2-t1",
            Workload::Table2T2 => "table2-t2",
            Workload::Premerge => "premerge",
        }
    }

    /// Solver and merge threads.
    pub fn threads(self) -> usize {
        match self {
            Workload::Table2T1 => 1,
            Workload::Table2T2 | Workload::Premerge => 2,
        }
    }

    /// Program scale factor.
    pub fn scale(self) -> usize {
        match self {
            Workload::Table2T1 | Workload::Table2T2 => 2,
            Workload::Premerge => 16,
        }
    }

    /// The main-analysis cells run per program, after its pre-analysis.
    pub fn cells(self) -> Vec<(Sensitivity, Heap)> {
        match self {
            Workload::Table2T1 | Workload::Table2T2 => Sensitivity::TABLE2
                .iter()
                .flat_map(|&a| [(a, Heap::AllocSite), (a, Heap::Mahjong)])
                .collect(),
            Workload::Premerge => vec![(Sensitivity::Ci, Heap::Mahjong)],
        }
    }

    /// Units counted per program: cells on `table2-*`, the whole
    /// program on `premerge`.
    fn units_per_program(self) -> usize {
        match self {
            Workload::Table2T1 | Workload::Table2T2 => self.cells().len(),
            Workload::Premerge => 1,
        }
    }

    /// Stem of the expected-answer files; both `table2-*` workloads
    /// share one, since their answers must agree.
    pub fn answers_stem(self) -> &'static str {
        match self {
            Workload::Table2T1 | Workload::Table2T2 => "table2",
            Workload::Premerge => "premerge",
        }
    }
}

/// The input set a `--seed` selects.
pub fn input_seed(seed: u64) -> u64 {
    seed % INPUT_SETS
}

/// The `.jir` text of one benchmark program. Input seed 0 gives the
/// named program of `workloads::dacapo`; other seeds re-seed its
/// profile and keep its size parameters.
pub fn program_text(name: &str, scale: usize, input_seed: u64) -> String {
    let mut profile = workloads::dacapo::profile(name, scale);
    profile.seed ^= input_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    workloads::generate(&profile).program.to_string()
}

/// A workload's inputs as text, generated before any timing starts.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// `(program name, .jir text)` in run order.
    pub programs: Vec<(String, String)>,
}

impl Inputs {
    /// Generates the named programs of a workload for one input seed.
    pub fn generate(workload: Workload, input_seed: u64, names: &[&str]) -> Inputs {
        Inputs {
            programs: names
                .iter()
                .map(|&n| (n.to_owned(), program_text(n, workload.scale(), input_seed)))
                .collect(),
        }
    }

    /// Total text size in bytes.
    pub fn bytes(&self) -> usize {
        self.programs.iter().map(|(_, t)| t.len()).sum()
    }
}

/// Runs one analysis through `pta::AnalysisConfig::run`.
pub fn solve<H: HeapAbstraction>(
    program: &Program,
    analysis: Sensitivity,
    heap: H,
    budget: Budget,
    threads: usize,
) -> Result<AnalysisResult, Unscalable> {
    fn go<S: pta::ContextSelector, H: HeapAbstraction>(
        selector: S,
        heap: H,
        program: &Program,
        budget: Budget,
        threads: usize,
    ) -> Result<AnalysisResult, Unscalable> {
        AnalysisConfig::new(selector, heap)
            .budget(budget)
            .threads(threads)
            .run(program)
    }
    match analysis {
        Sensitivity::Ci => go(ContextInsensitive, heap, program, budget, threads),
        Sensitivity::Cs(k) => go(CallSiteSensitive::new(k), heap, program, budget, threads),
        Sensitivity::Obj(k) => go(ObjectSensitive::new(k), heap, program, budget, threads),
        Sensitivity::Type(k) => go(TypeSensitive::new(k), heap, program, budget, threads),
    }
}

/// Reachable methods of a result, sorted.
pub fn reachable_methods(program: &Program, result: &AnalysisResult) -> Vec<MethodId> {
    (0..program.method_count())
        .map(MethodId::from_usize)
        .filter(|&m| result.is_reachable(m))
        .collect()
}

/// The answer line of one main-analysis cell: the Table 2 client
/// columns, the reachable method contexts, and the canonical
/// fingerprint of the whole result.
pub fn cell_answer(
    name: &str,
    analysis: Sensitivity,
    heap: Heap,
    metrics: &ClientMetrics,
    program: &Program,
    result: &AnalysisResult,
) -> String {
    format!(
        "cell\t{name}\t{}\t{}\tfail_casts={}\tpoly={}\tcg_edges={}\tmethod_contexts={}\tfingerprint={:#018x}",
        analysis.name(),
        heap.name(),
        metrics.may_fail_casts,
        metrics.poly_call_sites,
        metrics.call_graph_edges,
        result.reachable_context_count(),
        bench::serve::canonical_fingerprint(program, result),
    )
}

/// The answer line of one program's pre-analysis.
pub fn pre_answer(name: &str, fpg_edges: usize, stats: &mahjong::MahjongStats) -> String {
    format!(
        "pre\t{name}\tobjects={}\tedges={fpg_edges}\tmerged={}",
        stats.objects, stats.merged_objects
    )
}

/// The identifying prefix of an answer line: its fields without `=`.
fn answer_key(line: &str) -> String {
    line.split('\t')
        .filter(|f| !f.contains('='))
        .collect::<Vec<_>>()
        .join("\t")
}

/// Recorded answers of one input set, keyed by unit.
#[derive(Clone, Debug, Default)]
pub struct Expected {
    lines: BTreeMap<String, String>,
}

impl Expected {
    /// Parses an answer file: one answer per line; `#` lines and blank
    /// lines are ignored.
    pub fn parse(text: &str) -> Expected {
        let lines = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|l| (answer_key(l), l.to_owned()))
            .collect();
        Expected { lines }
    }

    /// Where the answers of a workload's input set live.
    pub fn path(workload: Workload, input_seed: u64) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("expected")
            .join(format!("{}-s{input_seed}.tsv", workload.answers_stem()))
    }

    /// Loads the answers of a workload's input set.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be read.
    pub fn load(workload: Workload, input_seed: u64) -> Result<Expected, String> {
        let path = Expected::path(workload, input_seed);
        std::fs::read_to_string(&path)
            .map(|t| Expected::parse(&t))
            .map_err(|e| format!("cannot read expected answers {}: {e}", path.display()))
    }

    /// Checks one answer: `Ok` when it equals the recorded line for its
    /// unit, otherwise a message naming what was expected.
    ///
    /// # Errors
    ///
    /// Returns the mismatch description.
    pub fn check(&self, answer: &str) -> Result<(), String> {
        match self.lines.get(&answer_key(answer)) {
            Some(want) if want == answer => Ok(()),
            Some(want) => Err(format!("wrong answer\n  got:  {answer}\n  want: {want}")),
            None => Err(format!("no recorded answer for `{}`", answer_key(answer))),
        }
    }
}

/// One recorded span: a call into a layer, or the whole pass.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Layer span name (`jir.parse`, `pta.ci`, …) or `bench.pass`.
    pub name: &'static str,
    /// Unit the span worked for: a program, or `program/analysis/heap`
    /// for a cell. Empty for the pass.
    pub unit: String,
    /// Index of the parent span (`None` for the pass).
    pub parent: Option<usize>,
    /// Seconds since the pass started.
    pub start: f64,
    /// Seconds since the pass started.
    pub end: f64,
}

/// Layer clock of one pass: per-layer busy time always, spans only when
/// tracing.
#[derive(Debug)]
struct Clock {
    origin: Instant,
    trace: bool,
    spans: Vec<SpanRec>,
    busy: BTreeMap<&'static str, f64>,
}

impl Clock {
    fn new(trace: bool) -> Clock {
        let mut spans = Vec::new();
        if trace {
            spans.push(SpanRec {
                name: "bench.pass",
                unit: String::new(),
                parent: None,
                start: 0.0,
                end: 0.0,
            });
        }
        Clock {
            origin: Instant::now(),
            trace,
            spans,
            busy: BTreeMap::new(),
        }
    }

    fn time<T>(&mut self, name: &'static str, unit: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        *self.busy.entry(name).or_default() += (end - start).as_secs_f64();
        if self.trace {
            self.spans.push(SpanRec {
                name,
                unit: unit.to_owned(),
                parent: Some(0),
                start: (start - self.origin).as_secs_f64(),
                end: (end - self.origin).as_secs_f64(),
            });
        }
        out
    }

    fn busy(&self, name: &str) -> f64 {
        self.busy.get(name).copied().unwrap_or(0.0)
    }

    fn pre_secs(&self) -> f64 {
        self.busy("pta.ci") + self.busy("mahjong.fpg") + self.busy("mahjong.merge")
    }
}

/// One main-analysis cell of a pass.
#[derive(Clone, Debug)]
pub struct CellRow {
    /// Program name.
    pub program: String,
    /// Analysis name.
    pub analysis: String,
    /// Heap name.
    pub heap: &'static str,
    /// Solver seconds (`None` when the budget ran out).
    pub secs: Option<f64>,
    /// The solver's worklist pops.
    pub worklist_pops: u64,
    /// The solver's full SCC sweeps.
    pub collapse_sweeps: u64,
    /// The solver's peak physical points-to words.
    pub pts_peak_words: u64,
}

/// Solver counters summed over every solver call of a pass (the CI
/// pre-analyses and the main cells).
#[derive(Clone, Debug, Default)]
pub struct SolverSums {
    /// `init_time`.
    pub init: Duration,
    /// `fixpoint_time`.
    pub fixpoint: Duration,
    /// `finalize_time`.
    pub finalize: Duration,
    /// `intern_probe_ns` (seal sweeps).
    pub seal_ns: u64,
    /// `pts_dedup_hits`.
    pub dedup_hits: u64,
    /// `pts_interned`.
    pub interned: u64,
    /// `collapse_sweeps`.
    pub collapse_sweeps: u64,
    /// `wave_rounds`.
    pub wave_rounds: u64,
    /// `scc_collapsed_ptrs`.
    pub scc_collapsed_ptrs: u64,
    /// `worklist_pops`.
    pub worklist_pops: u64,
    /// `propagated_objects`.
    pub propagated_objects: u64,
    /// `copy_edges`.
    pub copy_edges: u64,
    /// `reachable_context_count()`.
    pub method_contexts: u64,
    /// `object_count()`.
    pub objects: u64,
    /// Largest `pts_peak_words`.
    pub pts_peak_words_max: u64,
    /// `wave_barrier_ns`.
    pub barrier_ns: u64,
    /// `par_shards`.
    pub par_shards: u64,
    /// `par_steal_none`.
    pub par_steal_none: u64,
    /// `par_merge_shards`.
    pub par_merge_shards: u64,
}

impl SolverSums {
    fn add(&mut self, r: &AnalysisResult) {
        let s = r.stats();
        self.init += s.init_time;
        self.fixpoint += s.fixpoint_time;
        self.finalize += s.finalize_time;
        self.seal_ns += s.intern_probe_ns;
        self.dedup_hits += s.pts_dedup_hits;
        self.interned += s.pts_interned;
        self.collapse_sweeps += s.collapse_sweeps;
        self.wave_rounds += s.wave_rounds;
        self.scc_collapsed_ptrs += s.scc_collapsed_ptrs;
        self.worklist_pops += s.worklist_pops;
        self.propagated_objects += s.propagated_objects;
        self.copy_edges += s.copy_edges;
        self.method_contexts += r.reachable_context_count() as u64;
        self.objects += r.object_count() as u64;
        self.pts_peak_words_max = self.pts_peak_words_max.max(s.pts_peak_words);
        self.barrier_ns += s.wave_barrier_ns;
        self.par_shards += s.par_shards;
        self.par_steal_none += s.par_steal_none;
        self.par_merge_shards += s.par_merge_shards;
    }
}

/// Pre-analysis output counts of a pass, summed over programs.
#[derive(Clone, Debug, Default)]
pub struct PreSums {
    /// CI worklist pops.
    pub ci_pops: u64,
    /// FPG edges.
    pub fpg_edges: u64,
    /// FPG objects.
    pub objects: u64,
    /// Objects after merging.
    pub merged_objects: u64,
}

/// What the benchmark does with each answer.
#[derive(Clone, Copy, Debug)]
pub enum Answers<'a> {
    /// Compare against recorded answers.
    Check(&'a Expected),
    /// Keep them for recording; nothing is checked.
    Record,
}

/// Everything one pass over a workload measured.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Seconds from the first `jir::parse` call to the last client
    /// answer, less the benchmark's own answer checks and repeated
    /// pre-analysis samples.
    pub total_s: f64,
    /// Seconds parsing every input.
    pub parse_s: f64,
    /// Pre-analysis seconds (CI + FPG + merge): per program the median
    /// of its samples (see [`PRE_SAMPLE_SECS`]; one sample in a traced
    /// pass), summed.
    pub pre_s: f64,
    /// Main-analysis solver seconds.
    pub main_s: f64,
    /// Units attempted.
    pub attempted: u64,
    /// Units over budget, in error, or with a wrong answer.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Every answer produced, in run order.
    pub answers: Vec<String>,
    /// Per-cell rows.
    pub cells: Vec<CellRow>,
    /// Busy seconds per layer span name.
    pub busy: BTreeMap<&'static str, f64>,
    /// Spans (traced passes only).
    pub spans: Vec<SpanRec>,
    /// Solver counters.
    pub solver: SolverSums,
    /// Pre-analysis counts.
    pub pre: PreSums,
}

impl Pass {
    /// The pre-analysis of one program, each call timed on `clock`: CI,
    /// FPG, Mahjong merge. Returns the FPG edge count and the merge.
    fn pre_analysis(
        &mut self,
        clock: &mut Clock,
        name: &str,
        program: &Program,
        threads: usize,
        budget: Budget,
    ) -> Result<(usize, MahjongOutput), String> {
        let ci = clock.time("pta.ci", name, || {
            solve(
                program,
                Sensitivity::Ci,
                AllocSiteAbstraction,
                budget,
                threads,
            )
        });
        let ci = within_budget(ci, budget)?;
        self.pre.ci_pops += ci.stats().worklist_pops;
        self.solver.add(&ci);
        let config = MahjongConfig {
            threads,
            ..MahjongConfig::default()
        };
        let fpg = clock.time("mahjong.fpg", name, || {
            FieldPointsToGraph::from_analysis(program, &ci, config.model_null)
        });
        drop(ci);
        let merged = clock.time("mahjong.merge", name, || {
            mahjong::merge_equivalent_objects(&fpg, &config)
        });
        self.pre.fpg_edges += fpg.edge_count() as u64;
        self.pre.objects += merged.stats.objects as u64;
        self.pre.merged_objects += merged.stats.merged_objects as u64;
        Ok((fpg.edge_count(), merged))
    }
}

/// Runs one pass: parse every input, then per program the CI
/// pre-analysis, FPG, Mahjong merge, and the workload's cells, each
/// answered by the clients and checked.
pub fn run_pass(
    workload: Workload,
    inputs: &Inputs,
    answers: Answers<'_>,
    budget: Duration,
    trace: bool,
) -> Pass {
    let threads = workload.threads();
    let budget = Budget { time_limit: budget };
    let cells = workload.cells();
    let mut clock = Clock::new(trace);
    let mut pass = Pass::default();
    // The benchmark's own time inside the pass: answer checks and
    // repeated pre-analysis samples.
    let mut excluded = Duration::ZERO;

    let start = Instant::now();
    let parsed: Vec<_> = inputs
        .programs
        .iter()
        .map(|(name, text)| clock.time("jir.parse", name, || jir::parse(text)))
        .collect();

    for ((name, _), program) in inputs.programs.iter().zip(parsed) {
        let units = workload.units_per_program() as u64;
        pass.attempted += units;
        let program = match program {
            Ok(p) => p,
            Err(e) => {
                pass.failed += units;
                pass.failures.push(format!("{name}: parse error: {e}"));
                continue;
            }
        };
        let pre_before = clock.pre_secs();
        let (fpg_edges, merged) =
            match pass.pre_analysis(&mut clock, name, &program, threads, budget) {
                Ok(pre) => pre,
                Err(e) => {
                    pass.failed += units;
                    pass.failures.push(format!("{name}: pre-analysis: {e}"));
                    continue;
                }
            };
        // This program's share of `pre_s` is the median of its
        // pre-analysis run repeatedly, once more after each of its
        // cells, so that the samples spread over the program's part of
        // the pass the way its cells do. The repeats are measurement,
        // not the user's work: their time is left out of `total_s`.
        let mut pre_samples = vec![clock.pre_secs() - pre_before];
        let pre_ok = settle(
            &mut pass,
            &mut excluded,
            answers,
            pre_answer(name, fpg_edges, &merged.stats),
        );

        let mut failed_cells = 0;
        for &(analysis, heap) in &cells {
            let unit = format!("{name}/{}/{}", analysis.name(), heap.name());
            let result = match heap {
                Heap::AllocSite => clock.time("pta.main", &unit, || {
                    solve(&program, analysis, AllocSiteAbstraction, budget, threads)
                }),
                Heap::Mahjong => {
                    let mom = merged.mom.clone();
                    clock.time("pta.main", &unit, || {
                        solve(&program, analysis, mom, budget, threads)
                    })
                }
            };
            let mut row = CellRow {
                program: name.clone(),
                analysis: analysis.name(),
                heap: heap.name(),
                secs: None,
                worklist_pops: 0,
                collapse_sweeps: 0,
                pts_peak_words: 0,
            };
            let cell_ok = match within_budget(result, budget) {
                Ok(r) => {
                    let s = r.stats();
                    row.secs = Some(s.elapsed.as_secs_f64());
                    row.worklist_pops = s.worklist_pops;
                    row.collapse_sweeps = s.collapse_sweeps;
                    row.pts_peak_words = s.pts_peak_words;
                    pass.solver.add(&r);
                    let metrics = clock.time("clients.compute", &unit, || {
                        ClientMetrics::compute(&program, &r)
                    });
                    let t = Instant::now();
                    let answer = cell_answer(name, analysis, heap, &metrics, &program, &r);
                    excluded += t.elapsed();
                    settle(&mut pass, &mut excluded, answers, answer)
                }
                Err(e) => {
                    pass.failures.push(format!("{unit}: {e}"));
                    false
                }
            };
            pass.cells.push(row);
            if !trace {
                resample_pre(
                    &mut pre_samples,
                    name,
                    &program,
                    threads,
                    budget,
                    &mut excluded,
                );
            }
            if !(cell_ok && pre_ok) {
                failed_cells += 1;
            }
        }
        pass.pre_s += median(&pre_samples);
        pass.failed += match workload.units_per_program() {
            1 => u64::from(failed_cells > 0),
            _ => failed_cells,
        };
    }
    let wall = start.elapsed();
    pass.total_s = (wall - excluded.min(wall)).as_secs_f64();
    pass.parse_s = clock.busy("jir.parse");
    pass.main_s = clock.busy("pta.main");
    if trace {
        clock.spans[0].end = wall.as_secs_f64();
    }
    pass.busy = clock.busy;
    pass.spans = clock.spans;
    pass
}

/// Adds one more sample of a program's pre-analysis time, taken outside
/// the pass's clock and added to `excluded`, unless the samples already
/// add up to [`PRE_SAMPLE_SECS`].
fn resample_pre(
    samples: &mut Vec<f64>,
    name: &str,
    program: &Program,
    threads: usize,
    budget: Budget,
    excluded: &mut Duration,
) {
    if samples.iter().sum::<f64>() >= PRE_SAMPLE_SECS {
        return;
    }
    let t = Instant::now();
    let mut clock = Clock::new(false);
    if Pass::default()
        .pre_analysis(&mut clock, name, program, threads, budget)
        .is_ok()
    {
        samples.push(clock.pre_secs());
    }
    *excluded += t.elapsed();
}

/// A solver outcome as the benchmark counts it: a run that finished
/// but took longer than its budget (the solver checks its clock only
/// every few thousand pops) has exceeded the budget all the same.
fn within_budget(
    result: Result<AnalysisResult, Unscalable>,
    budget: Budget,
) -> Result<AnalysisResult, String> {
    match result {
        Ok(r) if r.stats().elapsed > budget.time_limit => Err(format!(
            "exceeded its budget: {:.3}s > {:.3}s",
            r.stats().elapsed.as_secs_f64(),
            budget.time_limit.as_secs_f64()
        )),
        Ok(r) => Ok(r),
        Err(e) => Err(e.to_string()),
    }
}

/// Checks (or keeps, when recording) one answer; `false` on a
/// mismatch. Its time is the benchmark's, not the program's, and is
/// added to `excluded`.
fn settle(pass: &mut Pass, excluded: &mut Duration, answers: Answers<'_>, answer: String) -> bool {
    let t = Instant::now();
    let ok = match answers {
        Answers::Check(expected) => match expected.check(&answer) {
            Ok(()) => true,
            Err(e) => {
                pass.failures.push(e);
                false
            }
        },
        Answers::Record => true,
    };
    pass.answers.push(answer);
    *excluded += t.elapsed();
    ok
}

/// Parses every input once, outside any pass, and returns the seconds
/// it took (one `setup_s` sample); `None` when an input fails to parse
/// (the passes count that failure).
pub fn setup_round(inputs: &Inputs) -> Option<f64> {
    let start = Instant::now();
    for (_, text) in &inputs.programs {
        std::hint::black_box(jir::parse(text).ok()?);
    }
    Some(start.elapsed().as_secs_f64())
}

/// The median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's resident-set high-water mark in MB, from
/// `/proc/self/status` (0 where that file does not exist).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Self time per span name: each span's duration less the part its
/// child spans cover (children of one span never overlap here: the
/// benchmark calls layers one after another).
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut child_time = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_time) {
        *out.entry(s.name).or_default() += (s.end - s.start) - c;
    }
    out
}
