//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2-t1 --seed 0 --seconds 15 --trace 0
//! ```
//!
//! Prints progress on standard error and, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 when any unit failed, 2 on a usage error.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::{
    input_seed, median, peak_rss_mb, run_pass, self_times, setup_round, Answers, Expected, Inputs,
    Pass, Workload, DEFAULT_BUDGET, PROGRAMS, SETUP_SAMPLES, SETUP_SAMPLE_SECS,
};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
                 [--budget-ms MS] [--programs a,b,c] [--out DIR] [--record]

workloads: table2-t1, table2-t2, premerge
  --seed N        input set N % 10 (0 = the named programs)
  --seconds S     run whole passes until S seconds have passed (at least one)
  --trace 1       add one traced pass (telemetry on, spans kept) and print
                  the per-layer metrics; the span file goes to --out
  --budget-ms MS  per-solver-call budget (default 30000)
  --programs      restrict to these programs (answers of the rest are not run)
  --out DIR       where span files and recorded answers go
                  (default: perfbench/out)
  --record        write the answers to DIR instead of checking them";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    budget: Duration,
    programs: Vec<&'static str>,
    out: PathBuf,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut budget = DEFAULT_BUDGET;
    let mut programs: Vec<&'static str> = PROGRAMS.to_vec();
    let mut out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut record = false;
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(bad("expected a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            "--budget-ms" => {
                budget =
                    Duration::from_millis(value.parse().map_err(|_| bad("expected an integer"))?);
            }
            "--programs" => {
                programs = value
                    .split(',')
                    .map(|p| {
                        PROGRAMS
                            .iter()
                            .copied()
                            .find(|&q| q == p)
                            .ok_or_else(|| bad("unknown program"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        budget,
        programs,
        out,
        record,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("perfbench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    // End-to-end passes run with the program's telemetry off, as with
    // OBS_DISABLE=1; only the traced pass switches it on.
    obs::set_enabled(false);

    let workload = args.workload;
    let input = input_seed(args.seed);
    let expected = if args.record {
        None
    } else {
        match Expected::load(workload, input) {
            Ok(e) => Some(e),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let answers = match &expected {
        Some(e) => Answers::Check(e),
        None => Answers::Record,
    };

    // Inputs are generated and printed before any timing starts.
    let gen_start = Instant::now();
    let inputs = Inputs::generate(workload, input, &args.programs);
    eprintln!(
        "perfbench: {} seed {} (input set {input}): {} programs, {:.1} MB of .jir, generated in {:.1}s",
        workload.name(),
        args.seed,
        inputs.programs.len(),
        inputs.bytes() as f64 / 1e6,
        gen_start.elapsed().as_secs_f64()
    );

    let mut passes: Vec<Pass> = Vec::new();
    let measure = Instant::now();
    loop {
        let pass = run_pass(workload, &inputs, answers, args.budget, false);
        report_pass("pass", &pass);
        passes.push(pass);
        if measure.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let mut setup: Vec<f64> = passes.iter().map(|p| p.parse_s).collect();
    top_up(&mut setup, &inputs);
    let traced = args.trace.then(|| {
        obs::reset();
        obs::set_enabled(true);
        let pass = run_pass(workload, &inputs, answers, args.budget, true);
        obs::set_enabled(false);
        report_pass("traced pass", &pass);
        pass
    });

    let all = passes.iter().chain(&traced);
    let attempted: u64 = all.clone().map(|p| p.attempted).sum();
    let failed: u64 = all.clone().map(|p| p.failed).sum();
    for p in all {
        for f in p.failures.iter().take(20) {
            eprintln!("perfbench: FAILED {f}");
        }
    }

    if args.record {
        let path = args
            .out
            .join(format!("answers-{}-s{input}.tsv", workload.name()));
        let mut text = format!(
            "# perfbench answers: {} inputs at scale {}, input set {input}\n",
            workload.answers_stem(),
            workload.scale()
        );
        for a in &passes[0].answers {
            text.push_str(a);
            text.push('\n');
        }
        if let Err(e) =
            std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, text))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "perfbench: recorded {} answers to {}",
            passes[0].answers.len(),
            path.display()
        );
        return if failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut metrics = Metrics::default();
    match &traced {
        None => {
            let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
            metrics.put("total_s", med(|p| p.total_s), "s");
            metrics.put("setup_s", median(&setup), "s");
            metrics.put("pre_s", med(|p| p.pre_s), "s");
            metrics.put("main_s", med(|p| p.main_s), "s");
            metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
            metrics.put(
                "answered_frac",
                (attempted - failed) as f64 / attempted.max(1) as f64,
                "ratio",
            );
        }
        Some(t) => {
            let untraced = median(&passes.iter().map(|p| p.total_s).collect::<Vec<_>>());
            layer_metrics(&mut metrics, t, &inputs, untraced);
            if let Err(e) = write_trace(&args, input, t) {
                eprintln!("perfbench: cannot write the span file: {e}");
                return ExitCode::from(2);
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.0.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Adds parse rounds until there are `SETUP_SAMPLES` samples or they add
/// up to `SETUP_SAMPLE_SECS`.
fn top_up(samples: &mut Vec<f64>, inputs: &Inputs) {
    while samples.len() < SETUP_SAMPLES && samples.iter().sum::<f64>() < SETUP_SAMPLE_SECS {
        match setup_round(inputs) {
            Some(s) => samples.push(s),
            None => break,
        }
    }
}

fn report_pass(what: &str, p: &Pass) {
    eprintln!(
        "perfbench: {what}: total {:.3}s (parse {:.3}s, pre {:.3}s, main {:.3}s), {} units, {} failed",
        p.total_s, p.parse_s, p.pre_s, p.main_s, p.attempted, p.failed
    );
}

/// Metric entries of the result line, in insertion order.
#[derive(Default)]
struct Metrics(Vec<String>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        // `+ 0.0` turns the `-0.0` of an empty float sum into `0`.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.0.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced pass.
fn layer_metrics(m: &mut Metrics, t: &Pass, inputs: &Inputs, untraced_total: f64) {
    let busy = |name: &str| t.busy.get(name).copied().unwrap_or(0.0);
    let counter = |name: &str| {
        obs::registry()
            .counters()
            .into_iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| v) as f64
    };
    let cell_secs = |keep: &dyn Fn(&perfbench::CellRow) -> bool| -> f64 {
        t.cells
            .iter()
            .filter(|c| keep(c))
            .filter_map(|c| c.secs)
            .sum()
    };
    let s = &t.solver;
    m.put("jir.parse_s", busy("jir.parse"), "s");
    m.put("jir.input_mb", inputs.bytes() as f64 / 1e6, "MB");
    m.put("pta.ci_s", busy("pta.ci"), "s");
    m.put("pta.ci_pops", t.pre.ci_pops as f64, "count");
    m.put("mahjong.fpg_s", busy("mahjong.fpg"), "s");
    m.put("mahjong.fpg_edges", t.pre.fpg_edges as f64, "count");
    m.put("mahjong.merge_s", busy("mahjong.merge"), "s");
    m.put("mahjong.objects", t.pre.objects as f64, "count");
    m.put(
        "mahjong.merged_objects",
        t.pre.merged_objects as f64,
        "count",
    );
    m.put("mahjong.dfa_built", counter("mahjong.dfa_built"), "count");
    m.put(
        "mahjong.sig_buckets",
        counter("mahjong.sig_buckets"),
        "count",
    );
    m.put("mahjong.hk_runs", counter("mahjong.hk_runs"), "count");
    m.put("pta.main_alloc_s", cell_secs(&|c| c.heap == "alloc"), "s");
    m.put(
        "pta.main_mahjong_s",
        cell_secs(&|c| c.heap == "mahjong"),
        "s",
    );
    for a in perfbench::Sensitivity::TABLE2 {
        let name = a.name();
        m.put(
            &format!("pta.main_{name}_s"),
            cell_secs(&|c| c.analysis == name),
            "s",
        );
    }
    m.put("pta.init_s", s.init.as_secs_f64(), "s");
    m.put("pta.fixpoint_s", s.fixpoint.as_secs_f64(), "s");
    m.put("pta.finalize_s", s.finalize.as_secs_f64(), "s");
    m.put("pta.seal_s", s.seal_ns as f64 / 1e9, "s");
    m.put(
        "pta.dedup_ratio",
        ratio(s.dedup_hits as f64, (s.dedup_hits + s.interned) as f64),
        "ratio",
    );
    m.put("pta.collapse_sweeps", s.collapse_sweeps as f64, "count");
    m.put("pta.wave_rounds", s.wave_rounds as f64, "count");
    m.put(
        "pta.scc_collapsed_ptrs",
        s.scc_collapsed_ptrs as f64,
        "count",
    );
    m.put("pta.worklist_pops", s.worklist_pops as f64, "count");
    m.put(
        "pta.propagated_objects",
        s.propagated_objects as f64,
        "count",
    );
    m.put("pta.copy_edges", s.copy_edges as f64, "count");
    m.put("pta.method_contexts", s.method_contexts as f64, "count");
    m.put("pta.objects", s.objects as f64, "count");
    m.put("pta.pts_peak_words", s.pts_peak_words_max as f64, "count");
    m.put("pta.barrier_s", s.barrier_ns as f64 / 1e9, "s");
    m.put("pta.par_shards", s.par_shards as f64, "count");
    m.put(
        "pta.par_idle_ratio",
        ratio(s.par_steal_none as f64, s.par_shards as f64),
        "ratio",
    );
    m.put("pta.par_merge_shards", s.par_merge_shards as f64, "count");
    m.put("clients.compute_s", busy("clients.compute"), "s");
    let layers: f64 = t.busy.values().sum();
    m.put("bench.harness_s", t.total_s - layers, "s");
    m.put(
        "bench.trace_overhead_pct",
        100.0 * ratio(t.total_s - untraced_total, untraced_total),
        "%",
    );
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes the traced pass's spans, self times, per-cell rows and the
/// program's own telemetry phases as one JSON document.
fn write_trace(args: &Args, input: u64, t: &Pass) -> std::io::Result<()> {
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\"workload\": {}, \"seed\": {}, \"input_set\": {input}, \"total_s\": {},\n \"spans\": [",
        json_str(args.workload.name()),
        args.seed,
        t.total_s
    );
    for (i, s) in t.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            doc,
            "{}\n  {{\"id\": {i}, \"name\": {}, \"unit\": {}, \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}}}",
            if i == 0 { "" } else { "," },
            json_str(s.name),
            json_str(&s.unit),
            s.start,
            s.end
        );
    }
    doc.push_str("],\n \"self_s\": {");
    let selfs: BTreeMap<_, _> = self_times(&t.spans);
    let items: Vec<String> = selfs
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    doc.push_str(&items.join(", "));
    doc.push_str("},\n \"cells\": [");
    for (i, c) in t.cells.iter().enumerate() {
        let secs = c.secs.map_or("null".to_owned(), |s| s.to_string());
        let _ = write!(
            doc,
            "{}\n  {{\"program\": {}, \"analysis\": {}, \"heap\": {}, \"secs\": {secs}, \"worklist_pops\": {}, \"collapse_sweeps\": {}, \"pts_peak_words\": {}}}",
            if i == 0 { "" } else { "," },
            json_str(&c.program),
            json_str(&c.analysis),
            json_str(c.heap),
            c.worklist_pops,
            c.collapse_sweeps,
            c.pts_peak_words
        );
    }
    doc.push_str("],\n \"program_phases\": {");
    let phases: Vec<String> = obs::registry()
        .phase_totals()
        .into_iter()
        .map(|p| {
            format!(
                "{}: {{\"count\": {}, \"secs\": {}}}",
                json_str(&p.name),
                p.count,
                p.total.as_secs_f64()
            )
        })
        .collect();
    doc.push_str(&phases.join(", "));
    doc.push_str("}}\n");

    std::fs::create_dir_all(&args.out)?;
    let path = args.out.join(format!(
        "trace-{}-s{}.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, doc)?;
    eprintln!("perfbench: span file {}", path.display());
    for (name, secs) in &selfs {
        eprintln!("perfbench:   self {name:<16} {secs:>9.3}s");
    }
    Ok(())
}
