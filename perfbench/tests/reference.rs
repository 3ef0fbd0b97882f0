//! The benchmark's own checks: its answers against the naive reference
//! solver, its answer check against a planted wrong expectation, its
//! seeded inputs, its failure accounting, and its result line against
//! `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::process::Command;
use std::time::Duration;

use perfbench::{
    input_seed, program_text, reachable_methods, run_pass, solve, Answers, Expected, Inputs,
    Sensitivity, Workload,
};
use pta::naive::solve_naive;
use pta::{AllocSiteAbstraction, Budget, CallSiteSensitive, ContextInsensitive, ObjectSensitive};

const BUDGET: Duration = Duration::from_secs(60);

#[test]
fn answers_match_the_naive_reference_solver() {
    for name in ["luindex", "lusearch"] {
        for seed in [0, 7] {
            let program = jir::parse(&program_text(name, 1, seed)).expect("generated text parses");
            for analysis in [Sensitivity::Ci, Sensitivity::Cs(2), Sensitivity::Obj(2)] {
                let naive = match analysis {
                    Sensitivity::Ci => {
                        solve_naive(&program, &ContextInsensitive, &AllocSiteAbstraction)
                    }
                    Sensitivity::Cs(k) => {
                        solve_naive(&program, &CallSiteSensitive::new(k), &AllocSiteAbstraction)
                    }
                    Sensitivity::Obj(k) => {
                        solve_naive(&program, &ObjectSensitive::new(k), &AllocSiteAbstraction)
                    }
                    Sensitivity::Type(_) => unreachable!("not compared"),
                };
                let want_methods: Vec<_> = naive.reachable_methods().into_iter().collect();
                for threads in [1, 2] {
                    let what = format!(
                        "{name} seed {seed} {} at {threads} threads",
                        analysis.name()
                    );
                    let result = solve(
                        &program,
                        analysis,
                        AllocSiteAbstraction,
                        Budget { time_limit: BUDGET },
                        threads,
                    )
                    .expect("fits the budget");
                    let edges: BTreeSet<_> = result.call_graph_edges().collect();
                    assert_eq!(edges, naive.call_edges, "call-graph edges of {what}");
                    assert_eq!(
                        reachable_methods(&program, &result),
                        want_methods,
                        "reachable methods of {what}"
                    );
                }
            }
        }
    }
}

fn luindex_pass(expected: &Expected) -> perfbench::Pass {
    let inputs = Inputs::generate(Workload::Table2T1, 0, &["luindex"]);
    run_pass(
        Workload::Table2T1,
        &inputs,
        Answers::Check(expected),
        BUDGET,
        false,
    )
}

#[test]
fn recorded_answers_pass_and_a_planted_wrong_one_fails() {
    let text = std::fs::read_to_string(Expected::path(Workload::Table2T1, 0))
        .expect("default-seed answers are recorded");
    let pass = luindex_pass(&Expected::parse(&text));
    assert_eq!(
        (pass.attempted, pass.failed),
        (10, 0),
        "{:?}",
        pass.failures
    );

    // One client count off by one fails exactly that cell.
    let planted: String = text
        .lines()
        .map(|l| {
            if l.starts_with("cell\tluindex\t2obj\talloc\t") {
                let (head, cg) = l.split_once("cg_edges=").expect("has cg_edges");
                let (n, rest) = cg.split_once('\t').expect("more fields follow");
                let n: u64 = n.parse().expect("a count");
                format!("{head}cg_edges={}\t{rest}\n", n + 1)
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    assert_ne!(planted, text);
    let pass = luindex_pass(&Expected::parse(&planted));
    assert_eq!((pass.attempted, pass.failed), (10, 1));
    assert!(
        pass.failures[0].contains("wrong answer"),
        "{:?}",
        pass.failures
    );

    // A wrong pre-analysis answer fails every cell that depends on it.
    let planted = text.replace("pre\tluindex\tobjects=", "pre\tluindex\tobjects=9");
    let pass = luindex_pass(&Expected::parse(&planted));
    assert_eq!((pass.attempted, pass.failed), (10, 10));

    // A missing answer is a failure too, never a silent pass.
    let pass = luindex_pass(&Expected::default());
    assert_eq!(pass.failed, 10);
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    let a = program_text("luindex", 2, 3);
    assert_eq!(a, program_text("luindex", 2, 3), "same seed, same text");
    assert_ne!(
        a,
        program_text("luindex", 2, 4),
        "another seed, another text"
    );
    assert_eq!(
        program_text("pmd", 1, 0),
        workloads::dacapo::workload("pmd", 1).program.to_string(),
        "seed 0 is the named program"
    );
    assert_eq!(input_seed(13), 3);
}

fn args(line: &str) -> Vec<String> {
    line.split(' ').map(str::to_owned).collect()
}

fn bench_cmd(args: &[String]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .args(["--out", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    (out.status.code(), last)
}

/// Metric names of one section of `BENCHMARK.json`.
fn benchmark_metrics(section: &str) -> Vec<String> {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = doc
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
        .collect()
}

#[test]
fn zero_budget_fails_every_unit_and_still_reports() {
    let (code, last) = bench_cmd(&args(
        "--workload table2-t1 --seed 0 --seconds 0 --trace 0 --budget-ms 0 --programs luindex,lusearch",
    ));
    assert_eq!(code, Some(1), "{last}");
    assert!(
        last.starts_with("{\"correct\": false, \"attempted\": 20, \"failed\": 20,"),
        "{last}"
    );
    assert!(
        last.contains("\"answered_frac\": {\"value\": 0, \"unit\": \"ratio\"}"),
        "{last}"
    );
    for name in benchmark_metrics("end_to_end") {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing: {last}"
        );
    }
}

#[test]
fn result_lines_carry_every_declared_metric() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (code, last) = bench_cmd(&args(&format!(
            "--workload table2-t2 --seed 0 --seconds 0 --trace {trace} --programs luindex"
        )));
        assert_eq!(code, Some(0), "{last}");
        assert!(last.starts_with("{\"correct\": true, "), "{last}");
        let names = benchmark_metrics(section);
        assert!(names.len() > 5, "{section}: {names:?}");
        for name in names {
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing: {last}"
            );
        }
        assert_eq!(
            last.matches("\"value\"").count(),
            benchmark_metrics(section).len(),
            "{last}"
        );
    }
}

#[test]
fn unknown_workload_is_a_usage_error_without_a_result() {
    let (code, last) = bench_cmd(&args("--workload nope --seed 0 --seconds 0 --trace 0"));
    assert_eq!(code, Some(2));
    assert!(!last.starts_with('{'), "{last}");
}
