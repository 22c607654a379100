//! The one benchmark of datampi-rs. See `README.md` beside this
//! package for the glossary of workloads and metrics.
//!
//! ```text
//! dmpi-benchmark [run]   --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! dmpi-benchmark trace   --workload <name|all> …          same as `run --trace 1`
//! dmpi-benchmark compare <a.json> <b.json> [--benchmark BENCHMARK.json]
//! ```

mod compare;
mod host;
mod json;
mod layers;
mod reference;
mod run;
mod service;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Value;
use run::{out_dir, Outcome, RunArgs};
use spec::{RUN_SECONDS, WORKLOADS};
use stats::quartiles;

const USAGE: &str = "usage:
  dmpi-benchmark [run] --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
  dmpi-benchmark trace --workload <name|all> [--seed N] [--seconds S] [--smoke] [--out FILE]
  dmpi-benchmark compare <a.json> <b.json> [--benchmark BENCHMARK.json]";

struct Cli {
    run: RunArgs,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String], trace: bool) -> Result<Cli, String> {
    let mut cli = Cli {
        run: RunArgs {
            workload: String::new(),
            seed: 42,
            seconds: RUN_SECONDS,
            trace,
            smoke: false,
        },
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.run.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => cli.run.workload = value.clone(),
            "--seed" => cli.run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.run.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&cli.run.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cli.run.workload != "all" && !WORKLOADS.contains(&cli.run.workload.as_str()) {
        return Err(format!(
            "--workload must be one of: all {}",
            WORKLOADS.join(" ")
        ));
    }
    Ok(cli)
}

/// One run as it is kept in a result file: provenance of the numbers
/// (seed, trial count, raw samples) beside the numbers.
fn run_json(args: &RunArgs, outcome: &Outcome) -> Value {
    let metrics = outcome.metrics.iter().map(|m| {
        let mut fields = vec![("value", Value::Num(m.value)), ("unit", Value::str(m.unit))];
        if !m.samples.is_empty() {
            let [q1, _, q3] = quartiles(&m.samples);
            fields.push(("n", Value::Num(m.samples.len() as f64)));
            fields.push(("q1", Value::Num(q1)));
            fields.push(("q3", Value::Num(q3)));
            fields.push(("samples", Value::nums(&m.samples)));
        }
        (m.name, Value::obj(fields))
    });
    Value::obj([
        ("workload", Value::str(args.workload.as_str())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("smoke", Value::Bool(args.smoke)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("mismatched", Value::Num(outcome.mismatched as f64)),
        ("output_mismatch_frac", Value::Num(outcome.mismatch_frac())),
        ("failed_frac", Value::Num(outcome.failed_frac())),
        (
            "first_error",
            outcome
                .first_error
                .as_deref()
                .map_or(Value::Null, Value::str),
        ),
        ("metrics", Value::obj(metrics)),
    ])
}

fn result_file(runs: Vec<Value>) -> Value {
    Value::obj([
        ("schema", Value::str("dmpi-benchmark-result/v1")),
        // No gain is claimed by a result file; `compare` judges pairs.
        ("claim", Value::Null),
        ("host", host::provenance()),
        ("runs", Value::Arr(runs)),
    ])
}

fn write_file(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, doc.to_json() + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

fn default_out(args: &RunArgs) -> PathBuf {
    let suffix = if args.trace { "-trace" } else { "" };
    out_dir().join(format!("result-{}{suffix}.json", args.workload))
}

fn print_report(args: &RunArgs, outcome: &Outcome) {
    let mode = if args.trace {
        "traced run"
    } else {
        "end to end"
    };
    println!(
        "{} seed {} {mode}: {} timed jobs, warm-up discarded, nproc {}{}",
        args.workload,
        args.seed,
        outcome.attempted,
        host::nproc(),
        if args.smoke { ", smoke scale" } else { "" }
    );
    for m in &outcome.metrics {
        print!("  {:<34} {:>16.6} {:<6}", m.name, m.value, m.unit);
        if m.samples.len() > 1 {
            let [q1, _, q3] = quartiles(&m.samples);
            print!(" n={} q1={q1:.6} q3={q3:.6}", m.samples.len());
        }
        println!();
    }
    println!(
        "  {:<34} {:>16.6} ({} of {})",
        "output_mismatch_frac",
        outcome.mismatch_frac(),
        outcome.mismatched,
        outcome.attempted
    );
    println!(
        "  {:<34} {:>16.6} ({} of {})",
        "failed_frac",
        outcome.failed_frac(),
        outcome.failed,
        outcome.attempted
    );
    if args.trace {
        print_budget(outcome);
    }
}

/// The per-layer budget of a traced run: each stage on the job's path
/// as a share of the job's CPU, and what the stages leave unexplained.
fn print_budget(outcome: &Outcome) {
    let get = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let cpu_s = get("runtime.cpu_s");
    println!("  budget: stage seconds against runtime.cpu_s = {cpu_s:.4} s");
    for name in &outcome.on_path {
        let share = if cpu_s > 0.0 {
            get(name) / cpu_s * 100.0
        } else {
            0.0
        };
        println!("    {name:<30} {:>10.4} s {share:>6.1}%", get(name));
    }
    println!(
        "    runtime.stage_sum_s            {:>10.4} s; unattributed {:.1}% of cpu_s; tracing costs {:.3}x",
        get("runtime.stage_sum_s"),
        get("runtime.unattributed_cpu_frac") * 100.0,
        get("runtime.trace_overhead_ratio")
    );
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, last on standard output.
fn driver_line(outcome: &Outcome) -> String {
    let metrics = outcome.metrics.iter().map(|m| {
        (
            m.name,
            Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
        )
    });
    Value::obj([
        (
            "correct",
            Value::Bool(outcome.mismatched == 0 && outcome.failed == 0),
        ),
        ("attempted", Value::Num(outcome.attempted.max(1) as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ])
    .to_json()
}

fn run_one(cli: &Cli) -> Result<(), String> {
    let args = &cli.run;
    let outcome = run::run_workload(args)?;
    print_report(args, &outcome);
    if let Some(e) = &outcome.first_error {
        eprintln!(
            "warning: {} of {} jobs failed or mismatched; first: {e}",
            outcome.failed + outcome.mismatched,
            outcome.attempted
        );
    }
    if let Some(spans) = &outcome.spans {
        let path = out_dir().join(format!("trace-{}.json", args.workload));
        let doc = Value::obj([
            ("workload", Value::str(args.workload.as_str())),
            ("seed", Value::Num(args.seed as f64)),
            ("spans", spans.to_json()),
        ]);
        write_file(&path, &doc)?;
        println!("  spans written to {}", path.display());
    }
    let out = cli.out.clone().unwrap_or_else(|| default_out(args));
    write_file(&out, &result_file(vec![run_json(args, &outcome)]))?;
    println!("  result written to {}", out.display());
    println!("{}", driver_line(&outcome));
    Ok(())
}

/// Runs every workload, each in a child process of its own so that one
/// workload's memory high-water mark does not leak into the next one's
/// `peak_rss_mb`, and merges the children's result files into one set.
fn run_all(cli: &Cli) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut runs = Vec::new();
    for workload in WORKLOADS {
        let part = out_dir().join(format!("part-{}-{workload}.json", std::process::id()));
        let mut child = std::process::Command::new(&exe);
        child
            .args(["run", "--workload", workload])
            .args(["--seed", &cli.run.seed.to_string()])
            .args(["--seconds", &cli.run.seconds.to_string()])
            .args(["--trace", if cli.run.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part);
        if cli.run.smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        let text = std::fs::read_to_string(&part);
        let _ = std::fs::remove_file(&part);
        if !status.success() {
            return Err(format!("{workload} exited with {status}"));
        }
        let doc = Value::parse(&text.map_err(|e| format!("{workload} wrote no result: {e}"))?)?;
        runs.extend(
            doc.get("runs")
                .and_then(Value::as_arr)
                .unwrap_or_default()
                .iter()
                .cloned(),
        );
    }
    let out = cli.out.clone().unwrap_or_else(|| default_out(&cli.run));
    write_file(&out, &result_file(runs))?;
    println!(
        "set of {} runs written to {}",
        WORKLOADS.len(),
        out.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare")) => (c, &args[1..]),
        // The driver appends its flags to the bare command.
        _ => ("run", &args[..]),
    };
    let result = match command {
        "compare" => {
            let (a, b, benchmark) = match rest {
                [a, b] => (a, b, "BENCHMARK.json"),
                [a, b, flag, path] if flag == "--benchmark" => (a, b, path.as_str()),
                _ => {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            };
            match compare::compare(a, b, benchmark) {
                Ok(0) => Ok(()),
                Ok(n) => Err(format!("{n} rows regressed")),
                Err(e) => Err(e),
            }
        }
        _ => {
            let cli = match parse_run(rest, command == "trace") {
                Ok(cli) => cli,
                Err(e) => {
                    eprintln!("{e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            if host::nproc() < spec::RANKS {
                eprintln!(
                    "warning: nproc = {} < {} ranks: wall-clock numbers from this host are not comparable with the recorded bounds",
                    host::nproc(),
                    spec::RANKS
                );
            }
            if cli.run.workload == "all" {
                run_all(&cli)
            } else {
                run_one(&cli)
            }
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
