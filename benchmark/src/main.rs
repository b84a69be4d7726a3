//! The Sentinel benchmark: four workloads, ten end-to-end metrics and a
//! per-layer ladder timed from outside. See `README.md`.
//!
//! ```text
//! sentinel-benchmark run [--seed S] [--seconds N] [--workload W] [--trace 0|1] [--repeat K]
//! sentinel-benchmark compare A.json B.json
//! sentinel-benchmark serve [--data-dir DIR] [--apart]   (child servers; not for hand use)
//! ```
//!
//! `run` alone runs every workload untraced, then the traced ladder, and
//! writes `benchmark/out/result.json`. With `--workload` and `--trace` it
//! runs one workload one way and ends its standard output with the
//! one-line JSON object the acceptance driver reads. `--seconds` is the
//! driver's `run_seconds`: the length of the time-based workloads' timed
//! part (`wire_durable` runs a fixed count of signals instead).

mod child;
mod detect;
mod gen;
mod graphs;
mod host;
mod ladder;
mod loadgen;
mod params;
mod report;
mod spans;
mod stats;
mod txn;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sentinel_core::obs::json::Value;

use report::{Outcome, Verdict};

struct RunArgs {
    seed: u64,
    seconds: f64,
    workload: Option<&'static str>,
    trace: Option<bool>,
    repeat: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: sentinel-benchmark run [--seed S] [--seconds N] [--workload W] [--trace 0|1] \
         [--repeat K]\n       sentinel-benchmark compare A.json B.json\n       workloads: {}",
        params::WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn parse_run(args: &[String]) -> RunArgs {
    let mut out = RunArgs {
        seed: params::DEFAULT_SEED,
        seconds: params::DEFAULT_SECONDS as f64,
        workload: None,
        trace: None,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--seed" => out.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                out.seconds = value.parse().ok().filter(|s| *s >= 1.0).unwrap_or_else(|| usage());
            }
            "--workload" => {
                out.workload = Some(
                    *params::WORKLOADS.iter().find(|w| *w == value).unwrap_or_else(|| usage()),
                );
            }
            "--trace" => {
                out.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                });
            }
            "--repeat" => {
                out.repeat = value.parse().ok().filter(|k| *k >= 1).unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    out
}

/// `benchmark/out` under the current directory (the repository root, as
/// in the command of `BENCHMARK.json`): everything a run writes.
fn out_dir() -> Result<PathBuf, String> {
    if !Path::new("benchmark").join("Cargo.toml").is_file() {
        return Err("run from the repository root (no benchmark/Cargo.toml here)".to_string());
    }
    let dir = Path::new("benchmark").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_workload(name: &str, seed: u64, seconds: f64, out: &Path) -> Result<Outcome, String> {
    match name {
        "wire_open" => wire::run_open(seed, seconds),
        "wire_durable" => wire::run_durable(seed, out),
        "embedded_detect" => detect::run(seed, seconds),
        "embedded_txn" => txn::run(seed, seconds),
        other => Err(format!("unknown workload {other}")),
    }
}

/// One workload, one way: what the acceptance driver invokes.
fn run_one(args: &RunArgs, workload: &'static str, traced: bool) -> Result<bool, String> {
    let out = out_dir()?;
    let stamps = host::stamps();
    if traced {
        let ladder = ladder::run(args.seed, &[workload], &out)?;
        ladder.print();
        let result = report::result_json(
            args.seed,
            args.seconds,
            stamps,
            Vec::new(),
            Some(ladder.to_json()),
        );
        report::write_json(&out.join(format!("result-{workload}-trace.json")), &result)?;
        let metrics: Vec<(String, f64, &str)> =
            ladder.metrics().map(|(def, value)| (def.name.to_string(), value, def.unit)).collect();
        println!(
            "{}",
            report::driver_line(ladder.correct(), ladder.attempted, ladder.failed, &metrics)
        );
        return Ok(ladder.correct());
    }
    let outcome = run_workload(workload, args.seed, args.seconds, &out)?;
    outcome.print();
    let result = report::result_json(
        args.seed,
        args.seconds,
        stamps,
        vec![(workload.to_string(), outcome.to_json())],
        None,
    );
    report::write_json(&out.join(format!("result-{workload}.json")), &result)?;
    let metrics: Vec<(String, f64, &str)> = report::universal()
        .map(|def| {
            let (value, _) = outcome
                .metrics
                .get(def.name)
                .copied()
                .ok_or_else(|| format!("{workload} did not report {}", def.name))?;
            Ok((def.name.to_string(), value, def.unit))
        })
        .collect::<Result<_, String>>()?;
    println!(
        "{}",
        report::driver_line(outcome.correct(), outcome.attempted, outcome.failed, &metrics)
    );
    Ok(outcome.correct())
}

/// One untraced run of `workload` as a child process, the way the
/// acceptance driver makes it: `peak_rss_mb` is a process's high-water
/// mark, so every run needs a process of its own. Returns the workload's
/// section of the `result-<workload>.json` the child wrote.
fn run_in_fresh_process(
    workload: &str,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let result = out.join(format!("result-{workload}.json"));
    let _ = std::fs::remove_file(&result);
    let status = std::process::Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("spawn run of {workload}: {e}"))?;
    // A failed check exits non-zero but still leaves its result behind.
    let text = std::fs::read_to_string(&result)
        .map_err(|e| format!("run of {workload} ({status}) left no {}: {e}", result.display()))?;
    let doc = Value::parse(&text).map_err(|e| format!("parse {}: {e:?}", result.display()))?;
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .cloned()
        .ok_or_else(|| format!("{} has no section for {workload}", result.display()))
}

/// Every workload untraced (`repeat` times, on seeds `seed`, `seed+1`, …,
/// each run in a process of its own), then the traced ladder; writes
/// `result.json`.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let out = out_dir()?;
    let stamps = host::stamps();
    let mut ok = true;
    let mut sections = Vec::new();
    let selected: Vec<&'static str> = match args.workload {
        Some(w) => vec![w],
        None => params::WORKLOADS.to_vec(),
    };
    for &workload in &selected {
        let mut runs = Vec::new();
        for k in 0..args.repeat {
            let section = run_in_fresh_process(workload, args.seed + k as u64, args.seconds, &out)?;
            ok &= section.get("correct") == Some(&Value::Bool(true));
            runs.push(section);
        }
        sections.push((workload.to_string(), report::merge_runs(runs)));
    }
    let ladder = match args.trace {
        Some(false) => None,
        _ => {
            let ladder = ladder::run(args.seed, &selected, &out)?;
            ladder.print();
            ok &= ladder.correct();
            Some(ladder.to_json())
        }
    };
    let result = report::result_json(args.seed, args.seconds, stamps, sections, ladder);
    let path = out.join("result.json");
    report::write_json(&path, &result)?;
    eprintln!("wrote {}", path.display());
    Ok(ok)
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("parse {p}: {e:?}"))
    };
    let rows = report::compare(&load(a)?, &load(b)?)?;
    println!("{:<16} {:<26} {:>14} {:>14} {:>8}  verdict", "workload", "metric", "A", "B", "B/A");
    for r in &rows {
        let verdict = match r.verdict {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        };
        let ratio = if r.a == 0.0 { f64::NAN } else { r.b / r.a };
        println!(
            "{:<16} {:<26} {:>14.4} {:>14.4} {:>8.3}  {verdict}",
            r.workload, r.metric, r.a, r.b, ratio
        );
    }
    Ok(!report::any_regression(&rows))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match args.first().map(String::as_str) {
        Some("serve") => {
            let mut rest = &args[1..];
            let apart = rest.last().is_some_and(|a| a == "--apart");
            if apart {
                rest = &rest[..rest.len() - 1];
            }
            let dir = match rest {
                [] => None,
                [flag, dir] if flag == "--data-dir" => Some(PathBuf::from(dir)),
                _ => usage(),
            };
            child::serve(dir, apart)
        }
        Some("run") => {
            let run = parse_run(&args[1..]);
            match (run.workload, run.trace) {
                (Some(w), Some(traced)) if run.repeat == 1 => run_one(&run, w, traced),
                _ => run_all(&run),
            }
        }
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        _ => usage(),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAILED: a check did not pass");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
