//! `gcache-perf`: the repo benchmark's executable. See `README.md`.
//!
//! With `--workload NAME` it runs that one workload in this process and
//! ends its standard output with the result line of the benchmark
//! contract. Without it, it runs every workload as a child process of
//! its own (so `peak_rss_mb` is per workload) — untraced, then traced —
//! and writes `result.json` and `trace.json`.

use gcache_core::json::Json;
use gcache_perf::metrics::END_TO_END;
use gcache_perf::report;
use gcache_perf::run::{self, Args};
use gcache_perf::span::merge_chrome_traces;
use gcache_perf::workloads::{self, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: benchmark/run.sh [--seed N] [--seconds S] [--quick] [--repeat-check]
       benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]

  --workload NAME  run one workload in this process and end standard output
                   with the benchmark contract's result line; without it,
                   every workload runs (untraced, then traced), each in a
                   child process, and result.json + trace.json are written
  --seed N         seed of seeded_rw's inputs and of the mesh driver's RNG
                   (default 1; hold-out 2)
  --seconds S      how long each run keeps measuring reps (default 15)
  --trace 0|1      0 = untraced reps, end-to-end metrics (default);
                   1 = traced pass, per-layer metrics and trace file
  --quick          one rep per workload, for smoke use; not gateable
  --repeat-check   run two full sets back to back and compare them against
                   the benchmark's own bounds; exit 1 if they disagree
  --out-dir DIR    where run directories and result files go
                   (default benchmark/out)
workloads: grid_smoke sensitive_full insensitive_full cluster_ml server_ckpt seeded_rw";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat_check: bool,
    out_dir: PathBuf,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        quick: false,
        repeat_check: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => cli.quick = true,
            "--repeat-check" => cli.repeat_check = true,
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn document_path(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!("{workload}.trace{}.json", trace as u8))
}

fn trace_path(out_dir: &Path, workload: &str) -> PathBuf {
    out_dir.join(format!("{workload}.spans.json"))
}

/// Runs one workload in this process.
fn run_one(cli: &Cli, name: &str) -> Result<(), String> {
    let workload = workloads::find(name).ok_or(format!("unknown workload {name}"))?;
    std::fs::create_dir_all(&cli.out_dir).map_err(|e| format!("{}: {e}", cli.out_dir.display()))?;
    let args = Args {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
        out_dir: cli.out_dir.clone(),
    };
    let outcome = run::run(&args);
    let self_times = outcome
        .tracer
        .as_ref()
        .map_or(Vec::new(), |t| t.self_times());
    report::print(&args, &outcome, &self_times);
    let write = |path: PathBuf, text: String| {
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(
        document_path(&cli.out_dir, name, cli.trace),
        report::document(&args, &outcome, &self_times),
    )?;
    if let Some(tracer) = &outcome.tracer {
        let pid = WORKLOADS.iter().position(|w| w.name == name).unwrap_or(0) as u32 + 1;
        write(
            trace_path(&cli.out_dir, name),
            tracer.chrome_trace(pid, name),
        )?;
    }
    println!("{}", report::result_line(&args, &outcome));
    Ok(())
}

/// Runs every workload, each run a child process: all untraced, then all
/// traced. Writes `result.json` and `trace.json` and returns the result
/// documents, untraced then traced.
fn run_set(cli: &Cli, out_dir: &Path) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let read = |path: PathBuf| {
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let mut texts = Vec::new();
    let mut documents = Vec::new();
    for trace in [false, true] {
        for w in &WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(out_dir);
            if cli.quick {
                cmd.arg("--quick");
            }
            let status = cmd.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
            if !status.success() {
                return Err(format!(
                    "{} (trace {}) exited with {status}",
                    w.name, trace as u8
                ));
            }
            let text = read(document_path(out_dir, w.name, trace))?;
            documents.push(Json::parse(&text).map_err(|e| format!("{}: {e}", w.name))?);
            texts.push(text);
        }
    }

    // result.json: the per-workload documents, embedded as written.
    let gateable = documents
        .iter()
        .all(|d| d.get("gateable").and_then(Json::as_bool) == Some(true));
    let runs: Vec<&str> = texts.iter().map(|t| t.trim_end()).collect();
    let result = format!(
        "{{\n\"seed\": {},\n\"quick\": {},\n\"gateable\": {gateable},\n\"runs\": [\n{}\n]\n}}\n",
        cli.seed,
        cli.quick,
        runs.join(",\n")
    );
    // trace.json: every workload's spans, one process per workload.
    let spans = WORKLOADS
        .iter()
        .map(|w| read(trace_path(out_dir, w.name)))
        .collect::<Result<Vec<_>, _>>()?;
    let trace = merge_chrome_traces(&spans).ok_or("a spans file is not a trace document")?;
    for (name, text) in [("result.json", result), ("trace.json", trace)] {
        let path = out_dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{name}: {}", path.display());
    }
    print_summary(&documents);
    Ok(documents)
}

/// The end-to-end metrics of every workload side by side.
fn print_summary(documents: &[Json]) {
    println!("== end-to-end summary (untraced reps) ==");
    let untraced = &documents[..WORKLOADS.len()];
    let metric = |d: &Json, name: &str| d.at(&["metrics", name, "value"]).and_then(Json::as_f64);
    let names = END_TO_END
        .iter()
        .map(|d| (d.name, d.unit))
        .chain([("gc_speedup_gm", "ratio"), ("paper_gap_gc", "ratio")]);
    for (name, unit) in names {
        let mut line = format!("   {name:<18} {:<15}", format!("[{unit}]"));
        for d in untraced {
            match metric(d, name) {
                Some(v) => line.push_str(&format!(" {v:>12.4}")),
                None => line.push_str(&format!(" {:>12}", "-")),
            }
        }
        println!("{line}");
    }
    let mut line = format!("   {:<18} {:<15}", "failed_points", "[count]");
    for d in untraced {
        let get = |k: &str| d.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
        line.push_str(&format!(
            " {:>12}",
            format!("{}/{}", get("failed"), get("attempted"))
        ));
    }
    println!("{line}");
    println!("   columns: {}", WORKLOADS.map(|w| w.name).join(" "));
}

/// Two full sets back to back, compared against the benchmark's bounds.
fn repeat_check(cli: &Cli) -> Result<bool, String> {
    let first = run_set(cli, &cli.out_dir.join("set1"))?;
    let second = run_set(cli, &cli.out_dir.join("set2"))?;
    let comparison = report::compare(&first, &second);
    println!("== repeat check: two sets of the same code ==");
    for d in &comparison.differences {
        println!(
            "   {:<17} {:<26} {:>16.6} {:>16.6}  diff {:>8.4}  bound {}{}",
            d.workload,
            d.metric,
            d.first,
            d.second,
            d.relative,
            d.bound.map_or("exact".to_string(), |b| format!("{b:.2}")),
            if d.violated { "  VIOLATED" } else { "" }
        );
    }
    if !comparison.comparable {
        println!(
            "   NOT COMPARABLE: a set is --quick, its host.cal_spread is above the limit, or the host fingerprints differ; bounded metrics are unresolved, exact ones still count"
        );
    }
    Ok(comparison.passed())
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &cli.workload {
        Some(name) => run_one(&cli, name).map(|()| true),
        None if cli.repeat_check => repeat_check(&cli),
        None => run_set(&cli, &cli.out_dir).map(|_| true),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
