//! `igbench`: Benchmark v1 of the iGUARD reproduction (see README.md).
//!
//! ```text
//! igbench --workload W [--seed N] [--seconds S] [--trace 0|1]   one run, in this process
//! igbench [--seed N] [--seconds S] [--out DIR]                  every workload, untraced then traced
//! igbench --aa [--seed N] [--seconds S]                         two untraced sets of the same build
//! igbench --smoke                                               every workload and arm, one pass
//! igbench --contract                                            print BENCHMARK.json
//! ```
//!
//! Single thread, closed loop, one client. The multi-workload modes run
//! each workload in a child process of its own, so `peak_rss_mb` and
//! cold costs belong to one workload.

// Configs are built as `Default::default()` plus field assignment on
// purpose: unlike a struct literal that still compiles when a measured
// crate adds a field, a private one included, so the benchmark survives
// the commits it is meant to compare.
#![allow(clippy::field_reassign_with_default)]

mod arms;
mod heap;
mod host;
mod json;
mod members;
mod run;
mod service;
mod spec;
mod stats;
mod yardstick;
mod zoo;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Value;
use run::RunArgs;
use spec::{Better, WorkloadDef};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

struct Cli {
    workload: Option<&'static WorkloadDef>,
    seed: u64,
    seconds: f64,
    traced: bool,
    aa: bool,
    smoke: bool,
    contract: bool,
    out: Option<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!("igbench: {msg}");
    eprintln!(
        "usage: igbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20              [--aa | --smoke | --contract] [--out DIR]\n\
         workloads: {}",
        spec::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn parse_cli(args: Vec<String>) -> Cli {
    let mut cli = Cli {
        workload: None,
        seed: spec::PAPER_SEED,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        aa: false,
        smoke: false,
        contract: false,
        out: None,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                cli.workload = Some(
                    spec::workload(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{name}`"))),
                );
            }
            "--seed" => {
                cli.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed expects a whole number"))
            }
            "--seconds" => {
                cli.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .unwrap_or_else(|| usage("--seconds expects a number in (0, 600]"));
            }
            "--trace" => {
                cli.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace expects 0 or 1"),
                }
            }
            "--out" => cli.out = Some(value()),
            "--aa" => cli.aa = true,
            "--smoke" => cli.smoke = true,
            "--contract" => cli.contract = true,
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    cli
}

/// The deliberate panics of poison jobs are caught by the supervisor;
/// keep their backtraces off stderr and every other panic loud.
fn quiet_poison_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        if !msg.is_some_and(|m| m.starts_with("poison job")) {
            prev(info);
        }
    }));
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run in this process: `workload metric value unit` lines, the host
/// block, and the result object as the last line.
fn run_here(cli: &Cli, workload: &'static WorkloadDef, process_start: Instant) -> ExitCode {
    quiet_poison_panics();
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        smoke: cli.smoke,
    };
    let result = run::run_workload(&args, process_start);
    for m in &result.metrics {
        let spread = m.spread.map_or(String::new(), |s| {
            format!("  [p25 {} p75 {} n {}]", s.p25, s.p75, s.n)
        });
        println!(
            "{} {} {} {}{spread}",
            workload.name, m.def.name, m.value, m.def.unit
        );
    }
    for f in &result.failures {
        println!("{} MISMATCH {f}", workload.name);
    }
    println!("host {}", result.host);
    println!("{}", result.result_line());
    exit_code(result.correct)
}

/// What a child run printed, read back.
struct ChildRun {
    ok: bool,
    /// The `metrics` object of the child's result line.
    metrics: Value,
    host: Value,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name)?.get("value")?.as_f64()
    }
}

/// Runs one workload in a child process of this executable, passing its
/// metric lines through and reading its last line back.
fn run_child(cli: &Cli, w: &WorkloadDef, traced: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if cli.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd.output().expect("start the child run");
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    let mut host = Value::Null;
    for line in &lines {
        match line.strip_prefix("host ") {
            Some(h) => host = json::parse(h).unwrap_or(Value::Null),
            None => println!("{line}"),
        }
    }
    let parsed = json::parse(last).ok();
    let metrics = parsed
        .as_ref()
        .and_then(|v| v.get("metrics"))
        .cloned()
        .unwrap_or(Value::Null);
    let correct = parsed.as_ref().and_then(|v| v.get("correct")) == Some(&Value::Bool(true));
    if !(out.status.success() && correct) {
        println!("{} FAILED (exit {:?})", w.name, out.status.code());
    }
    ChildRun {
        ok: out.status.success() && correct,
        metrics,
        host,
    }
}

/// Every workload, untraced for the end-to-end metrics and then traced
/// for the per-layer ones; the result file carries each run's host block.
fn run_all(cli: &Cli) -> ExitCode {
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in spec::WORKLOADS {
        let mut entry = vec![("name", Value::str(w.name))];
        for traced in [false, true] {
            if cli.smoke && !traced {
                continue;
            }
            let run = run_child(cli, w, traced);
            ok &= run.ok;
            entry.push((
                if traced { "traced" } else { "untraced" },
                Value::obj(vec![
                    ("correct", Value::Bool(run.ok)),
                    ("host", run.host),
                    ("metrics", run.metrics),
                ]),
            ));
        }
        workloads.push(Value::obj(entry));
    }
    if let Some(dir) = &cli.out {
        let file = Value::obj(vec![
            ("schema", Value::str("igbench-v1")),
            ("seed", Value::Num(cli.seed as f64)),
            ("workloads", Value::Arr(workloads)),
        ]);
        let path = format!("{dir}/run-seed{}.json", cli.seed);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json::pretty(&file)))
        {
            Ok(()) => println!("results written to {path}"),
            Err(e) => {
                println!("cannot write {path}: {e}");
                ok = false;
            }
        }
    }
    println!(
        "{}",
        if ok {
            "igbench: every verdict matches its reference"
        } else {
            "igbench: FAILED"
        }
    );
    exit_code(ok)
}

/// Two back-to-back untraced sets of the same build. A metric passes when
/// the sets agree within its bound (exact metrics: bit for bit).
fn run_aa(cli: &Cli) -> ExitCode {
    let sets: Vec<Vec<ChildRun>> = (0..2)
        .map(|_| {
            spec::WORKLOADS
                .iter()
                .map(|w| run_child(cli, w, false))
                .collect()
        })
        .collect();
    let mut ok = sets.iter().flatten().all(|r| r.ok);
    println!();
    println!("| workload | metric | set A | set B | worse by | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for (i, w) in spec::WORKLOADS.iter().enumerate() {
        for def in spec::END_TO_END {
            let (Some(a), Some(b)) = (sets[0][i].metric(def.name), sets[1][i].metric(def.name))
            else {
                println!("| {} | {} | missing | | | | FAIL |", w.name, def.name);
                ok = false;
                continue;
            };
            let worse = match def.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let exact = spec::EXACT_END_TO_END.contains(&def.name);
            let bound = if exact { 0.0 } else { def.bound.unwrap_or(0.0) };
            let pass = worse.abs() <= bound;
            ok &= pass;
            println!(
                "| {} | {} | {a:.6} | {b:.6} | {:+.2} % | {:.0} % | {} |",
                w.name,
                def.name,
                worse * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "FAIL" }
            );
        }
    }
    println!();
    println!(
        "{}",
        if ok {
            "igbench --aa: the two sets agree"
        } else {
            "igbench --aa: FAILED"
        }
    );
    exit_code(ok)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let cli = parse_cli(std::env::args().skip(1).collect());
    if cli.contract {
        print!("{}", json::pretty(&spec::contract()));
        return ExitCode::SUCCESS;
    }
    match cli.workload {
        Some(w) => run_here(&cli, w, process_start),
        None if cli.aa => run_aa(&cli),
        None => run_all(&cli),
    }
}
