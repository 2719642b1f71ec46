//! `perf`: the wall-clock perf harness and trajectory recorder.
//!
//! Unlike every other bench binary — which reports *simulated* cycles —
//! this one measures the reproduction itself: real wall-clock time per
//! workload for the simulator→hook→detector pipeline, the detector's
//! self-profiled phase breakdown (simulate / instrument / detect / UVM),
//! the copy/compute overlap model's simulated-latency
//! win, and the static-pruning comparison (full vs pruned detector, per
//! workload). Results land in `BENCH_PR8.json` at the repo root, under
//! either the `"baseline"` key (`--record-baseline`) or the `"current"`
//! key.
//!
//! Every run records the host it was measured on (`host.cores`,
//! `host.jobs`); the baseline/current speedup is only computed when the
//! two host blocks match, so single-core CI numbers are never compared
//! against multi-core runs. The PR 2 trajectory (`BENCH_PR2.json`,
//! schema `bench-pr2-v1`) predates host recording and is carried along
//! as an informational `pr2_reference` only; the PR 7 trajectory
//! (`BENCH_PR7.json`) rides along the same way as `pr7_reference`.
//!
//! The `static_prune` section is the fig11-style hybrid-detection
//! number: each workload measured under the fully instrumented detector
//! and under `IguardConfig::with_prune()` (min-of-reps wall clock from
//! the same process — same host by construction — plus deterministic
//! simulated-cycle overheads vs native), with the honest static point
//! counts and dynamic skip accounting next to them.
//!
//! Usage:
//!
//! ```text
//! perf [--record-baseline] [--label STR] [--reps N] [--out PATH] [--quick]
//!      [--validate PATH]
//!      [driver flags: --jobs N | --serial | --timeout-secs N | --no-progress]
//! ```
//!
//! `--quick` runs a 5-workload subset
//! to a scratch file — a CI smoke that exercises the harness and
//! validates the JSON without touching the recorded trajectory.
//! `--validate PATH` parses an existing trajectory file, dispatches on
//! its schema tag (`bench-pr8-v1`, the service's `bench-pr9-v1`, or the
//! older `bench-pr7-v1`), and
//! checks the schema plus every accounting invariant (overlap
//! `busy + idle == total`, static-prune point partitioning and dispatch
//! sums), exiting non-zero on any violation. Timing methodology:
//! `--reps N` (default 3) repeats the sweep and keeps each workload's
//! *minimum* wall time; a second profiled pass collects the phase
//! breakdown without contaminating the timing pass with `Instant` reads.

use std::time::Duration;

use bench::perfjson::{self, Value};
use bench::{available_jobs, run_jobs, DriverConfig, Job, Outcome, DEFAULT_SEED};
use gpu_sim::machine::GpuConfig;
use gpu_sim::overlap::{self, CopyModel, OverlapReport, Segment, ENGINE_NAMES};
use gpu_sim::timing::PhaseTimes;
use iguard::IguardConfig;
use workloads::{Size, Workload};

const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR8.json");
const QUICK_OUT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../target/BENCH_PR8.quick.json"
);
const PR2_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR2.json");
const PR7_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR7.json");

struct Args {
    quick: bool,
    record_baseline: bool,
    label: Option<String>,
    reps: usize,
    out: Option<String>,
    validate: Option<String>,
}

fn parse_args(rest: Vec<String>) -> Args {
    let mut args = Args {
        quick: false,
        record_baseline: false,
        label: None,
        reps: 0,
        out: None,
        validate: None,
    };
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--record-baseline" => args.record_baseline = true,
            "--label" => args.label = it.next(),
            "--reps" => {
                args.reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--reps expects a number"));
            }
            "--out" => args.out = it.next(),
            "--validate" => {
                args.validate = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--validate expects a path")),
                );
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if args.reps == 0 {
        args.reps = if args.quick { 1 } else { 3 };
    }
    args
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("perf: {msg}");
    }
    eprintln!(
        "usage: perf [--record-baseline] [--label STR] [--reps N] [--out PATH] [--quick]\n\
         \x20           [--validate PATH] [--jobs N | --serial] [--timeout-secs N] [--no-progress]"
    );
    std::process::exit(2);
}

/// One workload's measured result across both passes.
struct Measured {
    name: &'static str,
    racey: bool,
    /// Minimum wall time over the timing reps (profiling off).
    wall: Duration,
    /// Simulated cycles of the full-detector run (deterministic).
    cycles: f64,
    /// Detector-processed accesses (deterministic across reps).
    accesses: u64,
    /// Phase breakdown from the profiled pass.
    phases: PhaseTimes,
    /// Copy/compute overlap schedule (deterministic across reps).
    overlap: OverlapReport,
    /// Raw timeline segments, for the streamed-sweep reschedule.
    segments: Vec<Segment>,
}

fn sweep(quick: bool) -> Vec<(Workload, bool)> {
    let mut all: Vec<(Workload, bool)> = workloads::racey().into_iter().map(|w| (w, true)).collect();
    all.extend(workloads::clean().into_iter().map(|w| (w, false)));
    if quick {
        // Fixed smoke subset: first 3 racey, first 2 clean, plus the two
        // workloads the static pass actually prunes (so the quick file's
        // `static_prune` section exercises nonzero rates).
        let racey: Vec<_> = all.iter().filter(|(_, r)| *r).take(3).cloned().collect();
        let mut clean: Vec<_> = all.iter().filter(|(_, r)| !*r).take(2).cloned().collect();
        for name in ["nn", "kmeans"] {
            if let Some(w) = workloads::by_name(name) {
                clean.push((w, false));
            }
        }
        all = racey.into_iter().chain(clean).collect();
    }
    all
}

fn perf_gpu_config(profile: bool) -> GpuConfig {
    GpuConfig {
        profile_phases: profile,
        ..bench::gpu_config(DEFAULT_SEED)
    }
}

/// Unwraps a driver outcome or exits with a diagnostic.
fn expect_done<T>(outcome: Outcome<T>, name: &str) -> (Duration, T) {
    match outcome {
        Outcome::Done { value, elapsed } => (elapsed, value),
        Outcome::Panicked { message, .. } => {
            eprintln!("perf: job `{name}` panicked: {message}");
            std::process::exit(1);
        }
        Outcome::TimedOut { elapsed } => {
            eprintln!(
                "perf: job `{name}` exceeded the {:.0}s deadline",
                elapsed.as_secs_f64()
            );
            std::process::exit(1);
        }
        Outcome::Faulted { message, .. } => {
            eprintln!("perf: job `{name}` hit an injected fault: {message}");
            std::process::exit(1);
        }
    }
}

/// Runs the serial-detector sweep once; per workload: wall, simulated
/// cycles, accesses, phases, overlap.
type MeasuredRow = (f64, u64, PhaseTimes, OverlapReport, Vec<Segment>);
type SweepRow = (Duration, f64, u64, PhaseTimes, OverlapReport, Vec<Segment>);

fn run_sweep(set: &[(Workload, bool)], cfg: &DriverConfig, profile: bool) -> Vec<SweepRow> {
    let jobs: Vec<Job<MeasuredRow>> = set
        .iter()
        .map(|(w, _)| {
            let w = *w;
            let label = format!("{}/perf profile={profile}", w.name);
            Job::custom(label, move || {
                let r = bench::run_iguard_with(
                    &w,
                    Size::Test,
                    perf_gpu_config(profile),
                    IguardConfig::default(),
                );
                (r.time, r.stats.accesses, r.stats_exec.phases, r.overlap, r.overlap_segments)
            })
        })
        .collect();
    run_jobs(jobs, cfg)
        .into_iter()
        .enumerate()
        .map(|(i, o)| {
            let (elapsed, (time, accesses, phases, overlap, segments)) =
                expect_done(o, set[i].0.name);
            (elapsed, time, accesses, phases, overlap, segments)
        })
        .collect()
}

/// One workload's pruned-detector measurement, next to the native cycle
/// anchor both overheads divide by.
struct PruneMeasured {
    /// Minimum wall time over the timing reps (pruning on).
    wall: Duration,
    /// Simulated cycles of the pruned run (deterministic).
    cycles: f64,
    /// Simulated cycles of the uninstrumented run (deterministic).
    cycles_native: f64,
    /// Static-pruning counters from the pruned run.
    prune: iguard::PruneStats,
    /// Framework dispatch accounting from the pruned run.
    instr: nvbit_sim::InstrStats,
}

type PruneRow = (f64, iguard::PruneStats, nvbit_sim::InstrStats);

/// Runs the whole set once under `IguardConfig::with_prune()`.
fn run_prune_sweep(set: &[(Workload, bool)], cfg: &DriverConfig) -> Vec<(Duration, PruneRow)> {
    let jobs: Vec<Job<PruneRow>> = set
        .iter()
        .map(|(w, _)| {
            let w = *w;
            let label = format!("{}/perf pruned", w.name);
            Job::custom(label, move || {
                let r = bench::run_iguard_with(
                    &w,
                    Size::Test,
                    perf_gpu_config(false),
                    IguardConfig::with_prune(),
                );
                (r.time, r.prune, r.instr)
            })
        })
        .collect();
    run_jobs(jobs, cfg)
        .into_iter()
        .enumerate()
        .map(|(i, o)| expect_done(o, set[i].0.name))
        .collect()
}

/// Native simulated cycles per workload (deterministic; one pass).
fn run_native_cycles(set: &[(Workload, bool)], cfg: &DriverConfig) -> Vec<f64> {
    let jobs: Vec<Job<f64>> = set
        .iter()
        .map(|(w, _)| {
            let w = *w;
            let label = format!("{}/perf native", w.name);
            Job::custom(label, move || {
                bench::run_native_with(&w, Size::Test, perf_gpu_config(false)).time
            })
        })
        .collect();
    run_jobs(jobs, cfg)
        .into_iter()
        .enumerate()
        .map(|(i, o)| expect_done(o, set[i].0.name).1)
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn phases_value(p: &PhaseTimes) -> Value {
    let mut v = Value::obj();
    v.set("total_ms", Value::Num(ns_to_ms(p.total_ns)));
    v.set("simulate_ms", Value::Num(ns_to_ms(p.simulate_ns())));
    v.set("instrument_ms", Value::Num(ns_to_ms(p.instrument_ns())));
    v.set("detect_ms", Value::Num(ns_to_ms(p.detect_exclusive_ns())));
    v.set("uvm_ms", Value::Num(ns_to_ms(p.uvm_ns)));
    v
}

fn overlap_value(name: &str, r: &OverlapReport) -> Value {
    let mut v = Value::obj();
    v.set("name", Value::Str(name.to_string()));
    v.set("segments", Value::Num(r.segments as f64));
    v.set("serial_cycles", Value::Num(r.serial_cycles as f64));
    v.set("overlapped_cycles", Value::Num(r.overlapped_cycles as f64));
    v.set("saved_cycles", Value::Num(r.saved_cycles() as f64));
    v.set("speedup", Value::Num(r.speedup()));
    let engines = r
        .engines
        .iter()
        .zip(ENGINE_NAMES)
        .map(|(lane, name)| {
            let mut e = Value::obj();
            e.set("name", Value::Str(name.into()));
            e.set("busy", Value::Num(lane.busy as f64));
            e.set("idle", Value::Num(lane.idle as f64));
            e.set("utilization_pct", Value::Num(lane.utilization_pct()));
            e
        })
        .collect();
    v.set("engines", Value::Arr(engines));
    v
}

fn run_value(results: &[Measured], args: &Args, cfg: &DriverConfig) -> Value {
    let mut workloads_arr = Vec::new();
    let mut racey_wall = Duration::ZERO;
    let mut clean_wall = Duration::ZERO;
    let mut total_accesses = 0u64;
    let mut total_phases = PhaseTimes::default();
    for m in results {
        if m.racey {
            racey_wall += m.wall;
        } else {
            clean_wall += m.wall;
        }
        total_accesses += m.accesses;
        total_phases.accumulate(&m.phases);
        let mut w = Value::obj();
        w.set("name", Value::Str(m.name.to_string()));
        w.set(
            "class",
            Value::Str(if m.racey { "racey" } else { "clean" }.into()),
        );
        w.set("wall_ms", Value::Num(ms(m.wall)));
        w.set("accesses", Value::Num(m.accesses as f64));
        w.set(
            "accesses_per_sec",
            Value::Num(m.accesses as f64 / m.wall.as_secs_f64().max(1e-9)),
        );
        w.set("phases", phases_value(&m.phases));
        workloads_arr.push(w);
    }
    let all_wall = racey_wall + clean_wall;

    let mut totals = Value::obj();
    totals.set("racey_wall_ms", Value::Num(ms(racey_wall)));
    totals.set("clean_wall_ms", Value::Num(ms(clean_wall)));
    totals.set("all_wall_ms", Value::Num(ms(all_wall)));
    totals.set("accesses", Value::Num(total_accesses as f64));
    totals.set(
        "accesses_per_sec",
        Value::Num(total_accesses as f64 / all_wall.as_secs_f64().max(1e-9)),
    );
    totals.set("phases", phases_value(&total_phases));

    let mut run = Value::obj();
    if let Some(label) = &args.label {
        run.set("label", Value::Str(label.clone()));
    }
    run.set("quick", Value::Bool(args.quick));
    run.set("reps", Value::Num(args.reps as f64));
    run.set("host", perfjson::host_info(available_jobs(), cfg.jobs));
    run.set("workloads", Value::Arr(workloads_arr));
    run.set("totals", totals);
    run
}

fn total_of(doc: &Value, run_key: &str, total_key: &str) -> Option<f64> {
    doc.get(run_key)?.get("totals")?.get(total_key)?.as_f64()
}

fn validate_file(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perf: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let doc = perfjson::parse(&text).unwrap_or_else(|e| {
        eprintln!("perf: {path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    // Dispatch on the document's own schema tag, so older trajectory
    // files stay checkable alongside the current one.
    let (schema, result) = match doc.get("schema").and_then(Value::as_str) {
        Some(s) if s == perfjson::SCHEMA_PR7 => (perfjson::SCHEMA_PR7, perfjson::validate_pr7(&doc)),
        Some(s) if s == perfjson::SCHEMA_PR9 => (perfjson::SCHEMA_PR9, perfjson::validate_pr9(&doc)),
        Some(s) if s == perfjson::SCHEMA_PR10 => {
            (perfjson::SCHEMA_PR10, perfjson::validate_pr10(&doc))
        }
        _ => (perfjson::SCHEMA_PR8, perfjson::validate_pr8(&doc)),
    };
    if let Err(e) = result {
        eprintln!("perf: {path} fails {schema} validation: {e}");
        std::process::exit(1);
    }
    println!("perf: {path} is valid {schema}");
    std::process::exit(0);
}

fn main() {
    let (driver_cfg, rest) = DriverConfig::from_env();
    let args = parse_args(rest);
    if let Some(path) = &args.validate {
        validate_file(path);
    }
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| (if args.quick { QUICK_OUT } else { DEFAULT_OUT }).to_string());

    let set = sweep(args.quick);
    eprintln!(
        "perf: sweep of {} workloads, {} timing rep(s) + 1 profiled pass",
        set.len(),
        args.reps
    );

    // Timing pass(es): profiling off, keep each workload's minimum wall.
    let mut best: Vec<(Duration, f64, u64)> = Vec::new();
    for rep in 0..args.reps {
        let pass = run_sweep(&set, &driver_cfg, false);
        if rep == 0 {
            best = pass.iter().map(|(d, t, a, _, _, _)| (*d, *t, *a)).collect();
        } else {
            for (b, (d, _, _, _, _, _)) in best.iter_mut().zip(&pass) {
                b.0 = b.0.min(*d);
            }
        }
    }

    // Profiled pass: phase breakdown + the deterministic overlap model.
    let profiled = run_sweep(&set, &driver_cfg, true);

    let results: Vec<Measured> = set
        .iter()
        .zip(best.iter().zip(profiled))
        .map(
            |((w, racey), (&(wall, cycles, accesses), (_, _, _, phases, overlap, segments)))| {
                Measured {
                    name: w.name,
                    racey: *racey,
                    wall,
                    cycles,
                    accesses,
                    phases,
                    overlap,
                    segments,
                }
            },
        )
        .collect();

    // Static-pruning comparison: the same set under
    // `IguardConfig::with_prune()` (min-of-reps wall), plus the native
    // cycle anchor for the deterministic overhead ratios.
    eprintln!("perf: static-prune pass ({} rep(s) + native anchor)", args.reps);
    let mut prune_best: Vec<(Duration, PruneRow)> = Vec::new();
    for rep in 0..args.reps {
        let pass = run_prune_sweep(&set, &driver_cfg);
        if rep == 0 {
            prune_best = pass;
        } else {
            for (b, (d, _)) in prune_best.iter_mut().zip(&pass) {
                b.0 = b.0.min(*d);
            }
        }
    }
    let native_cycles = run_native_cycles(&set, &driver_cfg);
    let pruned: Vec<PruneMeasured> = prune_best
        .into_iter()
        .zip(&native_cycles)
        .map(|((wall, (cycles, prune, instr)), &cycles_native)| PruneMeasured {
            wall,
            cycles,
            cycles_native,
            prune,
            instr,
        })
        .collect();

    // Merge into the existing trajectory file (if any).
    let mut doc = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|t| perfjson::parse(&t).ok())
        .filter(|d| d.get("schema").and_then(Value::as_str) == Some(perfjson::SCHEMA_PR8))
        .unwrap_or_else(|| {
            let mut d = Value::obj();
            d.set("schema", Value::Str(perfjson::SCHEMA_PR8.into()));
            d
        });
    let run_key = if args.record_baseline {
        "baseline"
    } else {
        "current"
    };
    doc.set(run_key, run_value(&results, &args, &driver_cfg));

    // Baseline/current speedup — only when both runs came from the same
    // host shape (cores + jobs), so the comparison is meaningful.
    if let (Some(base_run), Some(cur_run)) = (doc.get("baseline"), doc.get("current")) {
        let comparable = perfjson::hosts_comparable(base_run, cur_run);
        let mut speedup = Value::obj();
        speedup.set("comparable", Value::Bool(comparable));
        if comparable {
            for key in ["racey_wall_ms", "all_wall_ms"] {
                if let (Some(base), Some(cur)) =
                    (total_of(&doc, "baseline", key), total_of(&doc, "current", key))
                {
                    speedup.set(
                        key.replace("_wall_ms", "_speedup").as_str(),
                        Value::Num(base / cur.max(1e-9)),
                    );
                }
            }
        } else {
            speedup.set(
                "note",
                Value::Str(
                    "baseline and current were measured on different host shapes; \
                     wall-clock speedup not computed"
                        .into(),
                ),
            );
        }
        doc.set("speedup", speedup);
    }

    // Informational PR 2 reference: its schema predates host recording,
    // so the number is context, not a comparison target.
    if let Some(pr2_racey) = std::fs::read_to_string(PR2_PATH)
        .ok()
        .and_then(|t| perfjson::parse(&t).ok())
        .and_then(|d| total_of(&d, "current", "racey_wall_ms"))
    {
        let mut pr2 = Value::obj();
        pr2.set("racey_wall_ms", Value::Num(pr2_racey));
        pr2.set(
            "note",
            Value::Str(
                "from BENCH_PR2.json (schema bench-pr2-v1, no host block); informational only"
                    .into(),
            ),
        );
        doc.set("pr2_reference", pr2);
    }

    // Informational PR 7 reference, carried forward the same way: its
    // host block may not match this run's, so it is context only.
    if let Some(pr7_doc) = std::fs::read_to_string(PR7_PATH)
        .ok()
        .and_then(|t| perfjson::parse(&t).ok())
    {
        if let Some(pr7_racey) = total_of(&pr7_doc, "current", "racey_wall_ms") {
            let mut pr7 = Value::obj();
            pr7.set("racey_wall_ms", Value::Num(pr7_racey));
            if let Some(all) = total_of(&pr7_doc, "current", "all_wall_ms") {
                pr7.set("all_wall_ms", Value::Num(all));
            }
            if let Some(host) = pr7_doc.get("current").and_then(|r| r.get("host")) {
                pr7.set("host", host.clone());
            }
            pr7.set(
                "note",
                Value::Str(
                    "from BENCH_PR7.json (schema bench-pr7-v1); informational only — compare \
                     wall clocks only when the host blocks match"
                        .into(),
                ),
            );
            doc.set("pr7_reference", pr7);
        }
    }

    // Static-pruning section: the hybrid-detection number. Wall clocks
    // full-vs-pruned come from the same process and driver config, so
    // the section's host block gates the whole comparison.
    {
        let mut sp = Value::obj();
        sp.set("host", perfjson::host_info(available_jobs(), driver_cfg.jobs));
        sp.set("reps", Value::Num(args.reps as f64));
        let mut entries = Vec::new();
        let mut wall_full = Duration::ZERO;
        let mut wall_pruned = Duration::ZERO;
        let mut skipped_total = 0u64;
        let mut dispatched_total = 0u64;
        let mut oh_full = Vec::new();
        let mut oh_pruned = Vec::new();
        for (m, p) in results.iter().zip(&pruned) {
            wall_full += m.wall;
            wall_pruned += p.wall;
            skipped_total += p.instr.skipped_mem;
            dispatched_total += p.instr.dispatched_mem;
            let overhead_full = m.cycles / p.cycles_native.max(1e-9);
            let overhead_pruned = p.cycles / p.cycles_native.max(1e-9);
            oh_full.push(overhead_full);
            oh_pruned.push(overhead_pruned);
            let st = &p.prune;
            let total_mem = p.instr.dispatched_mem + p.instr.skipped_mem;
            let mut e = Value::obj();
            e.set("name", Value::Str(m.name.into()));
            e.set(
                "class",
                Value::Str(if m.racey { "racey" } else { "clean" }.into()),
            );
            e.set(
                "static_prune_rate",
                Value::Num(if st.static_mem_points == 0 {
                    0.0
                } else {
                    st.static_safe_points as f64 / st.static_mem_points as f64
                }),
            );
            e.set(
                "dynamic_prune_rate",
                Value::Num(if total_mem == 0 {
                    0.0
                } else {
                    p.instr.skipped_mem as f64 / total_mem as f64
                }),
            );
            let mut stv = Value::obj();
            stv.set("mem_points", Value::Num(st.static_mem_points as f64));
            stv.set("safe_points", Value::Num(st.static_safe_points as f64));
            stv.set("racy_points", Value::Num(st.static_racy_points as f64));
            stv.set("unknown_points", Value::Num(st.static_unknown_points as f64));
            stv.set("analyzed_kernels", Value::Num(st.analyzed_kernels as f64));
            stv.set(
                "conditional_failures",
                Value::Num(st.conditional_failures as f64),
            );
            stv.set("invalidations", Value::Num(st.invalidations as f64));
            stv.set("static_races", Value::Num(st.static_races as f64));
            e.set("static", stv);
            let mut dyv = Value::obj();
            dyv.set("dispatched_mem", Value::Num(p.instr.dispatched_mem as f64));
            dyv.set("skipped_mem", Value::Num(p.instr.skipped_mem as f64));
            dyv.set("total_mem", Value::Num(total_mem as f64));
            dyv.set("dispatched_sync", Value::Num(p.instr.dispatched_sync as f64));
            e.set("dynamic", dyv);
            e.set("wall_full_ms", Value::Num(ms(m.wall)));
            e.set("wall_pruned_ms", Value::Num(ms(p.wall)));
            e.set(
                "wall_speedup",
                Value::Num(ms(m.wall) / ms(p.wall).max(1e-9)),
            );
            e.set("cycles_native", Value::Num(p.cycles_native));
            e.set("cycles_full", Value::Num(m.cycles));
            e.set("cycles_pruned", Value::Num(p.cycles));
            e.set("overhead_full", Value::Num(overhead_full));
            e.set("overhead_pruned", Value::Num(overhead_pruned));
            entries.push(e);
        }
        sp.set("workloads", Value::Arr(entries));
        let gm_full = bench::geomean(&oh_full);
        let gm_pruned = bench::geomean(&oh_pruned);
        let total_mem = dispatched_total + skipped_total;
        let mut totals = Value::obj();
        totals.set("wall_full_ms", Value::Num(ms(wall_full)));
        totals.set("wall_pruned_ms", Value::Num(ms(wall_pruned)));
        totals.set(
            "wall_speedup",
            Value::Num(ms(wall_full) / ms(wall_pruned).max(1e-9)),
        );
        totals.set("geomean_overhead_full", Value::Num(gm_full));
        totals.set("geomean_overhead_pruned", Value::Num(gm_pruned));
        totals.set(
            "overhead_reduction_pct",
            Value::Num(100.0 * (1.0 - gm_pruned / gm_full.max(1e-9))),
        );
        totals.set(
            "dynamic_prune_rate",
            Value::Num(if total_mem == 0 {
                0.0
            } else {
                skipped_total as f64 / total_mem as f64
            }),
        );
        sp.set("totals", totals);
        doc.set("static_prune", sp);
    }

    // Overlap model section (per racey workload + aggregate).
    {
        let model = CopyModel::default();
        let mut overlap_v = Value::obj();
        let mut m = Value::obj();
        m.set("h2d_cycles_per_word", Value::Num(model.h2d_cycles_per_word as f64));
        m.set("d2h_cycles_per_word", Value::Num(model.d2h_cycles_per_word as f64));
        m.set("fixed_per_transfer", Value::Num(model.fixed_per_transfer as f64));
        overlap_v.set("model", m);
        let mut serial_total = 0u64;
        let mut overlapped_total = 0u64;
        let entries: Vec<Value> = results
            .iter()
            .filter(|r| r.racey)
            .map(|r| {
                serial_total += r.overlap.serial_cycles;
                overlapped_total += r.overlap.overlapped_cycles;
                overlap_value(r.name, &r.overlap)
            })
            .collect();
        overlap_v.set("workloads", Value::Arr(entries));

        // The streamed sweep: every racey workload's segments back to
        // back through one three-engine pipeline, so workload i's
        // report-drain D2H and workload i+1's upload overlap workload
        // kernels. This is the deterministic simulated-latency win the
        // single-launch per-workload schedules cannot show on their own.
        let streamed_segments: Vec<Segment> = results
            .iter()
            .filter(|r| r.racey)
            .flat_map(|r| r.segments.iter().cloned())
            .collect();
        let streamed = overlap::schedule(&streamed_segments, &model);
        let mut streamed_v = overlap_value("racey-sweep-streamed", &streamed);
        streamed_v.set(
            "note",
            Value::Str(
                "all racey workloads' segments scheduled through one                  H2D/kernel/D2H pipeline back to back"
                    .into(),
            ),
        );
        overlap_v.set("pipelined_sweep", streamed_v);

        let mut totals = Value::obj();
        totals.set("per_workload_serial_cycles", Value::Num(serial_total as f64));
        totals.set(
            "per_workload_overlapped_cycles",
            Value::Num(overlapped_total as f64),
        );
        totals.set("serial_cycles", Value::Num(streamed.serial_cycles as f64));
        totals.set(
            "overlapped_cycles",
            Value::Num(streamed.overlapped_cycles as f64),
        );
        totals.set("saved_cycles", Value::Num(streamed.saved_cycles() as f64));
        totals.set(
            "reduction_pct",
            Value::Num(if streamed.serial_cycles == 0 {
                0.0
            } else {
                100.0 * streamed.saved_cycles() as f64 / streamed.serial_cycles as f64
            }),
        );
        overlap_v.set("totals", totals);
        doc.set("overlap", overlap_v);
    }

    let rendered = doc.pretty();
    let reparsed = perfjson::parse(&rendered).expect("emitted JSON must re-parse");
    perfjson::validate_pr8(&reparsed).expect("emitted document must satisfy its own schema");
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&out_path, &rendered).expect("write perf trajectory file");

    // Human summary.
    println!("perf sweep ({} workloads) -> {out_path}", results.len());
    println!(
        "{:<12} {:>6} {:>12} {:>14}  phases total/sim/instr/detect/uvm (ms)",
        "workload", "class", "wall_ms", "accesses/s"
    );
    for m in &results {
        println!(
            "{:<12} {:>6} {:>12.2} {:>14.0}  {:.1}/{:.1}/{:.1}/{:.1}/{:.1}",
            m.name,
            if m.racey { "racey" } else { "clean" },
            ms(m.wall),
            m.accesses as f64 / m.wall.as_secs_f64().max(1e-9),
            ns_to_ms(m.phases.total_ns),
            ns_to_ms(m.phases.simulate_ns()),
            ns_to_ms(m.phases.instrument_ns()),
            ns_to_ms(m.phases.detect_exclusive_ns()),
            ns_to_ms(m.phases.uvm_ns),
        );
    }
    let racey_ms: f64 = results.iter().filter(|m| m.racey).map(|m| ms(m.wall)).sum();
    let all_ms: f64 = results.iter().map(|m| ms(m.wall)).sum();
    println!(
        "racey wall total: {racey_ms:.2} ms   all wall total: {all_ms:.2} ms   \
         host {}c/{}j   ({run_key})",
        available_jobs(),
        driver_cfg.jobs
    );
    if let Some(overlap) = doc.get("overlap").and_then(|o| o.get("totals")) {
        let get = |k: &str| overlap.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        println!(
            "overlap model: serial {:.0} cy -> overlapped {:.0} cy ({:.2}% saved)",
            get("serial_cycles"),
            get("overlapped_cycles"),
            get("reduction_pct"),
        );
    }
    if let Some(sp) = doc.get("static_prune").and_then(|s| s.get("totals")) {
        let get = |k: &str| sp.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        println!(
            "static prune: {:.1}% of dynamic accesses skipped; geomean overhead {:.3}x -> {:.3}x \
             ({:.2}% less); wall {:.2} ms -> {:.2} ms",
            100.0 * get("dynamic_prune_rate"),
            get("geomean_overhead_full"),
            get("geomean_overhead_pruned"),
            get("overhead_reduction_pct"),
            get("wall_full_ms"),
            get("wall_pruned_ms"),
        );
    }
    if let Some(s) = doc
        .get("speedup")
        .and_then(|s| s.get("racey_speedup"))
        .and_then(Value::as_f64)
    {
        println!("racey-sweep speedup vs baseline: {s:.2}x");
    }
}
