//! Differential fuzz campaign: generated kernels vs the schedule-space
//! oracle vs both detectors, fanned out over `bench::par_map`.
//!
//! ```text
//! fuzz [--kernels N] [--budget SECS] [--seed S] [--corpus PATH] [--spec STR]
//!      [--static]
//! ```
//!
//! - `--kernels N`  kernels to generate (default 200; 0 = unlimited,
//!   requires `--budget`).
//! - `--budget S`   stop starting new batches after S seconds.
//! - `--seed S`     campaign seed for the kernel generator (default 42).
//! - `--corpus P`   append shrunk unexplained divergences to corpus file P.
//! - `--spec STR`   run a single compact spec instead of a campaign.
//! - `--static`     run the static-pruning differential arm instead:
//!   static verdict × pruned-iGUARD × full-iGUARD × oracle enumeration
//!   (`oracle::static_diff`), first replaying every spec in the pinned
//!   corpus, then the fresh random stream. The `static-incomplete` class
//!   is expected and reported; any `static-unsound` observation is a
//!   soundness bug, gets shrunk to a minimal repro, and fails the run.
//!
//! Exit code 1 on any unexplained oracle/detector divergence (after
//! shrinking it to a minimal repro) or any panicked spec (printed with
//! its `--spec` rerun line), 0 otherwise.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bench::par_map;
use oracle::corpus;
use oracle::diff::{diff, generate_specs, DiffConfig, DiffReport};
use oracle::shrink::shrink;
use oracle::spec::Spec;
use oracle::static_diff::{diff_static, StaticDiffReport};

const BATCH: usize = 32;

/// The pinned differential corpus the `--static` arm replays before the
/// random stream (path relative to the workspace root, where `ci.sh`
/// runs; silently skipped when absent, e.g. under an odd cwd).
const STATIC_REPLAY_CORPUS: &str = "tests/corpus/oracle.corpus";

struct Args {
    kernels: usize,
    budget: Option<Duration>,
    seed: u64,
    corpus_path: Option<String>,
    spec: Option<String>,
    static_arm: bool,
}

fn parse_args(rest: Vec<String>) -> Args {
    let mut args = Args {
        kernels: 200,
        budget: None,
        seed: 42,
        corpus_path: None,
        spec: None,
        static_arm: false,
    };
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--kernels" => {
                args.kernels = value("--kernels").parse().unwrap_or_else(|_| {
                    eprintln!("--kernels expects a number");
                    std::process::exit(2);
                });
            }
            "--budget" => {
                let secs: u64 = value("--budget").parse().unwrap_or_else(|_| {
                    eprintln!("--budget expects seconds");
                    std::process::exit(2);
                });
                args.budget = Some(Duration::from_secs(secs));
            }
            "--seed" => {
                args.seed = value("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("--seed expects a number");
                    std::process::exit(2);
                });
            }
            "--corpus" => args.corpus_path = Some(value("--corpus")),
            "--spec" => args.spec = Some(value("--spec")),
            "--static" => args.static_arm = true,
            other => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    if args.kernels == 0 && args.budget.is_none() {
        eprintln!("--kernels 0 (unlimited) requires --budget");
        std::process::exit(2);
    }
    args
}

/// The `--static` arm: corpus replay first, then the fresh random
/// stream, everything diffed through `oracle::static_diff::diff_static`.
/// Returns the process exit code.
fn static_campaign(args: &Args, cfg: &DiffConfig) -> i32 {
    let started = Instant::now();
    let mut done = 0usize;
    let mut replayed = 0usize;
    let mut racy = 0usize;
    let mut dnf = 0usize;
    let mut classes: BTreeMap<String, usize> = BTreeMap::new();
    let mut unsound: Vec<StaticDiffReport> = Vec::new();

    let mut run_batch = |specs: Vec<Spec>| -> usize {
        let reports = par_map(specs.iter().collect(), |spec| diff_static(spec, cfg));
        for (spec, report) in specs.iter().zip(reports) {
            match report {
                Ok(value) => {
                    racy += usize::from(value.oracle.racy);
                    for d in &value.divergences {
                        *classes
                            .entry(format!("{}: {}", d.class, d.detail))
                            .or_insert(0) += 1;
                    }
                    if !value.unsound().is_empty() {
                        unsound.push(value);
                    }
                }
                Err(message) => {
                    let spec = spec.to_compact_string();
                    eprintln!("static fuzz job panicked on {spec}: {message}");
                    eprintln!("  rerun: fuzz --static --spec '{spec}'");
                    dnf += 1;
                }
            }
        }
        specs.len()
    };

    // Phase 1: replay the pinned corpus — the specs that historically
    // diverged are exactly where an unsound pruning would hide.
    if let Ok(text) = std::fs::read_to_string(STATIC_REPLAY_CORPUS) {
        let entries = corpus::parse(&text).unwrap_or_else(|e| {
            eprintln!("{STATIC_REPLAY_CORPUS} unreadable: {e}");
            std::process::exit(2);
        });
        for chunk in entries.chunks(BATCH) {
            replayed += run_batch(chunk.iter().map(|e| e.spec.clone()).collect());
        }
        done += replayed;
    }

    // Phase 2: the fresh random stream, same generator as the main arm.
    let mut stream_seed = args.seed;
    while args.kernels == 0 || done - replayed < args.kernels {
        if let Some(b) = args.budget {
            if started.elapsed() >= b {
                break;
            }
        }
        let batch = if args.kernels == 0 {
            BATCH
        } else {
            BATCH.min(args.kernels - (done - replayed))
        };
        let specs = generate_specs(batch, stream_seed);
        stream_seed = stream_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        done += run_batch(specs);
    }

    println!(
        "fuzz --static: {done} kernels ({replayed} corpus + {} fresh) in {:.1}s \
         ({racy} racy, {} clean, {dnf} DNF)",
        done - replayed,
        started.elapsed().as_secs_f64(),
        done - racy - dnf,
    );
    for (class, n) in &classes {
        println!("  {class} x{n}");
    }
    if unsound.is_empty() && dnf == 0 {
        println!("no static-unsound divergences");
        return 0;
    }

    for r in &unsound {
        let small = shrink(&r.spec, |s| !diff_static(s, cfg).unsound().is_empty());
        let shrunk = diff_static(&small, cfg);
        eprintln!("STATIC-UNSOUND: {}", r.describe());
        eprintln!("  shrunk repro: {}", shrunk.describe());
        eprintln!(
            "  rerun: fuzz --static --spec '{}'",
            small.to_compact_string()
        );
    }
    1
}

fn main() {
    let args = parse_args(std::env::args().skip(1).collect());
    let cfg = DiffConfig::default();

    // Single-spec repro mode.
    if let Some(s) = &args.spec {
        let spec = Spec::parse(s).unwrap_or_else(|e| {
            eprintln!("bad --spec: {e}");
            std::process::exit(2);
        });
        if args.static_arm {
            let r = diff_static(&spec, &cfg);
            println!("{}", r.describe());
            std::process::exit(i32::from(!r.unsound().is_empty()));
        }
        let r = diff(&spec, &cfg);
        println!("{}", r.describe());
        std::process::exit(i32::from(!r.unexplained().is_empty()));
    }

    if args.static_arm {
        std::process::exit(static_campaign(&args, &cfg));
    }

    let started = Instant::now();
    let mut stream_seed = args.seed;
    let mut done = 0usize;
    let mut racy = 0usize;
    let mut explained: BTreeMap<String, usize> = BTreeMap::new();
    let mut unexplained: Vec<DiffReport> = Vec::new();
    let mut dnf = 0usize;

    while args.kernels == 0 || done < args.kernels {
        if let Some(b) = args.budget {
            if started.elapsed() >= b {
                break;
            }
        }
        let batch = if args.kernels == 0 {
            BATCH
        } else {
            BATCH.min(args.kernels - done)
        };
        // A fresh generator seed per batch keeps the stream deterministic
        // for a given campaign seed regardless of batch boundaries.
        let specs = generate_specs(batch, stream_seed);
        stream_seed = stream_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);

        let reports = par_map(specs.iter().collect(), |spec| diff(spec, &cfg));
        for (spec, report) in specs.iter().zip(reports) {
            match report {
                Ok(value) => {
                    racy += usize::from(value.oracle.racy);
                    for d in &value.divergences {
                        if let Some(reason) = d.explanation {
                            *explained.entry(reason.to_string()).or_insert(0) += 1;
                        }
                    }
                    if !value.unexplained().is_empty() {
                        unexplained.push(value);
                    }
                }
                Err(message) => {
                    let spec = spec.to_compact_string();
                    eprintln!("fuzz job panicked on {spec}: {message}");
                    eprintln!("  rerun: fuzz --spec '{spec}'");
                    dnf += 1;
                }
            }
            done += 1;
        }
    }

    println!(
        "fuzz: {done} kernels in {:.1}s ({racy} racy, {} clean, {dnf} DNF)",
        started.elapsed().as_secs_f64(),
        done - racy - dnf,
    );
    for (reason, n) in &explained {
        println!("  explained divergence: {reason} x{n}");
    }

    if unexplained.is_empty() && dnf == 0 {
        println!("no unexplained divergences");
        return;
    }

    let mut entries = Vec::new();
    for r in &unexplained {
        let small = shrink(&r.spec, |s| !diff(s, &cfg).unexplained().is_empty());
        let shrunk = diff(&small, &cfg);
        eprintln!("UNEXPLAINED: {}", r.describe());
        eprintln!("  shrunk repro: {}", shrunk.describe());
        eprintln!(
            "  rerun: fuzz --spec '{}'",
            small.to_compact_string()
        );
        entries.push(corpus::entry_for(&small, &cfg));
    }
    if let Some(path) = &args.corpus_path {
        if let Err(e) = corpus::append(path, &entries) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        eprintln!("shrunk repros appended to {path}");
    }
    std::process::exit(1);
}
