//! Weak-memory litmus campaign: 2–4-actor specs with final-state
//! assertions vs the relaxed-visibility oracle vs both detectors, fanned
//! out over `bench::par_map`. `fuzz` diffs the two-actor race
//! stream of the same spec language; the two stay separate binaries
//! because a litmus spec costs about 700× more to explore.
//!
//! ```text
//! litmus [--tests N] [--budget SECS] [--seed S]
//!        [--spec STR] [--corpus PATH] [--corpus-out PATH]
//! ```
//!
//! Three modes, checked in order:
//!
//! - `--spec STR`    diff a single compact v2 spec and print the
//!   full report (outcome matrix size, assertion verdict, divergences).
//! - `--corpus P`    replay a pinned corpus (`tests/corpus/oracle.corpus`):
//!   every entry is re-diffed and its witness trace re-run on the weak
//!   machine; any drift from the pinned verdicts fails the run.
//! - campaign        generate `--tests N` random specs (default 100;
//!   0 = unlimited, requires `--budget`) from `--seed S` (default 42),
//!   diff each, tally explained-divergence classes, and shrink any
//!   unexplained divergence to a 1-minimal repro. `--corpus-out P`
//!   appends shrunk repros to a corpus file.
//!
//! Exit code 1 on any unexplained divergence, replay failure, or DNF (a
//! panicked spec, printed with its `--spec` rerun line); 0 otherwise.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bench::par_map;
use oracle::corpus;
use oracle::diff::{diff, generate_litmus, DiffConfig, DiffReport};
use oracle::shrink::shrink;
use oracle::spec::Spec;

const BATCH: usize = 32;

struct Args {
    tests: usize,
    budget: Option<Duration>,
    seed: u64,
    spec: Option<String>,
    corpus: Option<String>,
    corpus_out: Option<String>,
}

fn parse_args(rest: Vec<String>) -> Args {
    let mut args = Args {
        tests: 100,
        budget: None,
        seed: 42,
        spec: None,
        corpus: None,
        corpus_out: None,
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
            "--tests" => {
                args.tests = value("--tests").parse().unwrap_or_else(|_| {
                    eprintln!("--tests expects a number");
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
            "--spec" => args.spec = Some(value("--spec")),
            "--corpus" => args.corpus = Some(value("--corpus")),
            "--corpus-out" => args.corpus_out = Some(value("--corpus-out")),
            other => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    if args.tests == 0 && args.budget.is_none() && args.spec.is_none() && args.corpus.is_none() {
        eprintln!("--tests 0 (unlimited) requires --budget");
        std::process::exit(2);
    }
    args
}

/// Replay a pinned corpus file; returns the process exit code.
fn replay_corpus(path: &str, cfg: &DiffConfig) -> i32 {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read corpus {path}: {e}");
        std::process::exit(2);
    });
    let entries = corpus::parse(&text).unwrap_or_else(|e| {
        eprintln!("corpus {path} unreadable: {e}");
        std::process::exit(2);
    });
    let total = entries.len();
    let verdicts = par_map(entries.iter().collect(), |entry| corpus::verify(entry, cfg));
    let mut failures = 0usize;
    for (entry, verdict) in entries.iter().zip(verdicts) {
        let label = entry.spec.to_compact_string();
        match verdict {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                eprintln!("REPLAY FAILED {label}: {e}");
                failures += 1;
            }
            Err(message) => {
                eprintln!("REPLAY PANICKED {label}: {message}");
                failures += 1;
            }
        }
    }
    println!("corpus: {}/{total} entries verified", total - failures);
    i32::from(failures > 0)
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
        let r = diff(&spec, &cfg);
        println!("{}", r.describe());
        std::process::exit(i32::from(!r.unexplained().is_empty()));
    }

    // Pinned-corpus replay mode.
    if let Some(path) = &args.corpus {
        std::process::exit(replay_corpus(path, &cfg));
    }

    // Fuzz campaign.
    let started = Instant::now();
    let mut stream_seed = args.seed;
    let mut done = 0usize;
    let mut racy = 0usize;
    let mut weak_anomalies = 0usize;
    let mut explained: BTreeMap<String, usize> = BTreeMap::new();
    let mut unexplained: Vec<DiffReport> = Vec::new();
    let mut dnf = 0usize;

    while args.tests == 0 || done < args.tests {
        if let Some(b) = args.budget {
            if started.elapsed() >= b {
                break;
            }
        }
        let batch = if args.tests == 0 {
            BATCH
        } else {
            BATCH.min(args.tests - done)
        };
        // A fresh generator seed per batch keeps the stream deterministic
        // for a given campaign seed regardless of batch boundaries.
        let specs = generate_litmus(batch, stream_seed);
        stream_seed = stream_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);

        let reports = par_map(specs.iter().collect(), |spec| diff(spec, &cfg));
        for (spec, report) in specs.iter().zip(reports) {
            match report {
                Ok(value) => {
                    racy += usize::from(value.oracle.racy);
                    weak_anomalies += usize::from(
                        value
                            .oracle
                            .assertion
                            .as_ref()
                            .is_some_and(|a| a.reachable && !a.sc_reachable),
                    );
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
                    eprintln!("litmus job panicked on {spec}: {message}");
                    eprintln!("  rerun: litmus --spec '{spec}'");
                    dnf += 1;
                }
            }
            done += 1;
        }
    }

    println!(
        "litmus: {done} specs in {:.1}s ({racy} racy, {} clean, \
         {weak_anomalies} weak-only assertion violations, {dnf} DNF)",
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
        eprintln!("  rerun: litmus --spec '{}'", small.to_compact_string());
        entries.push(corpus::entry_for(&small, &cfg));
    }
    if let Some(path) = &args.corpus_out {
        if let Err(e) = corpus::append(path, &entries) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        eprintln!("shrunk repros appended to {path}");
    }
    std::process::exit(1);
}
