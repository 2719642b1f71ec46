//! Differential fuzz campaign: generated kernels vs the schedule-space
//! oracle vs both detectors, fanned out over the work-stealing driver.
//!
//! ```text
//! fuzz [--kernels N] [--budget SECS] [--seed S] [--corpus PATH] [--spec STR]
//!      [--static] [--checkpoint DIR] [--resume DIR]
//!      [--jobs N] [--serial] [--timeout-secs N] [--no-progress]
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
//!   Checkpointing is not supported in this mode.
//! - `--checkpoint D`  snapshot campaign progress after every batch as a
//!   new generation of the checkpoint store in directory D
//!   (`iguard::CheckpointStore`: CRC-framed, atomically promoted).
//! - `--resume D`   continue an interrupted campaign from the newest
//!   valid generation in D — a torn or corrupt newest generation falls
//!   back to the one before it (restores the seed, stream position, and
//!   every counter; keeps checkpointing to the same store). The kernel
//!   stream is a pure function of the campaign seed, so a resumed
//!   campaign produces exactly the results the uninterrupted one would
//!   have.
//!
//! Exit code 1 on any unexplained oracle/detector divergence (after
//! shrinking it to a minimal repro), 0 otherwise.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bench::campaign::Checkpoint;
use bench::{run_jobs, DriverConfig, Job, Outcome};
use iguard::CheckpointStore;
use oracle::corpus;
use oracle::diff::{diff_spec, generate_specs, DiffConfig, DiffReport};
use oracle::shrink::shrink_spec;
use oracle::spec::KernelSpec;
use oracle::static_diff::{diff_static, StaticDiffReport};

const BATCH: usize = 32;

/// The pinned differential corpus the `--static` arm replays before the
/// random stream (path relative to the workspace root, where `ci.sh`
/// runs; silently skipped when absent, e.g. under an odd cwd).
const STATIC_REPLAY_CORPUS: &str = "tests/corpus/oracle_v1.corpus";

struct Args {
    kernels: usize,
    budget: Option<Duration>,
    seed: u64,
    corpus_path: Option<String>,
    spec: Option<String>,
    static_arm: bool,
    checkpoint: Option<String>,
    resume: Option<String>,
}

fn parse_args(rest: Vec<String>) -> Args {
    let mut args = Args {
        kernels: 200,
        budget: None,
        seed: 42,
        corpus_path: None,
        spec: None,
        static_arm: false,
        checkpoint: None,
        resume: None,
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
            "--checkpoint" => args.checkpoint = Some(value("--checkpoint")),
            "--resume" => args.resume = Some(value("--resume")),
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
    if args.static_arm && (args.checkpoint.is_some() || args.resume.is_some()) {
        eprintln!("--static does not support --checkpoint/--resume");
        std::process::exit(2);
    }
    args
}

/// The `--static` arm: corpus replay first, then the fresh random
/// stream, everything diffed through `oracle::static_diff::diff_static`.
/// Returns the process exit code.
fn static_campaign(args: &Args, driver: &DriverConfig, cfg: &DiffConfig) -> i32 {
    let started = Instant::now();
    let mut done = 0usize;
    let mut replayed = 0usize;
    let mut racy = 0usize;
    let mut dnf = 0usize;
    let mut classes: BTreeMap<String, usize> = BTreeMap::new();
    let mut unsound: Vec<StaticDiffReport> = Vec::new();

    let mut run_batch = |specs: Vec<KernelSpec>| -> usize {
        let jobs: Vec<Job<StaticDiffReport>> = specs
            .into_iter()
            .map(|spec| {
                let cfg = cfg.clone();
                Job::custom(spec.to_compact_string(), move || diff_static(&spec, &cfg))
            })
            .collect();
        let mut finished = 0usize;
        for outcome in run_jobs(jobs, driver) {
            match outcome {
                Outcome::Done { value, .. } => {
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
                Outcome::Panicked { message, .. } => {
                    eprintln!("static fuzz job panicked: {message}");
                    dnf += 1;
                }
                Outcome::TimedOut { .. } => dnf += 1,
                Outcome::Faulted { message, .. } => {
                    eprintln!("static fuzz job faulted: {message}");
                    dnf += 1;
                }
            }
            finished += 1;
        }
        finished
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
        let small = shrink_spec(&r.spec, |s| !diff_static(s, cfg).unsound().is_empty());
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
    let (driver, rest) = DriverConfig::from_env();
    let args = parse_args(rest);
    let cfg = DiffConfig::default();

    // Single-spec repro mode.
    if let Some(s) = &args.spec {
        let spec = KernelSpec::parse(s).unwrap_or_else(|e| {
            eprintln!("bad --spec: {e}");
            std::process::exit(2);
        });
        if args.static_arm {
            let r = diff_static(&spec, &cfg);
            println!("{}", r.describe());
            std::process::exit(i32::from(!r.unsound().is_empty()));
        }
        let r = diff_spec(&spec, &cfg);
        println!("{}", r.describe());
        std::process::exit(i32::from(!r.unexplained().is_empty()));
    }

    if args.static_arm {
        std::process::exit(static_campaign(&args, &driver, &cfg));
    }

    let started = Instant::now();
    let mut stream_seed = args.seed;
    let mut kernels_target = args.kernels;
    let mut done = 0usize;
    let mut racy = 0usize;
    let mut explained: BTreeMap<String, usize> = BTreeMap::new();
    let mut unexplained: Vec<DiffReport> = Vec::new();
    let mut dnf = 0usize;

    // Resume: restore the stream cursor and every aggregate from the
    // newest valid generation; keep saving to the same store unless
    // --checkpoint pointed elsewhere.
    let open_store = |dir: &String| {
        CheckpointStore::open(dir).unwrap_or_else(|e| {
            eprintln!("cannot open checkpoint store {dir}: {e}");
            std::process::exit(2);
        })
    };
    let resume_store = args.resume.as_ref().map(open_store);
    if let Some(store) = &resume_store {
        let (ck, rec) = Checkpoint::recover(store, None);
        let Some(ck) = ck else {
            eprintln!(
                "--resume: no valid checkpoint generation in {} ({} scanned)",
                store.dir().display(),
                rec.scanned
            );
            std::process::exit(2);
        };
        stream_seed = ck.meta_as("stream_seed").unwrap_or(stream_seed);
        kernels_target = ck.meta_as("kernels").unwrap_or(kernels_target);
        done = ck.meta_as("done").unwrap_or(0);
        racy = ck.meta_as("racy").unwrap_or(0);
        dnf = ck.meta_as("dnf").unwrap_or(0);
        for (k, v) in &ck.meta {
            if let Some(reason) = k.strip_prefix("explained:") {
                explained.insert(reason.to_string(), v.parse().unwrap_or(0));
            }
        }
        // Stored unexplained specs are deterministic; re-diff to rebuild
        // their full reports for the final shrink/corpus stage.
        for (kind, spec_str) in &ck.rows {
            if kind != "unexplained" {
                continue;
            }
            match KernelSpec::parse(spec_str) {
                Ok(spec) => unexplained.push(diff_spec(&spec, &cfg)),
                Err(e) => eprintln!("checkpointed spec `{spec_str}` unreadable: {e}"),
            }
        }
        eprintln!(
            "resumed campaign seed={} at kernel {done} (stream seed {stream_seed:#x}) from \
             generation {} ({} scanned, {} invalid skipped)",
            ck.meta_as::<u64>("seed").unwrap_or(args.seed),
            rec.recovered_generation.unwrap_or(0),
            rec.scanned,
            rec.skipped_invalid,
        );
    }

    let ckpt_store = args.checkpoint.as_ref().map(open_store).or(resume_store);

    while kernels_target == 0 || done < kernels_target {
        if let Some(b) = args.budget {
            if started.elapsed() >= b {
                break;
            }
        }
        let batch = if kernels_target == 0 {
            BATCH
        } else {
            BATCH.min(kernels_target - done)
        };
        // A fresh generator seed per batch keeps the stream deterministic
        // for a given campaign seed regardless of batch boundaries.
        let specs = generate_specs(batch, stream_seed);
        stream_seed = stream_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);

        let jobs: Vec<Job<DiffReport>> = specs
            .into_iter()
            .map(|spec| {
                let cfg = cfg.clone();
                Job::custom(spec.to_compact_string(), move || diff_spec(&spec, &cfg))
            })
            .collect();
        for outcome in run_jobs(jobs, &driver) {
            match outcome {
                Outcome::Done { value, .. } => {
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
                Outcome::Panicked { message, .. } => {
                    eprintln!("fuzz job panicked: {message}");
                    dnf += 1;
                }
                Outcome::TimedOut { .. } => dnf += 1,
                Outcome::Faulted { message, .. } => {
                    // The differential harness runs no fault plane; an
                    // injected-fault death here is as fatal as a panic.
                    eprintln!("fuzz job faulted: {message}");
                    dnf += 1;
                }
            }
            done += 1;
        }

        // Batch boundary: snapshot the stream cursor and aggregates so an
        // interrupted campaign resumes without repeating finished work.
        if let Some(store) = &ckpt_store {
            let mut ck = Checkpoint::new();
            ck.set_meta("seed", args.seed);
            ck.set_meta("kernels", kernels_target);
            ck.set_meta("stream_seed", stream_seed);
            ck.set_meta("done", done);
            ck.set_meta("racy", racy);
            ck.set_meta("dnf", dnf);
            for (reason, n) in &explained {
                ck.set_meta(&format!("explained:{reason}"), n);
            }
            for r in &unexplained {
                ck.push_row("unexplained", r.spec.to_compact_string());
            }
            if let Err(e) = ck.save(store) {
                eprintln!("cannot write checkpoint to {}: {e}", store.dir().display());
            }
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
        let small = shrink_spec(&r.spec, |s| !diff_spec(s, &cfg).unexplained().is_empty());
        let shrunk = diff_spec(&small, &cfg);
        eprintln!("UNEXPLAINED: {}", r.describe());
        eprintln!("  shrunk repro: {}", shrunk.describe());
        eprintln!(
            "  rerun: fuzz --spec '{}'",
            small.to_compact_string()
        );
        entries.push(corpus::entry_for(&small, &cfg));
    }
    if let Some(path) = &args.corpus_path {
        let text = match std::fs::read_to_string(path) {
            Ok(existing) => {
                let mut all = corpus::parse(&existing).unwrap_or_else(|e| {
                    eprintln!("existing corpus {path} unreadable: {e}");
                    std::process::exit(2);
                });
                all.extend(entries);
                corpus::format(&all)
            }
            Err(_) => corpus::format(&entries),
        };
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write corpus {path}: {e}");
        } else {
            eprintln!("shrunk repros appended to {path}");
        }
    }
    std::process::exit(1);
}
