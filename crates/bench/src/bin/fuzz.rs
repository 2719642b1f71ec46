//! Differential fuzz campaign: a stream of generated specs vs the
//! schedule-space oracle vs both detectors, fanned out over
//! `bench::par_map`.
//!
//! ```text
//! fuzz [--kernels N] [--budget SECS] [--seed S] [--corpus PATH] [--spec STR]
//!      [--litmus] [--static]
//! ```
//!
//! - `--kernels N`  specs to generate (default 200, 100 with `--litmus`;
//!   0 = unlimited, requires `--budget`; ignored with `--spec`).
//! - `--budget S`   stop starting new batches after S seconds.
//! - `--seed S`     campaign seed for the spec generator (default 42).
//! - `--corpus P`   append shrunk failing specs to corpus file P.
//! - `--spec STR`   check a single compact spec instead of a campaign and
//!   print its full report.
//! - `--litmus`     generate 2–4-actor weak-memory litmus specs with
//!   final-state assertions (`generate_litmus`) instead of two-actor race
//!   kernels (`generate_specs`). A litmus spec costs about 700× more to
//!   explore, hence the smaller default count.
//! - `--static`     check each spec through the static-pruning
//!   differential (`oracle::static_diff`: static verdict × pruned-iGUARD ×
//!   full-iGUARD × oracle enumeration) instead of `oracle::diff`, after
//!   first replaying every spec of the pinned oracle corpus. The
//!   `static-incomplete` class (a clean kernel left instrumented) is
//!   expected and reported. A `static-unsound` observation is a soundness
//!   bug and fails the run: a report the pruned run lost, an all-safe
//!   verdict on an oracle-racy kernel, or a verify-mode violation.
//!
//! A spec fails on an unexplained oracle/detector divergence (or on
//! `static-unsound` under `--static`). Exit code 1 on any failing spec
//! (after shrinking it to a minimal repro) or any panicked spec (printed
//! with its `--spec` rerun line), 2 on bad input, 0 otherwise.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bench::{flag_value, par_map, usage};
use oracle::corpus;
use oracle::diff::{diff, generate_litmus, generate_specs};
use oracle::explore::Report;
use oracle::shrink::shrink;
use oracle::spec::Spec;
use oracle::static_diff::diff_static;

const BATCH: usize = 32;

/// The pinned oracle corpus the `--static` arm replays before the fresh
/// stream: the specs that historically diverged are exactly where an
/// unsound pruning would hide.
const STATIC_REPLAY_CORPUS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/corpus/oracle.corpus"
);

struct Args {
    kernels: usize,
    budget: Option<Duration>,
    seed: u64,
    corpus_path: Option<String>,
    spec: Option<String>,
    litmus: bool,
    static_arm: bool,
}

fn parse_args(rest: Vec<String>) -> Args {
    let mut kernels = None;
    let mut args = Args {
        kernels: 0,
        budget: None,
        seed: 42,
        corpus_path: None,
        spec: None,
        litmus: false,
        static_arm: false,
    };
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--kernels" => kernels = Some(flag_value(&a, it.next())),
            "--budget" => args.budget = Some(Duration::from_secs(flag_value(&a, it.next()))),
            "--seed" => args.seed = flag_value(&a, it.next()),
            "--corpus" => args.corpus_path = Some(flag_value(&a, it.next())),
            "--spec" => args.spec = Some(flag_value(&a, it.next())),
            "--litmus" => args.litmus = true,
            "--static" => args.static_arm = true,
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    args.kernels = kernels.unwrap_or(if args.litmus { 100 } else { 200 });
    if args.kernels == 0 && args.budget.is_none() && args.spec.is_none() {
        usage("--kernels 0 (unlimited) requires --budget");
    }
    args
}

/// What the campaign loop keeps of one checked spec.
struct Summary {
    racy: bool,
    /// The spec's assertion is reachable on the weak machine only.
    weak_only: bool,
    /// One tally key per classified divergence.
    classes: Vec<String>,
    /// The spec fails the campaign.
    failing: bool,
    /// The check's one-line report.
    describe: String,
}

fn weak_only(oracle: &Report) -> bool {
    oracle
        .assertion
        .as_ref()
        .is_some_and(|a| a.reachable && !a.sc_reachable)
}

/// `oracle::diff`: fails on an unexplained divergence.
fn check_diff(spec: &Spec) -> Summary {
    let r = diff(spec);
    Summary {
        racy: r.oracle.racy,
        weak_only: weak_only(&r.oracle),
        classes: r
            .divergences
            .iter()
            .filter_map(|d| d.explanation)
            .map(|reason| format!("explained divergence: {reason}"))
            .collect(),
        failing: !r.unexplained().is_empty(),
        describe: r.describe(),
    }
}

/// `oracle::static_diff`: fails on a `static-unsound` observation.
fn check_static(spec: &Spec) -> Summary {
    let r = diff_static(spec);
    Summary {
        racy: r.oracle.racy,
        weak_only: weak_only(&r.oracle),
        classes: r
            .divergences
            .iter()
            .map(|d| format!("{}: {}", d.class, d.detail))
            .collect(),
        failing: !r.unsound().is_empty(),
        describe: r.describe(),
    }
}

/// Every spec of the pinned oracle corpus; exits 2 if it is unreadable.
fn corpus_specs() -> Vec<Spec> {
    let text = std::fs::read_to_string(STATIC_REPLAY_CORPUS)
        .unwrap_or_else(|e| usage(&format!("cannot read {STATIC_REPLAY_CORPUS}: {e}")));
    let entries = corpus::parse(&text)
        .unwrap_or_else(|e| usage(&format!("{STATIC_REPLAY_CORPUS} unreadable: {e}")));
    entries.into_iter().map(|e| e.spec).collect()
}

fn main() {
    let args = parse_args(std::env::args().skip(1).collect());
    let (check, rerun): (fn(&Spec) -> Summary, _) = if args.static_arm {
        (check_static, "fuzz --static")
    } else {
        (check_diff, "fuzz")
    };

    // Single-spec repro mode.
    if let Some(s) = &args.spec {
        let spec = Spec::parse(s).unwrap_or_else(|e| usage(&format!("bad --spec: {e}")));
        let r = check(&spec);
        println!("{}", r.describe);
        std::process::exit(i32::from(r.failing));
    }

    let generate = if args.litmus {
        generate_litmus
    } else {
        generate_specs
    };
    let mut replay = if args.static_arm {
        corpus_specs()
    } else {
        Vec::new()
    }
    .into_iter()
    .peekable();
    let replayed = replay.len();

    let started = Instant::now();
    let mut stream_seed = args.seed;
    let (mut fresh, mut racy, mut weak, mut dnf) = (0usize, 0usize, 0usize, 0usize);
    let mut classes: BTreeMap<String, usize> = BTreeMap::new();
    let mut failing: Vec<(Spec, String)> = Vec::new();

    loop {
        // The corpus replay runs whole; the budget bounds the fresh stream.
        let specs: Vec<Spec> = if replay.peek().is_some() {
            replay.by_ref().take(BATCH).collect()
        } else {
            let n = if args.kernels == 0 {
                BATCH
            } else {
                BATCH.min(args.kernels - fresh)
            };
            if n == 0 || args.budget.is_some_and(|b| started.elapsed() >= b) {
                break;
            }
            // A fresh generator seed per batch keeps the stream
            // deterministic for a given campaign seed regardless of
            // batch boundaries.
            let specs = generate(n, stream_seed);
            stream_seed = stream_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            fresh += n;
            specs
        };

        for (spec, summary) in specs.iter().zip(par_map(specs.iter().collect(), check)) {
            match summary {
                Ok(s) => {
                    racy += usize::from(s.racy);
                    weak += usize::from(s.weak_only);
                    for class in s.classes {
                        *classes.entry(class).or_insert(0) += 1;
                    }
                    if s.failing {
                        failing.push((spec.clone(), s.describe));
                    }
                }
                Err(message) => {
                    let spec = spec.to_compact_string();
                    eprintln!("fuzz job panicked on {spec}: {message}");
                    eprintln!("  rerun: {rerun} --spec '{spec}'");
                    dnf += 1;
                }
            }
        }
    }

    let done = replayed + fresh;
    println!(
        "fuzz: {done} specs ({replayed} corpus + {fresh} fresh) in {:.1}s \
         ({racy} racy, {} clean, {weak} weak-only, {dnf} DNF)",
        started.elapsed().as_secs_f64(),
        done - racy - dnf,
    );
    for (class, n) in &classes {
        println!("  {class} x{n}");
    }
    if failing.is_empty() && dnf == 0 {
        println!("no failing specs");
        return;
    }

    let mut entries = Vec::new();
    for (spec, describe) in &failing {
        let small = shrink(spec, |s| check(s).failing);
        eprintln!("FAILING: {describe}");
        eprintln!("  shrunk repro: {}", check(&small).describe);
        eprintln!("  rerun: {rerun} --spec '{}'", small.to_compact_string());
        entries.push(corpus::entry_for(&small));
    }
    if let Some(path) = &args.corpus_path {
        if let Err(e) = corpus::append(path, &entries) {
            usage(&e);
        }
        eprintln!("shrunk repros appended to {path}");
    }
    std::process::exit(1);
}
