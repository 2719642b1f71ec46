//! `service`: the long-lived multi-tenant detector service soak.
//!
//! Drives thousands of queued kernel launches from N tenants through the
//! [`iguard::DetectorService`] — per-tenant CUDA-style streams, a fresh
//! detector per job, per-tenant race verdicts and latency SLOs — and
//! asserts the service's determinism contract in-process:
//!
//! 1. **Interleaving invariance.** The same submission set run under a
//!    different stream count and slice quantum yields byte-identical
//!    per-tenant verdict digests.
//! 2. **Restart invariance.** A service interrupted at its half-way
//!    save and recovered from the [`iguard::CheckpointStore`] converges
//!    to the same per-tenant verdicts as the uninterrupted incarnation.
//! 3. **Full accounting.** Every tenant's degradation summary satisfies
//!    `fully_accounted()`, with or without the chaos fault plane armed.
//!
//! The PR 1 driver is the load generator (the soak arms run as parallel
//! driver jobs); `--chaos` arms the PR 4 fault plane (GPU launch
//! boundary + detector internals) per job, reseeded from the job seed so
//! the drills above still hold bit-for-bit.
//!
//! `--supervised` (DESIGN.md §15) runs the soak under the self-healing
//! supervisor instead: a deterministic fraction of jobs
//! (`--poison-denom`) panic on every attempt and must land in the
//! per-tenant quarantine ledger; chaos-perturbed attempts retry in the
//! fault-free clean room and must heal to fault-free verdict bytes; and
//! the restart arm becomes a crash-recovery drill: a second incarnation
//! finishes the load and loses every save to a forced write-side fault
//! site (short write → no promote, torn and
//! corrupt writes → promoted garbage that recovery must skip).
//! `--drill-stage 1|2` exposes the two halves of the CI crash-recovery
//! drill: stage 1 soaks and saves two generations into `--store`, CI
//! corrupts the newest, stage 2 recovers, finishes the load, and
//! byte-compares against an uninterrupted run.
//!
//! ```text
//! service [--tenants N] [--jobs-per-tenant N] [--reps N] [--streams N]
//!         [--slice CYCLES] [--seed S] [--chaos]
//!         [--rate-denom D] [--quick]
//!         [--supervised] [--max-retries N] [--cycle-budget CYCLES]
//!         [--poison-denom D] [--store DIR] [--drill-stage 1|2]
//!         [--jobs N | --serial] [--timeout-secs N] [--no-progress]
//! ```
//!
//! Stdout is deterministic for a fixed flag set (simulated cycles only,
//! no wall-clock number), so a seeded run is golden-testable — with or
//! without `--supervised`.

use faults::{FaultConfig, FaultInjector, FaultSite, RATE_ONE};
use iguard::{
    CheckpointStore, DetectorService, IguardConfig, RecoveryReport, ServiceConfig, ServiceReport,
    SupervisorConfig, TenantVerdict,
};
use workloads::Size;

use bench::{
    is_poison, quiet_poison_panics, run_jobs, run_service_job, DriverConfig, Job, Outcome,
    ServiceJob,
};

/// Workload rotation per (tenant, job index): small kernels covering
/// racy and clean regimes, so verdicts are non-trivial but each job is
/// cheap enough to queue by the hundreds.
const ROTATION: [&str; 3] = ["reduction", "b_reduce", "graph-color"];

#[derive(Clone)]
struct Args {
    tenants: usize,
    jobs_per_tenant: u64,
    reps: u32,
    streams: usize,
    slice: u64,
    seed: u64,
    chaos: bool,
    rate_denom: u32,
    quick: bool,
    supervised: bool,
    max_retries: u32,
    cycle_budget: u64,
    poison_denom: u64,
    store: Option<String>,
    drill_stage: u32,
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("service: {msg}");
    }
    eprintln!(
        "usage: service [--tenants N] [--jobs-per-tenant N] [--reps N] [--streams N]\n\
         \x20              [--slice CYCLES] [--seed S] [--chaos]\n\
         \x20              [--rate-denom D] [--quick]\n\
         \x20              [--supervised] [--max-retries N] [--cycle-budget CYCLES]\n\
         \x20              [--poison-denom D] [--store DIR] [--drill-stage 1|2]\n\
         \x20              [--jobs N | --serial] [--timeout-secs N] [--no-progress]"
    );
    std::process::exit(2);
}

fn parse_args(rest: Vec<String>) -> Args {
    let mut args = Args {
        tenants: 0,
        jobs_per_tenant: 0,
        reps: 0,
        streams: 2,
        slice: 50_000,
        seed: 42,
        chaos: false,
        rate_denom: 64,
        quick: false,
        supervised: false,
        max_retries: 1,
        cycle_budget: 0,
        poison_denom: 16,
        store: None,
        drill_stage: 0,
    };
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} requires a value")))
        };
        fn numeric<T: std::str::FromStr>(flag: &str, raw: String) -> T {
            raw.parse()
                .unwrap_or_else(|_| usage(&format!("{flag} expects a number, got `{raw}`")))
        }
        match a.as_str() {
            "--tenants" => args.tenants = numeric("--tenants", value("--tenants")),
            "--jobs-per-tenant" => {
                args.jobs_per_tenant = numeric("--jobs-per-tenant", value("--jobs-per-tenant"));
            }
            "--reps" => args.reps = numeric("--reps", value("--reps")),
            "--streams" => args.streams = numeric("--streams", value("--streams")),
            "--slice" => args.slice = numeric("--slice", value("--slice")),
            "--seed" => args.seed = numeric("--seed", value("--seed")),
            "--chaos" => args.chaos = true,
            "--rate-denom" => args.rate_denom = numeric("--rate-denom", value("--rate-denom")),
            "--quick" => args.quick = true,
            "--supervised" => args.supervised = true,
            "--max-retries" => args.max_retries = numeric("--max-retries", value("--max-retries")),
            "--cycle-budget" => {
                args.cycle_budget = numeric("--cycle-budget", value("--cycle-budget"));
            }
            "--poison-denom" => {
                args.poison_denom = numeric("--poison-denom", value("--poison-denom"));
            }
            "--store" => args.store = Some(value("--store")),
            "--drill-stage" => args.drill_stage = numeric("--drill-stage", value("--drill-stage")),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    // Fleet shape defaults: both modes clear the soak's 1000-launch
    // floor with margin (each job replays its workload `reps` times, and
    // the chaos arm loses a few percent of launches to injected aborts).
    if args.tenants == 0 {
        args.tenants = if args.quick { 3 } else { 5 };
    }
    if args.jobs_per_tenant == 0 {
        args.jobs_per_tenant = if args.quick { 8 } else { 20 };
    }
    if args.reps == 0 {
        args.reps = if args.quick { 48 } else { 15 };
    }
    args
}

/// The chaos plane for this invocation (disabled without `--chaos`).
/// Per-job reseeding happens inside the service/exec path, so the same
/// plane config yields the same per-job fault schedule in every arm.
fn chaos_plane(args: &Args) -> FaultConfig {
    if args.chaos {
        FaultConfig::uniform(args.seed, RATE_ONE / args.rate_denom)
    } else {
        FaultConfig::disabled()
    }
}

/// The service configuration for one arm, the detector-internal fault
/// plane armed only when `chaos_armed`. The fault-free reference arm of
/// the supervised soak needs the *same* capacity-capped table as the
/// chaos arms (capacity evictions are part of the verdict) with zero
/// injected faults — that is the byte-identity baseline healing is
/// judged against.
fn service_config(args: &Args, streams: usize, slice: u64, chaos_armed: bool) -> ServiceConfig {
    let mut base = IguardConfig::default();
    if args.chaos {
        // Capacity-capped table so genuine capacity evictions mix with
        // injected ones (the service reseeds `base.faults` per job).
        base.table_capacity_words = Some(256);
        if chaos_armed {
            base.faults = chaos_plane(args);
        }
    }
    ServiceConfig {
        seed: args.seed,
        base,
        streams_per_tenant: streams,
        slice_cycles: slice,
    }
}

/// The configured fleet shape with the chaos plane as `--chaos` says.
fn reference_config(args: &Args) -> ServiceConfig {
    service_config(args, args.streams, args.slice, true)
}

/// The supervision policy (`None` without `--supervised`).
fn sup_config(args: &Args) -> Option<SupervisorConfig> {
    args.supervised.then(|| SupervisorConfig {
        max_retries: args.max_retries,
        cycle_budget: args.cycle_budget,
        ..SupervisorConfig::default()
    })
}

/// The poison lottery's denominator (0 — nobody — without `--supervised`).
fn poison_denom(args: &Args) -> u64 {
    if args.supervised {
        args.poison_denom
    } else {
        0
    }
}

fn tenant_name(i: usize) -> String {
    format!("tenant-{i:02}")
}

/// Submits the full load: `jobs_per_tenant` jobs per tenant, workload
/// rotated by `(tenant, job)`, stream rotated by job index.
fn submit_load(svc: &mut DetectorService<ServiceJob>, args: &Args, upto: u64) {
    for t in 0..args.tenants {
        for j in 0..upto {
            let w = ROTATION[(t + j as usize) % ROTATION.len()];
            svc.submit(
                &tenant_name(t),
                j as usize,
                ServiceJob::new(w, Size::Test, args.reps),
            );
        }
    }
}

/// What the supervised recovery arm saw from the checkpoint store.
struct RecoveryDrill {
    /// The final recovery's scan.
    report: RecoveryReport,
    /// A fired short write must never promote a generation.
    short_write_promoted: bool,
}

/// One soak arm's results (everything the drills need).
struct Soak {
    verdicts: Vec<TenantVerdict>,
    /// The arm's last incarnation, cumulative.
    report: ServiceReport,
    recovery: Option<RecoveryDrill>,
}

/// One recovery scan, as the drills print it.
fn recovery_line(rec: &RecoveryReport) -> String {
    format!(
        "recovered generation {} (scanned {}, skipped {} invalid, {} stale)",
        rec.recovered_generation.unwrap_or(0),
        rec.scanned,
        rec.skipped_invalid,
        rec.skipped_stale_seed,
    )
}

fn digests(verdicts: &[TenantVerdict]) -> Vec<String> {
    verdicts.iter().map(TenantVerdict::digest).collect()
}

/// Runs every queued job (supervised when `sup` is set, with the poison
/// lottery armed at `poison_denom`), exiting the process on a service
/// error. The multi-incarnation arms call this once per incarnation.
fn run_stage(
    svc: &mut DetectorService<ServiceJob>,
    chaos: &FaultConfig,
    poison_denom: u64,
    sup: Option<&SupervisorConfig>,
    what: &str,
) {
    let chaos = chaos.clone();
    let seed = svc.config().seed;
    let exec = move |ctx: &iguard::JobCtx<'_, ServiceJob>,
                     tool: &mut nvbit_sim::Instrumented<iguard::ShardedIguard>| {
        if is_poison(seed, poison_denom, ctx.tenant, ctx.job_index) {
            panic!("poison job: {}#{}", ctx.tenant, ctx.job_index);
        }
        run_service_job(ctx, tool, &chaos)
    };
    let result = match sup {
        Some(s) => svc.run_all_supervised(s, exec),
        None => svc.run_all(exec),
    };
    result.unwrap_or_else(|e| {
        eprintln!("service: {what} failed: {e}");
        std::process::exit(1);
    });
}

/// Runs every queued job and snapshots the cumulative state.
fn finish(
    mut svc: DetectorService<ServiceJob>,
    chaos: &FaultConfig,
    poison_denom: u64,
    sup: Option<&SupervisorConfig>,
) -> Soak {
    run_stage(&mut svc, chaos, poison_denom, sup, "soak");
    Soak {
        verdicts: svc.verdicts(),
        report: svc.report().clone(),
        recovery: None,
    }
}

/// The checkpoint-store directory for this invocation.
fn store_dir(args: &Args) -> String {
    args.store.clone().unwrap_or_else(|| {
        format!(
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/service-store-{}"),
            args.seed
        )
    })
}

/// The restart arm: the reference shape interrupted at its half-way
/// save and recovered through the checkpoint store. Supervised, it is a
/// crash-recovery drill — a second incarnation finishes the load and
/// loses every save to a forced write-side fault, so the final recovery
/// must skip the damage and land on the clean generation.
fn restart_arm(args: &Args, chaos: &FaultConfig) -> Job<Soak> {
    let (args, chaos, dir) = (args.clone(), chaos.clone(), store_dir(args));
    let label = if args.supervised { "recovery" } else { "restart" };
    Job::custom(format!("service/{label}"), move || {
        let (sup, poison) = (sup_config(&args), poison_denom(&args));
        let cfg = reference_config(&args);
        let die = |what: &str, e: &dyn std::fmt::Display| -> ! {
            eprintln!("service: {label} arm {what}: {e}");
            std::process::exit(1);
        };
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap_or_else(|e| die("store open", &e));
        // Incarnation 1: half the load, clean save → generation 1; then
        // "crash" — everything but the store is dropped.
        let (mut svc, _) = store.recover::<ServiceJob>(&cfg);
        submit_load(&mut svc, &args, args.jobs_per_tenant / 2);
        run_stage(&mut svc, &chaos, poison, sup.as_ref(), "restart arm (first incarnation)");
        store.save(&svc).unwrap_or_else(|e| die("clean save", &e));
        let mut short_write_promoted = false;
        if args.supervised {
            // Incarnation 2: finish the load, then lose every save to a
            // forced write-side fault (short write abandons the temp
            // file; torn/corrupt writes promote garbage).
            let (mut svc, _) = store.recover::<ServiceJob>(&cfg);
            submit_load(&mut svc, &args, args.jobs_per_tenant);
            run_stage(&mut svc, &chaos, poison, sup.as_ref(), "recovery arm (second incarnation)");
            for site in [
                FaultSite::CkptShortWrite,
                FaultSite::CkptTornWrite,
                FaultSite::CkptCorruptWrite,
            ] {
                let plane = FaultConfig::disabled()
                    .with_seed(args.seed ^ site.index() as u64)
                    .with_rate(site, RATE_ONE);
                let mut inj = FaultInjector::new(&plane, "ckpt-store");
                let promoted = svc
                    .checkpoint_records()
                    .and_then(|records| store.save_records_with_faults(&records, &mut inj))
                    .unwrap_or_else(|e| die("faulted save", &e));
                if site == FaultSite::CkptShortWrite && promoted.is_some() {
                    short_write_promoted = true;
                }
            }
        }
        // Last incarnation: recover (past the torn and corrupt
        // generations, if any) from generation 1 and resubmit the *full*
        // load; already-covered job indices are skipped, the lost half
        // deterministically re-runs.
        let (mut svc, rec) = store.recover::<ServiceJob>(&cfg);
        submit_load(&mut svc, &args, args.jobs_per_tenant);
        let mut soak = finish(svc, &chaos, poison, sup.as_ref());
        soak.recovery = args.supervised.then_some(RecoveryDrill {
            report: rec,
            short_write_promoted,
        });
        soak
    })
}

fn main() {
    let (driver, rest) = DriverConfig::from_env();
    let args = parse_args(rest);
    if args.supervised {
        quiet_poison_panics();
    }
    if args.drill_stage > 0 {
        drill_stage(&args);
    }
    let chaos = chaos_plane(&args);

    println!(
        "service soak: {} tenants x {} jobs x {} reps over {} \
         (streams/tenant {}, slice {}, seed {}, chaos {})",
        args.tenants,
        args.jobs_per_tenant,
        args.reps,
        ROTATION.join("/"),
        args.streams,
        args.slice,
        args.seed,
        if args.chaos { "on" } else { "off" },
    );
    if args.supervised {
        println!(
            "supervision: max-retries {} cycle-budget {} poison 1/{} (deterministic lottery)",
            args.max_retries, args.cycle_budget, args.poison_denom,
        );
    }

    // Soak arms as parallel driver jobs (the PR 1 driver is the load
    // generator's harness). Unsupervised:
    //   reference — the configured fleet shape;
    //   reshaped  — different stream count and slice quantum;
    //   restart   — reference shape, interrupted at the half-way save
    //               and recovered from the checkpoint store.
    // Supervised layers forced write-side faults over the restart arm's
    // store (newest-valid-wins recovery) and adds a fault-free arm the
    // chaos verdicts must heal to.
    // Verdict digests must be byte-identical across every arm.
    let (sup, poison) = (sup_config(&args), poison_denom(&args));
    // One uninterrupted incarnation of the full load under `cfg`.
    let soak_arm = |label: &str, cfg: ServiceConfig, chaos: FaultConfig| {
        let args = args.clone();
        Job::custom(format!("service/{label}"), move || {
            let mut svc = DetectorService::new(cfg);
            submit_load(&mut svc, &args, args.jobs_per_tenant);
            finish(svc, &chaos, poison, sup.as_ref())
        })
    };
    let mut arms = vec![soak_arm("reference", reference_config(&args), chaos.clone())];
    if args.supervised {
        let cfg = service_config(&args, args.streams, args.slice, false);
        arms.push(soak_arm("fault-free", cfg, FaultConfig::disabled()));
    }
    let reshaped = service_config(&args, args.streams + 1, (args.slice / 2).max(1), true);
    arms.push(soak_arm("reshaped", reshaped, chaos.clone()));
    arms.push(restart_arm(&args, &chaos));
    let mut outcomes = run_jobs(arms, &driver).into_iter();
    let mut next = |label: &str| match outcomes.next().expect("three arms") {
        Outcome::Done { value, .. } => value,
        Outcome::Panicked { message, .. } => {
            eprintln!("service: arm `{label}` panicked: {message}");
            std::process::exit(1);
        }
        Outcome::TimedOut { elapsed } => {
            eprintln!(
                "service: arm `{label}` exceeded the {:.0}s deadline",
                elapsed.as_secs_f64()
            );
            std::process::exit(1);
        }
        Outcome::Faulted { message, .. } => {
            eprintln!("service: arm `{label}` died on an injected fault: {message}");
            std::process::exit(1);
        }
    };
    let reference = next("reference");
    let fault_free = args.supervised.then(|| next("fault-free"));
    let reshaped = next("reshaped");
    // What the restart arm and its output lines are called.
    let restart_label = if args.supervised { "recovery" } else { "restart" };
    let restart = next(restart_label);

    let mut failures = 0usize;

    // Per-tenant verdict table (simulated cycles only — deterministic).
    // The `quar` column exists only under supervision.
    let quar = |cell: String| {
        if args.supervised {
            format!(" {cell:>5}")
        } else {
            String::new()
        }
    };
    println!(
        "{:<12} {:>5} {:>8} {:>6} {:>9} {:>6}{} {:>9} {:>9} {:>9} {:>9}  accounted",
        "tenant",
        "jobs",
        "launches",
        "sites",
        "timed_out",
        "abort",
        quar("quar".into()),
        "lat_p50",
        "lat_p90",
        "lat_p99",
        "lat_max"
    );
    println!("{}", "-".repeat(110));
    for v in &reference.verdicts {
        let accounted = v.degradation.fully_accounted();
        failures += usize::from(!accounted);
        println!(
            "{:<12} {:>5} {:>8} {:>6} {:>9} {:>6}{} {:>9} {:>9} {:>9} {:>9}  {}",
            v.tenant,
            v.jobs,
            v.launches,
            v.sites.len(),
            v.timed_out,
            v.aborted_launches,
            quar(v.quarantined.to_string()),
            v.latency.p50,
            v.latency.p90,
            v.latency.p99,
            v.latency.max,
            if accounted { "yes" } else { "NO" },
        );
    }
    println!("{}", "-".repeat(110));
    let total_launches: u64 = reference.verdicts.iter().map(|v| v.launches).sum();
    println!(
        "soak totals: jobs {} launches {} makespan {} cycles streams {}",
        reference.report.jobs_run,
        total_launches,
        reference.report.makespan_cycles,
        reference.report.streams,
    );
    if reference.report.launches != total_launches {
        println!(
            "launch accounting mismatch: service counted {} but tenant verdicts sum to {}",
            reference.report.launches, total_launches
        );
        failures += 1;
    }
    if total_launches < 1000 {
        println!("soak too small: {total_launches} launches < 1000 floor");
        failures += 1;
    }
    if args.chaos {
        if args.supervised {
            // Accepted attempts are fault-free by construction (clean
            // room); the chaos evidence lives in the supervisor's
            // discarded-attempt accounting instead.
            let s = &reference.report.supervisor;
            if s.discarded_fault_fires == 0 && s.perturbed_attempts == 0 {
                println!("chaos arm vacuous: no fault fired on any attempt — raise the rate");
                failures += 1;
            } else {
                println!(
                    "chaos plane: {} injected fault(s) discarded across {} perturbed attempt(s); accepted verdicts healed",
                    s.discarded_fault_fires, s.perturbed_attempts
                );
            }
        } else {
            let fires: u64 = reference
                .verdicts
                .iter()
                .map(|v| v.fault_stats.total())
                .sum();
            if fires == 0 {
                println!("chaos arm vacuous: no fault fired — raise the rate");
                failures += 1;
            } else {
                println!("chaos plane: {fires} faults fired, all degradations accounted");
            }
        }
    }
    if args.supervised {
        let s = &reference.report.supervisor;
        println!(
            "supervisor: {} jobs in {} attempt(s); caught {} panic(s), {} hang(s), {} perturbed; \
             {} retried, {} recovered, {} clean, {} degraded, {} quarantined",
            s.jobs_supervised,
            s.attempts,
            s.panics_caught,
            s.hangs_caught,
            s.perturbed_attempts,
            s.retries,
            s.recovered,
            s.accepted_clean,
            s.accepted_degraded,
            s.quarantined,
        );
        if reference.report.jobs_quarantined == 0 {
            println!("poison lottery vacuous: no job quarantined — lower --poison-denom");
            failures += 1;
        }
        for v in &reference.verdicts {
            if v.quarantine.is_empty() {
                continue;
            }
            let idx: Vec<String> = v
                .quarantine
                .iter()
                .map(|q| format!("{}({})", q.job_index, q.reason.name()))
                .collect();
            println!("  quarantine {}: {}", v.tenant, idx.join(" "));
        }
    }

    // Drill verdicts: byte-compare the per-tenant digests (supervised
    // digests carry the quarantine ledger, so identity also proves the
    // quarantine sets deterministic).
    let reference_digests = digests(&reference.verdicts);
    let mut drill_pairs: Vec<(&str, &Soak)> = Vec::new();
    if let Some(ff) = &fault_free {
        drill_pairs.push(("fault-free", ff));
    }
    drill_pairs.push(("reshaped", &reshaped));
    drill_pairs.push((restart_label, &restart));
    for (label, soak) in drill_pairs {
        let got = digests(&soak.verdicts);
        if got == reference_digests {
            println!("drill {label}: per-tenant verdicts byte-identical");
        } else {
            println!("drill {label}: VERDICTS DIVERGED");
            for (a, b) in reference_digests.iter().zip(&got) {
                if a != b {
                    println!("  reference: {}", a.replace('\n', " | "));
                    println!("  {label}:  {}", b.replace('\n', " | "));
                }
            }
            failures += 1;
        }
    }
    if let Some(drill) = &restart.recovery {
        let rec = &drill.report;
        println!("drill recovery: {}", recovery_line(rec));
        // Deterministic store shape: gen 1 clean, short write
        // unpromoted, torn gen 2 + corrupt gen 3 both rejected.
        if rec.recovered_generation != Some(1) || rec.skipped_invalid != 2 || rec.scanned != 3 {
            println!("drill recovery: UNEXPECTED STORE SHAPE");
            failures += 1;
        }
        if drill.short_write_promoted {
            println!("drill recovery: short write PROMOTED a generation");
            failures += 1;
        }
        if rec.skipped_stale_seed != 0 {
            println!("drill recovery: unexpected stale-seed generation");
            failures += 1;
        }
    }
    if restart.report.jobs_skipped == 0 {
        println!("drill {restart_label}: checkpoint skipped nothing — drill is vacuous");
        failures += 1;
    } else {
        println!(
            "drill {restart_label}: resumed past {} {} job(s), re-ran {}",
            restart.report.jobs_skipped,
            if args.supervised { "covered" } else { "checkpointed" },
            restart.report.jobs_run
        );
    }

    if failures > 0 {
        eprintln!("service: {failures} check(s) failed");
        std::process::exit(1);
    }
    if args.supervised {
        println!(
            "service: {} jobs / {} launches across {} tenants under supervision: {} poison job(s) \
             quarantined, chaos healed to fault-free bytes, store recovery byte-identical",
            reference.report.jobs_run, total_launches, args.tenants, reference.report.jobs_quarantined,
        );
    } else {
        println!(
            "service: {} jobs / {} launches across {} tenants: verdicts interleaving-, and \
             restart-invariant; every degradation accounted",
            reference.report.jobs_run, total_launches, args.tenants,
        );
    }
}

/// The two-stage CI crash-recovery drill (`ci.sh --service`).
///
/// Stage 1 soaks a quarter of the load and saves generation 1, then
/// resumes, soaks half, and saves generation 2 — two incarnations, both
/// promoted cleanly. CI then damages the newest generation file out of
/// band (truncation, byte flips — anything). Stage 2 recovers (expected
/// to fall back past the damage), finishes the full load, and
/// byte-compares the per-tenant digests against an uninterrupted
/// in-process control run. Exit status is the assertion.
fn drill_stage(args: &Args) -> ! {
    let chaos = chaos_plane(args);
    let (sup, poison) = (sup_config(args), poison_denom(args));
    let dir = store_dir(args);
    let mk = || reference_config(args);
    let die = |what: &str, e: &dyn std::fmt::Display| -> ! {
        eprintln!("service: drill stage {} {what}: {e}", args.drill_stage);
        std::process::exit(1);
    };
    match args.drill_stage {
        1 => {
            let _ = std::fs::remove_dir_all(&dir);
            let store = CheckpointStore::open(&dir).unwrap_or_else(|e| die("store open", &e));
            let quarter = (args.jobs_per_tenant / 4).max(1);
            let half = (args.jobs_per_tenant / 2).max(2);
            let (mut svc, _) = store.recover::<ServiceJob>(&mk());
            submit_load(&mut svc, args, quarter);
            run_stage(&mut svc, &chaos, poison, sup.as_ref(), "drill stage 1 (quarter)");
            let g1 = store.save(&svc).unwrap_or_else(|e| die("save", &e));
            let (mut svc, _) = store.recover::<ServiceJob>(&mk());
            submit_load(&mut svc, args, half);
            run_stage(&mut svc, &chaos, poison, sup.as_ref(), "drill stage 1 (half)");
            let g2 = store.save(&svc).unwrap_or_else(|e| die("save", &e));
            println!(
                "drill stage 1: saved generations {g1} and {g2} covering {quarter} then {half} jobs/tenant"
            );
            std::process::exit(0);
        }
        2 => {
            let store = CheckpointStore::open(&dir).unwrap_or_else(|e| die("store open", &e));
            let (mut svc, rec) = store.recover::<ServiceJob>(&mk());
            println!("drill stage 2: {}", recovery_line(&rec));
            submit_load(&mut svc, args, args.jobs_per_tenant);
            run_stage(&mut svc, &chaos, poison, sup.as_ref(), "drill stage 2 (finish)");
            let got = digests(&svc.verdicts());
            let promoted = store.save(&svc).unwrap_or_else(|e| die("save", &e));
            // Control: the same full load in one uninterrupted
            // incarnation, no store involved.
            let mut control = DetectorService::new(mk());
            submit_load(&mut control, args, args.jobs_per_tenant);
            run_stage(&mut control, &chaos, poison, sup.as_ref(), "drill stage 2 (control)");
            if got == digests(&control.verdicts()) {
                println!(
                    "recovery drill: digests byte-identical after damage (generation {promoted} promoted)"
                );
                std::process::exit(0);
            }
            eprintln!("recovery drill: DIGESTS DIVERGED from the uninterrupted control");
            std::process::exit(1);
        }
        n => usage(&format!("--drill-stage must be 1 or 2, got {n}")),
    }
}
