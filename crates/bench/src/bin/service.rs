//! `service`: the long-lived multi-tenant detector service soak.
//!
//! Drives thousands of queued kernel launches from N tenants through the
//! [`iguard::DetectorService`] — per-tenant CUDA-style streams, sharded
//! per-job detection, per-tenant race verdicts and latency SLOs — and
//! asserts the service's determinism contract in-process:
//!
//! 1. **Interleaving/shard invariance.** The same submission set run
//!    under a different stream count, shard count, and
//!    slice quantum yields byte-identical per-tenant verdict digests.
//! 2. **Restart invariance.** A service interrupted at its half-way
//!    checkpoint and resumed from the checkpoint text converges to the
//!    same per-tenant verdicts as the uninterrupted incarnation.
//! 3. **Full accounting.** Every tenant's degradation summary satisfies
//!    `fully_accounted()`, with or without the chaos fault plane armed.
//!
//! The PR 1 driver is the load generator (the soak arms run as parallel
//! driver jobs); `--chaos` arms the PR 4 fault plane (GPU launch
//! boundary + detector internals) per job, reseeded from the job seed so
//! the drills above still hold bit-for-bit. Results land in
//! `BENCH_PR9.json` (schema `bench-pr9-v1`, validated before writing and
//! by `perfjson::validate_pr9` in CI).
//!
//! `--supervised` (DESIGN.md §15) runs the soak under the self-healing
//! supervisor instead: a deterministic fraction of jobs
//! (`--poison-denom`) panic on every attempt and must land in the
//! per-tenant quarantine ledger; chaos-perturbed attempts retry down the
//! decaying fault ladder and must heal to fault-free verdict bytes; and
//! the restart arm becomes a crash-recovery drill through the
//! generation-numbered [`iguard::CheckpointStore`] with all three
//! write-side fault sites forced (short write → no promote, torn and
//! corrupt writes → promoted garbage that recovery must skip). Results
//! land in `BENCH_PR10.json` (schema `bench-pr10-v1`,
//! `perfjson::validate_pr10`). `--drill-stage 1|2` exposes the two
//! halves of the CI crash-recovery drill: stage 1 soaks and saves two
//! generations into `--store`, CI corrupts the newest, stage 2 recovers,
//! finishes the load, and byte-compares against an uninterrupted run.
//!
//! ```text
//! service [--tenants N] [--jobs-per-tenant N] [--reps N] [--streams N]
//!         [--shards N] [--slice CYCLES] [--seed S] [--chaos]
//!         [--rate-denom D] [--quick] [--out PATH] [--validate PATH]
//!         [--supervised] [--max-retries N] [--cycle-budget CYCLES]
//!         [--poison-denom D] [--store DIR] [--drill-stage 1|2]
//!         [--jobs N | --serial] [--timeout-secs N] [--no-progress]
//! ```
//!
//! Stdout is deterministic for a fixed flag set (wall-clock numbers go
//! only to the JSON file), so a seeded run is golden-testable — with or
//! without `--supervised`.

use std::time::{Duration, Instant};

use faults::{splitmix64, FaultConfig, FaultInjector, FaultSite, RATE_ONE};
use iguard::service::job_seed;
use iguard::{
    CheckpointStore, DetectorService, IguardConfig, ServiceConfig, ShardConfig,
    SupervisorConfig, SupervisorStats, TenantVerdict,
};
use workloads::Size;

use bench::perfjson::{self, Value};
use bench::{
    available_jobs, run_jobs, run_service_job, DriverConfig, Job, Outcome, ServiceJob,
};

const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR9.json");
const QUICK_OUT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../target/BENCH_PR9.quick.json"
);
const DEFAULT_OUT_PR10: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR10.json");
const QUICK_OUT_PR10: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../target/BENCH_PR10.quick.json"
);

/// Salt for the deterministic poison-job lottery: a job is poison iff
/// `splitmix64(job_seed ^ SALT) % poison_denom == 0`, so the poison set
/// is a pure function of `(service_seed, tenant, job_index)` — identical
/// in every arm, every reshape, every restart.
const POISON_SALT: u64 = 0x9015_0D0B_AD5E_ED01;

/// Workload rotation per (tenant, job index): small kernels covering
/// racy and clean regimes, so verdicts are non-trivial but each job is
/// cheap enough to queue by the hundreds.
const ROTATION: [&str; 3] = ["reduction", "b_reduce", "graph-color"];

struct Args {
    tenants: usize,
    jobs_per_tenant: u64,
    reps: u32,
    streams: usize,
    shards: usize,
    slice: u64,
    seed: u64,
    chaos: bool,
    rate_denom: u32,
    quick: bool,
    out: Option<String>,
    validate: Option<String>,
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
         \x20              [--shards N] [--slice CYCLES] [--seed S] [--chaos]\n\
         \x20              [--rate-denom D] [--quick] [--out PATH] [--validate PATH]\n\
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
        shards: 2,
        slice: 50_000,
        seed: 42,
        chaos: false,
        rate_denom: 64,
        quick: false,
        out: None,
        validate: None,
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
            "--shards" => args.shards = numeric("--shards", value("--shards")),
            "--slice" => args.slice = numeric("--slice", value("--slice")),
            "--seed" => args.seed = numeric("--seed", value("--seed")),
            "--chaos" => args.chaos = true,
            "--rate-denom" => args.rate_denom = numeric("--rate-denom", value("--rate-denom")),
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value("--out")),
            "--validate" => args.validate = Some(value("--validate")),
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
    // Fleet shape defaults: both modes clear the schema's 1000-launch
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

fn validate_file(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("service: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let doc = perfjson::parse(&text).unwrap_or_else(|e| {
        eprintln!("service: {path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    // Dispatch on the document's own schema tag: plain soaks carry
    // bench-pr9-v1, supervised soaks bench-pr10-v1.
    let (schema, result) = match doc.get("schema").and_then(Value::as_str) {
        Some(s) if s == perfjson::SCHEMA_PR10 => {
            (perfjson::SCHEMA_PR10, perfjson::validate_pr10(&doc))
        }
        _ => (perfjson::SCHEMA_PR9, perfjson::validate_pr9(&doc)),
    };
    if let Err(e) = result {
        eprintln!("service: {path} fails {schema} validation: {e}");
        std::process::exit(1);
    }
    println!("service: {path} is valid {schema}");
    std::process::exit(0);
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

fn service_config(args: &Args, streams: usize, shard: ShardConfig, slice: u64) -> ServiceConfig {
    service_config_with(args, streams, shard, slice, args.chaos)
}

/// Like [`service_config`] but with the detector-internal fault plane
/// armed only when `chaos_armed`. The fault-free reference arm of the
/// supervised soak needs the *same* capacity-capped table as the chaos
/// arms (capacity evictions are part of the verdict) with zero injected
/// faults — that is the byte-identity baseline healing is judged against.
fn service_config_with(
    args: &Args,
    streams: usize,
    shard: ShardConfig,
    slice: u64,
    chaos_armed: bool,
) -> ServiceConfig {
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
        shard,
        streams_per_tenant: streams,
        slice_cycles: slice,
    }
}

fn sup_config(args: &Args) -> SupervisorConfig {
    SupervisorConfig {
        max_retries: args.max_retries,
        cycle_budget: args.cycle_budget,
        ..SupervisorConfig::default()
    }
}

/// Whether the deterministic poison lottery marks this job: such a job
/// panics on **every** attempt and must end up quarantined.
fn is_poison(seed: u64, poison_denom: u64, tenant: &str, job_index: u64) -> bool {
    poison_denom > 0
        && splitmix64(job_seed(seed, tenant, job_index) ^ POISON_SALT).is_multiple_of(poison_denom)
}

/// Suppresses the panic-hook backtrace spam from deliberately poisoned
/// jobs (they panic with a `poison job:` marker and are caught by the
/// supervisor); every other panic still reports through the previous
/// hook, so a genuine bug stays loud.
fn install_quiet_poison_hook() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let quiet = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|m| m.contains("poison job"));
        if !quiet {
            prev(info);
        }
    }));
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
    recovered_generation: u64,
    scanned: u64,
    skipped_invalid: u64,
    skipped_stale: u64,
    /// A fired short write must never promote a generation.
    short_write_promoted: bool,
}

/// One soak arm's results (everything the drills and the JSON need).
struct Soak {
    verdicts: Vec<TenantVerdict>,
    jobs_run: u64,
    jobs_skipped: u64,
    launches: u64,
    makespan: u64,
    streams: usize,
    front_end_cycles: u64,
    transport_sent: u64,
    transport_drained: u64,
    wall: Duration,
    jobs_quarantined: u64,
    supervisor: SupervisorStats,
    recovery: Option<RecoveryDrill>,
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
    start: Instant,
) -> Soak {
    run_stage(&mut svc, chaos, poison_denom, sup, "soak");
    let r = svc.report();
    Soak {
        verdicts: svc.verdicts(),
        jobs_run: r.jobs_run,
        jobs_skipped: r.jobs_skipped,
        launches: r.launches,
        makespan: r.makespan_cycles,
        streams: r.streams,
        front_end_cycles: r.front_end_cycles,
        transport_sent: r.transport.sent,
        transport_drained: r.transport.drained,
        wall: start.elapsed(),
        jobs_quarantined: r.jobs_quarantined,
        supervisor: r.supervisor,
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

fn main() {
    let (driver, rest) = DriverConfig::from_env();
    let args = parse_args(rest);
    if let Some(path) = &args.validate {
        validate_file(path);
    }
    if args.supervised {
        install_quiet_poison_hook();
    }
    if args.drill_stage > 0 {
        drill_stage(&args);
    }
    let out_path = args.out.clone().unwrap_or_else(|| {
        match (args.supervised, args.quick) {
            (true, true) => QUICK_OUT_PR10,
            (true, false) => DEFAULT_OUT_PR10,
            (false, true) => QUICK_OUT,
            (false, false) => DEFAULT_OUT,
        }
        .to_string()
    });
    let chaos = chaos_plane(&args);

    println!(
        "service soak: {} tenants x {} jobs x {} reps over {} \
         (streams/tenant {}, shards {} inline, slice {}, seed {}, chaos {})",
        args.tenants,
        args.jobs_per_tenant,
        args.reps,
        ROTATION.join("/"),
        args.streams,
        args.shards,
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
    //   reference — the configured fleet shape, inline shards;
    //   reshaped  — different stream count, shard count and slice
    //               quantum;
    //   restart   — reference shape, interrupted at the half-way
    //               checkpoint and resumed from its text.
    // Supervised swaps the restart arm for a checkpoint-store recovery
    // drill (write-side faults forced, newest-valid-wins recovery) and
    // adds a fault-free arm the chaos verdicts must heal to.
    // Verdict digests must be byte-identical across every arm.
    let arms: Vec<Job<Soak>> = {
        let a = |label: &str| format!("service/{label}");
        let poison = if args.supervised { args.poison_denom } else { 0 };
        let reference = {
            let (args_c, chaos_c) = (clone_args(&args), chaos.clone());
            Job::custom(a("reference"), move || {
                let start = Instant::now();
                let cfg = service_config(
                    &args_c,
                    args_c.streams,
                    ShardConfig::inline(args_c.shards),
                    args_c.slice,
                );
                let mut svc = DetectorService::new(cfg);
                submit_load(&mut svc, &args_c, args_c.jobs_per_tenant);
                let sup = args_c.supervised.then(|| sup_config(&args_c));
                finish(svc, &chaos_c, poison, sup.as_ref(), start)
            })
        };
        let fault_free = args.supervised.then(|| {
            let args_c = clone_args(&args);
            Job::custom(a("fault-free"), move || {
                let start = Instant::now();
                let cfg = service_config_with(
                    &args_c,
                    args_c.streams,
                    ShardConfig::inline(args_c.shards),
                    args_c.slice,
                    false,
                );
                let mut svc = DetectorService::new(cfg);
                submit_load(&mut svc, &args_c, args_c.jobs_per_tenant);
                let sup = sup_config(&args_c);
                finish(svc, &FaultConfig::disabled(), poison, Some(&sup), start)
            })
        });
        let reshaped = {
            let (args_c, chaos_c) = (clone_args(&args), chaos.clone());
            Job::custom(a("reshaped"), move || {
                let start = Instant::now();
                let cfg = service_config(
                    &args_c,
                    args_c.streams + 1,
                    ShardConfig::inline(args_c.shards * 2),
                    (args_c.slice / 2).max(1),
                );
                let mut svc = DetectorService::new(cfg);
                submit_load(&mut svc, &args_c, args_c.jobs_per_tenant);
                let sup = args_c.supervised.then(|| sup_config(&args_c));
                finish(svc, &chaos_c, poison, sup.as_ref(), start)
            })
        };
        let restart = if args.supervised {
            // Crash-recovery drill through the generation-numbered
            // store: a clean save, then one save per write-side fault
            // site forced to fire, then recovery that must skip the
            // damage and land on the clean generation.
            let (args_c, chaos_c) = (clone_args(&args), chaos.clone());
            let dir = store_dir(&args);
            Job::custom(a("recovery"), move || {
                let start = Instant::now();
                let sup = sup_config(&args_c);
                let mk = || {
                    service_config(
                        &args_c,
                        args_c.streams,
                        ShardConfig::inline(args_c.shards),
                        args_c.slice,
                    )
                };
                let die = |what: &str, e: &dyn std::fmt::Display| -> ! {
                    eprintln!("service: recovery arm {what}: {e}");
                    std::process::exit(1);
                };
                let _ = std::fs::remove_dir_all(&dir);
                let store =
                    CheckpointStore::open(&dir).unwrap_or_else(|e| die("store open", &e));
                // Incarnation 1: half the load, clean save → generation 1.
                let (mut svc, _) = store.recover::<ServiceJob>(&mk());
                submit_load(&mut svc, &args_c, args_c.jobs_per_tenant / 2);
                run_stage(&mut svc, &chaos_c, poison, Some(&sup), "recovery incarnation 1");
                store.save(&svc).unwrap_or_else(|e| die("clean save", &e));
                // Incarnation 2: finish the load, then lose every save
                // to a forced write-side fault (short write abandons the
                // temp file; torn/corrupt writes promote garbage).
                let (mut svc, _) = store.recover::<ServiceJob>(&mk());
                submit_load(&mut svc, &args_c, args_c.jobs_per_tenant);
                run_stage(&mut svc, &chaos_c, poison, Some(&sup), "recovery incarnation 2");
                let mut short_write_promoted = false;
                for site in [
                    FaultSite::CkptShortWrite,
                    FaultSite::CkptTornWrite,
                    FaultSite::CkptCorruptWrite,
                ] {
                    let plane = FaultConfig::disabled()
                        .with_seed(args_c.seed ^ site.index() as u64)
                        .with_rate(site, RATE_ONE);
                    let mut inj = FaultInjector::new(&plane, "ckpt-store");
                    let rep = store
                        .save_with_faults(&svc, &mut inj)
                        .unwrap_or_else(|e| die("faulted save", &e));
                    if site == FaultSite::CkptShortWrite && rep.generation.is_some() {
                        short_write_promoted = true;
                    }
                }
                // Incarnation 3: recovery must reject the torn and
                // corrupt generations and resume from generation 1,
                // then deterministically re-run the lost second half.
                let (mut svc, rec) = store.recover::<ServiceJob>(&mk());
                submit_load(&mut svc, &args_c, args_c.jobs_per_tenant);
                let mut soak = finish(svc, &chaos_c, poison, Some(&sup), start);
                soak.recovery = Some(RecoveryDrill {
                    recovered_generation: rec.recovered_generation.unwrap_or(0),
                    scanned: rec.scanned,
                    skipped_invalid: rec.skipped_invalid,
                    skipped_stale: rec.skipped_stale_seed,
                    short_write_promoted,
                });
                soak
            })
        } else {
            let (args_c, chaos_c) = (clone_args(&args), chaos.clone());
            Job::custom(a("restart"), move || {
                let start = Instant::now();
                let mk = || {
                    service_config(
                        &args_c,
                        args_c.streams,
                        ShardConfig::inline(args_c.shards),
                        args_c.slice,
                    )
                };
                // First incarnation: half the load, then "crash" —
                // everything but the checkpoint text is dropped.
                let mut svc = DetectorService::new(mk());
                submit_load(&mut svc, &args_c, args_c.jobs_per_tenant / 2);
                run_stage(&mut svc, &chaos_c, 0, None, "restart arm (first incarnation)");
                let ckpt = svc.checkpoint();
                drop(svc);
                // Second incarnation: resume, resubmit the *full* load;
                // already-covered job indices are skipped.
                let mut svc = DetectorService::resume(mk(), &ckpt).unwrap_or_else(|e| {
                    eprintln!("service: restart arm resume failed: {e}");
                    std::process::exit(1);
                });
                submit_load(&mut svc, &args_c, args_c.jobs_per_tenant);
                finish(svc, &chaos_c, 0, None, start)
            })
        };
        let mut arms = vec![reference];
        arms.extend(fault_free);
        arms.push(reshaped);
        arms.push(restart);
        arms
    };
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
    let restart = next(if args.supervised { "recovery" } else { "restart" });

    let mut failures = 0usize;

    // Per-tenant verdict table (simulated cycles only — deterministic).
    if args.supervised {
        println!(
            "{:<12} {:>5} {:>8} {:>6} {:>9} {:>6} {:>5} {:>9} {:>9} {:>9} {:>9}  accounted",
            "tenant", "jobs", "launches", "sites", "timed_out", "abort", "quar", "lat_p50", "lat_p90", "lat_p99", "lat_max"
        );
    } else {
        println!(
            "{:<12} {:>5} {:>8} {:>6} {:>9} {:>6} {:>9} {:>9} {:>9} {:>9}  accounted",
            "tenant", "jobs", "launches", "sites", "timed_out", "abort", "lat_p50", "lat_p90", "lat_p99", "lat_max"
        );
    }
    println!("{}", "-".repeat(110));
    for v in &reference.verdicts {
        let accounted = v.degradation.fully_accounted();
        failures += usize::from(!accounted);
        if args.supervised {
            println!(
                "{:<12} {:>5} {:>8} {:>6} {:>9} {:>6} {:>5} {:>9} {:>9} {:>9} {:>9}  {}",
                v.tenant,
                v.jobs,
                v.launches,
                v.sites.len(),
                v.timed_out,
                v.aborted_launches,
                v.quarantined,
                v.latency.p50,
                v.latency.p90,
                v.latency.p99,
                v.latency.max,
                if accounted { "yes" } else { "NO" },
            );
        } else {
            println!(
                "{:<12} {:>5} {:>8} {:>6} {:>9} {:>6} {:>9} {:>9} {:>9} {:>9}  {}",
                v.tenant,
                v.jobs,
                v.launches,
                v.sites.len(),
                v.timed_out,
                v.aborted_launches,
                v.latency.p50,
                v.latency.p90,
                v.latency.p99,
                v.latency.max,
                if accounted { "yes" } else { "NO" },
            );
        }
    }
    println!("{}", "-".repeat(110));
    let total_launches: u64 = reference.verdicts.iter().map(|v| v.launches).sum();
    println!(
        "soak totals: jobs {} launches {} makespan {} cycles streams {} front-end {} cycles",
        reference.jobs_run,
        total_launches,
        reference.makespan,
        reference.streams,
        reference.front_end_cycles,
    );
    if reference.launches != total_launches {
        println!(
            "launch accounting mismatch: service counted {} but tenant verdicts sum to {}",
            reference.launches, total_launches
        );
        failures += 1;
    }
    if reference.transport_sent != reference.transport_drained {
        println!(
            "verdict transport LOST RECORDS: sent {} drained {}",
            reference.transport_sent, reference.transport_drained
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
            let s = &reference.supervisor;
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
        let s = &reference.supervisor;
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
        if reference.jobs_quarantined == 0 {
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
    drill_pairs.push((if args.supervised { "recovery" } else { "restart" }, &restart));
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
    if args.supervised {
        match &restart.recovery {
            Some(rec) => {
                println!(
                    "drill recovery: recovered generation {} (scanned {}, skipped {} invalid, {} stale)",
                    rec.recovered_generation, rec.scanned, rec.skipped_invalid, rec.skipped_stale
                );
                // Deterministic store shape: gen 1 clean, short write
                // unpromoted, torn gen 2 + corrupt gen 3 both rejected.
                if rec.recovered_generation != 1 || rec.skipped_invalid != 2 || rec.scanned != 3 {
                    println!("drill recovery: UNEXPECTED STORE SHAPE");
                    failures += 1;
                }
                if rec.short_write_promoted {
                    println!("drill recovery: short write PROMOTED a generation");
                    failures += 1;
                }
                if rec.skipped_stale != 0 {
                    println!("drill recovery: unexpected stale-seed generation");
                    failures += 1;
                }
            }
            None => {
                println!("drill recovery: no recovery report");
                failures += 1;
            }
        }
        if restart.jobs_skipped == 0 {
            println!("drill recovery: checkpoint skipped nothing — drill is vacuous");
            failures += 1;
        } else {
            println!(
                "drill recovery: resumed past {} covered job(s), re-ran {}",
                restart.jobs_skipped, restart.jobs_run
            );
        }
    } else if restart.jobs_skipped == 0 {
        println!("drill restart: checkpoint skipped nothing — drill is vacuous");
        failures += 1;
    } else {
        println!(
            "drill restart: resumed past {} checkpointed job(s), re-ran {}",
            restart.jobs_skipped, restart.jobs_run
        );
    }

    // JSON trajectory (schema bench-pr9-v1, or bench-pr10-v1 when
    // supervised). Wall-clock lives only here.
    let mut doc = Value::obj();
    let schema = if args.supervised {
        perfjson::SCHEMA_PR10
    } else {
        perfjson::SCHEMA_PR9
    };
    doc.set("schema", Value::Str(schema.into()));
    doc.set("host", perfjson::host_info(available_jobs(), driver.jobs));
    let mut cfg = Value::obj();
    cfg.set("tenants", Value::Num(args.tenants as f64));
    cfg.set("jobs_per_tenant", Value::Num(args.jobs_per_tenant as f64));
    cfg.set("reps", Value::Num(f64::from(args.reps)));
    cfg.set("streams_per_tenant", Value::Num(args.streams as f64));
    cfg.set("shards", Value::Num(args.shards as f64));
    cfg.set("slice_cycles", Value::Num(args.slice as f64));
    cfg.set("seed", Value::Num(args.seed as f64));
    cfg.set("chaos", Value::Bool(args.chaos));
    cfg.set(
        "workload_rotation",
        Value::Arr(ROTATION.iter().map(|w| Value::Str((*w).into())).collect()),
    );
    if args.supervised {
        cfg.set("supervised", Value::Bool(true));
        cfg.set("max_retries", Value::Num(f64::from(args.max_retries)));
        cfg.set("cycle_budget", Value::Num(args.cycle_budget as f64));
        cfg.set("poison_denom", Value::Num(args.poison_denom as f64));
        cfg.set("rate_denom", Value::Num(f64::from(args.rate_denom)));
    }
    doc.set("config", cfg);
    let mut soak = Value::obj();
    soak.set("total_jobs", Value::Num(reference.jobs_run as f64));
    soak.set("total_launches", Value::Num(total_launches as f64));
    soak.set("makespan_cycles", Value::Num(reference.makespan as f64));
    soak.set(
        "throughput_launches_per_mcycle",
        Value::Num(total_launches as f64 / (reference.makespan as f64 / 1e6).max(1e-9)),
    );
    soak.set("wall_ms", Value::Num(reference.wall.as_secs_f64() * 1e3));
    soak.set("streams", Value::Num(reference.streams as f64));
    soak.set(
        "front_end_cycles",
        Value::Num(reference.front_end_cycles as f64),
    );
    if args.supervised {
        soak.set(
            "jobs_quarantined",
            Value::Num(reference.jobs_quarantined as f64),
        );
        let s = &reference.supervisor;
        let mut sup = Value::obj();
        sup.set("jobs_supervised", Value::Num(s.jobs_supervised as f64));
        sup.set("attempts", Value::Num(s.attempts as f64));
        sup.set("panics_caught", Value::Num(s.panics_caught as f64));
        sup.set("hangs_caught", Value::Num(s.hangs_caught as f64));
        sup.set("perturbed_attempts", Value::Num(s.perturbed_attempts as f64));
        sup.set("retries", Value::Num(s.retries as f64));
        sup.set("recovered", Value::Num(s.recovered as f64));
        sup.set("accepted_clean", Value::Num(s.accepted_clean as f64));
        sup.set("accepted_degraded", Value::Num(s.accepted_degraded as f64));
        sup.set("quarantined", Value::Num(s.quarantined as f64));
        sup.set("backoff_cycles", Value::Num(s.backoff_cycles as f64));
        sup.set(
            "discarded_fault_fires",
            Value::Num(s.discarded_fault_fires as f64),
        );
        soak.set("supervisor", sup);
    }
    let tenants_arr: Vec<Value> = reference
        .verdicts
        .iter()
        .map(|v| {
            let mut t = Value::obj();
            t.set("name", Value::Str(v.tenant.clone()));
            t.set("jobs", Value::Num(v.jobs as f64));
            t.set("launches", Value::Num(v.launches as f64));
            t.set("sites", Value::Num(v.sites.len() as f64));
            t.set("timed_out", Value::Num(v.timed_out as f64));
            t.set("aborted_launches", Value::Num(v.aborted_launches as f64));
            t.set("busy_cycles", Value::Num(v.busy_cycles as f64));
            t.set("idle_cycles", Value::Num(v.idle_cycles as f64));
            let mut lat = Value::obj();
            lat.set("p50", Value::Num(v.latency.p50 as f64));
            lat.set("p90", Value::Num(v.latency.p90 as f64));
            lat.set("p99", Value::Num(v.latency.p99 as f64));
            lat.set("max", Value::Num(v.latency.max as f64));
            t.set("latency_cycles", lat);
            t.set("fault_fires", Value::Num(v.fault_stats.total() as f64));
            t.set(
                "fully_accounted",
                Value::Bool(v.degradation.fully_accounted()),
            );
            if args.supervised {
                t.set("quarantined", Value::Num(v.quarantined as f64));
            }
            t
        })
        .collect();
    soak.set("tenants", Value::Arr(tenants_arr));
    doc.set("soak", soak);
    let mut drills = Value::obj();
    if args.supervised {
        if let Some(ff) = &fault_free {
            drills.set(
                "fault_free_matched",
                Value::Bool(digests(&ff.verdicts) == reference_digests),
            );
        }
        drills.set(
            "reshaped_matched",
            Value::Bool(digests(&reshaped.verdicts) == reference_digests),
        );
        drills.set(
            "recovery_matched",
            Value::Bool(digests(&restart.verdicts) == reference_digests),
        );
        if let Some(rec) = &restart.recovery {
            drills.set(
                "recovery_generation",
                Value::Num(rec.recovered_generation as f64),
            );
            drills.set(
                "recovery_skipped_invalid",
                Value::Num(rec.skipped_invalid as f64),
            );
        }
        drills.set(
            "recovery_jobs_skipped",
            Value::Num(restart.jobs_skipped as f64),
        );
        // Every arm completed: no panic escaped the supervisor.
        drills.set("zero_panics", Value::Bool(true));
        drills.set("reshaped_wall_ms", Value::Num(reshaped.wall.as_secs_f64() * 1e3));
        drills.set("recovery_wall_ms", Value::Num(restart.wall.as_secs_f64() * 1e3));
    } else {
        drills.set(
            "reshaped_matched",
            Value::Bool(digests(&reshaped.verdicts) == reference_digests),
        );
        drills.set(
            "restart_matched",
            Value::Bool(digests(&restart.verdicts) == reference_digests),
        );
        drills.set(
            "restart_jobs_skipped",
            Value::Num(restart.jobs_skipped as f64),
        );
        drills.set("reshaped_wall_ms", Value::Num(reshaped.wall.as_secs_f64() * 1e3));
        drills.set("restart_wall_ms", Value::Num(restart.wall.as_secs_f64() * 1e3));
    }
    doc.set("drills", drills);

    let rendered = doc.pretty();
    let reparsed = perfjson::parse(&rendered).expect("emitted JSON must re-parse");
    let self_check = if args.supervised {
        perfjson::validate_pr10(&reparsed)
    } else {
        perfjson::validate_pr9(&reparsed)
    };
    if let Err(e) = self_check {
        println!("emitted document fails its own schema: {e}");
        failures += 1;
    }
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&out_path, &rendered).expect("write service trajectory file");
    println!("service: wrote {out_path} (schema {schema})");

    if failures > 0 {
        eprintln!("service: {failures} check(s) failed");
        std::process::exit(1);
    }
    if args.supervised {
        println!(
            "service: {} jobs / {} launches across {} tenants under supervision: {} poison job(s) \
             quarantined, chaos healed to fault-free bytes, store recovery byte-identical",
            reference.jobs_run, total_launches, args.tenants, reference.jobs_quarantined,
        );
    } else {
        println!(
            "service: {} jobs / {} launches across {} tenants: verdicts interleaving-, shard-, and \
             restart-invariant; every degradation accounted",
            reference.jobs_run, total_launches, args.tenants,
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
    let sup = args.supervised.then(|| sup_config(args));
    let poison = if args.supervised { args.poison_denom } else { 0 };
    let dir = store_dir(args);
    let mk = || service_config(args, args.streams, ShardConfig::inline(args.shards), args.slice);
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
            println!(
                "drill stage 2: recovered generation {} (scanned {}, skipped {} invalid, {} stale)",
                rec.recovered_generation.map_or(0, |g| g),
                rec.scanned,
                rec.skipped_invalid,
                rec.skipped_stale_seed,
            );
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

/// `Args` minus the I/O-only fields, for moving into driver closures.
fn clone_args(a: &Args) -> Args {
    Args {
        tenants: a.tenants,
        jobs_per_tenant: a.jobs_per_tenant,
        reps: a.reps,
        streams: a.streams,
        shards: a.shards,
        slice: a.slice,
        seed: a.seed,
        chaos: a.chaos,
        rate_denom: a.rate_denom,
        quick: a.quick,
        out: None,
        validate: None,
        supervised: a.supervised,
        max_retries: a.max_retries,
        cycle_budget: a.cycle_budget,
        poison_denom: a.poison_denom,
        store: None,
        drill_stage: 0,
    }
}
