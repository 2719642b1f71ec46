//! Chaos smoke: seeded fault campaigns across the whole detection
//! pipeline, asserting the three robustness contracts of the fault plane:
//!
//! 1. **Zero panics.** With every fault site armed — metadata eviction
//!    and tag aliasing, report drop/corruption/overflow, UVM eviction
//!    storms and device OOM, hung and aborted kernels — every run
//!    completes; faults degrade results, never crash the process.
//! 2. **Zero unaccounted degradations.** Every injected fault is
//!    traceable to a consumer-side counter: metadata fires equal the
//!    table's injected-eviction/alias counters (each of which produced a
//!    missed check), channel fires equal the corruption/overflow
//!    counters, UVM fires equal the storm/OOM counters, and kernel
//!    aborts equal the aborted-launch count.
//! 3. **Clean resume.** A campaign interrupted at its mid-point
//!    checkpoint and resumed reproduces the remaining results exactly
//!    (verified digest-by-digest against the uninterrupted run).
//!
//! ```text
//! chaos [--campaigns N] [--seed S] [--rate-denom D]
//!       [--jobs N] [--serial] [--timeout-secs N] [--no-progress]
//! ```

use faults::{FaultConfig, FaultSite, RATE_ONE};
use gpu_sim::machine::GpuConfig;
use iguard::IguardConfig;
use workloads::Size;

use bench::campaign::Checkpoint;
use bench::{gpu_config, run_iguard_with, run_jobs, DriverConfig, IguardRun, Job, Outcome};
use iguard::CheckpointStore;

/// Workloads exercised per campaign: racy, clean, and contended kernels.
const WORKLOADS: [&str; 4] = ["reduction", "graph-color", "uts", "b_reduce"];

struct Args {
    campaigns: u64,
    seed: u64,
    rate_denom: u32,
}

fn parse_args(rest: Vec<String>) -> Args {
    let mut args = Args {
        campaigns: 5,
        seed: 42,
        rate_denom: 64,
    };
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} requires a value");
                std::process::exit(2);
            })
        };
        fn numeric<T: std::str::FromStr>(flag: &str, raw: String) -> T {
            raw.parse().unwrap_or_else(|_| {
                eprintln!("{flag} expects a number, got `{raw}`");
                std::process::exit(2)
            })
        }
        match a.as_str() {
            "--campaigns" => args.campaigns = numeric("--campaigns", value("--campaigns")),
            "--seed" => args.seed = numeric("--seed", value("--seed")),
            "--rate-denom" => args.rate_denom = numeric("--rate-denom", value("--rate-denom")),
            other => {
                eprintln!("chaos: unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    args
}

/// One campaign's per-job configuration: every fault site armed at
/// `RATE_ONE / denom`, a capacity-capped table so genuine capacity
/// evictions mix with injected ones, and the campaign seed driving both
/// the fault streams and the warp schedule.
fn job_for(name: &'static str, campaign_seed: u64, denom: u32) -> Job<IguardRun> {
    let plane = FaultConfig::uniform(campaign_seed, RATE_ONE / denom);
    Job::custom(format!("{name} seed={campaign_seed}"), move || {
        let w = workloads::by_name(name).expect("workload list is static");
        let gcfg = GpuConfig {
            faults: plane.clone(),
            ..gpu_config(campaign_seed)
        };
        let icfg = IguardConfig {
            faults: plane.clone(),
            table_capacity_words: Some(256),
            ..IguardConfig::default()
        };
        run_iguard_with(&w, Size::Test, gcfg, icfg)
    })
}

/// A deterministic one-line digest of everything that matters for the
/// resume check: detected sites plus every degradation counter.
fn digest(run: &IguardRun) -> String {
    let d = run.degradation;
    format!(
        "sites={} missed={} cap={} inj_ev={} inj_al={} sent={} drained={} dropped={} \
         corrupted={} overflow={} uvm_ev={} uvm_oom={} aborted={} timed_out={} fires={}",
        run.sites.len(),
        d.missed_checks,
        d.meta.capacity_evictions,
        d.meta.injected_evictions,
        d.meta.injected_aliases,
        d.channel.sent,
        d.channel.drained,
        d.channel.dropped,
        d.channel.corrupted,
        d.channel.overflow_drops,
        d.uvm_injected_evictions,
        d.uvm_injected_oom_denials,
        run.aborted_launches,
        run.timed_out,
        run.fault_stats.total(),
    )
}

/// Checks that every injected fault maps onto exactly one consumer-side
/// counter. Returns the violations (empty = fully traceable).
fn unaccounted(run: &IguardRun) -> Vec<String> {
    let d = run.degradation;
    let f = &run.fault_stats;
    let mut bad = Vec::new();
    let mut check = |what: &str, fired: u64, counted: u64| {
        if fired != counted {
            bad.push(format!("{what}: {fired} fired but {counted} counted"));
        }
    };
    check(
        "meta-eviction",
        f.get(FaultSite::MetaEviction),
        d.meta.injected_evictions,
    );
    check(
        "meta-tag-alias",
        f.get(FaultSite::MetaTagAlias),
        d.meta.injected_aliases,
    );
    check(
        "report-corrupt",
        f.get(FaultSite::ReportCorrupt),
        d.channel.corrupted,
    );
    check(
        "channel-overflow",
        f.get(FaultSite::ChannelOverflow),
        d.channel.overflow_drops,
    );
    check(
        "uvm-evict-storm",
        f.get(FaultSite::UvmEvictStorm),
        d.uvm_injected_evictions,
    );
    check(
        "uvm-device-oom",
        f.get(FaultSite::UvmDeviceOom),
        d.uvm_injected_oom_denials,
    );
    check(
        "kernel-abort",
        f.get(FaultSite::KernelAbort),
        run.aborted_launches,
    );
    // Drop fires land in the aggregate `dropped` (alongside corruption
    // singles and overflow bulk drops), so the bound is one-sided.
    let drop_like = f.get(FaultSite::ReportDrop) + f.get(FaultSite::ReportCorrupt);
    if d.channel.dropped < drop_like {
        bad.push(format!(
            "report-drop: {drop_like} fired but only {} dropped",
            d.channel.dropped
        ));
    }
    if !d.fully_accounted() {
        bad.push(format!(
            "degradation invariant: missed={} vs evictions={}, sent={} vs drained+dropped={}",
            d.missed_checks,
            d.meta.total_evictions(),
            d.channel.sent,
            d.channel.drained + d.channel.dropped
        ));
    }
    bad
}

fn run_campaign(
    campaign_seed: u64,
    denom: u32,
    driver: &DriverConfig,
    from: usize,
) -> Result<Vec<String>, String> {
    let jobs: Vec<Job<IguardRun>> = WORKLOADS[from..]
        .iter()
        .map(|name| job_for(name, campaign_seed, denom))
        .collect();
    let mut digests = Vec::new();
    let mut fires = 0u64;
    for (i, outcome) in run_jobs(jobs, driver).into_iter().enumerate() {
        let name = WORKLOADS[from + i];
        match outcome {
            Outcome::Done { value, .. } => {
                let bad = unaccounted(&value);
                if !bad.is_empty() {
                    return Err(format!("{name}: unaccounted degradation: {bad:?}"));
                }
                fires += value.fault_stats.total();
                digests.push(digest(&value));
            }
            Outcome::Panicked { message, .. } => {
                return Err(format!("{name}: PANIC under fault injection: {message}"));
            }
            Outcome::TimedOut { .. } => return Err(format!("{name}: driver deadline exceeded")),
            Outcome::Faulted { message, .. } => {
                // run_iguard_with absorbs injected aborts; a fault-death
                // escaping to the driver means a tolerance hole.
                return Err(format!("{name}: fault escaped graceful handling: {message}"));
            }
        }
    }
    if from == 0 && fires == 0 {
        return Err(format!(
            "campaign {campaign_seed}: no fault fired — smoke is vacuous, raise the rate"
        ));
    }
    Ok(digests)
}

fn main() {
    let (driver, rest) = DriverConfig::from_env();
    let args = parse_args(rest);
    // One store for the whole run: each campaign's drill saves one more
    // generation and recovers by its own seed.
    let store_dir = std::env::temp_dir().join(format!("chaos-store-{}", std::process::id()));
    let store = CheckpointStore::open(&store_dir).expect("temp dir is writable");
    let mut failures = 0usize;

    for c in 0..args.campaigns {
        let campaign_seed = args.seed + c;
        let digests = match run_campaign(campaign_seed, args.rate_denom, &driver, 0) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("chaos campaign {campaign_seed}: {e}");
                failures += 1;
                continue;
            }
        };

        // Resume drill: write the checkpoint a mid-campaign interrupt
        // would have left (cursor + first half of the digests), reload
        // it, run only the remaining jobs, and demand the stitched
        // results match the uninterrupted campaign exactly.
        let half = WORKLOADS.len() / 2;
        let mut ck = Checkpoint::new();
        ck.set_meta("seed", campaign_seed);
        ck.set_meta("next", half);
        for (name, dig) in WORKLOADS.iter().zip(&digests[..half]) {
            ck.push_row(*name, dig.clone());
        }
        if let Err(e) = ck.save(&store) {
            eprintln!("chaos campaign {campaign_seed}: cannot write checkpoint: {e}");
            failures += 1;
            continue;
        }
        let (resumed, _) = Checkpoint::recover(&store, Some(campaign_seed));
        let resumed = resumed.expect("just written");
        let from: usize = resumed.meta_as("next").expect("cursor present");
        let tail = match run_campaign(campaign_seed, args.rate_denom, &driver, from) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("chaos campaign {campaign_seed} (resumed): {e}");
                failures += 1;
                continue;
            }
        };
        let stitched: Vec<String> = resumed
            .rows
            .iter()
            .map(|(_, v)| v.clone())
            .chain(tail)
            .collect();
        if stitched != digests {
            eprintln!(
                "chaos campaign {campaign_seed}: resume diverged\n  full:     {digests:?}\n  resumed:  {stitched:?}"
            );
            failures += 1;
            continue;
        }
        println!(
            "chaos campaign {campaign_seed}: {} jobs, all degradations accounted, resume OK",
            WORKLOADS.len()
        );
    }
    std::fs::remove_dir_all(&store_dir).ok();

    if failures > 0 {
        eprintln!("chaos: {failures}/{} campaigns failed", args.campaigns);
        std::process::exit(1);
    }
    println!(
        "chaos: {} campaigns x {} jobs: zero panics, zero unaccounted degradations, clean resume",
        args.campaigns,
        WORKLOADS.len()
    );
}
