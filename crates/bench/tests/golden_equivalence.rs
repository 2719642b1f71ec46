//! Golden-equivalence gate for the hot-path optimizations.
//!
//! The PR-2 overhaul (flat detector state, paged flat L1, interned kernel
//! names, predecoded dispatch) must be *semantics-preserving*: simulated
//! cycle counts, race reports, and every table/figure output stay
//! byte-identical to the unoptimized seed. This test pins the seed's
//! observable outputs — race-site counts, full race-report text,
//! `LaunchStats`, detector counters, UVM counters, and the simulated
//! clock — across 3 schedule seeds × {ITS, lockstep} for every racey
//! workload (Table 4) and, at the default seed, every clean workload
//! (Table 5).
//!
//! The golden file was recorded from the pre-optimization build:
//!
//! ```text
//! GOLDEN_WRITE=1 cargo test -p bench --release --test golden_equivalence
//! ```
//!
//! Regenerating it on purpose is how a *deliberate* semantic change lands;
//! an accidental diff here means an optimization changed behaviour.

mod common;

use std::fmt::Write as _;

use common::check_or_write_table;
use faults::FaultConfig;
use gpu_sim::hook::ExecMode;
use gpu_sim::machine::{Gpu, GpuConfig, LaunchStats};
use gpu_sim::sched::{
    RandomScheduler, RecordingScheduler, ReplayScheduler, ScheduleTrace, Scheduler,
};
use iguard::{Iguard, IguardConfig};
use nvbit_sim::Instrumented;
use workloads::{Size, Workload};

/// Schedule seeds the equivalence matrix covers (first is the harness
/// default).
const SEEDS: [u64; 3] = [bench::DEFAULT_SEED, 7, 1337];

/// Watchdog for golden runs: small enough that lockstep livelocks (§6.6)
/// resolve quickly, large enough that every Test-size workload finishes.
const GOLDEN_MAX_STEPS: u64 = 2_000_000;

fn golden_gpu(seed: u64, mode: ExecMode) -> GpuConfig {
    GpuConfig {
        mode,
        max_steps: GOLDEN_MAX_STEPS,
        ..bench::gpu_config(seed)
    }
}

/// Runs `w` under iGUARD and renders every observable output as one
/// pipe-separated line. Any behavioural drift — in scheduling, memory
/// visibility, detection, cycle accounting, or reporting — changes the
/// line.
fn run_line(w: &Workload, seed: u64, mode: ExecMode) -> String {
    run_line_sched(w, seed, mode, None, &FaultConfig::disabled())
}

/// Like [`run_line`], but with an explicit scheduler driving every launch
/// (`None` = the built-in `gpu.launch` path) and an explicit fault plane
/// threaded through both the GPU and the detector.
fn run_line_sched(
    w: &Workload,
    seed: u64,
    mode: ExecMode,
    mut sched: Option<&mut dyn Scheduler>,
    faults: &FaultConfig,
) -> String {
    let mut gpu = Gpu::new(GpuConfig {
        faults: faults.clone(),
        ..golden_gpu(seed, mode)
    });
    let launches = w.build(&mut gpu, Size::Test);
    let mut tool = Instrumented::new(Iguard::new(IguardConfig {
        faults: faults.clone(),
        ..IguardConfig::default()
    }));
    let mut stats = LaunchStats::default();
    let mut timed_out = false;
    for l in &launches {
        let result = match &mut sched {
            Some(s) => gpu.launch_with(&l.kernel, l.grid, l.block, &l.params, &mut tool, &mut **s),
            None => gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut tool),
        };
        match result {
            Ok(s) => {
                stats.steps += s.steps;
                stats.dyn_instrs += s.dyn_instrs;
                stats.lane_instrs += s.lane_instrs;
            }
            Err(gpu_sim::error::SimError::Timeout { .. }) => timed_out = true,
            Err(e) => panic!("{} failed under iGUARD: {e}", w.name),
        }
    }
    let det = tool.tool_mut();
    let ig = det.stats();
    let uvm = det.uvm_stats();
    let records = det.races();
    let sites = iguard::report::group_sites(&records);

    let mode_name = match mode {
        ExecMode::Its => "its",
        ExecMode::Lockstep => "lockstep",
    };
    let mut line = String::new();
    write!(
        line,
        "{}|seed={seed}|mode={mode_name}|timeout={timed_out}|sites={}|stats={},{},{}|\
         ig={},{},{:?},{:?},{},{},{},{}|uvm={},{},{},{},{}|time={:?}",
        w.name,
        sites.len(),
        stats.steps,
        stats.dyn_instrs,
        stats.lane_instrs,
        ig.accesses,
        ig.coalesced_saved,
        ig.safe_hits,
        ig.race_hits,
        ig.contended_accesses,
        ig.contention_cycles,
        ig.uvm_cycles,
        ig.launches,
        uvm.faults,
        uvm.evictions,
        uvm.prefaulted_pages,
        uvm.fault_cycles,
        uvm.prefault_cycles,
        gpu.clock().total_time(),
    )
    .unwrap();
    for r in &records {
        write!(line, "|race={r}").unwrap();
    }
    line
}

/// The full equivalence matrix, in a fixed order, with an explicit fault
/// plane threaded through every run.
fn golden_lines_with(faults: &FaultConfig) -> Vec<String> {
    let mut lines = Vec::new();
    for w in workloads::racey() {
        for seed in SEEDS {
            for mode in [ExecMode::Its, ExecMode::Lockstep] {
                lines.push(run_line_sched(&w, seed, mode, None, faults));
            }
        }
    }
    for w in workloads::clean() {
        for mode in [ExecMode::Its, ExecMode::Lockstep] {
            lines.push(run_line_sched(&w, bench::DEFAULT_SEED, mode, None, faults));
        }
    }
    lines
}

/// The full equivalence matrix, in a fixed order.
fn golden_lines() -> Vec<String> {
    golden_lines_with(&FaultConfig::disabled())
}

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/detector_golden.txt"
);

#[test]
fn optimized_pipeline_matches_seed_golden() {
    check_or_write_table(GOLDEN_PATH, &golden_lines(), "seed golden");
}

/// The fault plane must be byte-invisible when every rate is zero: the
/// full matrix (3 seeds × {ITS, lockstep} over the racy workloads, plus
/// the clean set) with a *seeded but zero-rate* plane threaded through
/// the GPU, metadata table, UVM region, and report channel matches the
/// golden file exactly. Zero-rate sites consume no RNG draws and the
/// disabled plane short-circuits before touching any state, so compiling
/// it in changes nothing.
#[test]
fn disabled_fault_plane_matches_seed_golden() {
    if std::env::var_os("GOLDEN_WRITE").is_some() {
        return; // the main test owns regeneration
    }
    let armed_but_silent = FaultConfig::disabled().with_seed(0x5eed);
    check_or_write_table(
        GOLDEN_PATH,
        &golden_lines_with(&armed_but_silent),
        "zero-rate fault plane",
    );
}

/// The same pipeline run twice must be bit-identical — catches
/// nondeterminism introduced by e.g. iteration over hash maps in the hot
/// path (the seed's contention/history state was `HashMap`-backed; the
/// flat replacement must stay order-independent too).
#[test]
fn pipeline_is_deterministic_across_repeats() {
    let w = workloads::by_name("uts").expect("uts exists");
    let a = run_line(&w, bench::DEFAULT_SEED, ExecMode::Its);
    let b = run_line(&w, bench::DEFAULT_SEED, ExecMode::Its);
    assert_eq!(a, b);
}

/// The scheduler extraction must be invisible: driving a launch through an
/// explicit `RandomScheduler` (the `launch_with` path) produces the same
/// RNG decision sequence — and therefore byte-identical stats, reports,
/// and clock — as the built-in `gpu.launch` path, across seeds and modes.
#[test]
fn explicit_random_scheduler_is_byte_identical_to_launch() {
    let w = workloads::by_name("uts").expect("uts exists");
    for seed in SEEDS {
        for mode in [ExecMode::Its, ExecMode::Lockstep] {
            let implicit = run_line(&w, seed, mode);
            let prob = golden_gpu(seed, mode).its_split_prob;
            let mut sched = RandomScheduler::new(seed, prob);
            let explicit =
                run_line_sched(&w, seed, mode, Some(&mut sched), &FaultConfig::disabled());
            assert_eq!(implicit, explicit, "seed={seed} mode={mode:?}");
        }
    }
}

/// Recording the random schedule and replaying the trace reproduces the
/// run byte-for-byte, and the trace survives a text round-trip.
#[test]
fn recorded_schedule_replays_byte_identically() {
    let w = workloads::by_name("uts").expect("uts exists");
    let seed = bench::DEFAULT_SEED;
    let prob = golden_gpu(seed, ExecMode::Its).its_split_prob;

    let mut rec = RecordingScheduler::new(RandomScheduler::new(seed, prob));
    let recorded = run_line_sched(
        &w,
        seed,
        ExecMode::Its,
        Some(&mut rec),
        &FaultConfig::disabled(),
    );
    let trace = rec.into_trace();
    assert_eq!(recorded, run_line(&w, seed, ExecMode::Its));

    let round_tripped = ScheduleTrace::parse(&trace.to_compact_string()).expect("trace parses");
    assert_eq!(round_tripped.digest(), trace.digest());

    let mut replay = ReplayScheduler::new(round_tripped);
    let replayed = run_line_sched(
        &w,
        seed,
        ExecMode::Its,
        Some(&mut replay),
        &FaultConfig::disabled(),
    );
    assert!(replay.finished(), "replay left unconsumed decisions");
    assert_eq!(recorded, replayed);
}

/// Pins the exact ITS RNG decision stream of the default seed: any change
/// to how `RandomScheduler` consumes its RNG — reordered draws, skipped
/// single-candidate consultations, a different reseed — changes this
/// digest even if the schedule happens to coincide.
#[test]
fn its_decision_stream_digest_is_pinned() {
    let w = workloads::by_name("uts").expect("uts exists");
    let seed = bench::DEFAULT_SEED;
    let prob = golden_gpu(seed, ExecMode::Its).its_split_prob;
    let mut rec = RecordingScheduler::new(RandomScheduler::new(seed, prob));
    let _ = run_line_sched(
        &w,
        seed,
        ExecMode::Its,
        Some(&mut rec),
        &FaultConfig::disabled(),
    );
    let trace = rec.into_trace();
    let digest = trace.digest();
    if std::env::var_os("GOLDEN_WRITE").is_some() {
        eprintln!(
            "uts ITS decision digest: {digest:#018x} ({} decisions)",
            trace.decisions.len()
        );
        return;
    }
    assert_eq!(
        digest,
        PINNED_UTS_ITS_DIGEST,
        "RandomScheduler RNG decision sequence changed ({} decisions)",
        trace.decisions.len()
    );
}

/// Recorded from the seed build via `GOLDEN_WRITE=1` (see above);
/// 1869 decisions for `uts` at the default seed.
const PINNED_UTS_ITS_DIGEST: u64 = 0x9af2_f5a0_8ea1_1890;

/// The weak-memory plane is opt-in: the default machine config keeps weak
/// visibility and load recording off, and schedule traces that do not
/// request eager-invisible execution keep their historical compact header.
/// (The oracle's full-interleaving pin lives with its exhaustive reference
/// search in `oracle::explore`'s tests.)
#[test]
fn weak_plane_is_opt_in_and_legacy_traces_keep_their_header() {
    let d = GpuConfig::default();
    assert!(!d.weak_visibility, "weak visibility must default off");
    assert!(!d.record_load_values, "load recording must default off");

    let trace = ScheduleTrace::default();
    assert!(!trace.eager);
    let header = trace.to_compact_string();
    assert!(
        header.starts_with("v1;w;") || header.starts_with("v1;r;"),
        "legacy trace header changed: {header}"
    );
}
