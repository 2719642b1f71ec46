//! # bench: the evaluation harness
//!
//! Shared infrastructure for regenerating every table and figure of the
//! paper's evaluation (§7): run a workload natively, under iGUARD, or
//! under Barracuda, and report simulated time, detected races, and
//! detector statistics. Each table/figure has a dedicated binary
//! (`table1`, `table4`, `table5`, `fig11`, `fig12`, `fig13`, `fig14`,
//! `fence_scope_cost`, `ablation_history`); beside them sit the CLI
//! (`iguard_run`), the test-plane campaigns (`fuzz`, `litmus`, `chaos`,
//! `pressure`) and the multi-tenant soak (`service`). Host time is not
//! measured here: that is the standalone `benchmark/` package.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod driver;
pub mod job;

use barracuda::{Barracuda, BarracudaConfig, BarracudaFailure, BinaryKind};
use gpu_sim::hook::{ExecMode, NullHook};
use gpu_sim::machine::{Gpu, GpuConfig, LaunchStats};
use gpu_sim::timing::COST_CATEGORIES;
use iguard::service::{JobCtx, JobOutcome};
use iguard::{Iguard, IguardConfig, RaceSite, ShardedIguard};
use nvbit_sim::Instrumented;
use workloads::{Size, Workload};

pub use driver::{run_jobs, run_jobs_strict, DriverConfig, Outcome, FAULT_MARKER};
pub use job::{Job, JobSpec, RunOutput, ToolSpec};

/// Default schedule seed used by every harness (deterministic results).
pub const DEFAULT_SEED: u64 = 42;

/// GPU configuration used across the evaluation (Table 3's Titan RTX).
#[must_use]
pub fn gpu_config(seed: u64) -> GpuConfig {
    GpuConfig {
        seed,
        mode: ExecMode::Its,
        max_steps: 80_000_000,
        ..GpuConfig::default()
    }
}

/// Outcome of one native (uninstrumented) run.
#[derive(Debug, Clone)]
pub struct NativeRun {
    /// Simulated time (cycles, parallelism-adjusted).
    pub time: f64,
    /// Aggregate execution statistics across all launches (determinism
    /// witness: identical for identical `(workload, size, config)`).
    pub stats: LaunchStats,
    /// Whether the watchdog killed the run.
    pub timed_out: bool,
    /// Launches killed by an injected fault (zero without a fault plane).
    pub aborted_launches: u64,
}

/// Runs `w` natively with the evaluation GPU configuration for `seed`.
#[must_use]
pub fn run_native(w: &Workload, size: Size, seed: u64) -> NativeRun {
    run_native_with(w, size, gpu_config(seed))
}

/// Runs `w` natively under an explicit GPU configuration.
#[must_use]
pub fn run_native_with(w: &Workload, size: Size, gcfg: GpuConfig) -> NativeRun {
    let mut gpu = Gpu::new(gcfg);
    let launches = w.build(&mut gpu, size);
    let mut timed_out = false;
    let mut aborted_launches = 0u64;
    let mut stats = LaunchStats::default();
    for l in &launches {
        match gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut NullHook) {
            Ok(s) => accumulate(&mut stats, &s),
            Err(gpu_sim::error::SimError::Timeout { .. }) => timed_out = true,
            Err(gpu_sim::error::SimError::InjectedFault { .. }) => aborted_launches += 1,
            Err(e) => panic!("{} failed natively: {e}", w.name),
        }
    }
    NativeRun {
        time: gpu.clock().total_time(),
        stats,
        timed_out,
        aborted_launches,
    }
}

/// Sums launch statistics across a workload's kernel launches.
fn accumulate(acc: &mut LaunchStats, s: &LaunchStats) {
    acc.steps += s.steps;
    acc.dyn_instrs += s.dyn_instrs;
    acc.lane_instrs += s.lane_instrs;
}

/// Outcome of one iGUARD-instrumented run.
#[derive(Debug)]
pub struct IguardRun {
    /// Simulated time with the detector attached.
    pub time: f64,
    /// Per-category times (Figure 13's breakdown), in `COST_CATEGORIES`
    /// order.
    pub breakdown: [f64; 6],
    /// Distinct racing sites, the Table 4 unit.
    pub sites: Vec<RaceSite>,
    /// Detector counters.
    pub stats: iguard::IguardStats,
    /// UVM counters of the metadata region.
    pub uvm: uvm_sim::UvmStats,
    /// Aggregate execution statistics across all launches (determinism
    /// witness: identical for identical `(workload, size, config)`).
    pub stats_exec: LaunchStats,
    /// Whether the watchdog killed the run (races still reported).
    pub timed_out: bool,
    /// Launches killed by an injected fault (zero without a fault plane).
    pub aborted_launches: u64,
    /// Everything the detector degraded on, fully accounted (collected
    /// after the final report drain, so the channel invariant holds).
    pub degradation: iguard::Degradation,
    /// Injected-fault counters aggregated across the detector's
    /// components and the GPU launch boundary.
    pub fault_stats: faults::FaultStats,
    /// Static-pruning counters (all zero with pruning off, the default).
    pub prune: iguard::PruneStats,
    /// Races reported statically at launch time (empty with pruning off).
    pub static_races: Vec<iguard::StaticRaceReport>,
    /// Instrumentation-framework dispatch accounting: with pruning on,
    /// `instr.skipped_mem` counts the dynamic accesses whose callback was
    /// elided by the static verdict.
    pub instr: nvbit_sim::InstrStats,
}

/// Runs `w` under iGUARD with the evaluation GPU configuration for `seed`.
#[must_use]
pub fn run_iguard(w: &Workload, size: Size, seed: u64, cfg: IguardConfig) -> IguardRun {
    run_iguard_with(w, size, gpu_config(seed), cfg)
}

/// Runs `w` under iGUARD with an explicit GPU configuration.
#[must_use]
pub fn run_iguard_with(w: &Workload, size: Size, gcfg: GpuConfig, cfg: IguardConfig) -> IguardRun {
    let mut gpu = Gpu::new(gcfg);
    let launches = w.build(&mut gpu, size);
    let mut tool = Instrumented::new(Iguard::new(cfg));
    let mut timed_out = false;
    let mut aborted_launches = 0u64;
    let mut stats_exec = LaunchStats::default();
    for l in &launches {
        match gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut tool) {
            Ok(s) => accumulate(&mut stats_exec, &s),
            Err(gpu_sim::error::SimError::Timeout { .. }) => timed_out = true,
            Err(gpu_sim::error::SimError::InjectedFault { .. }) => aborted_launches += 1,
            Err(e) => panic!("{} failed under iGUARD: {e}", w.name),
        }
    }
    let mut breakdown = [0.0; 6];
    for (i, &c) in COST_CATEGORIES.iter().enumerate() {
        breakdown[i] = gpu.clock().time(c);
    }
    let time = gpu.clock().total_time();
    let instr = tool.instr_stats();
    let det = tool.tool_mut();
    // `race_sites` drains the report channel, so the degradation summary
    // collected afterwards satisfies `sent == drained + dropped`.
    let sites = det.race_sites();
    let degradation = det.degradation();
    let mut fault_stats = det.fault_stats();
    fault_stats.accumulate(&gpu.fault_stats());
    IguardRun {
        time,
        breakdown,
        sites,
        stats: det.stats(),
        uvm: det.uvm_stats(),
        stats_exec,
        timed_out,
        aborted_launches,
        degradation,
        fault_stats,
        prune: det.prune_stats(),
        static_races: det.static_reports().to_vec(),
        instr,
    }
}

/// One queued unit of work for the multi-tenant detector service: a
/// workload from the zoo, run `reps` times back-to-back on one GPU
/// context (an iterative-kernel pattern — same buffers, same tool).
#[derive(Debug, Clone)]
pub struct ServiceJob {
    /// Workload-zoo name (`workloads::by_name`).
    pub workload: String,
    /// Input size for the build.
    pub size: Size,
    /// How many times the launch list is replayed (clamped to ≥ 1).
    pub reps: u32,
}

impl ServiceJob {
    /// A `reps = 1` job for `workload` at `size`.
    #[must_use]
    pub fn new(workload: &str, size: Size, reps: u32) -> Self {
        ServiceJob {
            workload: workload.to_string(),
            size,
            reps,
        }
    }
}

/// Executes one [`ServiceJob`] against the service-provided detector.
///
/// This is the *only* exec path for the detector service — the `service`
/// binary and the determinism tests both call it, so a verdict
/// divergence can never hide in harness skew. The GPU is seeded from
/// `ctx.seed` (a pure function of the service seed, tenant name, and
/// job index), which makes the job's simulation — and therefore the
/// tenant's verdict — independent of stream interleaving and service
/// restarts. When `chaos` is enabled it is reseeded per-job the same way
/// and installed as the GPU launch-boundary fault plane on attempt 0 —
/// byte-identical to the unsupervised plane — and left off on every
/// retry, as the supervised ladder
/// ([`iguard::supervise::attempt_faults`]) has it.
pub fn run_service_job(
    ctx: &JobCtx<'_, ServiceJob>,
    tool: &mut Instrumented<ShardedIguard>,
    chaos: &faults::FaultConfig,
) -> JobOutcome {
    let w = workloads::by_name(&ctx.payload.workload)
        .unwrap_or_else(|| panic!("unknown service workload `{}`", ctx.payload.workload));
    let mut gcfg = gpu_config(ctx.seed);
    if chaos.enabled() {
        gcfg.faults =
            iguard::supervise::attempt_faults(chaos, ctx.seed, ctx.attempt, ctx.max_retries);
    }
    let mut gpu = Gpu::new(gcfg);
    let launches = w.build(&mut gpu, ctx.payload.size);
    let mut outcome = JobOutcome::default();
    for _ in 0..ctx.payload.reps.max(1) {
        for l in &launches {
            match gpu.launch(&l.kernel, l.grid, l.block, &l.params, tool) {
                Ok(_) => outcome.launches += 1,
                Err(gpu_sim::error::SimError::Timeout { .. }) => outcome.timed_out = true,
                Err(gpu_sim::error::SimError::InjectedFault { .. }) => {
                    outcome.aborted_launches += 1;
                }
                Err(e) => panic!(
                    "{} failed in service job for tenant {}: {e}",
                    w.name, ctx.tenant
                ),
            }
        }
    }
    outcome.kernel_cycles = gpu.clock().total_time() as u64;
    outcome.gpu_faults = gpu.fault_stats();
    outcome
}

/// Salt for the deterministic poison-job lottery.
const POISON_SALT: u64 = 0x9015_0D0B_AD5E_ED01;

/// Whether the deterministic poison lottery marks this job: such a job
/// panics (`poison job: …`) on **every** attempt and must end up
/// quarantined. A job is poison iff
/// `splitmix64(job_seed ^ SALT) % poison_denom == 0`, so the poison set is
/// a pure function of `(service_seed, tenant, job_index)` — identical in
/// every arm, every reshape, every restart. `poison_denom == 0`: nobody.
#[must_use]
pub fn is_poison(service_seed: u64, poison_denom: u64, tenant: &str, job_index: u64) -> bool {
    let seed = iguard::service::job_seed(service_seed, tenant, job_index);
    poison_denom > 0 && faults::splitmix64(seed ^ POISON_SALT).is_multiple_of(poison_denom)
}

/// Suppresses the panic-hook backtrace spam from deliberately poisoned
/// jobs (installed once; they panic with a `poison job` marker and are
/// caught by the supervisor). Every other panic still reports through
/// the previous hook, so a genuine bug stays loud.
pub fn quiet_poison_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let poisoned = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|msg| msg.contains("poison job"));
            if !poisoned {
                prev(info);
            }
        }));
    });
}

/// Outcome of one Barracuda run.
#[derive(Debug)]
pub enum BarracudaRun {
    /// The front end refused the binary.
    Unsupported(barracuda::Unsupported),
    /// The run completed (or failed mid-way).
    Ran {
        /// Simulated time with the baseline attached.
        time: f64,
        /// Races the CPU-side detector found (per-pc).
        races: usize,
        /// OOM / did-not-terminate, if any.
        failure: Option<BarracudaFailure>,
        /// Events shipped through the serialized channel.
        events: u64,
    },
}

/// Runs `w` under Barracuda with the evaluation GPU configuration for
/// `seed`.
#[must_use]
pub fn run_barracuda(w: &Workload, size: Size, seed: u64, cfg: BarracudaConfig) -> BarracudaRun {
    run_barracuda_with(w, size, gpu_config(seed), cfg)
}

/// Runs `w` under the Barracuda baseline with an explicit GPU
/// configuration.
#[must_use]
pub fn run_barracuda_with(
    w: &Workload,
    size: Size,
    gcfg: GpuConfig,
    cfg: BarracudaConfig,
) -> BarracudaRun {
    let mut gpu = Gpu::new(gcfg);
    let launches = w.build(&mut gpu, size);
    let kind = if w.multi_file {
        BinaryKind::MultiFile
    } else {
        BinaryKind::SingleFile
    };
    let kernels = Workload::kernels(&launches);
    if let Err(u) = barracuda::supports(&kernels, kind) {
        return BarracudaRun::Unsupported(u);
    }
    let mut tool = Instrumented::new(Barracuda::new(cfg));
    for l in &launches {
        match gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut tool) {
            Ok(_)
            | Err(gpu_sim::error::SimError::Timeout { .. })
            | Err(gpu_sim::error::SimError::InjectedFault { .. }) => {}
            Err(e) => panic!("{} failed under Barracuda: {e}", w.name),
        }
        if tool.tool().failure().is_some() {
            break;
        }
    }
    // CPU-side analysis happens at drain time; charge it to the clock.
    let races = {
        let (det, clock) = (&mut tool, &mut gpu);
        det.tool_mut().finish(clock.clock_mut()).len()
    };
    let events = tool.tool().events_sent();
    let failure = tool.tool().failure().cloned();
    BarracudaRun::Ran {
        time: gpu.clock().total_time(),
        races,
        failure,
        events,
    }
}

/// Barracuda configuration used by the harness: a fixed CPU-processing
/// budget (serial cycles). Workloads whose event stream exceeds it are
/// reported as non-terminating — in practice only `interac`'s
/// transactional retry flood does, matching the paper.
#[must_use]
pub fn barracuda_config_for(_w: &Workload) -> BarracudaConfig {
    // 25 000 records of CPU budget: every workload's stream fits except
    // interac's transactional retry flood — the paper's non-termination.
    BarracudaConfig {
        timeout_serial_cycles: 660_000,
        ..BarracudaConfig::default()
    }
}

/// Pretty one-line summary of detected kinds at a site list.
#[must_use]
pub fn kinds_summary(sites: &[RaceSite]) -> String {
    use std::collections::BTreeSet;
    let kinds: BTreeSet<&str> = sites
        .iter()
        .flat_map(|s| s.kinds.iter().map(|k| k.code()))
        .collect();
    kinds.into_iter().collect::<Vec<_>>().join(",")
}

/// Geometric mean helper used by the overhead figures.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// The Figure 13 category labels, in order.
pub const BREAKDOWN_LABELS: [&str; 6] = [
    "Native",
    "NVBit",
    "Setup",
    "Instrumentation",
    "Detection",
    "Misc.",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identical_values() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_is_between_min_and_max() {
        let g = geomean(&[1.0, 100.0]);
        assert!((g - 10.0).abs() < 1e-9);
    }

    #[test]
    fn native_run_of_a_clean_workload() {
        let w = workloads::by_name("b_reduce").unwrap();
        let r = run_native(&w, Size::Test, DEFAULT_SEED);
        assert!(r.time > 0.0);
        assert!(!r.timed_out);
    }

    #[test]
    fn iguard_run_reports_no_races_on_clean_workload() {
        let w = workloads::by_name("b_reduce").unwrap();
        let r = run_iguard(&w, Size::Test, DEFAULT_SEED, IguardConfig::default());
        assert!(r.sites.is_empty(), "got {:?}", r.sites);
        assert!(r.time > 0.0);
    }

    #[test]
    fn barracuda_refuses_multi_file() {
        let w = workloads::by_name("louvain").unwrap();
        let r = run_barracuda(&w, Size::Test, DEFAULT_SEED, BarracudaConfig::default());
        assert!(matches!(
            r,
            BarracudaRun::Unsupported(barracuda::Unsupported::MultiFilePtx)
        ));
    }
}
