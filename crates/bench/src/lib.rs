//! # bench: the evaluation harness
//!
//! Shared infrastructure for regenerating every table and figure of the
//! paper's evaluation (§7): run a workload natively, under iGUARD, or
//! under Barracuda, and report simulated time, detected races, and
//! detector statistics. Each table/figure has a dedicated binary
//! (`table1`, `table4`, `table5`, `fig11`, `fig12`, `fig13`, `fig14`,
//! `fence_scope_cost`, `ablation_history`); beside them sit the CLI
//! (`iguard_run`) and the test-plane campaigns (`fuzz`, `pressure`).
//!
//! Each binary fans its independent runs out the same way: one
//! [`par_map`] call per tool column, over the binary's workload list,
//! whose closure calls [`run_native`], [`run_iguard`] or
//! [`run_barracuda`] and returns one concrete type. Row `i` of a table is
//! index `i` of every column. Each cell is its own `Result`, so a run
//! that panics is one DNF cell and the rest of its row still prints.
//! Every run launches through one loop, [`drive`], with one failure
//! policy; the multi-tenant
//! detector service's exec path ([`run_service_job`]) uses it too and
//! lives here for its tests. Host time is not measured here: that is the
//! standalone `benchmark/` package.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use barracuda::{Barracuda, BarracudaConfig, BarracudaFailure, BinaryKind};
use gpu_sim::error::SimError;
use gpu_sim::hook::{ExecMode, Hook, NullHook};
use gpu_sim::machine::{Gpu, GpuConfig, LaunchStats};
use gpu_sim::timing::COST_CATEGORIES;
use iguard::service::{JobCtx, JobOutcome};
use iguard::supervise::panic_message;
use iguard::{Iguard, IguardConfig, RaceSite, ShardedIguard};
use nvbit_sim::Instrumented;
use workloads::{Launch, Size, Workload};

/// Runs `f` over `items` on one scoped thread per available core and
/// returns one result per item, in submission order.
///
/// Workers claim the next unclaimed index from a shared counter. Every
/// simulation job builds its own seeded `Gpu`, so a result cannot depend
/// on which worker ran it, and printing the results in order gives the
/// same bytes as a serial loop. A panicking call becomes `Err(message)`
/// at its own index (a DNF row) while the other items still run. A run
/// that never ends is bounded by its own budget (the simulator's
/// `max_steps` watchdog, the oracle's `max_schedules`), not here.
pub fn par_map<I: Send, T: Send>(
    items: Vec<I>,
    f: impl Fn(I) -> T + Sync,
) -> Vec<Result<T, String>> {
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(slots.len());
    let mut results: Vec<Option<Result<T, String>>> = slots.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else { break done };
                        let item = slot
                            .lock()
                            .expect("no worker panics holding a slot")
                            .take()
                            .expect("each index is claimed once");
                        let r = catch_unwind(AssertUnwindSafe(|| f(item)))
                            .map_err(|payload| panic_message(&*payload));
                        done.push((i, r));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("worker catches every job panic") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every item claimed"))
        .collect()
}

/// Default schedule seed used by every harness (deterministic results).
pub const DEFAULT_SEED: u64 = 42;

/// Prints `message` and exits 2: every binary's answer to bad input, so
/// a typo never panics and never runs a default configuration silently.
pub fn usage(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Parses `v`, the argument after `flag`, as the flag's value; a missing
/// or unparsable value exits 2 with a message (`T = String` takes any).
pub fn flag_value<T: FromStr>(flag: &str, v: Option<String>) -> T {
    let raw = v.unwrap_or_else(|| usage(&format!("{flag} requires a value")));
    raw.parse()
        .unwrap_or_else(|_| usage(&format!("{flag} expects a number, got `{raw}`")))
}

/// Reads the command line of a binary whose only arguments are the
/// optional switches `known`; returns whether each was given, in
/// `known`'s order. Any other argument exits 2 with a message.
pub fn switches<const N: usize>(known: [&str; N]) -> [bool; N] {
    let mut given = [false; N];
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    for a in args {
        match known.iter().position(|k| *k == a) {
            Some(i) => given[i] = true,
            None => usage(&format!(
                "{bin}: unknown argument `{a}` (expected: {known:?})"
            )),
        }
    }
    given
}

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

/// What one pass of the launch loop leaves behind (see [`drive`]).
#[derive(Debug, Clone, Default)]
pub struct Driven {
    /// Simulated time when the loop ended (cycles, parallelism-adjusted).
    pub time: f64,
    /// Launches that finished.
    pub launches: u64,
    /// Execution statistics summed over the finished launches
    /// (determinism witness: identical for identical `(workload, size,
    /// config)`).
    pub stats: LaunchStats,
    /// Whether the watchdog killed a launch.
    pub timed_out: bool,
    /// Launches killed by an injected fault (zero without a fault plane).
    pub aborted_launches: u64,
}

/// The one launch loop of every harness run: launches each of `launches`
/// on `gpu` under `hook`, in order, ending early once `stop(hook)` holds
/// after a launch (Barracuda stops at its first failure).
///
/// The failure policy: a watchdog timeout sets [`Driven::timed_out`] and
/// an injected fault counts an aborted launch; either way the list goes
/// on, and a detector still reports what ran. Any other `SimError` is a
/// harness bug and panics naming `name`.
pub fn drive<'a, H: Hook>(
    gpu: &mut Gpu,
    launches: impl IntoIterator<Item = &'a Launch>,
    hook: &mut H,
    name: &str,
    stop: impl Fn(&H) -> bool,
) -> Driven {
    let mut d = Driven::default();
    for l in launches {
        match gpu.launch(&l.kernel, l.grid, l.block, &l.params, hook) {
            Ok(s) => {
                d.launches += 1;
                d.stats.steps += s.steps;
                d.stats.dyn_instrs += s.dyn_instrs;
                d.stats.lane_instrs += s.lane_instrs;
            }
            Err(SimError::Timeout { .. }) => d.timed_out = true,
            Err(SimError::InjectedFault { .. }) => d.aborted_launches += 1,
            Err(e) => panic!("{name}: launch of `{}` failed: {e}", l.kernel.name),
        }
        if stop(hook) {
            break;
        }
    }
    d.time = gpu.clock().total_time();
    d
}

/// Runs `w` natively (uninstrumented) under `gcfg`.
#[must_use]
pub fn run_native(w: &Workload, size: Size, gcfg: GpuConfig) -> Driven {
    let mut gpu = Gpu::new(gcfg);
    let launches = w.build(&mut gpu, size);
    drive(&mut gpu, &launches, &mut NullHook, w.name, |_| false)
}

/// Outcome of one iGUARD-instrumented run.
#[derive(Debug)]
pub struct IguardRun {
    /// The launch loop's outcome: simulated time with the detector
    /// attached, execution statistics, and any timeout (races are still
    /// reported) or aborted launch.
    pub driven: Driven,
    /// Per-category times (Figure 13's breakdown), in `COST_CATEGORIES`
    /// order.
    pub breakdown: [f64; 6],
    /// Distinct racing sites, the Table 4 unit.
    pub sites: Vec<RaceSite>,
    /// Detector counters.
    pub stats: iguard::IguardStats,
    /// UVM counters of the metadata region.
    pub uvm: uvm_sim::UvmStats,
    /// Everything the detector degraded on, fully accounted (collected
    /// after the final report drain, so the channel invariant holds).
    pub degradation: iguard::Degradation,
    /// Injected-fault counters aggregated across the detector's
    /// components and the GPU launch boundary.
    pub fault_stats: faults::FaultStats,
}

/// Runs `w` under iGUARD configured by `cfg` on a GPU configured by `gcfg`.
#[must_use]
pub fn run_iguard(w: &Workload, size: Size, gcfg: GpuConfig, cfg: IguardConfig) -> IguardRun {
    let mut gpu = Gpu::new(gcfg);
    let launches = w.build(&mut gpu, size);
    let mut tool = Instrumented::new(Iguard::new(cfg));
    let driven = drive(&mut gpu, &launches, &mut tool, w.name, |_| false);
    let breakdown = COST_CATEGORIES.map(|c| gpu.clock().time(c));
    let det = tool.tool_mut();
    // `race_sites` drains the report channel, so the degradation summary
    // collected afterwards satisfies `sent == drained + dropped`.
    let sites = det.race_sites();
    let degradation = det.degradation();
    let mut fault_stats = det.fault_stats();
    fault_stats.accumulate(&gpu.fault_stats());
    IguardRun {
        driven,
        breakdown,
        sites,
        stats: det.stats(),
        uvm: det.uvm_stats(),
        degradation,
        fault_stats,
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
    /// A job that runs `workload` at `size`, `reps` times.
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
/// This is the *only* exec path for the detector service — the service
/// determinism and store-recovery tests all call it, so a verdict
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
    let reps = (0..ctx.payload.reps.max(1)).flat_map(|_| &launches);
    let d = drive(&mut gpu, reps, tool, w.name, |_| false);
    JobOutcome {
        launches: d.launches,
        timed_out: d.timed_out,
        aborted_launches: d.aborted_launches,
        kernel_cycles: d.time as u64,
        gpu_faults: gpu.fault_stats(),
    }
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
            if !panic_message(info.payload()).contains("poison job") {
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

/// Runs `w` under the Barracuda baseline configured by `cfg` on a GPU
/// configured by `gcfg`, stopping at the first launch after which it has
/// failed (out of memory or did not terminate).
#[must_use]
pub fn run_barracuda(
    w: &Workload,
    size: Size,
    gcfg: GpuConfig,
    cfg: BarracudaConfig,
) -> BarracudaRun {
    let mut gpu = Gpu::new(gcfg);
    let launches = w.build(&mut gpu, size);
    let kind = BinaryKind::of(w.multi_file);
    if let Err(u) = barracuda::supports(&Workload::kernels(&launches), kind) {
        return BarracudaRun::Unsupported(u);
    }
    let mut tool = Instrumented::new(Barracuda::new(cfg));
    drive(&mut gpu, &launches, &mut tool, w.name, |t| {
        t.tool().failure().is_some()
    });
    // CPU-side analysis happens at drain time; charge it to the clock.
    let races = tool.tool_mut().finish(gpu.clock_mut()).len();
    BarracudaRun::Ran {
        time: gpu.clock().total_time(),
        races,
        failure: tool.tool().failure().cloned(),
        events: tool.tool().events_sent(),
    }
}

/// Barracuda configuration used by the harness: a fixed CPU-processing
/// budget (serial cycles). Workloads whose event stream exceeds it are
/// reported as non-terminating — in practice only `interac`'s
/// transactional retry flood does, matching the paper.
#[must_use]
pub fn barracuda_config_for() -> BarracudaConfig {
    // 16 500 records of CPU budget at 40 cycles each: every workload's
    // stream fits except interac's transactional retry flood — the
    // paper's non-termination.
    BarracudaConfig {
        timeout_serial_cycles: 660_000,
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
        let r = run_native(&w, Size::Test, gpu_config(DEFAULT_SEED));
        assert!(r.time > 0.0);
        assert!(!r.timed_out);
    }

    #[test]
    fn iguard_run_reports_no_races_on_clean_workload() {
        let w = workloads::by_name("b_reduce").unwrap();
        let r = run_iguard(
            &w,
            Size::Test,
            gpu_config(DEFAULT_SEED),
            IguardConfig::default(),
        );
        assert!(r.sites.is_empty(), "got {:?}", r.sites);
        assert!(r.driven.time > 0.0);
    }

    #[test]
    fn barracuda_refuses_multi_file() {
        let w = workloads::by_name("louvain").unwrap();
        let r = run_barracuda(
            &w,
            Size::Test,
            gpu_config(DEFAULT_SEED),
            BarracudaConfig::default(),
        );
        assert!(matches!(
            r,
            BarracudaRun::Unsupported(barracuda::Unsupported::MultiFilePtx)
        ));
    }
}
