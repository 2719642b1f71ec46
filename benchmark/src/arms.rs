//! One member under one arm: fresh `Gpu`, build, hook, every launch,
//! final drain. The layers are timed from outside, around these calls.

use std::time::Instant;

use barracuda::{Barracuda, BarracudaConfig};
use gpu_sim::hook::{ExecMode, Hook, MemAccess, NullHook, SyncEvent};
use gpu_sim::machine::{Gpu, GpuConfig};
use gpu_sim::timing::Clock;
use iguard::{Iguard, IguardConfig, IguardStats, PruneMode, ShardConfig, ShardedIguard};
use nvbit_sim::channel::ChannelStats;
use nvbit_sim::{InstrStats, Instrumented, Tool};
use uvm_sim::UvmStats;
use workloads::Launch;

use crate::members::Member;

/// The evaluation's device: ITS scheduling seeded by the run's seed.
pub fn gpu_config(seed: u64) -> GpuConfig {
    let mut cfg = GpuConfig::default();
    cfg.seed = seed;
    cfg.mode = ExecMode::Its;
    cfg.max_steps = 80_000_000;
    cfg
}

/// Host time at each layer boundary of one arm run. All zero unless the
/// run was asked for spans: the untraced run reads the clock twice.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    pub gpu_new_ns: u64,
    pub build_ns: u64,
    pub tool_new_ns: u64,
    pub launch_ns: u64,
    pub finish_ns: u64,
}

pub struct ArmRun<O> {
    /// From before `Gpu::new` until the device and the hook are dropped.
    pub wall_ns: u64,
    /// Simulated `clock().total_time()` after the final drain.
    pub sim_time: f64,
    pub steps: u64,
    pub lane_instrs: u64,
    pub launch_errors: u64,
    pub spans: Spans,
    pub out: O,
}

struct Lap {
    on: bool,
    last: Instant,
}

impl Lap {
    fn ns(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let now = Instant::now();
        let ns = (now - self.last).as_nanos() as u64;
        self.last = now;
        ns
    }
}

pub fn run_arm<H: Hook, O>(
    m: &Member,
    seed: u64,
    spans: bool,
    make: impl FnOnce(IguardConfig) -> H,
    finish: impl FnOnce(&mut H, &mut Gpu) -> O,
) -> ArmRun<O> {
    let start = Instant::now();
    let mut lap = Lap {
        on: spans,
        last: start,
    };
    let mut s = Spans::default();
    let mut gpu = Gpu::new(gpu_config(seed));
    s.gpu_new_ns = lap.ns();
    let (launches, cfg) = (m.build)(&mut gpu);
    s.build_ns = lap.ns();
    let mut hook = make(cfg);
    s.tool_new_ns = lap.ns();
    let (mut steps, mut lane_instrs, mut launch_errors) = (0, 0, 0);
    for l in &launches {
        match gpu.launch(&l.kernel, l.grid, l.block, &l.params, &mut hook) {
            Ok(stats) => {
                steps += stats.steps;
                lane_instrs += stats.lane_instrs;
            }
            Err(_) => launch_errors += 1,
        }
    }
    s.launch_ns = lap.ns();
    let out = finish(&mut hook, &mut gpu);
    s.finish_ns = lap.ns();
    let sim_time = gpu.clock().total_time();
    drop((hook, launches, gpu));
    ArmRun {
        wall_ns: start.elapsed().as_nanos() as u64,
        sim_time,
        steps,
        lane_instrs,
        launch_errors,
        spans: s,
        out,
    }
}

pub fn native(m: &Member, seed: u64, spans: bool) -> ArmRun<()> {
    run_arm(m, seed, spans, |_| NullHook, |_, _| ())
}

/// The benchmark's own tool: takes every callback the default selection
/// dispatches and only counts it, so `hooked - native` is `nvbit-sim`.
#[derive(Debug, Default)]
pub struct CountTool {
    pub mem: u64,
    pub sync: u64,
}

impl Tool for CountTool {
    fn on_mem(&mut self, _access: &MemAccess<'_>, _clock: &mut Clock) {
        self.mem += 1;
    }
    fn on_sync(&mut self, _event: &SyncEvent<'_>, _clock: &mut Clock) {
        self.sync += 1;
    }
}

pub fn hooked(m: &Member, seed: u64) -> ArmRun<InstrStats> {
    run_arm(
        m,
        seed,
        false,
        |_| Instrumented::new(CountTool::default()),
        |tool, _| {
            let stats = tool.instr_stats();
            let counted = tool.tool();
            assert_eq!(
                (counted.mem, counted.sync),
                (stats.dispatched_mem, stats.dispatched_sync),
                "CountTool saw every dispatched callback"
            );
            stats
        },
    )
}

/// What a detector arm hands back after its final drain.
#[derive(Debug, Clone, Copy)]
pub struct Detected {
    pub sites: usize,
    pub stats: IguardStats,
    pub uvm: UvmStats,
    pub channel: ChannelStats,
    pub instr: InstrStats,
}

/// The calls the serial and the sharded detector share by name only.
pub trait Detector: Tool {
    fn drain_sites(&mut self) -> usize;
    fn counters(&self) -> (IguardStats, UvmStats, ChannelStats);
}

impl Detector for Iguard {
    fn drain_sites(&mut self) -> usize {
        self.race_sites().len()
    }
    fn counters(&self) -> (IguardStats, UvmStats, ChannelStats) {
        (self.stats(), self.uvm_stats(), self.channel_stats())
    }
}

impl Detector for ShardedIguard {
    fn drain_sites(&mut self) -> usize {
        self.race_sites().len()
    }
    fn counters(&self) -> (IguardStats, UvmStats, ChannelStats) {
        (self.stats(), self.uvm_stats(), self.channel_stats())
    }
}

fn detect<D: Detector>(
    m: &Member,
    seed: u64,
    spans: bool,
    make: impl FnOnce(IguardConfig) -> D,
) -> ArmRun<Detected> {
    run_arm(
        m,
        seed,
        spans,
        |cfg| Instrumented::new(make(cfg)),
        |tool, _| {
            let instr = tool.instr_stats();
            // `race_sites` drains the report channel: counters after it.
            let sites = tool.tool_mut().drain_sites();
            let (stats, uvm, channel) = tool.tool().counters();
            Detected {
                sites,
                stats,
                uvm,
                channel,
                instr,
            }
        },
    )
}

/// The `iguard` arm: `Instrumented<Iguard>` under the member's config.
pub fn iguard(m: &Member, seed: u64, spans: bool) -> ArmRun<Detected> {
    detect(m, seed, spans, Iguard::new)
}

/// The detector the service uses: four inline shards.
pub fn sharded(m: &Member, seed: u64) -> ArmRun<Detected> {
    detect(m, seed, false, |cfg| {
        ShardedIguard::new(cfg, ShardConfig::inline(4))
    })
}

/// `iguard` with static pruning on.
pub fn pruned(m: &Member, seed: u64) -> ArmRun<Detected> {
    detect(m, seed, false, |mut cfg| {
        cfg.prune = PruneMode::On;
        Iguard::new(cfg)
    })
}

/// What the Barracuda arm hands back.
#[derive(Debug, Clone, Copy)]
pub struct Baseline {
    pub events: u64,
    /// Ran out of its CPU budget or its memory reservation.
    pub failed: bool,
}

/// Whether the baseline arm runs on the member: it is eligible and
/// Barracuda's front end accepts its kernels (scoped atomics,
/// `__syncwarp` and multi-file libraries are refused).
pub fn barracuda_supports(m: &Member, seed: u64) -> bool {
    let Some(kind) = m.baseline else {
        return false;
    };
    let mut gpu = Gpu::new(gpu_config(seed));
    let (launches, _) = (m.build)(&mut gpu);
    let kernels: Vec<_> = launches.iter().map(|l| &l.kernel).collect();
    barracuda::supports(&kernels, kind).is_ok()
}

/// The baseline, under the evaluation's CPU budget (interac's retry
/// flood exceeds it, as in the paper).
pub fn baseline(m: &Member, seed: u64) -> ArmRun<Baseline> {
    run_arm(
        m,
        seed,
        false,
        |_| {
            let mut cfg = BarracudaConfig::default();
            cfg.timeout_serial_cycles = 660_000;
            Instrumented::new(Barracuda::new(cfg))
        },
        |tool, gpu| {
            // The CPU-side analysis runs at drain time and is charged to
            // the device clock.
            tool.tool_mut().finish(gpu.clock_mut());
            Baseline {
                events: tool.tool().events_sent(),
                failed: tool.tool().failure().is_some(),
            }
        },
    )
}

/// Static analysis of every kernel the member launches, timed as a
/// layer of its own: (host ns, safe points, unknown points).
pub fn analyze(launches: &[Launch]) -> (u64, u64, u64) {
    let start = Instant::now();
    let (mut safe, mut unknown) = (0, 0);
    for l in launches {
        let class = static_an::analyze(&l.kernel);
        safe += class.safe_points as u64;
        unknown += class.unknown_points as u64;
    }
    (start.elapsed().as_nanos() as u64, safe, unknown)
}
