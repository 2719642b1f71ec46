//! The four member workloads: a pass runs every member once under every
//! arm, arms interleaved member by member so host drift hits them alike.

use gpu_sim::machine::Gpu;
use nvbit_sim::InstrStats;

use crate::arms::{self, gpu_config, ArmRun, Baseline, Detected};
use crate::members::{self, Member};
use crate::run::{Bench, Pass};
use crate::spec::Kind;
use crate::stats;
use crate::yardstick::Yardstick;

pub struct MemberBench {
    members: Vec<Member>,
    /// Per member: whether Barracuda's front end accepts it.
    barracuda: Vec<bool>,
    seed: u64,
}

impl MemberBench {
    pub fn new(kind: Kind, seed: u64) -> Self {
        let members = members::for_workload(kind, seed);
        let barracuda = members
            .iter()
            .map(|m| arms::barracuda_supports(m, seed))
            .collect();
        MemberBench {
            members,
            barracuda,
            seed,
        }
    }
}

/// The arms only the traced run adds.
struct TracedArms {
    hooked: ArmRun<InstrStats>,
    spanned: ArmRun<Detected>,
    sharded: ArmRun<Detected>,
    pruned: ArmRun<Detected>,
    baseline: Option<ArmRun<Baseline>>,
    /// `arms::analyze`: (host ns, safe points, unknown points).
    analysis: (u64, u64, u64),
}

/// One member under every arm of the pass.
struct MemberRun {
    native: ArmRun<()>,
    iguard: ArmRun<Detected>,
    traced: Option<TracedArms>,
}

const MS: f64 = 1e-6;

impl Bench for MemberBench {
    fn pass(&mut self, traced: bool, ys: &mut Yardstick) -> Pass {
        let seed = self.seed;
        let mut p = Pass::default();
        let mut runs = Vec::new();
        for (m, &baseline_ok) in self.members.iter().zip(&self.barracuda) {
            ys.tick();
            let native = arms::native(m, seed, traced);
            ys.tick();
            let iguard = arms::iguard(m, seed, false);

            p.attempted += 1;
            let launch_errors = iguard.launch_errors + native.launch_errors;
            if !m.expect.holds(iguard.out.sites) || launch_errors > 0 {
                p.failed += 1;
                p.failures.push(format!(
                    "{}: {} site(s), expected {:?}; {launch_errors} launch error(s)",
                    m.name, iguard.out.sites, m.expect
                ));
            }
            let traced = traced.then(|| {
                ys.tick();
                let hooked = arms::hooked(m, seed);
                ys.tick();
                let spanned = arms::iguard(m, seed, true);
                ys.tick();
                let sharded = arms::sharded(m, seed);
                ys.tick();
                let pruned = arms::pruned(m, seed);
                ys.tick();
                let baseline = baseline_ok.then(|| arms::baseline(m, seed));
                let mut gpu = Gpu::new(gpu_config(seed));
                let (launches, _) = (m.build)(&mut gpu);
                TracedArms {
                    hooked,
                    spanned,
                    sharded,
                    pruned,
                    baseline,
                    analysis: arms::analyze(&launches),
                }
            });
            if let Some(t) = &traced {
                if t.sharded.out.sites != iguard.out.sites {
                    p.failed += 1;
                    p.failures.push(format!(
                        "{}: sharded detector reports {} site(s), serial {}",
                        m.name, t.sharded.out.sites, iguard.out.sites
                    ));
                }
            }
            runs.push(MemberRun {
                native,
                iguard,
                traced,
            });
        }

        // Sums over members. Counts stay far below 2^53, so f64 is exact.
        let sum = |f: &dyn Fn(&MemberRun) -> f64| runs.iter().map(f).sum::<f64>();
        let native_ns = sum(&|r| r.native.wall_ns as f64);
        let iguard_ns = sum(&|r| r.iguard.wall_ns as f64);
        let iguard_sim = sum(&|r| r.iguard.sim_time);
        let lane_instrs = sum(&|r| r.native.lane_instrs as f64);
        let mut detector = iguard::IguardStats::default();
        runs.iter()
            .for_each(|r| detector.accumulate(&r.iguard.out.stats));
        let sim_ratios: Vec<f64> = runs
            .iter()
            .map(|r| r.iguard.sim_time / r.native.sim_time)
            .collect();

        p.jobs = runs.len() as u64;
        p.wall_s = iguard_ns * 1e-9;
        p.native_wall_s = native_ns * 1e-9;
        p.job_ms = runs.iter().map(|r| r.iguard.wall_ns as f64 * MS).collect();
        p.exact.extend([
            ("sim_overhead_geomean_x", stats::geomean(&sim_ratios)),
            (
                "sim_makespan_cycles_per_job",
                iguard_sim / runs.len() as f64,
            ),
            ("gpu_sim.lane_instrs", lane_instrs),
            ("gpu_sim.steps", sum(&|r| r.native.steps as f64)),
            ("gpu_sim.sim_cycles_native", sum(&|r| r.native.sim_time)),
            (
                "nvbit_sim.channel.sent",
                sum(&|r| r.iguard.out.channel.sent as f64),
            ),
            (
                "nvbit_sim.channel.drained",
                sum(&|r| r.iguard.out.channel.drained as f64),
            ),
            ("iguard.accesses", detector.accesses as f64),
            ("iguard.coalesced_saved", detector.coalesced_saved as f64),
            (
                "iguard.contended_accesses",
                detector.contended_accesses as f64,
            ),
            (
                "iguard.contention_cycles",
                detector.contention_cycles as f64,
            ),
            ("iguard.missed_checks", detector.missed_checks as f64),
            ("iguard.sites", sum(&|r| r.iguard.out.sites as f64)),
            ("iguard.sim_cycles", iguard_sim),
            ("iguard.uvm_cycles", detector.uvm_cycles as f64),
            ("uvm_sim.faults", sum(&|r| r.iguard.out.uvm.faults as f64)),
            (
                "uvm_sim.evictions",
                sum(&|r| r.iguard.out.uvm.evictions as f64),
            ),
            (
                "uvm_sim.fault_cycles",
                sum(&|r| r.iguard.out.uvm.fault_cycles as f64),
            ),
            (
                "uvm_sim.prefaulted_pages",
                sum(&|r| r.iguard.out.uvm.prefaulted_pages as f64),
            ),
        ]);
        if !traced {
            return p;
        }

        let traced_arms = || runs.iter().filter_map(|r| r.traced.as_ref());
        let tsum = |f: &dyn Fn(&TracedArms) -> f64| traced_arms().map(f).sum::<f64>();
        let hooked_ns = tsum(&|t| t.hooked.wall_ns as f64);
        let sharded_ns = tsum(&|t| t.sharded.wall_ns as f64);
        let detect_ns = iguard_ns - hooked_ns;
        let gpu_new_ms: Vec<f64> = traced_arms()
            .map(|t| t.spanned.spans.gpu_new_ns as f64 * MS)
            .collect();
        let baseline_ratios: Vec<f64> = runs
            .iter()
            .filter_map(|r| {
                let b = r.traced.as_ref()?.baseline.as_ref()?;
                (!b.out.failed).then(|| b.sim_time / r.native.sim_time)
            })
            .collect();
        let baseline_sum = |f: &dyn Fn(&ArmRun<Baseline>) -> f64| {
            traced_arms()
                .filter_map(|t| t.baseline.as_ref())
                .map(f)
                .sum::<f64>()
        };
        p.timed.extend([
            (
                "trace.overhead_x",
                tsum(&|t| t.spanned.wall_ns as f64) / iguard_ns,
            ),
            (
                "workloads.build_ms",
                tsum(&|t| t.spanned.spans.build_ns as f64) * MS,
            ),
            ("gpu_sim.new_ms", stats::median(&gpu_new_ms)),
            ("gpu_sim.native_ms", native_ns * MS),
            (
                "gpu_sim.lane_instrs_per_s",
                lane_instrs / (sum(&|r| r.native.spans.launch_ns as f64) * 1e-9),
            ),
            ("nvbit_sim.dispatch_ms", (hooked_ns - native_ns) * MS),
            (
                "iguard.new_ms",
                tsum(&|t| t.spanned.spans.tool_new_ns as f64) * MS,
            ),
            ("iguard.detect_ms", detect_ns * MS),
            (
                "iguard.ns_per_access",
                detect_ns / detector.accesses.max(1) as f64,
            ),
            (
                "iguard.drain_ms",
                tsum(&|t| t.spanned.spans.finish_ns as f64) * MS,
            ),
            ("iguard.shard.inline4_ms", sharded_ns * MS),
            ("iguard.shard.inline4_over_serial_x", sharded_ns / iguard_ns),
            ("static_an.analyze_ms", tsum(&|t| t.analysis.0 as f64) * MS),
            (
                "iguard.prune.detect_ms",
                (tsum(&|t| t.pruned.wall_ns as f64) - hooked_ns) * MS,
            ),
            (
                "barracuda.pass_ms",
                baseline_sum(&|b| b.wall_ns as f64) * MS,
            ),
        ]);
        p.exact.extend([
            (
                "nvbit_sim.dispatched_mem",
                tsum(&|t| t.hooked.out.dispatched_mem as f64),
            ),
            (
                "nvbit_sim.dispatched_sync",
                tsum(&|t| t.hooked.out.dispatched_sync as f64),
            ),
            (
                "nvbit_sim.analyzed_kernels",
                tsum(&|t| t.hooked.out.analyzed_kernels as f64),
            ),
            ("static_an.safe_points", tsum(&|t| t.analysis.1 as f64)),
            ("static_an.unknown_points", tsum(&|t| t.analysis.2 as f64)),
            (
                "iguard.prune.skipped_mem",
                tsum(&|t| t.pruned.out.instr.skipped_mem as f64),
            ),
            ("barracuda.events", baseline_sum(&|b| b.out.events as f64)),
        ]);
        if !baseline_ratios.is_empty() {
            p.exact.push((
                "barracuda.sim_overhead_geomean_x",
                stats::geomean(&baseline_ratios),
            ));
        }
        p
    }
}
