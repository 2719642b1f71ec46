//! The names this benchmark fixes: workloads, metrics, members, sizes.
//! `BENCHMARK.json` is printed from this file (`igbench --contract`) and
//! a unit test keeps the two equal. Later issues refer to these names
//! verbatim; nothing here depends on the commit being measured.

use crate::json::Value;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures when
/// `--seconds` is not given.
pub const RUN_SECONDS: u64 = 12;

/// How many times a run sets up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Seed at which racey members must report exactly `paper_races` sites.
pub const PAPER_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Zoo members at `Size::Bench`, run arm by arm.
    Zoo(&'static [&'static str]),
    /// The benchmark's own stencil at each rung of `LADDER_THREADS`.
    Ladder,
    /// d_reduce at each of `FOOTPRINTS_GB`.
    Footprints,
    /// Waves of jobs through `DetectorService`.
    Service { chaos: bool },
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub kind: Kind,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "zoo_sim",
        kind: Kind::Zoo(ZOO_SIM),
        why: "14 zoo members whose wall is the interpreter's: an interpreter gain shows here, a detector gain must not",
    },
    WorkloadDef {
        name: "zoo_detect",
        kind: Kind::Zoo(ZOO_DETECT),
        why: "10 zoo members where the detector is the largest share, led by interac's atomic/lock retry flood",
    },
    WorkloadDef {
        name: "ladder_stencil",
        kind: Kind::Ladder,
        why: "race-free stencil at 1Ki/16Ki/128Ki threads: plain load/store path, fixed cost at the bottom, first-touch and RSS at the top",
    },
    WorkloadDef {
        name: "uvm_footprint",
        kind: Kind::Footprints,
        why: "d_reduce at 1/4/8/16 GB logical footprints: the only workload where uvm-sim pages and evicts",
    },
    WorkloadDef {
        name: "service_clean",
        kind: Kind::Service { chaos: false },
        why: "waves of 100 small jobs through DetectorService with a save per wave: per-job fixed cost dominates",
    },
    WorkloadDef {
        name: "service_chaos",
        kind: Kind::Service { chaos: true },
        why: "the same waves supervised under armed fault planes and a poison lottery: retries, quarantine, recover",
    },
];

/// Members whose wall time is the interpreter's, at `Size::Bench`.
pub const ZOO_SIM: &[&str] = &[
    "1dconv",
    "graph-con",
    "rule-110",
    "uts",
    "graph-color",
    "louvain",
    "pr_nibble",
    "sm",
    "color",
    "mis",
    "cc",
    "slabhash_test",
    "hashtable",
    "shocbfs",
];

/// Members where the detector is the largest share, at `Size::Bench`.
pub const ZOO_DETECT: &[&str] = &[
    "interac",
    "matrix-mult",
    "b_scan",
    "d_scan",
    "needle",
    "hotspot",
    "pathfinder",
    "srad",
    "kmeans",
    "dwt2d",
];

/// Thread counts of `ladder_stencil` (block 128).
pub const LADDER_THREADS: &[u32] = &[1 << 10, 1 << 14, 1 << 17];
pub const LADDER_BLOCK: u32 = 128;

/// Logical footprints of `uvm_footprint`, in GB.
pub const FOOTPRINTS_GB: &[u64] = &[1, 4, 8, 16];

/// Service load: one wave is `TENANTS * JOBS_PER_TENANT` jobs.
pub const TENANTS: usize = 5;
pub const STREAMS_PER_TENANT: usize = 2;
pub const JOBS_PER_TENANT: u64 = 20;
pub const JOB_REPS: u32 = 4;
pub const ROTATION: &[&str] = &[
    "reduction",
    "b_reduce",
    "graph-color",
    "d_scan",
    "hashtable",
    "matrix-mult",
];

/// `service_chaos`: supervised retries, the poison lottery (the
/// `jobs / POISON_DENOM` jobs of a wave with the smallest draws, so the
/// count does not move with the seed) and the rate every fault site is
/// armed at, in parts per `faults::RATE_ONE`, fixed so that 20-30 % of
/// first attempts are perturbed at seed 42.
pub const MAX_RETRIES: u32 = 2;
pub const POISON_DENOM: u64 = 16;
pub const CHAOS_RATE: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Untraced run. Every workload reports every one of these (the
/// driver's contract), so each is defined for both workload kinds; the
/// README's glossary says how.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("pass_wall_s", "s", Lower, 0.25),
    e2e("wall_overhead_x", "ratio", Lower, 0.25),
    e2e("sim_overhead_geomean_x", "ratio", Lower, 0.25),
    e2e("sim_makespan_cycles_per_job", "cycles", Lower, 0.20),
    e2e("peak_heap_mb", "MB", Lower, 0.05),
];

/// End-to-end metrics that are simulated quantities: at one seed they are
/// bit-identical between passes, runs and hosts. Their bound in
/// `BENCHMARK.json` only covers how far they move from seed to seed.
pub const EXACT_END_TO_END: &[&str] = &["sim_overhead_geomean_x", "sim_makespan_cycles_per_job"];

/// Traced run. A metric that does not apply to a workload reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("failed_share", "fraction", Lower),
    layer("sim_nondeterminism", "count", Lower),
    layer("passes", "count", Higher),
    layer("jobs_per_s", "jobs/s", Higher),
    layer("job_service_ms_p50", "ms", Lower),
    layer("job_service_ms_p90", "ms", Lower),
    layer("peak_rss_mb", "MB", Lower),
    layer("setup.cold_s", "s", Lower),
    layer("host.yardstick_ms", "ms", Lower),
    layer("host.speed_x", "ratio", Higher),
    layer("trace.overhead_x", "ratio", Lower),
    layer("workloads.build_ms", "ms", Lower),
    layer("gpu_sim.new_ms", "ms", Lower),
    layer("gpu_sim.native_ms", "ms", Lower),
    layer("gpu_sim.lane_instrs", "count", Lower),
    layer("gpu_sim.steps", "count", Lower),
    layer("gpu_sim.lane_instrs_per_s", "1/s", Higher),
    layer("gpu_sim.sim_cycles_native", "cycles", Lower),
    layer("nvbit_sim.dispatch_ms", "ms", Lower),
    layer("nvbit_sim.dispatched_mem", "count", Lower),
    layer("nvbit_sim.dispatched_sync", "count", Lower),
    layer("nvbit_sim.analyzed_kernels", "count", Lower),
    layer("nvbit_sim.channel.sent", "count", Lower),
    layer("nvbit_sim.channel.drained", "count", Lower),
    layer("iguard.new_ms", "ms", Lower),
    layer("iguard.detect_ms", "ms", Lower),
    layer("iguard.ns_per_access", "ns", Lower),
    layer("iguard.drain_ms", "ms", Lower),
    layer("iguard.accesses", "count", Lower),
    layer("iguard.coalesced_saved", "count", Higher),
    layer("iguard.contended_accesses", "count", Lower),
    layer("iguard.contention_cycles", "cycles", Lower),
    layer("iguard.missed_checks", "count", Lower),
    layer("iguard.sites", "count", Lower),
    layer("iguard.sim_cycles", "cycles", Lower),
    layer("iguard.uvm_cycles", "cycles", Lower),
    layer("uvm_sim.faults", "count", Lower),
    layer("uvm_sim.evictions", "count", Lower),
    layer("uvm_sim.fault_cycles", "cycles", Lower),
    layer("uvm_sim.prefaulted_pages", "count", Lower),
    layer("iguard.shard.inline4_ms", "ms", Lower),
    layer("iguard.shard.inline4_over_serial_x", "ratio", Lower),
    layer("static_an.analyze_ms", "ms", Lower),
    layer("static_an.safe_points", "count", Higher),
    layer("static_an.unknown_points", "count", Lower),
    layer("iguard.prune.detect_ms", "ms", Lower),
    layer("iguard.prune.skipped_mem", "count", Higher),
    layer("barracuda.pass_ms", "ms", Lower),
    layer("barracuda.events", "count", Lower),
    layer("barracuda.sim_overhead_geomean_x", "ratio", Lower),
    layer("iguard.service.exec_ms", "ms", Lower),
    layer("iguard.service.self_ms", "ms", Lower),
    layer("iguard.service.exec_ms_p99", "ms", Lower),
    layer("iguard.service.launches", "count", Lower),
    layer("iguard.service.front_end_cycles", "cycles", Lower),
    layer("iguard.service.transport_sent", "count", Lower),
    layer("gpu_sim.stream.busy_cycles", "cycles", Lower),
    layer("gpu_sim.stream.idle_cycles", "cycles", Lower),
    layer("iguard.supervise.attempts", "count", Lower),
    layer("iguard.supervise.retries", "count", Lower),
    layer("iguard.supervise.recovered", "count", Higher),
    layer("iguard.supervise.quarantined", "count", Lower),
    layer("iguard.supervise.panics_caught", "count", Lower),
    layer("iguard.supervise.perturbed_attempts", "count", Lower),
    layer("iguard.supervise.retry_exec_ms", "ms", Lower),
    layer("iguard.supervise.useful_attempt_ratio", "ratio", Higher),
    layer("faults.fires", "count", Lower),
    layer("iguard.store.save_ms", "ms", Lower),
    layer("iguard.store.recover_ms", "ms", Lower),
    layer("iguard.store.bytes_per_gen", "bytes", Lower),
    layer("iguard.store.generations", "count", Lower),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn contract() -> Value {
    let metric = |m: &MetricDef| {
        let mut fields = vec![
            ("name", Value::str(m.name)),
            ("unit", Value::str(m.unit)),
            ("better", Value::str(m.better.name())),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound", Value::Num(b)));
        }
        Value::obj(fields)
    };
    Value::obj(vec![
        (
            "command",
            Value::Arr(vec![Value::str("bash"), Value::str("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj(vec![
                            ("name", Value::str(w.name)),
                            ("why", Value::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "workload name {}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "metric name {}", m.name);
            assert!(unit_ok(m.unit), "unit of {}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "bound of {}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn every_member_resolves() {
        for name in ZOO_SIM
            .iter()
            .chain(ZOO_DETECT)
            .chain(ROTATION)
            .chain(&["d_reduce"])
        {
            assert!(
                workloads::by_name(name).is_some(),
                "{name} is not in the zoo"
            );
        }
        assert_eq!(
            (ZOO_SIM.len(), ZOO_DETECT.len(), ROTATION.len()),
            (14, 10, 6)
        );
    }

    #[test]
    fn benchmark_json_is_the_printed_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let on_disk = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            contract(),
            "regenerate with `benchmark/run.sh --contract`"
        );
        assert!(text.len() <= 64 * 1024);
        let keys: Vec<&str> = on_disk
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
