//! One run of one workload in this process: set-up, timed passes for
//! `--seconds`, the verdict and determinism gates, and the result line.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use crate::json::Value;
use crate::service::ServiceBench;
use crate::spec::{self, Kind, MetricDef, WorkloadDef};
use crate::stats::{self, Summary};
use crate::yardstick::{self, Yardstick};
use crate::zoo::MemberBench;
use crate::{heap, host};

/// What one pass measured. `timed` and `exact` are keyed by metric name.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host-time values; the run reports each one's median over passes.
    pub timed: Vec<(&'static str, f64)>,
    /// Simulated quantities and counts: bit-identical in every pass.
    pub exact: Vec<(&'static str, f64)>,
    /// Host ms of each job (a member under the `iguard` arm, or a
    /// service job with its attempts summed), in the same order in
    /// every pass.
    pub job_ms: Vec<f64>,
    pub jobs: u64,
    /// Host seconds of the detector side of the pass (the `iguard` arm
    /// over all members, or one wave) and of its native side.
    pub wall_s: f64,
    pub native_wall_s: f64,
    /// Outcomes checked against the reference, those that differ, and a
    /// line about each difference.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

pub trait Bench {
    /// Runs one pass, ticking the yardstick between members or jobs and
    /// keeping its chunks out of every timed interval.
    fn pass(&mut self, traced: bool, yardstick: &mut Yardstick) -> Pass;
}

/// Scales what a pass measured in host time to the reference host speed:
/// times by `scale`, rates by its inverse, ratios and counts not at all.
fn to_reference_speed(p: &mut Pass, scale: f64) {
    for (name, v) in &mut p.timed {
        let def = spec::END_TO_END
            .iter()
            .chain(spec::PER_LAYER)
            .find(|d| d.name == *name);
        match def.map(|d| d.unit) {
            Some("s" | "ms" | "ns") => *v *= scale,
            Some("1/s" | "jobs/s") => *v /= scale,
            Some(_) => {}
            None => panic!("`{name}` is not a metric of this benchmark"),
        }
    }
    p.job_ms.iter_mut().for_each(|ms| *ms *= scale);
    p.wall_s *= scale;
    p.native_wall_s *= scale;
}

fn make_bench(w: &WorkloadDef, seed: u64) -> Box<dyn Bench> {
    match w.kind {
        Kind::Service { chaos } => Box::new(ServiceBench::new(chaos, seed)),
        members => Box::new(MemberBench::new(members, seed)),
    }
}

pub struct RunArgs {
    pub workload: &'static WorkloadDef,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// One set-up without a warm-up pass, then one timed pass.
    pub smoke: bool,
}

pub struct Metric {
    pub def: &'static MetricDef,
    pub value: f64,
    /// Quartiles and sample count, for values that are medians.
    pub spread: Option<Summary>,
}

pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub failures: Vec<String>,
    pub host: Value,
}

impl RunResult {
    /// The last line of standard output: exactly the driver's four keys.
    pub fn result_line(&self) -> Value {
        Value::obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.def.name.to_string(),
                                Value::obj(vec![
                                    ("value", Value::Num(m.value)),
                                    ("unit", Value::str(m.def.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Runs `args.workload`. `process_start` is when this process began, so
/// the first set-up is charged everything before it.
pub fn run_workload(args: &RunArgs, process_start: Instant) -> RunResult {
    let w = args.workload;
    // The untraced run sets up several times and reports the median, so
    // `setup_s` repeats; the traced run reports only the cold one.
    let setups = if args.traced || args.smoke {
        1
    } else {
        spec::SETUPS
    };
    let mut setup_s = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut bench = None;
    let mut ys = Yardstick::new();
    for i in 0..setups {
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let spent = ys.spent_ns;
        ys.tick();
        let mut b = make_bench(w, args.seed);
        if !args.smoke {
            // Untimed warm-up pass: caches, lazy set-up and first-touch
            // cost land here, and its verdicts still count.
            passes.push(b.pass(args.traced, &mut ys));
        }
        let raw = start.elapsed().as_secs_f64() - (ys.spent_ns - spent) as f64 * 1e-9;
        setup_s.push(raw * ys.take_scale());
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    let warmups = passes.len();

    let budget = Duration::from_secs_f64(args.seconds);
    let min_passes = if args.smoke { 1 } else { 3 };
    let measure = Instant::now();
    let mut last_pass = Duration::ZERO;
    // A pass starts while at least half of it fits, so a run measures
    // for `--seconds` give or take half a pass.
    while passes.len() - warmups < min_passes
        || (!args.smoke && measure.elapsed() + last_pass / 2 < budget)
    {
        let start = Instant::now();
        let mut p = bench.pass(args.traced, &mut ys);
        last_pass = start.elapsed();
        to_reference_speed(&mut p, ys.take_scale());
        passes.push(p);
    }
    drop(bench);
    let timed = &passes[warmups..];

    let mut values: BTreeMap<&'static str, (f64, Option<Summary>)> = BTreeMap::new();
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for p in timed {
        let both_sides = [
            ("pass_wall_s", p.wall_s),
            ("wall_overhead_x", p.wall_s / p.native_wall_s),
        ];
        for &(name, v) in p.timed.iter().chain(&both_sides) {
            by_name.entry(name).or_default().push(v);
        }
    }
    for (name, vs) in by_name {
        let s = stats::summarize(&vs);
        values.insert(name, (s.p50, Some(s)));
    }

    // Exact values come from the first pass; any name whose value moved
    // in any pass (warm-ups included) is counted, not averaged away. A
    // pass lists its exact values in the same order every time.
    let reference = &passes[0].exact;
    let mut moved: BTreeSet<&'static str> = BTreeSet::new();
    for p in &passes {
        assert_eq!(
            p.exact.len(),
            reference.len(),
            "every pass lists the same exact values"
        );
        for (a, b) in reference.iter().zip(&p.exact) {
            if a.0 != b.0 || a.1.to_bits() != b.1.to_bits() {
                moved.insert(a.0);
            }
        }
    }
    for &(name, v) in reference {
        values.insert(name, (v, None));
    }

    // Job j is the same job in every pass (same member, same job seed):
    // its time is its median over passes, and the percentiles are taken
    // over jobs, so one slow pass does not pick the p90.
    let job_ms = stats::sorted(
        &(0..timed[0].job_ms.len())
            .map(|j| stats::median(&timed.iter().map(|p| p.job_ms[j]).collect::<Vec<_>>()))
            .collect::<Vec<_>>(),
    );
    let jobs: u64 = timed.iter().map(|p| p.jobs).sum();
    let wall_s: f64 = timed.iter().map(|p| p.wall_s).sum();
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let failures: Vec<String> = passes
        .iter()
        .flat_map(|p| p.failures.iter().cloned())
        .collect();

    let setup = stats::summarize(&setup_s);
    values.insert("setup_s", (setup.p50, Some(setup)));
    values.insert("setup.cold_s", (setup_s[0], None));
    values.insert("jobs_per_s", (jobs as f64 / wall_s, None));
    values.insert("job_service_ms_p50", (stats::percentile(&job_ms, 50), None));
    values.insert("job_service_ms_p90", (stats::percentile(&job_ms, 90), None));
    if matches!(w.kind, Kind::Service { .. }) {
        values.insert(
            "iguard.service.exec_ms_p99",
            (stats::percentile(&job_ms, 99), None),
        );
    }
    values.insert("peak_heap_mb", (heap::peak_mb(), None));
    values.insert("peak_rss_mb", (host::peak_rss_mb(), None));
    let chunks = stats::summarize(&ys.all_ns.iter().map(|ns| ns * 1e-6).collect::<Vec<_>>());
    values.insert("host.yardstick_ms", (chunks.p50, Some(chunks)));
    values.insert(
        "host.speed_x",
        (yardstick::REFERENCE_NS * 1e-6 / chunks.p50, None),
    );
    values.insert(
        "failed_share",
        (failed as f64 / attempted.max(1) as f64, None),
    );
    values.insert("sim_nondeterminism", (moved.len() as f64, None));
    values.insert("passes", (timed.len() as f64, None));

    let defs = if args.traced {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let metrics = defs
        .iter()
        .map(|def| {
            // A per-layer metric that does not apply to this workload
            // reads 0; an end-to-end metric must have been measured.
            let (value, spread) = match values.get(def.name) {
                Some(&(v, s)) if v.is_finite() => (v, s),
                _ if args.traced => (0.0, None),
                _ => panic!("{} did not measure {}", w.name, def.name),
            };
            Metric { def, value, spread }
        })
        .collect();

    let mut all_failures = failures;
    all_failures.extend(
        moved
            .iter()
            .map(|name| format!("{name} differed between passes")),
    );
    RunResult {
        metrics,
        attempted,
        failed,
        correct: failed == 0 && all_failures.is_empty(),
        failures: all_failures,
        host: host::block(args, timed.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// One smoke run of the cheapest workload, untraced and traced: every
    /// metric of the contract is reported once, by name, and the result
    /// line parses back to the object it was printed from.
    #[test]
    fn smoke_run_reports_the_contract_and_parses_back() {
        for traced in [false, true] {
            let args = RunArgs {
                workload: spec::workload("uvm_footprint").expect("uvm_footprint is a workload"),
                seed: spec::PAPER_SEED,
                seconds: 1.0,
                traced,
                smoke: true,
            };
            let result = run_workload(&args, Instant::now());
            assert!(result.correct, "{:?}", result.failures);
            assert_eq!((result.attempted, result.failed), (4, 0));

            let defs = if traced {
                spec::PER_LAYER
            } else {
                spec::END_TO_END
            };
            let names: Vec<&str> = result.metrics.iter().map(|m| m.def.name).collect();
            assert_eq!(names, defs.iter().map(|d| d.name).collect::<Vec<_>>());
            assert!(result.metrics.iter().all(|m| m.value.is_finite()));

            let line = result.result_line();
            let back = json::parse(&line.to_string()).expect("the result line is JSON");
            assert_eq!(back, line);
            let keys: Vec<&str> = back
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            for key in [
                "nproc", "cpu", "kernel", "rustc", "commit", "seed", "passes",
            ] {
                assert!(result.host.get(key).is_some(), "host block lacks {key}");
            }
        }
    }
}
