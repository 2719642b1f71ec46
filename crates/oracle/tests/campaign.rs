//! The differential fuzz campaign as a tier-1 test: 2,048 generated
//! kernels, full schedule-space oracle on each, iGUARD + Barracuda verdicts
//! checked against ground truth, zero unexplained divergences allowed.

use std::collections::BTreeMap;

use oracle::diff::{diff, generate_specs, Verdict};
use oracle::explore::{explore, gpu_config, ExploreConfig};
use oracle::observer::Observer;
use oracle::shrink::shrink;
use oracle::spec::{Spec, NUM_SLOTS};

use gpu_sim::machine::Gpu;
use gpu_sim::sched::ReplayScheduler;

const CAMPAIGN_SEED: u64 = 0x1_C0FFEE;
const CAMPAIGN_KERNELS: usize = 2048;

#[test]
fn campaign_over_2048_kernels_has_no_unexplained_divergence() {
    let mut racy = 0usize;
    let mut explained: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut failures = Vec::new();
    for spec in generate_specs(CAMPAIGN_KERNELS, CAMPAIGN_SEED) {
        let r = diff(&spec);
        racy += usize::from(r.oracle.racy);
        for d in &r.divergences {
            if let Some(reason) = d.explanation {
                *explained.entry(reason).or_insert(0) += 1;
            }
        }
        if !r.unexplained().is_empty() {
            // Shrink before reporting so the failure is actionable.
            let small = shrink(&spec, |s| !diff(s).unexplained().is_empty());
            failures.push(format!(
                "unexplained divergence in {}, shrunk to: {}",
                spec.to_compact_string(),
                diff(&small).describe()
            ));
        }
    }
    eprintln!(
        "campaign: {racy} racy / {} clean; explained {explained:?}",
        CAMPAIGN_KERNELS - racy
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // The generator must actually exercise both verdicts and produce at
    // least some paper-predicted divergences, or the campaign is vacuous.
    assert!(
        racy > CAMPAIGN_KERNELS / 10,
        "only {racy}/{CAMPAIGN_KERNELS} racy kernels"
    );
    assert!(
        racy < CAMPAIGN_KERNELS - CAMPAIGN_KERNELS / 10,
        "only {} clean kernels",
        CAMPAIGN_KERNELS - racy
    );
    assert!(
        !explained.is_empty(),
        "campaign produced no explained divergences"
    );
}

/// Replays `trace` for `spec` on the weak machine and returns the digest
/// of the observed access interleaving.
fn replay_digest(spec: &Spec, trace: &gpu_sim::sched::ScheduleTrace) -> u64 {
    let (grid, block) = spec.grid_block();
    let mut gpu = Gpu::new(gpu_config(spec.actors.len() as u32, true));
    let buf = gpu.alloc(NUM_SLOTS as usize).unwrap();
    let mut obs = Observer::default();
    let mut sched = ReplayScheduler::new(trace.clone());
    // A brand-new Kernel per replay: the trace keys on decisions, not on
    // object identity.
    gpu.launch_with(&spec.build(), grid, block, &[buf], &mut obs, &mut sched)
        .unwrap();
    assert!(
        sched.finished(),
        "{}: trace not consumed",
        spec.to_compact_string()
    );
    obs.digest()
}

/// A witness trace is a real artifact: replaying it reproduces the exact
/// access interleaving (digest-identical).
#[test]
fn witness_traces_replay_deterministically() {
    let mut checked = 0usize;
    for spec in generate_specs(60, CAMPAIGN_SEED ^ 0xDEAD) {
        let Some(trace) = explore(&spec, &ExploreConfig::default(), true).witness else {
            continue;
        };
        let a = replay_digest(&spec, &trace);
        let b = replay_digest(&spec, &trace);
        assert_eq!(a, b, "{}", spec.to_compact_string());
        checked += 1;
    }
    assert!(checked > 10, "only {checked} witnesses checked");
}

/// Replay survives the kernel being rebuilt (a fresh `Kernel` value, hence
/// a fresh Arc identity in the nvbit analysis cache), and the detector
/// convicts on the replayed witness schedule.
#[test]
fn replay_is_stable_across_kernel_rebuilds() {
    let spec = Spec::parse("v2;CB;Sx.Ly/Sx").unwrap();
    let trace = explore(&spec, &ExploreConfig::default(), true)
        .witness
        .expect("spec is racy");
    assert_eq!(replay_digest(&spec, &trace), replay_digest(&spec, &trace));
    let r = diff(&spec);
    assert_eq!(r.iguard, Verdict::Flagged, "{}", r.describe());
}
