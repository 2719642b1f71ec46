//! End-to-end degradation accounting: run the *actual* detector over a
//! real workload under fault schedules and check that the pipeline's own
//! counters balance — every injected fault is traceable to exactly one
//! consumer-side counter ([`unaccounted`]), and
//! `Degradation::fully_accounted()` holds.
//!
//! The table-level mirror of this property lives in
//! `iguard/tests/proptest_fault_plane.rs` with far more cases; this suite
//! runs few cases because each one is a full simulated kernel.

use faults::{FaultConfig, FaultSite, RATE_ONE};
use gpu_sim::machine::GpuConfig;
use iguard::IguardConfig;
use proptest::prelude::*;
use workloads::Size;

use bench::{gpu_config, run_iguard_with, IguardRun};

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

/// Five seeded chaos campaigns: racy, clean and contended workloads with
/// every fault site armed at 1/64 — metadata eviction and tag aliasing,
/// report drop, corruption and overflow, UVM eviction storms and device
/// OOM, hung and aborted kernels — on a 256-word table, so genuine
/// capacity evictions mix with injected ones. No run panics, every
/// injected fault is traceable to a counter, and every campaign fires.
#[test]
fn chaos_campaigns_account_for_every_injected_fault() {
    for seed in 42..=46u64 {
        let plane = FaultConfig::uniform(seed, RATE_ONE / 64);
        let mut fires = 0;
        for name in ["reduction", "graph-color", "uts", "b_reduce"] {
            let w = workloads::by_name(name).expect("workload exists");
            let gcfg = GpuConfig {
                faults: plane.clone(),
                ..gpu_config(seed)
            };
            let icfg = IguardConfig {
                faults: plane.clone(),
                table_capacity_words: Some(256),
                ..IguardConfig::default()
            };
            let run = run_iguard_with(&w, Size::Test, gcfg, icfg);
            let bad = unaccounted(&run);
            assert!(bad.is_empty(), "campaign {seed}, {name}: {bad:?}");
            fires += run.fault_stats.total();
        }
        assert!(fires > 0, "campaign {seed}: no fault fired");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pipeline_degradation_is_fully_accounted(
        seed in 0u64..1 << 32,
        evict_rate in 0u32..=RATE_ONE / 8,
        alias_rate in 0u32..=RATE_ONE / 8,
        drop_rate in 0u32..=RATE_ONE / 4,
        overflow_rate in 0u32..=RATE_ONE / 2,
        cap_pow in 6u32..10,
    ) {
        let faults = FaultConfig::disabled()
            .with_seed(seed)
            .with_rate(FaultSite::MetaEviction, evict_rate)
            .with_rate(FaultSite::MetaTagAlias, alias_rate)
            .with_rate(FaultSite::ReportDrop, drop_rate)
            .with_rate(FaultSite::ChannelOverflow, overflow_rate);
        let w = workloads::by_name("reduction").expect("reduction exists");
        let icfg = IguardConfig {
            faults: faults.clone(),
            table_capacity_words: Some(1usize << cap_pow),
            // A one-record buffer flushes on every shipped report, so
            // each report is a chance for an overflow fault to fire.
            report_capacity: 1,
            ..IguardConfig::default()
        };
        let run = run_iguard_with(&w, Size::Test, gpu_config(seed), icfg);
        let bad = unaccounted(&run);
        prop_assert!(bad.is_empty(), "{:?}", bad);
    }
}
