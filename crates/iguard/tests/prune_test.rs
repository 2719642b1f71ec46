//! End-to-end tests of hybrid static/dynamic detection (DESIGN.md §13):
//! pruning must never change race reports, verify mode must never catch
//! the detector firing on a provably-safe access, conditional verdicts
//! must be re-validated (and invalidated) per launch, and provably-racy
//! sites must surface as launch-time static reports.

use faults::{FaultConfig, FaultSite, RATE_ONE};
use gpu_sim::prelude::*;
use iguard::prune::RacyReason;
use iguard::{Iguard, IguardConfig, PruneMode};
use nvbit_sim::Instrumented;

/// The canonical prunable workload: `out[g] = in[g] * 3`.
fn stream_kernel() -> Kernel {
    let mut b = KernelBuilder::new("stream");
    let input = b.param(0);
    let output = b.param(1);
    let g = b.special(Special::GlobalTid);
    let off = b.mul(g, 4u32);
    let ia = b.add(input, off);
    let v = b.ld(ia, 0);
    let v3 = b.mul(v, 3u32);
    let oa = b.add(output, off);
    b.st(oa, 0, v3);
    b.build()
}

/// An intra-warp ITS race (lane 1 stores, lane 0 loads, no __syncwarp) —
/// branchy and aliasing-prone, so nothing about it is prunable.
fn racy_kernel() -> Kernel {
    let mut b = KernelBuilder::new("racy");
    let tid = b.special(Special::Tid);
    let base = b.param(0);
    let is1 = b.eq(tid, 1u32);
    let skip = b.fwd_label();
    b.bra_ifnot(is1, skip);
    let v = b.imm(7);
    b.st(base, 1, v);
    b.bind(skip);
    let is0 = b.eq(tid, 0u32);
    let done = b.fwd_label();
    b.bra_ifnot(is0, done);
    let got = b.ld(base, 1);
    b.st(base, 0, got);
    b.bind(done);
    b.build()
}

/// A straight-line uniform store: provably racy for any ≥ 2-thread launch.
fn uniform_store_kernel() -> Kernel {
    let mut b = KernelBuilder::new("uni");
    let buf = b.param(0);
    let tid = b.special(Special::Tid);
    b.loc("buf[3] = tid");
    b.st(buf, 3, tid);
    b.build()
}

fn gpu() -> Gpu {
    Gpu::new(GpuConfig {
        seed: 11,
        max_steps: 5_000_000,
        ..GpuConfig::default()
    })
}

#[test]
fn pruned_stream_kernel_skips_every_memory_callback() {
    let mut gpu = gpu();
    let a = gpu.alloc(64).unwrap();
    let b = gpu.alloc(64).unwrap();
    let k = stream_kernel();
    let mut tool = Instrumented::new(Iguard::new(IguardConfig::with_prune()));
    gpu.launch(&k, 2, 32, &[a, b], &mut tool).unwrap();

    let is = tool.instr_stats();
    assert_eq!(is.dispatched_mem, 0);
    assert!(is.skipped_mem > 0);
    let ps = tool.tool().prune_stats();
    assert_eq!(ps.analyzed_kernels, 1);
    assert_eq!(ps.static_mem_points, 2);
    assert_eq!(ps.static_safe_points, 2);
    assert_eq!(ps.conditional_failures, 0);
    // The detector saw no memory traffic at all — and reports nothing.
    assert_eq!(tool.tool().stats().accesses, 0);
    assert_eq!(tool.tool_mut().races().len(), 0);
    assert!(tool.tool().static_reports().is_empty());
}

#[test]
fn pruning_preserves_race_reports_exactly() {
    // The racy kernel is unprunable, so On mode must produce the same
    // dynamic reports as Off — same records, same order.
    let run = |cfg: IguardConfig| {
        let mut gpu = gpu();
        let buf = gpu.alloc(4).unwrap();
        let mut tool = Instrumented::new(Iguard::new(cfg));
        gpu.launch(&racy_kernel(), 1, 32, &[buf], &mut tool).unwrap();
        let races: Vec<String> = tool
            .tool_mut()
            .races()
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        (races, tool.tool().stats().accesses)
    };
    let (full, full_accesses) = run(IguardConfig::default());
    let (pruned, pruned_accesses) = run(IguardConfig::with_prune());
    assert!(!full.is_empty());
    assert_eq!(full, pruned);
    assert_eq!(full_accesses, pruned_accesses);
}

#[test]
fn verify_mode_tags_safe_accesses_and_never_sees_a_violation() {
    let mut gpu = gpu();
    let a = gpu.alloc(64).unwrap();
    let b = gpu.alloc(64).unwrap();
    let c = gpu.alloc(4).unwrap();
    let mut tool = Instrumented::new(Iguard::new(IguardConfig::with_prune_verify()));
    gpu.launch(&stream_kernel(), 2, 32, &[a, b], &mut tool).unwrap();
    gpu.launch(&racy_kernel(), 1, 32, &[c], &mut tool).unwrap();

    // Verify instruments everything: the framework skipped nothing.
    assert_eq!(tool.instr_stats().skipped_mem, 0);
    let ps = tool.tool().prune_stats();
    // Every stream access was tagged would-prune; none produced a report.
    assert_eq!(ps.pruned_accesses, 64 * 2);
    assert_eq!(ps.verify_violations, 0);
    // The racy kernel still races.
    assert!(!tool.tool_mut().races().is_empty());
}

#[test]
fn overlapping_launch_invalidates_the_pruned_bitmap_and_stays_conservative() {
    let mut gpu = gpu();
    let a = gpu.alloc(64).unwrap();
    let b = gpu.alloc(64).unwrap();
    let k = stream_kernel();
    let mut tool = Instrumented::new(Iguard::new(IguardConfig::with_prune()));

    // Launch 1: disjoint buffers — fully pruned.
    gpu.launch(&k, 2, 32, &[a, b], &mut tool).unwrap();
    assert_eq!(tool.instr_stats().dispatched_mem, 0);

    // Launch 2: in == out. The region-disjointness condition fails, the
    // cached bitmap is invalidated before any access runs, and the launch
    // executes fully instrumented. (in[g] and out[g] are the same word per
    // thread, which is still race-free dynamically — no reports.)
    gpu.launch(&k, 2, 32, &[a, a], &mut tool).unwrap();
    let is = tool.instr_stats();
    assert_eq!(is.reinstrumented_kernels, 1);
    let after_overlap = is.dispatched_mem;
    assert!(after_overlap > 0);
    let ps = tool.tool().prune_stats();
    assert_eq!(ps.invalidations, 1);
    assert_eq!(ps.conditional_failures, 1);

    // Launch 3: disjoint again. Sticky-conservative: the rebuilt (fully
    // instrumented) bitmap stays; no second invalidation.
    gpu.launch(&k, 2, 32, &[a, b], &mut tool).unwrap();
    let is = tool.instr_stats();
    assert_eq!(is.reinstrumented_kernels, 1);
    assert!(is.dispatched_mem > after_overlap);
    assert_eq!(tool.tool().prune_stats().invalidations, 1);
    assert_eq!(tool.tool_mut().races().len(), 0);
}

#[test]
fn static_racy_site_is_reported_at_launch_without_running_the_detector() {
    let mut gpu = gpu();
    let buf = gpu.alloc(8).unwrap();
    let k = uniform_store_kernel();
    let mut tool = Instrumented::new(Iguard::new(IguardConfig::with_prune()));

    // 1 thread: the uniform store cannot race; the gate holds the report.
    gpu.launch(&k, 1, 1, &[buf], &mut tool).unwrap();
    assert!(tool.tool().static_reports().is_empty());
    assert_eq!(tool.tool().prune_stats().static_racy_points, 1);

    // 32 threads: the pending site arms at launch entry.
    gpu.launch(&k, 1, 32, &[buf], &mut tool).unwrap();
    let reports = tool.tool().static_reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(&*reports[0].kernel, "uni");
    assert_eq!(reports[0].reason, RacyReason::UniformStore);
    assert_eq!(reports[0].line.as_deref(), Some("buf[3] = tid"));
    assert_eq!(tool.tool().prune_stats().static_races, 1);

    // Racy points stay instrumented (the callback still dispatched). Note
    // the dynamic detector reports nothing here: 32 *converged* lanes of
    // one warp storing the same word is exactly the subcase P4 ignores —
    // the static report covers the gap vs the ITS ground truth.
    assert!(tool.instr_stats().dispatched_mem > 0);
    assert_eq!(tool.instr_stats().skipped_mem, 0);
    assert!(tool.tool_mut().races().is_empty());

    // The site is deduplicated across further launches.
    gpu.launch(&k, 1, 32, &[buf], &mut tool).unwrap();
    assert_eq!(tool.tool().static_reports().len(), 1);
}

#[test]
fn pruning_composes_with_fault_injection_accounting() {
    // Inject report-channel faults while pruning: every degradation must
    // still be traceable to a counter after the drain.
    let mut cfg = IguardConfig::with_prune();
    cfg.faults = FaultConfig::disabled()
        .with_seed(23)
        .with_rate(FaultSite::ReportDrop, RATE_ONE / 4);
    let mut gpu = gpu();
    let a = gpu.alloc(64).unwrap();
    let b = gpu.alloc(64).unwrap();
    let c = gpu.alloc(4).unwrap();
    let mut tool = Instrumented::new(Iguard::new(cfg));
    gpu.launch(&stream_kernel(), 2, 32, &[a, b], &mut tool).unwrap();
    gpu.launch(&racy_kernel(), 1, 32, &[c], &mut tool).unwrap();
    let _ = tool.tool_mut().races();
    let deg = tool.tool().degradation();
    assert!(deg.fully_accounted(), "degradation not accounted: {deg:?}");
}

#[test]
fn default_config_keeps_pruning_off_and_name_keyed_caching() {
    let cfg = IguardConfig::default();
    assert_eq!(cfg.prune, PruneMode::Off);
    let tool = Iguard::new(cfg);
    assert_eq!(tool.prune_stats(), iguard::PruneStats::default());
    assert!(tool.static_reports().is_empty());
    // Off-mode detectors keep NVBit's name-keyed instrumentation cache.
    use nvbit_sim::Tool;
    assert!(!tool.body_sensitive());
}
